"""p-adic solution counting, Hensel lifting, lifting levels, and the
necessary-congruence-condition certifier."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cubiclab import (CubicPolynomial, delta, hensel_lift, homogenize,
                      lifting_level, local_factor, ncc_certify, rho, rho_star,
                      symmetrize)
from cubiclab import local
from cubiclab.budget import BudgetExceeded
from cubiclab.local import (HenselPreconditionError, local_report,
                            _first_root, _psi_rescale)
from cubiclab.nt import is_prime
from cubiclab.polynomials import (_eval_terms, _from_terms, _substitute,
                                  _variable_blocks)
from conftest import (CUBIC_UNISOLVENT, full_poly_strategy, random_poly,
                      residue_walk)
from oracles import (diagonal_zero_count, first_root, residue_grid,
                     split_zero_count, value_distribution)


X3_XY_1 = CubicPolynomial(2, cubic={(0, 0, 0): 1}, quad={(0, 1): 1}, const=1)


def scaled(phi, s):
    """s * phi, every stored entry multiplied by s."""
    return CubicPolynomial(
        phi.n, cubic={t: s * c for t, c in phi.cubic.items()},
        quad={t: s * c for t, c in phi.quad.items()},
        lin=[s * v for v in phi.lin], const=s * phi.const)


@pytest.fixture
def rescale_calls(monkeypatch):
    """The arguments of every _psi_rescale call, i.e. of every singular
    root that the stratified rho recursion rescales."""
    calls = []
    rescale = local._psi_rescale

    def spy(*args):
        calls.append(args)
        return rescale(*args)

    monkeypatch.setattr(local, "_psi_rescale", spy)
    return calls


class CountingArray(np.ndarray):
    """An int64 array that counts the np.remainder calls made on it, and
    passes the count on to every array computed from it."""
    remainders = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.remainder:
            CountingArray.remainders += 1
        plain = [np.asarray(a) if isinstance(a, CountingArray) else a
                 for a in inputs]
        return np.asarray(getattr(ufunc, method)(*plain, **kwargs)) \
            .view(CountingArray)


@st.composite
def wide_tables(draw):
    """(n, table): a constant term and terms of every degree 1..3 over
    n <= 3 variables, weights up to +-2**62."""
    n = draw(st.integers(1, 3))
    weight = st.integers(-2**62, 2**62) | st.integers(-9, 9)
    terms = [(draw(weight), ())]
    for deg in (1, 2, 3):
        for _ in range(draw(st.integers(1, 3))):
            idx = tuple(sorted(draw(st.lists(st.integers(0, n - 1),
                                             min_size=deg, max_size=deg))))
            terms.append((draw(weight), idx))
    return n, terms


def moduli():
    """q in [2, 2**31): small ones, the edges where a cubic monomial
    starts to need a reduction before its last factor (2**15, 2**15.5),
    and the largest the walk accepts."""
    return (st.integers(2, 40) | st.integers(2, 2**31 - 1)
            | st.sampled_from([2**15 - 1, 2**15 + 3, 46_337, 65_537,
                               2**31 - 1]))


@st.composite
def split_forms(draw):
    """(phi, blocks, free): phi = const + sum_k B_k(x_(U_k)) in n <= 5
    variables, B_0 a connected block in two variables, then one or two
    one-variable blocks, the rest free, the variables shuffled; cubic,
    quadratic, linear and constant entries up to 2**70 in size."""
    coeff = st.integers(-2**70, 2**70) | st.integers(-9, 9)
    unit = coeff.filter(bool)
    pair = CubicPolynomial(
        2, cubic={(0, 0, 0): draw(coeff), (0, 0, 1): draw(coeff),
                  (0, 1, 1): draw(unit), (1, 1, 1): draw(coeff)},
        quad={(0, 0): draw(coeff), (0, 1): draw(coeff), (1, 1): draw(coeff)},
        lin=[draw(coeff), draw(coeff)])
    singles = [CubicPolynomial(1, cubic={(0, 0, 0): draw(unit)},
                               quad={(0, 0): draw(coeff)}, lin=[draw(coeff)])
               for _ in range(draw(st.integers(1, 2)))]
    blocks = [pair, *singles]
    free = draw(st.integers(0, 3 - len(singles)))
    n = 2 + len(singles) + free
    at = draw(st.permutations(range(n)))
    cubic, quad, lin, first = {}, {}, [0] * n, 0
    for block in blocks:
        to = at[first:first + block.n]
        first += block.n
        cubic |= {tuple(sorted(to[i] for i in t)): c
                  for t, c in block.cubic.items()}
        quad |= {tuple(sorted(to[i] for i in t)): c
                 for t, c in block.quad.items()}
        for i, c in enumerate(block.lin):
            lin[to[i]] = c
    phi = CubicPolynomial(n, cubic=cubic, quad=quad, lin=lin,
                          const=draw(coeff))
    return phi, blocks, free


def own_blocks(terms) -> list:
    """The variable blocks of a table, each on its own variables, as rho
    hands them to _block_zeros."""
    return [local._on_own_variables(b) for b in _variable_blocks(terms)]


def brute_rho(phi, p, k):
    q = p**k
    return sum(1 for x in product(range(q), repeat=phi.n)
               if phi.evaluate(x) % q == 0)


# -- residue walk -----------------------------------------------------------

class TestResidueGrids:
    def test_grid_matches_direct_evaluation(self):
        # chunks of whole rows, of part of a row and of the whole grid
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(1, 3)
            phi = random_poly(rng, n)
            q = rng.choice([2, 3, 4, 5, 7, 9])
            for points in (1, 5, q, q**n):
                walk = residue_walk(phi, q, points)
                assert [x for x, _, _ in walk] \
                    == list(product(range(q), repeat=n))
                for x, v, grad in walk:
                    assert v == phi.evaluate(list(x)) % q
                    assert grad == [g % q for g in phi.gradient(list(x))]

    def test_value_distribution_sums(self, fermat):
        cnt = value_distribution(fermat, 7)
        assert cnt.sum() == 7**3
        walk = residue_walk(fermat, 7, 10)
        assert cnt.tolist() == np.bincount([v for _, v, _ in walk],
                                           minlength=7).tolist()

    def test_wide_prime_refused_before_walking(self, monkeypatch):
        # the budget admits all p points of x^3 - 2 mod p, but p^2 passes
        # int64: rho and rho_star refuse before _walk yields a point
        p = 2**31 + 11
        assert is_prime(p)
        phi = CubicPolynomial(1, cubic={(0, 0, 0): 1}, const=-2)

        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(local, "_walk", walk)
        for count in (rho, rho_star):
            with pytest.raises(BudgetExceeded, match="too large"):
                count(phi, p, 1, budget=p + 1)
        with pytest.raises(BudgetExceeded, match="too large"):
            next(local._residues([phi.terms()], 1, 2**31, 1))

    @settings(max_examples=150, deadline=None)
    @given(wide_tables(), moduli(), st.randoms(use_true_random=False))
    def test_values_match_python_ints(self, table, q, rng):
        # the walk's int64 values against exact Python ints % q: every
        # point of small grids, the first chunk of large ones (at q near
        # 2**31 its points are small), and the unreduced path on random
        # residues with the worst case q - 1 in every coordinate
        n, terms = table
        for first, shape, x, (v,) in local._residues([terms], n, q, 64):
            coords = [np.broadcast_to(c, shape).ravel().tolist() for c in x]
            assert v.ravel().tolist() == [_eval_terms(terms, pt) % q
                                          for pt in zip(*coords)]
            if q**n > 512:
                break
        points = [[rng.randrange(q) for _ in range(n)] for _ in range(15)]
        points += [[q - 1] * n, [0] * n]
        got = _eval_terms(terms, [np.array(c, dtype=np.int64)
                                  for c in zip(*points)], q)
        assert got.tolist() == [_eval_terms(terms, pt) % q for pt in points]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                   25, 27, 32, 49, 64])
    def test_one_reduction_per_table(self, q, wall14, watson5):
        # at every modulus the benchmark walks, the largest corpus tables
        # are reduced mod q once, at the end
        for phi in (wall14, watson5):
            # x_1 .. x_(n-2) at q - 1, the last two over [0, q)^2
            x = [np.full((1, 1), q - 1)] * (phi.n - 2) + [
                np.arange(q)[:, None], np.arange(q)[None]]
            x = [c.view(CountingArray) for c in x]
            CountingArray.remainders = 0
            v = _eval_terms(phi.terms(), x, q)
            assert CountingArray.remainders == 1
            assert v.ravel().tolist() == [
                phi.evaluate([q - 1] * (phi.n - 2) + [a, b]) % q
                for a in range(q) for b in range(q)]

    @pytest.mark.parametrize("q", [2**15 + 3, 2**31 - 1])
    def test_wide_modulus_reduces_mid_term(self, q):
        # past q = 2**15.5 a cubic monomial is reduced before its last
        # factor, and the 20 cubic monomials of a dense 3-variable table sum
        # past 2**63 unless the total is reduced on the way
        rng = random.Random(q)
        terms = [(q - 1 - i, idx) for i, idx in
                 enumerate(combinations_with_replacement(range(3), 3))]
        points = [[rng.randrange(q) for _ in range(3)] for _ in range(40)]
        points.append([q - 1] * 3)
        x = [np.array(c).view(CountingArray) for c in zip(*points)]
        CountingArray.remainders = 0
        v = _eval_terms(terms, x, q)
        assert CountingArray.remainders > 1
        assert v.tolist() == [_eval_terms(terms, pt) % q for pt in points]


# -- rho / rho* -------------------------------------------------------------

class TestRho:
    def test_single_cube(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]
        assert rho(phi, 5, 1) == 1

    def test_stratification_cap(self):
        # x1^2 x2 + 7 x2 x3 x4 + 7 x4 x5 x6, one block of six variables:
        # the 7^6 grid mod 7 fits the budget but 49^6 does not, and its 7^5
        # singular roots mod 7 (every point with x1 = 0) are more than the
        # stratification rescales
        phi = symmetrize(6, {(0, 0, 1): 1, (1, 2, 3): 7, (3, 4, 5): 7})[0]
        with pytest.raises(BudgetExceeded,
                           match="16807 singular roots mod 7 exceed "
                                 "stratification cap 4096"):
            rho(phi, 7, 2, budget=200_000)

    def test_fermat_mod_two(self, fermat):
        assert rho(fermat, 2, 1) == 4

    def test_watson_mod_eight_positive(self, watson5):
        assert rho(watson5, 2, 3) == brute_rho(watson5, 2, 3) > 0

    @settings(max_examples=60, deadline=None)
    @given(full_poly_strategy(max_n=3), st.integers(1, 2), st.data(),
           st.sampled_from([2, 3, 5]), st.integers(1, 4))
    def test_free_variables_match_the_grid(self, phi, free, data, p, k):
        # phi times p^0..p^2 on some of n + free variables, the others in
        # no term, against the whole grid of all of them
        n = phi.n + free
        at = data.draw(st.permutations(range(n)))
        U = [[int(j == at[i]) for j in range(n)] for i in range(phi.n)]
        wide = scaled(_from_terms(n, _substitute(phi.terms(), U)),
                      data.draw(st.sampled_from([1, p, p * p])))
        k = min(k, max(j for j in range(1, 5) if p ** (j * n) <= 10**5))
        assert rho(wide, p, k) == value_distribution(wide, p**k)[0]

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(15):
            n = rng.randint(1, 3)
            phi = random_poly(rng, n)
            p, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
            assert rho(phi, p, k) == brute_rho(phi, p, k)

    def test_stratified_matches_brute(self):
        # force the stratified path with a tiny budget and compare exactly
        rng = random.Random(2)
        for _ in range(10):
            phi = random_poly(rng, 2)
            for p, k in ((3, 2), (2, 3), (5, 2)):
                direct = rho(phi, p, k)
                strat = rho(phi, p, k, budget=p**2)  # level-1 grid only
                assert strat == direct

    def test_growth_bound(self, fermat):
        for p in (2, 3, 5):
            for k in (1, 2):
                assert rho(fermat, p, k + 1) <= p**3 * rho(fermat, p, k)

    def test_content_at_least_k(self):
        # every weight of 9 (x^3 + 2 x y + 1) is divisible by 3^2
        phi = scaled(X3_XY_1, 9)
        assert rho(phi, 3, 2) == brute_rho(phi, 3, 2) == 3**4
        assert rho(phi, 3, 1) == 3**2

    def test_content_below_k(self):
        # rho(3 psi, 3^k) = 3^n rho(psi, 3^(k-1))
        phi = scaled(X3_XY_1, 3)
        for k in (2, 3):
            assert rho(phi, 3, k) == brute_rho(phi, 3, k) \
                == 3**2 * brute_rho(X3_XY_1, 3, k - 1)

    def test_zero_polynomial(self):
        zero = CubicPolynomial(3)
        for p, k in ((2, 1), (2, 3), (3, 2)):
            assert rho(zero, p, k) == brute_rho(zero, p, k) == p ** (3 * k)

    def test_content_of_weights_not_entries(self, watson5, rescale_calls):
        # Watson5's stored entries 4 and 3 are prime to 3, yet every weight
        # (entry times permutation count) is a multiple of 6, so rho mod
        # 3^3 counts a 9^5 grid: no stratification, which would rescale.
        assert any(c % 3 for c in watson5.cubic.values())
        assert all(w % 6 == 0 for w, _ in watson5.terms())
        phi = CubicPolynomial(2, cubic={(0, 1, 1): 1}, quad={(0, 1): 3},
                              lin=(3, 0))
        for k in (1, 2, 3):
            # a budget of exactly the reduced grid, 3^(k-1) squared
            budget = 3 ** (2 * k - 2)
            assert rho(phi, 3, k, budget) == brute_rho(phi, 3, k)
        assert rho(watson5, 3, 2) == brute_rho(watson5, 3, 2)
        assert rho(watson5, 3, 3) == 1_476_225
        assert not rescale_calls

    def test_reduced_grid_over_budget_stratifies(self, fermat, rescale_calls):
        # 2 fermat has content 2, so rho counts fermat at level 3, whose
        # 8^3 grid exceeds a budget of 8: the content-free table is
        # stratified, and no table with content reaches the rescaling
        phi = scaled(fermat, 2)
        assert rho(phi, 2, 4, budget=8) == brute_rho(phi, 2, 4) == 896
        assert rescale_calls
        assert all(any(w % 2 for w, _ in terms)
                   for terms, _, _ in rescale_calls)

    @pytest.mark.parametrize("name,k,budget,count,rescales", [
        ("fermat", 8, 100, 180_224, 2), ("watson5", 6, 40_000, 31_457_280, 4)])
    def test_stratification_reduces_content_first(
            self, request, rescale_calls, name, k, budget, count, rescales):
        # each rescaled table psi_a carries content again; stratifying it
        # unreduced made every residue a singular root (641 and 512 rescales)
        phi = request.getfixturevalue(name)
        assert rho(phi, 2, k, budget=budget) == count
        assert 0 < len(rescale_calls) <= rescales
        assert all(any(w % 2 for w, _ in terms)
                   for terms, _, _ in rescale_calls)

    def test_deep_stratification_matches_grid(self, fermat, rescale_calls):
        # 2 x^3 + x^2 at the origin mod 2 rescales to 8 y^3 + 2 y^2, content
        # 1, so each step lowers the level by 2: rho(2^20) stratifies ten
        # steps deep under a budget of 2, and the grid of 2^20 agrees
        phi = CubicPolynomial(1, cubic={(0, 0, 0): 2}, quad={(0, 0): 1})
        assert rho(phi, 2, 20, budget=2) \
            == np.count_nonzero(residue_grid(phi, 2**20) == 0) == 2**10
        assert len(rescale_calls) == 10
        assert rho(fermat, 3, 4, budget=27) \
            == np.count_nonzero(residue_grid(fermat, 81) == 0)

    def test_stratification_past_the_stack_is_refused(self, fermat):
        # rho(fermat, 3^k) = 3^(2k) (2m + 1) for k = 3m and 3m + 1; each
        # stratification step lowers the level by a few, so 3^1000 nests
        # within the interpreter's stack and 3^2000 does not
        assert rho(fermat, 3, 1000, budget=20_000) == 667 * 3**2000
        with pytest.raises(BudgetExceeded, match="nests deeper than the "
                                                 "interpreter's stack"):
            rho(fermat, 3, 2000, budget=20_000)

    @pytest.mark.parametrize("k", [-1, -2])
    def test_negative_level_refused(self, watson5, k):
        for count in (rho, rho_star, local_factor):
            with pytest.raises(ValueError, match="k must be >= 0"):
                count(watson5, 3, k)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 2),
           st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 3),
           st.sampled_from([None, 9, 10**6]))
    def test_content_reduction_matches_brute(self, rng, n, p, k, c, budget):
        phi = scaled(random_poly(rng, n), p**c)
        assert rho(phi, p, k, budget=budget) == brute_rho(phi, p, k)

    @settings(max_examples=60, deadline=None)
    @given(full_poly_strategy(), st.sampled_from([2, 3, 5]),
           st.randoms(use_true_random=False))
    def test_psi_rescale_is_substitution(self, poly, p, rng):
        # shift the constant so that a random a is a root mod p
        a = [rng.randrange(p) for _ in range(poly.n)]
        const = poly.const - poly.evaluate(a) % p or p
        phi = CubicPolynomial(poly.n, poly.cubic, poly.quad, poly.lin, const)
        psi = _psi_rescale(phi.terms(), p, a)
        for y in product(CUBIC_UNISOLVENT, repeat=phi.n):
            x = [ai + p * yi for ai, yi in zip(a, y)]
            assert p * _eval_terms(psi, y) == phi.evaluate(x)
        off = CubicPolynomial(poly.n, poly.cubic, poly.quad, poly.lin,
                              const + 1)
        with pytest.raises(ValueError):
            _psi_rescale(off.terms(), p, a)

    def test_rho_star_single_cube(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]
        assert rho_star(phi, 5, 1) == 0

    def test_rho_star_fermat_mod_five(self, fermat):
        assert rho_star(fermat, 5, 1) == 24

    def test_rho_star_le_rho(self):
        rng = random.Random(3)
        for _ in range(15):
            phi = random_poly(rng, rng.randint(1, 3))
            p, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
            assert rho_star(phi, p, k) <= rho(phi, p, k)

    def test_budget_guard(self, watson5):
        with pytest.raises(BudgetExceeded):
            rho_star(watson5, 3, 3, budget=1000)


def one_variable(*coeffs):
    """The table of sum_d coeffs[d] x^d in one variable."""
    return [(c, (0,) * d) for d, c in enumerate(coeffs) if c]


def brute_table_rho(terms, n, p):
    return sum(1 for x in product(range(p), repeat=n)
               if _eval_terms(terms, x) % p == 0)


class TestSliceKernel:
    """rho(p) as the roots of the slices phi(t, y) in t, summed over y."""

    @settings(max_examples=120, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4),
           st.sampled_from([2, 3, 5, 7]), st.booleans())
    def test_matches_brute(self, rng, n, p, degenerate):
        # force_degenerate_leading drops the x_1^3 term, and half the time
        # every cubic term in x_1 and x_1^2: slices of degree <= 2 and <= 1
        phi = random_poly(rng, n, force_degenerate_leading=degenerate)
        count = brute_rho(phi, p, 1)
        assert local._slice_roots(phi.terms(), n, p, 10**6) == count
        assert rho(phi, p, 1) == count

    @pytest.mark.parametrize("name", ["fermat", "selmer4", "triple_product",
                                      "watson5", "diag5m2"])
    def test_primes_dividing_delta(self, request, name):
        phi = request.getfixturevalue(name)
        d = delta(homogenize(phi)[0]).value
        primes = [p for p in (2, 3, 5, 7) if d % p == 0]
        assert primes
        for p in primes:
            assert rho(phi, p, 1) == brute_rho(phi, p, 1)

    @pytest.mark.parametrize("coeffs,p,roots", [
        ((0, -1, 0, 1), 7, 3),        # t^3 - t: 0, 1, -1
        ((0, -1, 0, 1), 3, 3),        # t^3 - t = t^p - t: every t
        ((-2, 5, -4, 1), 7, 2),       # (t - 1)^2 (t - 2): a double root
        ((-1, 3, -3, 1), 5, 1),       # (t - 1)^3: a triple root
        ((-1, -1, 0, 1), 3, 0),       # t^3 - t - 1: irreducible mod 3
        ((0, 1, 0, 1), 3, 1),         # t (t^2 + 1): irreducible quadratic
        ((-1, 0, 1, 7), 7, 2),        # degree drops to t^2 - 1
        ((4, -4, 1, 5), 5, 1),        # degree drops to (t - 2)^2
        ((1, 1, 0, 1), 2, 0),         # t^3 + t + 1: irreducible mod 2
        ((1, 2, 3, 3), 3, 1),         # degree drops to 2 t + 1
        ((1, 2, 2, 2), 2, 0),         # degree drops to the constant 1
        ((0, 3, 0, 3), 3, 3),         # vanishes identically mod 3
    ])
    def test_hand_built_slices(self, coeffs, p, roots):
        terms = one_variable(*coeffs)
        assert local._slice_roots(terms, 1, p, 1) == roots \
            == brute_table_rho(terms, 1, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_slice_degree_varies_with_prefix(self, p):
        # index 0 is t, index 1 is y
        tables = [
            # p t^3 + (y - 1)(t^2 + y t + 1): degree 2 but at y = 1, where
            # the slice vanishes identically
            [(p, (0, 0, 0)), (1, (0, 0, 1)), (-1, (0, 0)), (1, (0, 1, 1)),
             (-1, (0, 1)), (1, (1,)), (-1, ())],
            # t^3 + y t^2 - y^2 t + y^3 - 1: always a cubic
            [(1, (0, 0, 0)), (1, (0, 0, 1)), (-1, (0, 1, 1)), (1, (1, 1, 1)),
             (-1, ())],
            # 2 y t + y^3 - 1: linear or constant, zero at p = 2, y = 1
            [(2, (0, 1)), (1, (1, 1, 1)), (-1, ())],
        ]
        for terms in tables:
            assert local._slice_roots(terms, 2, p, p) \
                == brute_table_rho(terms, 2, p)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3),
           st.sampled_from([2, 3, 5, 7, 11, 13]), st.booleans())
    def test_evaluation_matches_frobenius(self, rng, n, p, drop):
        # the same table's distinct slice stacks counted by evaluation
        # (_WALK_BLOCK large) and by _frobenius_roots (_WALK_BLOCK 1, so
        # every chunk is one prefix with more than one slice-times-p); with
        # `drop` the t^3 weights, and half of the t^2 ones, are multiples
        # of p, so slice degrees drop mod p and vary with the prefix
        terms = []
        for deg in range(4):
            for idx in combinations_with_replacement(range(n), deg):
                w = rng.randint(-6, 6)
                if drop and idx.count(0) >= 2 + rng.randint(0, 1):
                    w *= p
                terms.append((w, idx))
        calls = []
        frobenius = local._frobenius_roots

        def spy(f, p):
            calls.append(f.shape[1])
            return frobenius(f, p)

        with mock.patch.object(local, "_frobenius_roots", spy):
            with mock.patch.object(local, "_WALK_BLOCK", 2**20):
                evaluated = local._slice_roots(terms, n, p, p**n)
            assert calls == []
            with mock.patch.object(local, "_WALK_BLOCK", 1):
                solved = local._slice_roots(terms, n, p, p**n)
        assert evaluated == solved == brute_table_rho(terms, n, p)

    def test_frobenius_only_past_the_block(self, watson5, fermat):
        # slices x p within _WALK_BLOCK are evaluated, as for every corpus
        # rho(p) below; a dense form's 97^2 prefixes leave thousands of
        # distinct slices in a block, so only there does _frobenius_roots run
        calls = []
        frobenius = local._frobenius_roots

        def spy(f, p):
            calls.append(f.shape[1] * p)
            return frobenius(f, p)

        with mock.patch.object(local, "_frobenius_roots", spy):
            for phi, p in ((fermat, 2), (fermat, 3), (fermat, 59),
                           (watson5, 2), (watson5, 7), (watson5, 23)):
                rho(phi, p, 1)
            assert calls == []
            dense = random_poly(random.Random(4), 3)
            count = rho(dense, 97, 1)
        assert calls and all(c > local._WALK_BLOCK for c in calls)
        assert count == np.count_nonzero(residue_grid(dense, 97) == 0)

    def test_budget_counts_prefixes(self):
        phi = random_poly(random.Random(4), 4)
        assert rho(phi, 7, 1, budget=7**3) == brute_rho(phi, 7, 1)
        with pytest.raises(BudgetExceeded, match="slice prefixes mod 7"):
            rho(phi, 7, 1, budget=7**3 - 1)

    def test_level_one_beyond_the_grid(self, watson5):
        # the 23^5 grid exceeds the default budget; its 23^4 prefixes do not.
        # Reference: the grid mod 23 counted one value of x_1 at a time
        p, axes = 23, list(np.ix_(*[np.arange(23)] * 4))
        assert p**5 > 6_000_000
        count = sum(int(np.count_nonzero(np.broadcast_to(
            _eval_terms(watson5.terms(), [np.int64(t)] + axes, p),
            (p,) * 4) == 0)) for t in range(p))
        assert rho(watson5, p, 1) == count == 279_335

    def test_primes_past_the_kernel_use_the_grid(self):
        # x^3 - 2 has one root mod p = 2 mod 3; p >= 2**19 counts the grid
        phi = CubicPolynomial(1, cubic={(0, 0, 0): 1}, const=-2)
        assert local._SLICE_MAX_P < 524_309
        assert rho(phi, 524_309, 1) == rho(phi, 5, 1) == 1

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
    def test_non_prime_refused(self, fermat, p):
        for call in (lambda: rho(fermat, p, 1), lambda: rho_star(fermat, p, 1),
                     lambda: local_factor(fermat, p, 1),
                     lambda: local_report(fermat, p, 1)):
            with pytest.raises(ValueError, match="p must be a prime"):
                call()


class TestBlockKernel:
    @settings(max_examples=40, deadline=None)
    @given(split_forms(), st.sampled_from([2, 3, 5, 7]), st.integers(1, 3))
    def test_matches_split_oracle(self, form, p, k):
        phi, blocks, free = form
        zeros = split_zero_count(blocks, phi.const, free, p**k)
        assert rho(phi, p, k) == zeros
        if p ** (k * phi.n) <= 4096:  # the oracle against the whole grid
            assert zeros == value_distribution(phi, p**k)[0]

    @pytest.mark.parametrize("u", [15, 16])
    def test_int64_edge(self, u):
        # mod q = 16 the block counts of sum x_i^3 in u variables reach
        # q^u: 2**60 fits int64, 2**64 does not, and there rho stratifies at
        # p = 2, whose rescaled tables come back to the blocks mod 2.  Four
        # free variables take the count past 2**63 on both sides.
        free, taken = 4, []
        phi = CubicPolynomial(u + free, cubic={(i, i, i): 1 for i in range(u)})
        kernel = local._block_zeros

        def spy(blocks, q, cap):
            zeros = kernel(blocks, q, cap)
            taken.append((q, zeros is not None))
            return zeros

        with mock.patch.object(local, "_block_zeros", spy):
            count = rho(phi, 2, 4)
        assert taken[0] == (16, u == 15)
        assert count == diagonal_zero_count([1] * u, 0, 16) * 16**free
        assert count > 2**63

    def test_wide_modulus_refused_before_allocating(self):
        # a budget that admits x^3 + y^3 - 2's blocks mod p > 2**31 leaves
        # them to the walk's refusal, with no histogram of p counts built
        p = 2**31 + 11
        phi = CubicPolynomial(2, cubic={(0, 0, 0): 1, (1, 1, 1): 1}, const=-2)
        assert local._block_zeros(own_blocks(phi.terms()), p, p**3) is None
        with pytest.raises(BudgetExceeded, match="too large"):
            rho(phi, p, 1, budget=p**3)

    def test_cost_rule(self, fermat, watson5):
        # fermat mod 9: three blocks of 9 points, one convolution of 81
        # products and a last product of 9
        blocks, cost = own_blocks(fermat.terms()), 3 * 9 + 81 + 9
        assert local._block_zeros(blocks, 9, cost) == brute_rho(fermat, 3, 2)
        assert local._block_zeros(blocks, 9, cost - 1) is None
        assert local._block_zeros(own_blocks(watson5.terms()), 2,
                                  10**6) is None
        assert rho(fermat, 3, 2, cost) == rho(fermat, 3, 2, cost - 1) \
            == brute_rho(fermat, 3, 2)

    def test_crossover(self, fermat):
        # 3^6 takes 729^2 + 729 products, under 2**20; 2^10 takes
        # 1024^2 + 1024, over it, and so does 3^8 at any budget, where
        # stratification is as fast
        blocks = own_blocks(fermat.terms())
        assert local._block_zeros(blocks, 3**6, 10**9) is not None
        for q in (2**10, 3**8):
            assert local._block_zeros(blocks, q, 10**9) is None
        assert rho(fermat, 2, 10, 10**9) == \
            diagonal_zero_count([1, 1, 1], 0, 2**10)


def counted(phi, p, k, budget=None):
    """rho(phi, p^k), or its refusal, and the (tables, variables, modulus)
    of every _residues walk that counted it, which names the kernel: the
    grid walks phi's one table mod q, a stratification step phi and its n
    derivatives mod p, the block kernel one table of a block's own
    variables and the slice kernel three slice tables of n - 1 variables
    mod p."""
    walks, residues = [], local._residues

    def spy(tables, n, q, points):
        walks.append((len(tables), n, q))
        return residues(tables, n, q, points)

    with mock.patch.object(local, "_residues", spy):
        try:
            return rho(phi, p, k, budget), walks
        except BudgetExceeded as refusal:
            return str(refusal), walks


class TestKernelOrder:
    """The table, p and k pick rho's kernel; the budget only refuses one."""

    @pytest.mark.parametrize("name,p,k", [
        ("watson5", 2, 6), ("watson5", 3, 4), ("watson5", 5, 3),
        ("triple_product", 7, 3), ("triple_product", 2, 8),
        ("triple_product", 3, 5), ("fermat", 2, 10), ("fermat", 3, 6),
        ("fermat", 7, 4), ("selmer4", 3, 5), ("selmer4", 2, 9),
        ("diag5m2", 3, 5), ("diag5m2", 2, 9), ("wall14", 2, 2)])
    def test_raised_budget_runs_the_same_kernels(self, request, name, p, k):
        # a budget of 10^8 admits grids and block walks of up to 10^8
        # points here; the walks must still be those of the default
        phi = request.getfixturevalue(name)
        assert counted(phi, p, k, 10**8) == counted(phi, p, k)

    @settings(max_examples=40, deadline=None)
    @given(full_poly_strategy() | split_forms().map(lambda form: form[0])
           .filter(lambda phi: phi.n <= 4),
           st.sampled_from([2, 3, 5]), st.integers(1, 8))
    def test_raised_budget_on_random_forms(self, phi, p, k):
        k = min(k, max(j for j in range(1, 9) if p ** (j * phi.n) <= 10**8))
        q = p**k
        count, default = counted(phi, p, k)
        assert counted(phi, p, k, 10**8) == (count, default)
        if q**phi.n <= 10**4:
            assert count == brute_rho(phi, p, k)
        elif q**phi.n <= 10**5:  # the whole-grid oracle, faster than brute
            assert count == value_distribution(phi, q)[0]

    def test_grid_up_to_the_walk_bound(self):
        # x^3 + x mod 2^15 is walked whole; mod 2^16 a stratification step
        # walks 2 points first and rescales the singular root 1
        phi = CubicPolynomial(1, cubic={(0, 0, 0): 1}, lin=[1])
        assert local._MAX_WALK == 2**15
        for k, first in ((15, (1, 1, 2**15)), (16, (2, 1, 2))):
            count, made = counted(phi, 2, k)
            assert made[0] == first
            assert count == np.count_nonzero(residue_grid(phi, 2**k) == 0)

    def test_blocks_up_to_the_walk_bound(self, triple_product):
        # 6 x1 x2 x3 - x4^3 walks 27^3 + 27 = 19,710 block points mod 3^3,
        # within the bound, and 32^3 + 32 = 32,800 mod 2^5, past it, where a
        # stratification step walks 2^4 points first
        for p, k, first in ((3, 3, (1, 3, 27)), (2, 5, (5, 4, 2))):
            count, made = counted(triple_product, p, k)
            assert made[0] == first
            assert count == value_distribution(triple_product, p**k)[0]

    def test_blocks_at_level_one_past_the_walk_bound(self):
        # two 2-variable blocks mod 257 walk 2 * 257^2 points, past the
        # bound; at level 1 the blocks still count them, not the 257^3
        # slice prefixes a budget of 10^8 would admit
        blocks = [CubicPolynomial(2, cubic={(0, 0, 0): 1, (0, 1, 1): 1},
                                  lin=[1, 0]),
                  CubicPolynomial(2, cubic={(0, 0, 1): 2, (1, 1, 1): 1})]
        phi = CubicPolynomial(4, cubic={(0, 0, 0): 1, (0, 1, 1): 1,
                                        (2, 2, 3): 2, (3, 3, 3): 1},
                              lin=[1, 0, 0, 0], const=5)
        count, made = counted(phi, 257, 1, 10**8)
        assert 2 * 257**2 > local._MAX_WALK
        assert {n for _, n, _ in made} == {2}
        assert count == split_zero_count(blocks, 5, 0, 257)

    @pytest.mark.parametrize("k", [10, 11])
    def test_free_variables_are_not_walked(self, k):
        # x^3 + y^3 in ten variables: the eight in no term multiply
        # rho(x^3 + y^3, 3^k) by 3^(8k), and no walk takes more variables
        # than x and y
        phi = CubicPolynomial(10, cubic={(0, 0, 0): 1, (1, 1, 1): 1})
        q = 3**k
        count, made = counted(phi, 3, k)
        assert max(n for _, n, _ in made) == 2
        cubes = np.bincount(np.arange(q) ** 3 % q, minlength=q)
        assert count == int(cubes @ cubes[-np.arange(q) % q]) * q**8

    def test_refused_stratification_falls_back_to_the_blocks(self):
        # A = x1^3 + 6 x1 x2 x3 + 6 x3 x4 x5 twice, on x1..x5 and x6..x10,
        # mod 3^2 walks 2 * 9^5 block points, past the bound; it is
        # x1 + x6 mod 3 with a gradient of 0 mod 3, so its stratification
        # finds 3^9 singular roots mod 3, past _MAX_SINGULAR, and the blocks
        # count it after all, walking the one distinct block once
        block = {(0, 0, 0): 1, (0, 1, 2): 1, (2, 3, 4): 1}
        A = CubicPolynomial(5, cubic=block)
        phi = CubicPolynomial(10, cubic=block | {
            tuple(i + 5 for i in idx): c for idx, c in block.items()})
        count, made = counted(phi, 3, 2)
        assert made == [(11, 10, 3), (1, 5, 9)]
        h = value_distribution(A, 9)
        assert count == int(h @ h[-np.arange(9) % 9])

    def test_singular_cap_falls_back_to_the_grid(self, monkeypatch):
        # 3 x^2 y mod 2^8: two of its three roots mod 2 are singular, past a
        # cap of 1, so its 2^16-point grid counts it where the budget admits
        # that, and the cap's refusal stands where it does not
        phi = CubicPolynomial(2, cubic={(0, 0, 1): 1})
        monkeypatch.setattr(local, "_MAX_SINGULAR", 1)
        count, made = counted(phi, 2, 8)
        assert made == [(3, 2, 2), (1, 2, 256)]
        assert count == np.count_nonzero(residue_grid(phi, 256) == 0)
        with pytest.raises(BudgetExceeded, match="2 singular roots mod 2 "
                                                 "exceed stratification cap 1"):
            rho(phi, 2, 8, budget=2**16 - 1)


class TestLocalFactor:
    def test_single_cube(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]
        assert local_factor(phi, 5, 1) == 1

    def test_fermat_mod_two(self, fermat):
        assert local_factor(fermat, 2, 1) == Fraction(4, 4) == 1


# -- Hensel lifting ---------------------------------------------------------

class TestHensel:
    def test_unit_root(self):
        phi = symmetrize(1, {(0, 0, 0): 1}, const=-1)[0]
        y = hensel_lift(phi, 5, [1], 1, 3)
        assert y[0] % 5 == 1
        assert phi.evaluate(y) % 125 == 0

    def test_precondition_gradient(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]  # root 0 has zero gradient
        with pytest.raises(HenselPreconditionError):
            hensel_lift(phi, 5, [0], 1, 3)

    def test_precondition_value(self, fermat):
        with pytest.raises(HenselPreconditionError):
            hensel_lift(fermat, 7, [1, 1, 0], 1, 4)  # phi = 2, not a root

    def test_fermat_lift_mod_seven_fourth(self, fermat):
        y = hensel_lift(fermat, 7, [0, 1, 1], 1, 4)
        assert fermat.evaluate(y) % 7**4 == 0
        assert [v % 7 for v in y] == [0, 1, 1]

    def test_randomized_round_trip(self, corpus):
        rng = random.Random(4)
        lifted = 0
        polys = list(corpus.values())
        while lifted < 60:
            phi = rng.choice(polys[:1] + polys[2:])  # skip the n=5 grid cost
            p = rng.choice([3, 5, 7])
            root = None
            for x in product(range(p), repeat=phi.n):
                if phi.evaluate(x) % p == 0 and \
                        any(g % p for g in phi.gradient(list(x))):
                    root = list(x)
                    break
            if root is None:
                continue
            target = rng.randint(2, 5)
            y = hensel_lift(phi, p, root, 1, target)
            assert phi.evaluate(y) % p**target == 0
            assert [v % p for v in y] == root
            lifted += 1


class TestLiftingLevel:
    def test_homogeneous(self):
        assert lifting_level("homogeneous", 0, 10) == 3
        assert lifting_level("homogeneous", 11, 20) == 6

    def test_inhomogeneous(self):
        assert lifting_level("inhomogeneous", 0, 15) == 98
        assert lifting_level("inhomogeneous", 1, 15) == 146

    def test_ncc_level_raised_for_p_dividing_delta(self):
        # n >= 15 has an inhomogeneous ell; p | Delta lifts k(p) to 2 ell - 1
        assert local.ncc_levels(15, 3, 100, 1) == (146, 291)
        assert local.ncc_levels(15, 3, 100, 0) == (98, 4)

    def test_range_guards(self):
        with pytest.raises(ValueError):
            lifting_level("homogeneous", 0, 9)
        with pytest.raises(ValueError):
            lifting_level("inhomogeneous", 0, 14)
        with pytest.raises(ValueError):
            lifting_level("mixed", 0, 20)


# -- NCC --------------------------------------------------------------------

class TestNCC:
    def test_forced_violation(self):
        # 2 x^3 + 1 is odd for every integer x: insoluble mod 2
        phi = symmetrize(1, {(0, 0, 0): 2}, const=1)[0]
        cert = ncc_certify(phi, 3)
        assert cert.status == "violation"
        assert cert.violation == (2, 1)

    def test_watson_certified(self, watson5):
        cert = ncc_certify(watson5, 20)
        assert cert.status == "certified"
        assert {c.p for c in cert.primes} == {2, 3, 5, 7, 11, 13, 17, 19}
        for c in cert.primes:
            q = c.p ** c.k
            assert watson5.evaluate(list(c.witness)) % q == 0

    def test_everywhere_soluble_diagonal(self):
        phi = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1},
                         const=-2)[0]
        assert ncc_certify(phi, 10).status == "certified"

    def test_degenerate_reported(self):
        # x^3 in two variables: the homogenization is degenerate, so no
        # finite threshold scheme applies
        phi = CubicPolynomial(2, cubic={(0, 0, 0): 1})
        assert ncc_certify(phi, 10).status == "degenerate"

    def test_sparse_forms_not_degenerate(self, diag5m2, wall14):
        # their homogenised Delta is 2 and 2^4 3^23, not 0
        cert = ncc_certify(diag5m2, 7)
        assert cert.status == "certified" and cert.delta_phi.value == 2
        cert = ncc_certify(wall14, 3)
        assert cert.status == "violation" and cert.violation == (2, 1)

    def test_over_budget_level_raises(self, wall14):
        # wall14 is odd everywhere: proving it has no root mod 2 needs all
        # 2^14 points, so a budget of 10,000 raises instead of reporting a
        # violation or certifying from part of the grid
        with pytest.raises(BudgetExceeded,
                           match="residue grid mod 2 needs 16384 points, "
                                 "budget is 10000"):
            ncc_certify(wall14, 3, budget=10_000)

    def test_violation_at_lower_level_than_reachable(self, wall14):
        # k(2) = 2 at P0 = 5: the 4^14 grid is out of reach, but the whole
        # 2^14 grid has no root, which proves the violation (2, 1)
        cert = ncc_certify(wall14, 5)
        assert cert.status == "violation" and cert.violation == (2, 1)
        assert cert.primes == ()

    def test_lower_levels_with_roots_keep_the_error(self, wall14):
        # 4 (x1^3 + ... + x10^3) + 2 has roots mod 2 but none mod 4, and
        # the 4^10 grid is over budget: nothing is proven, p^k's error stands
        phi = CubicPolynomial(10, cubic={(i, i, i): 4 for i in range(10)},
                              const=2)
        with pytest.raises(BudgetExceeded, match="residue grid mod 4 "):
            ncc_certify(phi, 5, budget=10_000)
        # and so it does when the rootless lower level is itself too large
        with pytest.raises(BudgetExceeded, match="residue grid mod 4 "):
            ncc_certify(wall14, 5, budget=10_000)

    def test_budget_caps_points_walked(self, diag5m2):
        # k(2) = 2 at P0 = 4: the 4^5 grid exceeds 500 points, but its first
        # root is the sixth point, so p = 2 is certified at k(2) itself
        cert = ncc_certify(diag5m2, 4, budget=500)
        assert cert.status == "certified"
        c2 = cert.primes[0]
        assert (c2.p, c2.k, c2.witness) == (2, 2, (0, 0, 0, 1, 1))
        assert diag5m2.evaluate(list(c2.witness)) % 4 == 0

    def test_wide_modulus_raises(self):
        # q^2 must fit int64: q = 2^31 - 1 is walked exactly, even with
        # weights near q, and q = 2^31 is refused rather than wrapped
        q = 2**31 - 1
        phi = CubicPolynomial(1, cubic={(0, 0, 0): q - 1}, const=8)
        assert _first_root(phi, q) == (2,)
        with pytest.raises(BudgetExceeded, match="too large"):
            _first_root(phi, 2**31)

    def test_witness_is_lexicographically_first(self, fermat):
        w = _first_root(fermat, 3)
        assert w == (0, 0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
               full_poly_strategy(),
               st.builds(lambda n, s: CubicPolynomial(
                   n, cubic={(0, 0, 0): 2 * s}, const=s),
                   st.integers(1, 4), st.integers(1, 3))),
           st.sampled_from([2, 3, 4, 8, 9, 25, 7]),
           st.sampled_from([1, 2, 3, 5, 8, 30, 100, 2**13]),
           st.none() | st.integers(0, 2**20))
    def test_walk_matches_full_grid(self, phi, q, block, cap):
        # blocks of many rows and blocks shorter than one row, and budgets
        # from 1 to above q^n (None: exactly q^n); 2 s x^3 + s has no root
        # mod 2, 4, 8 for odd s
        size = q**phi.n
        assume(size // block <= 4000)
        cap = size if cap is None else 1 + cap % (size + 1)
        expect = first_root(phi, q)
        with mock.patch.object(local, "_WALK_BLOCK", block):
            if expect is not None and (
                    np.ravel_multi_index(expect, (q,) * phi.n) < cap):
                assert _first_root(phi, q, cap) == expect
            elif size <= cap:
                assert _first_root(phi, q, cap) is None
            else:
                with pytest.raises(BudgetExceeded):
                    _first_root(phi, q, cap)

    def test_witness_search_stays_small(self, watson5):
        # k(2) = 6 and k(3) = 4 at P0 = 100: grids of 2^30 and 3^20 points,
        # of which the walk evaluates a few blocks
        tracemalloc.start()
        try:
            cert = ncc_certify(watson5, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert cert.status == "certified"
        assert len(cert.primes) == 25
        for c in cert.primes:
            assert watson5.evaluate(list(c.witness)) % c.p**c.k == 0

    def test_fourteen_variable_wall(self):
        # A 14-variable polynomial built so that every solution mod 3 is
        # singular: twice (x1^2 - 2 x2^2 + 3(x3^2 - 2 x4^2)) plus 9 times a
        # cubic pairing ten auxiliary variables with the products x_i x_j.
        # It is soluble mod 3 in abundance, yet has no nonsingular root
        # there, so naive level-1 lifting cannot certify higher powers.
        pairs = [(i, j) for i in range(4) for j in range(i, 4)]
        cub = {}
        for idx, (i, j) in enumerate(pairs):
            key = tuple(sorted((4 + idx, i, j)))
            cub[key] = 18
        quad = {(0, 0): 2, (1, 1): -4, (2, 2): 6, (3, 3): -12}
        phi, scale = symmetrize(14, cub, quad)
        assert scale == 1
        assert rho(phi, 3, 1) == 3**12
        assert rho_star(phi, 3, 1) == 0

    def test_report_fields(self, fermat):
        rep = local_report(fermat, 5, 2)
        assert rep.p == 5
        assert rep.rho[1] == rho(fermat, 5, 1)
        assert rep.rho_star[1] == 24
        assert rep.ell is None  # lifting lemma out of variable range at n=3
        assert rep.witness == (0, 0, 0)
        assert rep.rho_star_skipped == ()

    def test_report_keeps_every_rho(self, watson5):
        # rho_star(3^2) is over a budget of 3^5 points, but rho is not at
        # any k: its content reduction and stratification reach k = 3, so
        # only rho_star stops early
        rep = local_report(watson5, 3, 3, budget=243)
        assert rep.rho == {k: rho(watson5, 3, k) for k in (1, 2, 3)}
        assert list(rep.rho_star) == [1]
        assert rep.rho_star_skipped == (2, 3)

    def test_report_charges_its_levels(self, watson5):
        # one level loop per k: k_max past the budget is refused before
        # any level is computed, as the sieve up to P0 is in ncc
        with pytest.raises(BudgetExceeded, match="levels up to k_max needs "
                           "1000000000 points, budget is 20000"):
            local_report(watson5, 3, 10**9, budget=20000)
