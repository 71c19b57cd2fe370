"""Delta invariant, Hessian rank census, psi-growth diagnostic, and the
small-subspace solution bound."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from cubiclab import (CubicPolynomial, delta, homogenize, rank_census,
                      psi_good_report, symmetrize)
from cubiclab import invariants
from cubiclab.budget import BudgetExceeded
from cubiclab.invariants import small_subspace_solution_bound
from cubiclab.nt import column_reduce
from cubiclab.polynomials import _from_terms, _substitute
from conftest import random_poly
from oracles import (coefficient_matrix, int_det, minor_gcd, rank_mod_p,
                     rank_rational)


# -- exact linear algebra ---------------------------------------------------

def fraction_rank(rows: list) -> int:
    """Reference rank over Q: Gaussian elimination in Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        for i in range(rank + 1, m):
            f = a[i][col] / pr[col]
            a[i] = [x - f * y for x, y in zip(a[i], pr)]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """m x n integer matrices, often with zero rows or columns and rows
    that are combinations of earlier ones."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(-9, 9) | st.integers(-2**70, 2**70)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * n)
        elif kind == "combination":
            coeffs = [draw(st.integers(-3, 3)) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(n)])
        else:
            rows.append([draw(entry) for _ in range(n)])
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        for r in rows:
            r[j] = 0
    return rows


@st.composite
def cubic_forms(draw, big=True, n_max=4):
    """Cubic forms in n <= n_max variables: dense, sparse, diagonal, with a
    common factor, or rank-deficient (a form in fewer linear forms, or
    free of a variable)."""
    n = draw(st.integers(1, n_max))
    entry = st.integers(-3, 3)
    if big:
        entry = entry | st.integers(-2**40, 2**40)
    kind = draw(st.sampled_from(["dense", "sparse", "diagonal", "deficient"]))
    triples = [t for t in combinations_with_replacement(range(n), 3)
               if kind != "diagonal" or t[0] == t[2]]
    cubic = {}
    for t in triples:
        if kind != "sparse" or draw(st.integers(0, 3)) == 0:
            cubic[t] = draw(entry)
    scale = draw(st.sampled_from([1, 1, 2, 6, 12, 2**40]))
    C = CubicPolynomial(n, cubic={t: scale * c for t, c in cubic.items()})
    if kind == "deficient":
        # C(U y) with a zero or a repeated column in U
        U = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        src = draw(st.integers(0, n - 1))
        for row in U:
            row[0] = row[src] if src else 0
        C = _from_terms(n, _substitute(C.terms(), U))
    return C


@st.composite
def zero_column_forms(draw):
    """Forms whose coefficient matrix is mostly zero columns: two dense
    blocks on disjoint variables, a diagonal form, or a wall14-like form
    sum_(i <= j) c_ij x_i x_j v_ij over u = (x_1..x_a) with one variable
    v_ij of its own per pair, and a diagonal term or two on top."""
    entry = st.integers(-3, 3) | st.integers(-2**40, 2**40)
    kind = draw(st.sampled_from(["blocks", "diagonal", "wall"]))
    cubic = {}
    if kind == "blocks":
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n = a + b
        for block in (range(a), range(a, n)):
            for t in combinations_with_replacement(block, 3):
                cubic[t] = draw(entry)
    elif kind == "diagonal":
        n = draw(st.integers(1, 7))
        cubic = {(i, i, i): draw(entry) for i in range(n)}
    else:
        a = draw(st.integers(2, 3))
        pairs = list(combinations_with_replacement(range(a), 2))
        n = a + len(pairs)
        cubic = {(i, j, a + v): draw(entry) for v, (i, j) in enumerate(pairs)}
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            cubic[(i, i, i)] = draw(entry)
    return CubicPolynomial(n, cubic=cubic)


class TestLinearAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_rank_rational_matches_fraction_elimination(self, rows):
        assert rank_rational(rows) == fraction_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_column_reduce_certificate(self, A):
        # A U = [H | 0] in column echelon form, U unimodular (or empty,
        # for an A of no columns)
        pivots, U = column_reduce(A)
        n = len(U)
        assert n == 0 or int_det([[U[c][r] for c in range(n)]
                                  for r in range(n)]) in (1, -1)
        AU = [[sum(a * u for a, u in zip(row, col)) for row in A] for col in U]
        assert len(pivots) == rank_rational(A)
        assert not any(any(col) for col in AU[len(pivots):])
        leads = [next(i for i, v in enumerate(col) if v)
                 for col in AU[:len(pivots)]]
        assert leads == sorted(set(leads))
        assert [col[i] for col, i in zip(AU, leads)] == pivots

    def test_rank_rational_edge_cases(self):
        assert rank_rational([]) == 0
        assert rank_rational([[]]) == 0
        assert rank_rational([[0, 0], [0, 0]]) == 0
        assert rank_rational([[1, 2, 3], [2, 4, 6]]) == 1
        assert rank_rational([[0, 1], [1, 0], [1, 1]]) == 2
        assert rank_rational([[2, 4], [3, 5]]) == 2
        # a row with a zero under the pivot must still be scaled by it, or
        # the next exact division goes wrong
        assert rank_rational([[0, 1, 0, 0, 1, -1], [0, 1, 0, 0, 0, 0],
                              [2, 0, 0, 0, 0, 0], [2, 1, 0, 0, 1, -1]]) == 3


    def test_int_det_known(self):
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert int_det([[1, 1], [1, 1]]) == 0

    def test_int_det_matches_permutation_expansion(self):
        rng = random.Random(0)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            # Laplace-free oracle: permutation expansion
            from itertools import permutations
            det = 0
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= a[i][perm[i]]
                det += term
            assert int_det(a) == det

    def test_rank_mod_p_le_rank_rational(self):
        rng = random.Random(1)
        for _ in range(50):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            rq = rank_rational(a)
            for p in (2, 3, 5, 7):
                assert rank_mod_p(a, p) <= rq


# -- Delta ------------------------------------------------------------------

class TestDelta:
    def test_diagonal_two_variables(self):
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): 2})
        assert delta(C).value == 2
        assert delta(C).prime_factorization == {2: 1}

    def test_degenerate(self):
        C = symmetrize(2, {(0, 0, 0): 1})[0]
        assert delta(C).value == 0

    def test_diagonal_three_variables(self):
        C, _ = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1})
        assert delta(C).value == 1

    def test_matches_exhaustive_minor_gcd(self, fermat):
        for C in (fermat, symmetrize(3, {(0, 1, 2): 6, (0, 0, 0): 2})[0]):
            assert delta(C).value == minor_gcd(coefficient_matrix(C))

    def test_delta_divides_homogenized_delta(self, fermat, selmer4,
                                             triple_product):
        for phi in (fermat, selmer4, triple_product):
            dC = delta(phi.cubic_part()).value
            dF = delta(homogenize(phi)[0]).value
            assert dC != 0 and dF % dC == 0

    def test_divisibility_caveat_documented(self, watson5):
        # The classical-looking divisibility between the two gcd invariants
        # can fail for integral symmetric tensors: here the cubic-part gcd
        # picks up a large 2-power (every tensor entry is even) that the
        # extra homogenization columns do not share.  Pinned as a known
        # caveat so a change in the Delta convention is caught immediately.
        dC = delta(watson5.cubic_part()).value
        dF = delta(homogenize(watson5)[0]).value
        assert dC == 1024 and dF == 8
        assert dF % dC != 0

    def test_sparse_forms_exact(self, diag5m2, wall14):
        # Almost every 6 x 6 (15 x 15) minor of these homogenised forms is
        # 0, so a gcd over 20,000 sampled minors out of 54,264 (about
        # 4.7e18) reported Delta = 0 for both.
        assert delta(homogenize(diag5m2)[0]).value == 2
        d = delta(homogenize(wall14)[0])
        assert d.value == 1_506_290_861_232 == 2**4 * 3**23
        assert d.prime_factorization == {2: 4, 3: 23}
        assert delta(wall14.cubic_part()).value == 76_527_504

    def test_wall14_certificate(self, wall14):
        # A U = [H | 0] with U unimodular: the minors of A and of [H | 0]
        # have the same gcd, which is |det H| for H lower triangular.
        A = coefficient_matrix(homogenize(wall14)[0])
        m, ncols = len(A), len(A[0])
        pivots, U = column_reduce(A)
        assert int_det([[U[c][r] for c in range(ncols)]
                        for r in range(ncols)]) in (1, -1)
        AU = [[sum(a * u for a, u in zip(row, U[c])) for c in range(ncols)]
              for row in A]
        assert all(AU[i][j] == 0 for i in range(m) for j in range(i + 1, ncols))
        assert [AU[i][i] for i in range(m)] == pivots
        assert abs(prod(pivots)) == 1_506_290_861_232

    @settings(max_examples=150, deadline=None)
    @given(cubic_forms())
    def test_matches_minor_gcd_oracle(self, C):
        mat = coefficient_matrix(C)
        assert delta(C).value == minor_gcd(mat)

    @settings(max_examples=100, deadline=None)
    @given(zero_column_forms())
    def test_nonzero_columns_match_full_matrix(self, C):
        # Delta from the nonzero columns against the column reduction of
        # the whole coefficient matrix, zero columns included, and against
        # every minor where they are few enough to enumerate
        mat = coefficient_matrix(C)
        pivots, _ = column_reduce(mat)
        full = prod(abs(v) for v in pivots) if len(pivots) == C.n else 0
        assert delta(C).value == full
        if C.n <= 4:
            assert full == minor_gcd(mat)

    def test_wall14_nonzero_columns(self, wall14):
        # 31 of the 120 columns of the homogenised wall14 are nonzero
        F = homogenize(wall14)[0]
        mat = coefficient_matrix(F)
        assert (len(mat[0]), sum(any(col) for col in zip(*mat))) == (120, 31)
        pivots, _ = column_reduce(mat)
        assert delta(F).value == abs(prod(pivots)) == 1_506_290_861_232

    @settings(max_examples=100, deadline=None)
    @given(cubic_forms(big=False))
    def test_rank_mod_p_matches_delta(self, C):
        # the coefficient matrix loses rank mod p exactly when p | Delta
        mat = coefficient_matrix(C)
        d = delta(C).value
        for p in (2, 3, 5, 7):
            assert (rank_mod_p(mat, p) < C.n) == (d % p == 0)


# -- rank census ------------------------------------------------------------

FIRST_PRIME = 2**31 - 1  # the first prime of rank_census over Q


def census_oracle(C: CubicPolynomial, H: int, p) -> dict:
    """Rank counts over the box |x| < H, one exact rank per point."""
    rank = rank_rational if p is None else (lambda M: rank_mod_p(M, p))
    return dict(Counter(rank(C.hessian(list(x)))
                        for x in product(range(1 - H, H), repeat=C.n)))


class TestRankCensus:
    def test_triple_product(self):
        # brute-force derivation for 6 x1 x2 x3 over the 27 points |x| < 2:
        # rank 3 iff all coordinates nonzero (det M = 2 x1 x2 x3), rank 0
        # only at the origin, rank 2 otherwise.
        C = symmetrize(3, {(0, 1, 2): 6})[0]
        census = rank_census(C, 2)
        assert census.counts == {0: 1, 2: 18, 3: 8}
        assert sum(census.counts.values()) == 27

    def test_any_form_h1(self, fermat):
        assert rank_census(fermat.cubic_part(), 1).counts == {0: 1}

    def test_single_variable(self):
        C = symmetrize(1, {(0, 0, 0): 1})[0]
        assert rank_census(C, 3).counts == {0: 1, 1: 4}

    def test_total_and_range(self, fermat):
        census = rank_census(fermat.cubic_part(), 3)
        assert sum(census.counts.values()) == 5**3
        assert all(0 <= r <= 3 for r in census.counts)

    def test_matches_direct_rank(self):
        rng = random.Random(9)
        for _ in range(5):
            C = random_poly(rng, 3).cubic_part()
            census = rank_census(C, 2)
            direct = {}
            for x in product((-1, 0, 1), repeat=3):
                r = rank_rational(C.hessian(list(x)))
                direct[r] = direct.get(r, 0) + 1
            assert census.counts == direct

    @settings(max_examples=50, deadline=None)
    @given(cubic_forms(n_max=5), st.data())
    def test_matches_per_point_oracle(self, C, data):
        # boxes of at most 625 points; the scale FIRST_PRIME makes every
        # M(x) vanish mod that prime, so only further primes see the rank
        H = data.draw(st.integers(1, {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}[C.n]))
        cases = [(1, p) for p in (None, 2, 3, 5, 7)] + [(FIRST_PRIME, None)]
        for scale, p in cases:
            form = CubicPolynomial(C.n, cubic={t: scale * c
                                               for t, c in C.cubic.items()})
            assert (rank_census(form, H, p=p).counts
                    == census_oracle(form, H, p))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.randoms(use_true_random=False))
    def test_split_form_matches_per_point_oracle(self, data, rng):
        # C_1 + C_2 + ... on disjoint blocks of shuffled variables, n <= 5,
        # some variables in no cubic term: the census convolves the
        # blocks' histograms, the oracle ranks every whole M(x)
        parts, left = [], 5
        while left and (not parts or data.draw(st.booleans())):
            parts.append(data.draw(cubic_forms(n_max=min(3, left))))
            left -= parts[-1].n
        n = 5 - left + data.draw(st.integers(0, min(2, left)))
        axes = rng.sample(range(n), n)
        cubic = {}
        for C in parts:
            cubic.update({tuple(sorted(axes[i] for i in t)): c
                          for t, c in C.cubic.items()})
            axes = axes[C.n:]
        C = CubicPolynomial(n, cubic=cubic)
        H = data.draw(st.integers(1, {1: 4, 2: 4, 3: 3}.get(n, 2)))
        for p in (None, 2, 3, 5):
            assert rank_census(C, H, p=p).counts == census_oracle(C, H, p)

    @pytest.mark.parametrize("p", [None, 3])
    def test_box_larger_than_a_chunk(self, selmer4, p):
        C = selmer4.cubic_part()
        assert 9**4 > invariants._CHUNK_ENTRIES // 4**2  # several chunks
        assert rank_census(C, 5, p=p).counts == census_oracle(C, 5, p)

    def test_residues_near_q_do_not_overflow(self):
        # C = (u . x)^3, so M(x) = (u . x) u u^T has rank <= 1; the negative
        # entries of M(e_k) and x have residues near q, and a sum of their
        # products left unreduced would wrap in int64 and raise the rank
        u = (1, -1, 2, -3, 5)
        triples = combinations_with_replacement(range(5), 3)
        C = CubicPolynomial(5, cubic={(i, j, k): u[i] * u[j] * u[k]
                                      for i, j, k in triples})
        counts = rank_census(C, 2).counts
        assert counts == census_oracle(C, 2, None) == {0: 17, 1: 226}

    def test_ranks_mod_near_q(self):
        # entries near q = 2^31 - 1, where s * row and a * pivot row are
        # both near q^2: -(U V^T) mod q with small U, V of r columns has
        # rank r, and a random stack near q - 1 is mostly full rank
        q = FIRST_PRIME
        rng = np.random.default_rng(5)
        for n in (4, 14):
            stacks = [q - 1 - rng.integers(0, 50, (40, n, n))]
            for r in range(n + 1):
                U = rng.integers(1, 4, (10, n, r))
                stacks.append((-(U @ rng.integers(1, 4, (10, r, n)))) % q)
            M = np.concatenate(stacks).astype(np.int64)
            want = [rank_mod_p(m.tolist(), q) for m in M]
            assert invariants._ranks_mod(M.copy(), q).tolist() == want
            assert set(want) == set(range(n + 1))

    def test_first_prime_is_not_trusted(self):
        # M(x) = FIRST_PRIME * x: rank 0 mod that prime, rank 1 over Q
        C = CubicPolynomial(1, cubic={(0, 0, 0): FIRST_PRIME})
        assert rank_census(C, 3).counts == {0: 1, 1: 4}
        assert rank_census(C, 3, p=FIRST_PRIME).counts == {0: 5}
        # det M(2, 1) = 2a(2 + d) - 1 = FIRST_PRIME, with every entry of
        # M(e_0) and M(e_1) below its square root: the bound must scale
        # with the box, not only with M(e_k)
        a, d = 2**15, 2**15 - 2
        C = CubicPolynomial(2, cubic={(0, 0, 0): a, (0, 1, 1): 1,
                                      (1, 1, 1): d})
        assert rank_rational(C.hessian([2, 1])) == 2
        assert rank_mod_p(C.hessian([2, 1]), FIRST_PRIME) == 1
        assert rank_census(C, 3).counts == census_oracle(C, 3, None)

    @pytest.mark.parametrize("p", [0, 4, -3, 2**31 + 11])
    def test_rejects_bad_p(self, fermat, p):
        with pytest.raises(ValueError, match="p must be a prime below"):
            rank_census(fermat.cubic_part(), 2, p=p)

    def test_mod_p_census(self):
        C = symmetrize(3, {(0, 1, 2): 6})[0]
        census = rank_census(C, 2, p=2)
        # det M = 2 x1 x2 x3 = 0 mod 2 everywhere: rank never reaches 3
        assert 3 not in census.counts
        assert sum(census.counts.values()) == 27

    def test_budget_guard(self, fermat):
        with pytest.raises(BudgetExceeded):
            rank_census(fermat.cubic_part(), 3, budget=10)

    def test_budget_guard_allocates_nothing(self, wall14):
        # 19999^14 points: refused before any point or matrix exists
        C = wall14.cubic_part()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                rank_census(C, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestPsiGoodReport:
    def test_nonsingular_diagonal_consistent(self, fermat):
        rep = psi_good_report(fermat.cubic_part(), 8)
        assert rep["verdict"] == "consistent"
        assert all(row["ratio"] <= rep["bound_const"] for row in rep["rows"])

    def test_product_form_inconsistent(self):
        # C = x1 * (3 x1^2 + 3 x2^2): vanishing-Hessian locus is a whole
        # hyperplane, so low-rank counts grow like H^2 against the H^r bound
        C, _ = symmetrize(3, {(0, 0, 0): 3, (0, 1, 1): 3})
        rep = psi_good_report(C, 8)
        assert rep["verdict"] == "inconsistent"

    def test_h_equals_one(self, fermat):
        rep = psi_good_report(fermat.cubic_part(), 2)
        assert rep["rows"][0]["H"] == 2


# -- small-subspace solution bound ------------------------------------------

class TestSubspaceBound:
    def test_headline_exponent(self):
        b = small_subspace_solution_bound(Fraction("1454.8"), 2)
        assert b.exponent == Fraction(97) + 91 * Fraction("1454.8")
        assert b.exponent_ceil == 132484

    def test_psi_zero(self):
        b = small_subspace_solution_bound(0, 2)
        assert b.exponent == 97
        assert b.value == 2**97

    def test_psi_one(self):
        assert small_subspace_solution_bound(1, 2).value == 2**188

    def test_invalid(self):
        with pytest.raises(ValueError):
            small_subspace_solution_bound(-1, 2)
        with pytest.raises(ValueError):
            small_subspace_solution_bound(1, 1)
