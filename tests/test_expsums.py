"""Gauss sums, coprime averages, Weyl sums, bilinear counting, and the
shrinking/bootstrap lemma verifiers."""

import cmath
import random
from unittest import mock
from fractions import Fraction
from itertools import product
from math import gcd, tau

import pytest
from hypothesis import example, given, settings, strategies as st

from cubiclab import (CubicPolynomial, bilinear_count, bootstrap_check,
                      gauss_sum, rho, shrinking_check, symmetrize, weyl_sum)
from cubiclab import expsums
from cubiclab.expsums import shrinking_count, weyl_bound_probe
from cubiclab.nt import nearest_int_distance
from cubiclab.polynomials import _walk
from conftest import full_poly_strategy, make_watson5, random_poly
from oracles import (a_of_q, a_of_q_exact, euler_comparison, gauss_sum_direct,
                     shrinking_count_direct, weyl_sum_direct)


# -- Gauss sums -------------------------------------------------------------

class TestGaussSum:
    def test_single_cube_mod_two(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]
        assert abs(gauss_sum(phi, 2, 1)) < 1e-12  # 1 + e(1/2) = 0

    def test_q_one(self, fermat):
        assert gauss_sum(fermat, 1, 0) == 1.0

    def test_noncoprime_rejected(self, fermat):
        for q, a in ((6, 2), (6, 6), (6, 12), (5, 0)):
            with pytest.raises(ValueError):
                gauss_sum(fermat, q, a)
        assert gauss_sum(fermat, 5, -1) == gauss_sum(fermat, 5, 4)
        assert gauss_sum(fermat, 1, 7) == 1  # every a is a unit mod 1

    def test_paths_agree(self, corpus):
        for phi in corpus.values():
            for q in range(2, 8):
                for a in range(1, q):
                    if gcd(a, q) != 1:
                        continue
                    assert gauss_sum(phi, q, a) == gauss_sum_direct(phi, q, a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_matches_direct_on_random(self, n, q, seed):
        phi = random_poly(random.Random(seed), n)
        for a in range(q):
            if gcd(a, q) == 1:
                assert gauss_sum(phi, q, a) == gauss_sum_direct(phi, q, a)

    def test_same_rounding_as_weyl_sum(self, fermat, selmer4, watson5):
        # both sum count * root exactly and round once, so the complete
        # Weyl sum over [0, q)^n is the Gauss sum to the last bit
        for phi in (fermat, selmer4, watson5):
            for q in range(1, 14):
                for a in range(q):
                    if gcd(a, q) == 1:
                        assert gauss_sum(phi, q, a) == weyl_sum(
                            phi, Fraction(a, q), [(0, q - 1)] * phi.n)

    def test_conjugate_symmetry(self, fermat, triple_product):
        for phi in (fermat, triple_product):
            for q in range(2, 13):
                for a in range(1, q):
                    if gcd(a, q) != 1:
                        continue
                    s = gauss_sum(phi, q, a)
                    sc = gauss_sum(phi, q, q - a)
                    assert abs(sc - s.conjugate()) <= 1e-12 * max(abs(s), 1.0)


class TestAofQ:
    def test_q_one(self, fermat):
        assert a_of_q(fermat, 1) == 1.0
        assert a_of_q_exact(fermat, 1) == 1

    def test_single_cube_identity(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]
        assert a_of_q_exact(phi, 2) == 0           # S(2,1) = 0
        assert 1 + a_of_q_exact(phi, 2) == rho(phi, 2, 1)  # n=1: weight 1

    def test_fermat_mod_two(self, fermat):
        assert 1 + a_of_q_exact(fermat, 2) == Fraction(rho(fermat, 2, 1), 4)
        assert a_of_q_exact(fermat, 2) == 0

    def test_exact_matches_float(self, fermat, selmer4):
        for phi, q in ((fermat, 9), (fermat, 7), (selmer4, 4), (selmer4, 5)):
            exact = a_of_q_exact(phi, q)
            approx = a_of_q(phi, q)
            assert abs(approx.imag) < 1e-9
            assert abs(approx.real - float(exact)) < 1e-9

    def test_multiplicativity_exact(self, fermat):
        for q1, q2 in ((2, 3), (3, 4), (2, 9), (4, 5), (5, 9)):
            assert a_of_q_exact(fermat, q1 * q2) == \
                a_of_q_exact(fermat, q1) * a_of_q_exact(fermat, q2)

    def test_local_identity_small_powers(self, fermat):
        # sum_(i<=k) A(p^i) = p^(-k(n-1)) rho(p^k), exact, p^k <= 3^4
        for p, kmax in ((2, 6), (3, 4)):
            for k in range(1, kmax + 1):
                lhs = sum(a_of_q_exact(fermat, p**i) for i in range(k + 1))
                assert lhs == Fraction(rho(fermat, p, k), p ** (2 * k))


# -- Weyl sums --------------------------------------------------------------

class TestWeylSum:
    def test_alpha_zero_counts_points(self, fermat):
        bounds = [(-1, 1)] * 3
        s = weyl_sum(fermat, Fraction(0), bounds, P=5)
        assert s == 11**3

    def test_half_phase_on_even_values(self):
        # phi = 2 x y has even values everywhere: all phases are 1
        phi = symmetrize(2, {}, {(0, 1): 2})[0]
        s = weyl_sum(phi, Fraction(1, 2), [(-1, 1)] * 2, P=3)
        assert abs(s - 49) < 1e-12

    def test_matches_reference_order(self):
        phi, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})
        s = weyl_sum(phi, Fraction(1, 7), [(-1, 1)] * 2, P=20)
        ref = sum(cmath.exp(1j * tau * (phi.evaluate([x, y]) % 7) / 7)
                  for y in range(-20, 21) for x in range(-20, 21))
        assert abs(s - ref) < 1e-9

    def test_float_alpha_agrees_with_rational(self, fermat):
        sr = weyl_sum(fermat, Fraction(1, 3), [(-1, 1)] * 3, P=4)
        sf = weyl_sum(fermat, 1.0 / 3.0, [(-1, 1)] * 3, P=4)
        assert abs(sr - sf) < 1e-7

    def test_empty_box(self, fermat):
        assert weyl_sum(fermat, Fraction(0), [(2, 1)] * 3, P=1) == 0


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


# alpha = a/q with small q, with q >= 2**31 (q**2 beyond int64 from about
# 2**31.5 on), and float alpha
ALPHAS = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)),
    st.builds(Fraction, st.integers(-2**45, 2**45), st.integers(2**31, 2**45)),
    st.floats(-3, 3, allow_nan=False))


class TestWeylSumOracle:
    """weyl_sum walks the box in chunks and sums each distinct phase once,
    times its multiplicity: bit for bit the per-point fsum."""

    @settings(max_examples=80, deadline=None)
    @given(full_poly_strategy(max_n=3), ALPHAS,
           st.lists(st.tuples(st.integers(-3, 1), st.integers(-1, 3)),
                    min_size=3, max_size=3), st.integers(1, 3),
           st.sampled_from([3, 40, 1 << 15]))
    @example(symmetrize(2, {(0, 0, 1): 1, (1, 1, 1): 2})[0],
             Fraction(5, 2**33 + 1), [(-2, 2)] * 2, 3, 1 << 15)
    @example(symmetrize(2, {(0, 0, 1): 1})[0], Fraction(1, 2), [(1, -1)] * 2,
             2, 1 << 15)
    def test_matches_per_point_sum(self, phi, alpha, bounds, P, chunk):
        # unit bounds scaled by P; lo > hi on some axis gives an empty box
        bounds = [(lo / 2, hi / 2) for lo, hi in bounds[:phi.n]]
        with mock.patch.object(expsums, "_CHUNK", chunk):
            got = weyl_sum(phi, alpha, bounds, P)
        assert _bits(got) == _bits(weyl_sum_direct(phi, alpha, bounds, P))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), ALPHAS)
    def test_object_dtype_table(self, seed, alpha):
        # coefficients near 2**61: the values on the box overflow int64,
        # so the walk evaluates in Python ints
        rng = random.Random(seed)
        phi = CubicPolynomial(2, cubic={(0, 0, 1): rng.randint(2**60, 2**61),
                                        (1, 1, 1): -rng.randint(2**60, 2**61)},
                              lin=[rng.randint(-9, 9), 1], const=2**62)
        bounds = [(-1, 1)] * 2
        _, _, x = next(_walk([range(-3, 4)] * 2, 49, phi.terms()))
        assert x[0].dtype == object
        assert _bits(weyl_sum(phi, alpha, bounds, 3)) == \
            _bits(weyl_sum_direct(phi, alpha, bounds, 3))

    @pytest.mark.parametrize("alpha", [Fraction(2, 7), 2 / 7 + 0.0])
    def test_watson5_probe_box(self, alpha):
        C = make_watson5().cubic_part()
        bounds = [(-1.0, 1.0)] * 5
        assert _bits(weyl_sum(C, alpha, bounds, 6)) == \
            _bits(weyl_sum_direct(C, alpha, bounds, 6))


# -- bilinear counting ------------------------------------------------------

def brute_bilinear_count(C, alpha, h, bound, eps):
    """bilinear_count by direct enumeration, in the arithmetic of alpha."""
    M = C.hessian(h)
    n = C.n
    want = 0
    for d in product(range(-bound, bound + 1), repeat=n):
        vals = [6 * alpha * sum(M[i][j] * d[j] for j in range(n))
                for i in range(n)]
        if all(nearest_int_distance(v) < eps for v in vals):
            want += 1
    return want


class TestBilinearCount:
    def test_alpha_zero_full_box(self):
        C = symmetrize(3, {(0, 1, 2): 6})[0]
        assert bilinear_count(C, Fraction(0), [1, 0, 0], 3, Fraction(1, 4)) \
            == 7**3

    def test_large_eps_full_box(self):
        C = symmetrize(3, {(0, 1, 2): 6})[0]
        assert bilinear_count(C, Fraction(1, 2), [1, 0, 0], 3,
                              Fraction(1, 2)) == 7**3

    def test_matches_brute_oracle(self):
        rng = random.Random(6)
        for _ in range(10):
            C = random_poly(rng, 2).cubic_part()
            alpha = Fraction(rng.randint(1, 4), rng.randint(5, 9))
            h = [rng.randint(-2, 2) for _ in range(2)]
            eps = Fraction(1, rng.randint(3, 6))
            got = bilinear_count(C, alpha, h, 4, eps)
            assert got == brute_bilinear_count(C, alpha, h, 4, eps)

    def test_float_alpha_matches_brute_oracle(self):
        rng = random.Random(7)
        counts = set()
        for _ in range(10):
            C = random_poly(rng, 2).cubic_part()
            alpha = rng.uniform(-1, 1)
            h = [rng.randint(-2, 2) for _ in range(2)]
            eps = rng.uniform(0.05, 0.45)
            got = bilinear_count(C, alpha, h, 4, eps)
            assert got == brute_bilinear_count(C, alpha, h, 4, eps)
            counts.add(got)
        assert len(counts) > 2  # neither always empty nor always full

    def test_half_ties_excluded(self):
        # 6 alpha B = d exactly at distance 1/2 for odd d: strict < fails
        C = symmetrize(1, {(0, 0, 0): 1})[0]  # B(h, d) = h^2 d
        got = bilinear_count(C, Fraction(1, 12), [1], 2, Fraction(1, 2))
        # 6 * (1/12) * d = d/2: distance 1/2 for odd d, 0 for even d
        assert got == 3  # d in {-2, 0, 2}


# -- shrinking lemma --------------------------------------------------------

MATRIX_ENTRIES = {
    "int": st.integers(-3, 3),
    "float": st.floats(-2, 2, allow_nan=False),
    "fraction": st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
}


class TestShrinking:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(sorted(MATRIX_ENTRIES)),
           st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), 1]),
           st.sampled_from([2, 9, 1 << 15]))
    def test_matches_per_point_oracle(self, data, kind, n, a, Z, chunk):
        L = data.draw(st.lists(st.lists(MATRIX_ENTRIES[kind], min_size=n,
                                        max_size=n), min_size=n, max_size=n))
        with mock.patch.object(expsums, "_CHUNK", chunk):
            assert shrinking_count(L, a, Z) == shrinking_count_direct(L, a, Z)

    def test_identity_matrix(self):
        rep = shrinking_check([[1, 0], [0, 1]], 1, Fraction(1, 2))
        assert rep["NZ"] == 1 and rep["N1"] == 9
        assert rep["ratio"] == pytest.approx(9 / 4)

    def test_z_one_ratio_one(self):
        rep = shrinking_check([[1.5, 0.25], [0.25, 0.5]], 2, 1)
        assert rep["ratio"] == 1.0

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            shrinking_check([[1.0]], 1, 2)

    def test_random_matrices_bounded(self):
        # regression guard: the implicit constant stays below 4^n here
        rng = random.Random(8)
        for n in (2, 3):
            for _ in range(50):
                L = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        L[i][j] = L[j][i] = rng.uniform(-2, 2)
                for Z in (Fraction(1, 2), Fraction(1, 4)):
                    rep = shrinking_check(L, 2, Z)
                    assert rep["NZ"] >= 1
                    assert rep["ratio"] <= 4**n

    def test_count_is_symmetric_set(self):
        # the counted set is symmetric under u -> -u, so N is odd
        rng = random.Random(12)
        for _ in range(10):
            L = [[rng.uniform(-1, 1)] * 1]
            assert shrinking_count(L, 3, 1) % 2 == 1


# -- bootstrap lemma --------------------------------------------------------

class TestBootstrap:
    def test_forced_zero_example(self):
        out = bootstrap_check(3, 1, Fraction(0), X=2, P1=6, m=0)
        assert out["forced_zero"] and out["is_zero"] and out["divides"]

    def test_divides_example(self):
        out = bootstrap_check(3, 1, Fraction(0), X=3, P1=6, m=3)
        assert out["divides"] and not out["is_zero"]

    def test_precondition_violations(self):
        for a in (2, 4, 8):
            with pytest.raises(ValueError):
                bootstrap_check(4, a, Fraction(0), X=3, P1=8, m=0)  # gcd
        with pytest.raises(ValueError):
            bootstrap_check(3, 1, Fraction(1, 2), X=3, P1=6, m=0)  # 2qX|t|
        with pytest.raises(ValueError):
            bootstrap_check(3, 1, Fraction(0), X=3, P1=5, m=0)  # P1 >= 2q
        with pytest.raises(ValueError):
            bootstrap_check(3, 1, Fraction(0), X=3, P1=6, m=1)  # ||alpha m||

    def test_exhaustive_grid(self):
        # zero counterexamples across the full admissible rational grid
        checked = 0
        for q in range(1, 11):
            for a in range(q):
                if gcd(a, q) != 1 and q > 1:
                    continue
                if q > 1 and a == 0:
                    continue
                for X in (max(q - 1, 1), q, 2 * q, 20):
                    thetas = {Fraction(0)}
                    for den_scale in (1, 2, 5):
                        thetas.add(Fraction(1, 2 * q * X * den_scale))
                        thetas.add(-Fraction(1, 2 * q * X * den_scale))
                    for P1 in (2 * q, 4 * q, 40):
                        for theta in thetas:
                            if 2 * q * X * abs(theta) > 1:
                                continue
                            alpha = Fraction(a, q) + theta
                            for m in range(-min(X, 20), min(X, 20) + 1):
                                if nearest_int_distance(alpha * m) > \
                                        Fraction(1, P1):
                                    continue
                                out = bootstrap_check(q, a, theta, X, P1, m)
                                boundary = (
                                    P1 == 2 * q
                                    and 2 * q * X * abs(theta) == 1
                                    and nearest_int_distance(alpha * m)
                                    == Fraction(1, P1))
                                if not boundary:
                                    assert out["divides"]
                                    if out["forced_zero"]:
                                        assert out["is_zero"]
                                checked += 1
        assert checked > 1000

    def test_boundary_counterexample_pinned(self):
        # With every inequality of the statement tight at once the
        # conclusion genuinely fails; the proof needs one of them strict.
        # alpha = 1/2 + 1/4, m = -1: ||alpha m|| = 1/4 = 1/P1 with P1 = 2q
        # and 2qX|theta| = 1, yet 2 does not divide -1.
        out = bootstrap_check(2, 1, Fraction(1, 4), X=1, P1=4, m=-1)
        assert not out["divides"]


# -- probes -----------------------------------------------------------------

class TestProbes:
    def test_weyl_bound_probe_alpha_zero(self, fermat):
        out = weyl_bound_probe(fermat.cubic_part(), 1, 0, 0.0, P=3, psi=1.0)
        assert out["S_abs"] == pytest.approx(7**3)
        assert out["ratio"] > 0

    @pytest.mark.parametrize("q,a,P", [(0, 1, 3), (-3, 1, 3), (3, 3, 3),
                                       (4, 2, 3), (7, 2, 0), (7, 2, -2)])
    def test_weyl_bound_probe_rejects_bad_input(self, fermat, q, a, P):
        with pytest.raises(ValueError):
            weyl_bound_probe(fermat.cubic_part(), q, a, 0.0, P=P, psi=1.0)

    @pytest.mark.parametrize("theta,P,psi", [(1e300, 10, 1.0),
                                             (0.0, 10**200, 1.0),
                                             (0.0, 10, -1e300)])
    def test_weyl_bound_probe_refuses_a_bound_past_float(self, theta, P,
                                                         psi):
        # a height-2 form, so M^(-2 psi) overflows at psi = -1e300
        C = symmetrize(3, {(0, 0, 0): 2, (1, 1, 1): 1, (2, 2, 2): 1})[0]
        with pytest.raises(ValueError, match="not a finite float"):
            weyl_bound_probe(C, 3, 1, theta, P=P, psi=psi, budget=1)

    def test_weyl_bound_probe_sequence(self):
        C = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1})[0]
        ratios = [weyl_bound_probe(C, 3, 1, 0.0, P=P, psi=1.0)["ratio"]
                  for P in (4, 8)]
        assert all(r >= 0 for r in ratios)

    def test_euler_comparison_small(self):
        phi = symmetrize(1, {(0, 0, 0): 1})[0]
        out = euler_comparison(phi, 0.01, [(-2, 2)])
        # smooth phase, no stationary point issues: sum tracks the integral
        assert out["diff"] < 1.0
        with pytest.raises(ValueError):
            euler_comparison(symmetrize(3, {(0, 1, 2): 6})[0], 0.01,
                             [(-1, 1)] * 3)
