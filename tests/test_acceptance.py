"""End-to-end acceptance checks, one per headline criterion.

Each test prints a single ``CRITERION k: PASS``/``FAIL`` line (visible
with ``pytest -s`` and in captured output on failure).  Criteria 4 and 9
reproduce two findings about the paper and pass by asserting them:

* Criterion 4: with (T, psi, delta) = (84, 1454.8, 2.23) the series
  cutoff tag S4 is infeasible at epsilon = 0 — the required exponent
  exceeds the chosen P0 exponent by exactly 416802/12121 (about 34.39),
  and by more than 33 for every delta in (2, 7/3).  Every other tag
  passes.
* Criterion 9: the bootstrap divisibility conclusion fails exactly at
  the admissible instances where all three non-strict preconditions are
  tight (P1 = 2q, 2qX|theta| = 1, ||alpha m|| = 1/P1) and q does not
  divide m.  Proof: ||am/q|| <= ||alpha m|| + |theta m|
  <= 1/P1 + 1/(2q) <= 1/q, while q not dividing m gives ||am/q|| >= 1/q,
  so every inequality is an equality.  Example: (q, a, theta, X, P1, m)
  = (2, 1, 1/4, 1, 4, -1).
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from cubiclab import (bootstrap_check, count_solutions, hensel_lift,
                      ncc_certify, rho, shrinking_check, singular_integral,
                      solve_parameters, psi_requirement,
                      theorem_exponent_check, paper_exponents, symmetrize)
from cubiclab.exponents import present
from cubiclab.expsums import gauss_sum
from cubiclab.invariants import small_subspace_solution_bound
from cubiclab.nt import nearest_int_distance
from conftest import random_poly
from oracles import a_of_q_exact, gauss_sum_direct, scan_zeros


def _report(k: int, body) -> None:
    try:
        body()
    except BaseException:
        print(f"CRITERION {k}: FAIL")
        raise
    print(f"CRITERION {k}: PASS")


def test_criterion_1_exponent_reproduction():
    def body():
        t0 = time.perf_counter()
        p = paper_exponents(84)
        assert p["u"] == Fraction(5212, 17)
        assert p["P0"] == Fraction(9346, 17)
        assert p["P"] == Fraction(69645, 34)
        assert present(p["u"]) == "306.59"
        assert present(p["P0"]) == "549.76"
        assert present(p["P"]) == "2048.38"
        assert -((-p["P"].numerator) // p["P"].denominator) == 2049
        assert time.perf_counter() - t0 < 1.0
    _report(1, body)


def test_criterion_2_large_n_exponent():
    def body():
        t0 = time.perf_counter()
        for n in range(14, 101):
            out = theorem_exponent_check(n)
            assert out["ok"]
            assert out["exp_P"] <= Fraction(6407) * n * n
        assert time.perf_counter() - t0 < 1.0
    _report(2, body)


def test_criterion_3_psi_chain():
    def body():
        t0 = time.perf_counter()
        req = psi_requirement(84)
        assert req["binding"] == "m9"
        assert abs(req["psi_min"] - Fraction("1454.8")) < Fraction(1, 10)
        sb = small_subspace_solution_bound(Fraction("1454.8"), 2)
        assert sb.exponent_ceil == 132484
        assert time.perf_counter() - t0 < 1.0
    _report(3, body)


def test_criterion_4_full_assumption_suite():
    def body():
        t0 = time.perf_counter()
        full = solve_parameters(84, psi=Fraction("1454.8"),
                                delta=Fraction("2.23"))
        assert len(full.tags) == 21
        n = 15
        free = solve_parameters(292 * (n * n - 1), n=n)
        assert free.all_pass
        assert time.perf_counter() - t0 < 1.0
        # finding: S4 is infeasible at epsilon = 0 for these choices, and
        # for every delta that S1 allows
        assert full.failed() == ["S4"]

        def s4_requirement(d):
            return (84 + 14 * d / (14 - 6 * d)) / (d - 2)

        gap = s4_requirement(Fraction("2.23")) - Fraction(9346, 17)
        assert gap == Fraction(416802, 12121)
        s4 = next(t for t in full.tags if t.tag == "S4")
        assert s4.lhs - s4.rhs == gap
        e_P0 = paper_exponents(84)["P0"]
        grid = [2 + Fraction(k, 3000) for k in range(1, 1000)]
        assert all(s4_requirement(d) > e_P0 for d in grid)
    _report(4, body)


def test_criterion_5_local_density_identity(corpus):
    def body():
        t0 = time.perf_counter()
        cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1)]
        for phi in corpus.values():
            n = phi.n
            for p, k in cases:
                lhs = sum((a_of_q_exact(phi, p**i, budget=20_000_000)
                           for i in range(1, k + 1)), Fraction(1))
                rhs = Fraction(rho(phi, p, k, budget=20_000_000),
                               p ** (k * (n - 1)))
                assert lhs == rhs, (phi.n, p, k)
        assert time.perf_counter() - t0 < 300.0
    _report(5, body)


def test_criterion_6_gauss_sum_cross_validation(corpus):
    def body():
        for phi in corpus.values():
            for q in range(1, 13):
                for a in range(q):
                    if q > 1 and (a == 0 or gcd(a, q) != 1):
                        continue
                    d = gauss_sum_direct(phi, q, a)
                    v = gauss_sum(phi, q, a)
                    assert abs(d - v) <= 1e-9 * max(abs(d), 1.0)
                    c = gauss_sum_direct(phi, q, (q - a) % q)
                    assert abs(c - d.conjugate()) <= 1e-12
    _report(6, body)


def test_criterion_7_counting_oracle(fermat):
    def body():
        assert count_solutions(fermat, 10).count == 61
        rng = random.Random(1)
        degenerate_seen = 0
        for trial in range(50):
            n = rng.randint(1, 4)
            force = trial % 8 == 0
            phi = random_poly(rng, n, coeff_bound=5,
                              force_degenerate_leading=force)
            if phi.c(0, 0, 0) == 0:
                degenerate_seen += 1
            P = rng.randint(1, 12 if n <= 3 else 6)
            assert count_solutions(phi, P).count == \
                len(scan_zeros(phi, [range(-P, P + 1)] * n))
        assert degenerate_seen >= 5
    _report(7, body)


def test_criterion_8_watson_separation(watson5):
    def body():
        cert = ncc_certify(watson5, 20)
        assert cert.status == "certified"
        assert count_solutions(watson5, 8).count == 0
    _report(8, body)


def test_criterion_9_shrinking_and_bootstrap():
    def body():
        # shrinking bound: N(1) <= 4^n Z^-n N(Z)
        rng = random.Random(5)
        for n in (2, 3):
            for _ in range(50):
                L = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        L[i][j] = L[j][i] = rng.uniform(-2, 2)
                for Z in (Fraction(1, 2), Fraction(1, 4)):
                    rep = shrinking_check(L, 2, Z)
                    assert rep["ratio"] <= 4**n
        # bootstrap divisibility on the exhaustive admissible grid
        counterexamples = []
        all_tight = set()
        zero_clause_only = []
        checked = 0
        for q in range(1, 11):
            for a in range(q):
                if q > 1 and (a == 0 or gcd(a, q) != 1):
                    continue
                for X in (max(q - 1, 1), q, 2 * q, 20):
                    thetas = {Fraction(0)}
                    for scale in (1, 2, 5):
                        thetas.add(Fraction(1, 2 * q * X * scale))
                        thetas.add(-Fraction(1, 2 * q * X * scale))
                    for P1 in (2 * q, 4 * q, 40):
                        for theta in thetas:
                            alpha = Fraction(a, q) + theta
                            for m in range(-min(X, 20), min(X, 20) + 1):
                                if nearest_int_distance(alpha * m) > \
                                        Fraction(1, P1):
                                    continue
                                out = bootstrap_check(q, a, theta, X, P1, m)
                                checked += 1
                                case = (q, a, theta, X, P1, m)
                                zero_fails = (out["forced_zero"]
                                              and not out["is_zero"])
                                if not out["divides"] or zero_fails:
                                    counterexamples.append(case)
                                if out["divides"] and zero_fails:
                                    zero_clause_only.append(case)
                                if (P1 == 2 * q
                                        and 2 * q * X * abs(theta) == 1
                                        and nearest_int_distance(alpha * m)
                                        == Fraction(1, P1)
                                        and m % q != 0):
                                    all_tight.add(case)
        assert checked > 1000
        # finding: the conclusion fails exactly where every non-strict
        # precondition is tight and q does not divide m
        assert set(counterexamples) == all_tight, counterexamples
        assert (2, 1, Fraction(1, 4), 1, 4, -1) in all_tight
        # the m = 0 clause never fails on its own
        assert zero_clause_only == [], zero_clause_only
    _report(9, body)


def test_criterion_10_singular_integral_convergence():
    def body():
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})
        c = 2.0 ** (1.0 / 3.0)
        hw, yc = 0.35, 1.2
        box = [(c * yc - hw, c * yc + hw), (yc - hw, yc + hw)]

        def frak_i(bounds, Z):
            return singular_integral(C, bounds, Z, tol=1e-11,
                                     budget=40_000_000)["value"]

        vals = {Z: frak_i(box, Z) for Z in (4, 8, 16, 32, 64, 128)}
        diffs = [abs(vals[2 * Z] - vals[Z]) for Z in (4, 8, 16, 32)]
        for d1, d2 in zip(diffs, diffs[1:]):
            assert d1 >= 1.5 * d2, diffs
        # dilation invariance with T = 2 (n = 2 instance)
        half = [(lo / 2, hi / 2) for lo, hi in box]
        lhs = frak_i(box, 8)
        rhs = 0.5 * frak_i(half, 8 * 8)
        assert abs(lhs - rhs) <= 0.01 * abs(lhs)
    _report(10, body)


def test_criterion_11_hensel_round_trip(corpus):
    def body():
        rng = random.Random(11)
        polys = list(corpus.values())
        roots_cache = {}
        lifted = 0
        while lifted < 200:
            idx = rng.randrange(len(polys))
            phi = polys[idx]
            p = rng.choice([3, 5, 7])
            key = (idx, p)
            if key not in roots_cache:
                roots_cache[key] = [
                    list(x) for x in product(range(p), repeat=phi.n)
                    if phi.evaluate(list(x)) % p == 0
                    and any(g % p for g in phi.gradient(list(x)))]
            if not roots_cache[key]:
                continue
            root = rng.choice(roots_cache[key])
            target = rng.randint(2, 6)
            y = hensel_lift(phi, p, root, 1, target)
            assert phi.evaluate(y) % p**target == 0
            assert [v % p for v in y] == root
            lifted += 1
    _report(11, body)
