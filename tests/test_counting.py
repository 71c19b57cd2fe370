"""Exact lattice counting, expanding-shell search, and the prediction
comparison table."""

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cubiclab import (CubicPolynomial, asymptotic_compare, count_solutions,
                      smallest_solution, symmetrize)
from cubiclab import counting
from cubiclab.budget import BudgetExceeded
from cubiclab.polynomials import DimensionMismatch
from conftest import random_poly
from oracles import integer_roots_cubic, scan_zeros


def slice_coefficients(phi, y) -> tuple:
    """(a, b, c, d) with phi(t, y) = a t^3 + b t^2 + c t + d, interpolated
    exactly from the values at t = 0, 1, -1, 2."""
    d, f1, fm, f2 = (phi.evaluate((t, *y)) for t in (0, 1, -1, 2))
    b = (f1 + fm) // 2 - d
    a = (f2 - 4 * b - d - (f1 - fm)) // 6
    return a, b, (f1 - fm) // 2 - a, d


def roots_reference(phi, ranges) -> list:
    """Zeros in the box, per prefix (x_2..x_n) by integer_roots_cubic."""
    zeros = []
    for y in product(*ranges[1:]):
        kind, roots = integer_roots_cubic(*slice_coefficients(phi, y))
        ts = ranges[0] if kind == "all" else [t for t in roots if t in ranges[0]]
        zeros += [(t, *y) for t in ts]
    return zeros


def shell_reference(phi, max_shell: int, start_shell: int = 0) -> tuple:
    """(lexicographically least zero of sup-norm s, s) for the first shell
    s >= start_shell that has one, by scanning the whole box [-s, s]^n."""
    for s in range(start_shell, max_shell + 1):
        zeros = [x for x in product(range(-s, s + 1), repeat=phi.n)
                 if max(map(abs, x)) == s and phi.evaluate(x) == 0]
        if zeros:
            return min(zeros), s
    return None, None


def drop_x1(phi) -> CubicPolynomial:
    """phi with every term in x_1 removed: each slice is constant in x_1."""
    return CubicPolynomial(
        phi.n, cubic={k: v for k, v in phi.cubic.items() if 0 not in k},
        quad={k: v for k, v in phi.quad.items() if 0 not in k},
        lin=(0, *phi.lin[1:]), const=phi.const)


def plant_zero(phi, z) -> CubicPolynomial:
    return CubicPolynomial(phi.n, cubic=phi.cubic, quad=phi.quad,
                           lin=phi.lin, const=phi.const - phi.evaluate(z))


@st.composite
def counting_cases(draw, heights):
    """(phi, P, box, integer ranges of the box, keep) for n = 1..4: boxes
    with empty ranges, zero leading coefficients, x_1-free polynomials
    (identically zero slices) and a planted zero when the box has points."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    phi = random_poly(rng, n, coeff_bound=draw(st.sampled_from(heights)),
                      force_degenerate_leading=draw(st.booleans()))
    if draw(st.booleans()):
        phi = drop_x1(phi)
    span = {1: 12, 2: 6, 3: 3, 4: 2}[n]
    P = draw(st.integers(1, span))
    if draw(st.booleans()):
        box, ranges = None, [range(-P, P + 1)] * n
    else:
        los = draw(st.lists(st.integers(-span, span), min_size=n, max_size=n))
        sizes = draw(st.lists(st.integers(0, span + 1), min_size=n, max_size=n))
        ranges = [range(lo, lo + m) for lo, m in zip(los, sizes)]
        box = [(r.start / P, (r.stop - 1) / P) for r in ranges]
    if all(ranges) and draw(st.booleans()):
        phi = plant_zero(phi, [draw(st.sampled_from(r)) for r in ranges])
    return phi, P, box, ranges, draw(st.sampled_from([0, 1, 7, 100]))


class TestIntegerRootsCubic:
    def test_identically_zero(self):
        assert integer_roots_cubic(0, 0, 0, 0) == ("all", None)

    def test_constant(self):
        assert integer_roots_cubic(0, 0, 0, 5) == ("roots", [])

    def test_linear(self):
        assert integer_roots_cubic(0, 0, 3, -6) == ("roots", [2])
        assert integer_roots_cubic(0, 0, 3, -7) == ("roots", [])

    def test_quadratic(self):
        assert integer_roots_cubic(0, 1, -3, 2) == ("roots", [1, 2])
        assert integer_roots_cubic(0, 1, 0, -2) == ("roots", [])
        assert integer_roots_cubic(0, 2, -3, 1) == ("roots", [1])

    def test_cubic(self):
        # (t - 1)(t + 2)(t - 3) = t^3 - 2t^2 - 5t + 6
        assert integer_roots_cubic(1, -2, -5, 6) == ("roots", [-2, 1, 3])
        assert integer_roots_cubic(1, 0, 0, -8) == ("roots", [2])
        assert integer_roots_cubic(1, 0, 0, 2) == ("roots", [])

    def test_zero_constant_term(self):
        assert integer_roots_cubic(1, -1, 0, 0) == ("roots", [0, 1])

    def test_matches_scan(self):
        rng = random.Random(0)
        for _ in range(300):
            a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
            kind, roots = integer_roots_cubic(a, b, c, d)
            scan = [t for t in range(-260, 261)
                    if ((a * t + b) * t + c) * t + d == 0]
            if kind == "all":
                assert len(scan) == 521
            else:
                assert roots == scan


class TestCountSolutions:
    def test_fermat_box(self, fermat):
        res = count_solutions(fermat, 10)
        assert res.count == 61

    def test_single_variable(self):
        phi = symmetrize(1, {(0, 0, 0): 1}, const=1)[0]
        assert count_solutions(phi, 2).count == 1  # x = -1

    def test_watson_empty(self, watson5):
        assert count_solutions(watson5, 8).count == 0

    def test_sample_are_solutions(self, fermat):
        res = count_solutions(fermat, 6)
        assert res.solutions_sample
        for x in res.solutions_sample:
            assert fermat.evaluate(list(x)) == 0
        assert res.count >= len(res.solutions_sample)

    def test_matches_naive_on_random(self):
        rng = random.Random(1)
        degenerate_seen = 0
        for trial in range(50):
            n = rng.randint(1, 4)
            force = trial % 8 == 0
            phi = random_poly(rng, n, force_degenerate_leading=force)
            if phi.c(0, 0, 0) == 0:
                degenerate_seen += 1
            P = rng.randint(1, 12 if n <= 3 else 6)
            assert count_solutions(phi, P).count == \
                len(scan_zeros(phi, [range(-P, P + 1)] * n))
        assert degenerate_seen >= 5

    def test_box_scaling(self, fermat):
        res = count_solutions(fermat, 5, box=[(-2, 2)] * 3)
        assert res.count == len(scan_zeros(fermat, [range(-10, 11)] * 3))

    def test_budget_guard(self, fermat):
        with pytest.raises(BudgetExceeded):
            count_solutions(fermat, 1000, budget=100)

    def test_box_of_other_dimension_refused(self, fermat):
        with pytest.raises(DimensionMismatch, match="dim 2, expected 3"):
            count_solutions(fermat, 4, box=[(-1, 1)] * 2)

    def test_negative_p_refused(self, fermat):
        assert count_solutions(fermat, 0).count == 1  # the origin
        with pytest.raises(ValueError, match="P must be >= 0"):
            count_solutions(fermat, -1)

    def test_empty_ranges(self, fermat):
        assert count_solutions(fermat, 4, box=[(0.5, 0.2), (-1, 1), (-1, 1)]).count == 0
        assert count_solutions(fermat, 4, box=[(-1, 1), (0.5, 0.2), (-1, 1)]).count == 0

    @settings(max_examples=150, deadline=None)
    @given(counting_cases(heights=[5]))
    def test_matches_root_reference(self, case):
        phi, P, box, ranges, keep = case
        ref = roots_reference(phi, ranges)
        res = count_solutions(phi, P, box=box, keep=keep)
        assert res.count == len(ref) == len(scan_zeros(phi, ranges))
        assert res.solutions_sample == tuple(ref[:keep])

    @settings(max_examples=60, deadline=None)
    @given(counting_cases(heights=[2**40, 2**57, 2**70]))
    def test_matches_scan_at_large_heights(self, case):
        phi, P, box, ranges, keep = case
        ref = scan_zeros(phi, ranges)
        res = count_solutions(phi, P, box=box, keep=keep)
        assert res.count == len(ref)
        assert res.solutions_sample == tuple(ref[:keep])

    @settings(max_examples=60, deadline=None)
    @given(counting_cases(heights=[5, 2**70]), st.sampled_from([1, 2, 5, 13]))
    def test_any_chunk_size_walks_the_same_zeros(self, case, chunk):
        # a chunk shorter than the x_1 axis decodes every coordinate from
        # the flat index; a longer one takes trailing axes whole
        phi, P, box, ranges, keep = case
        ref = scan_zeros(phi, ranges)
        with mock.patch.object(counting, "_CHUNK", chunk):
            res = count_solutions(phi, P, box=box, keep=keep)
        assert res.count == len(ref)
        assert res.solutions_sample == tuple(ref[:keep])

    def test_python_ints_where_int64_wraps(self):
        # 2^61 (x^3 - y^3) is 0 mod 2^64 whenever x^3 = y^3 mod 8, so int64
        # arithmetic would report false zeros such as (2, 0)
        H = 2**61
        phi = symmetrize(2, {(0, 0, 0): H, (1, 1, 1): -H})[0]
        res = count_solutions(phi, 3)
        assert res.count == 7 == len(scan_zeros(phi, [range(-3, 4)] * 2))
        assert res.solutions_sample == tuple((t, t) for t in range(-3, 4))


class TestSmallestSolution:
    def test_sum_thirtysix(self):
        phi = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1},
                         const=-36)[0]
        rep = smallest_solution(phi, 5)
        assert rep.shell == 3
        assert sorted(abs(v) for v in rep.found) == [1, 2, 3]
        assert phi.evaluate(list(rep.found)) == 0

    def test_cube_root(self):
        phi = symmetrize(1, {(0, 0, 0): 1}, const=-8)[0]
        rep = smallest_solution(phi, 5)
        assert rep.found == (2,)

    def test_exhaustion(self):
        phi = symmetrize(1, {(0, 0, 0): 2}, const=1)[0]  # 2x^3 + 1 = 0
        rep = smallest_solution(phi, 20)
        assert rep.found is None
        assert rep.exhausted_to == 20

    def test_origin(self, fermat):
        assert smallest_solution(fermat, 2).found == (0, 0, 0)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(),
           st.booleans(), st.integers(0, 3), st.integers(0, 3),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_matches_shell_reference(self, n, seed, degenerate, x1_free,
                                     start, max_shell, z):
        phi = random_poly(random.Random(seed), n,
                          force_degenerate_leading=degenerate)
        phi = plant_zero(drop_x1(phi) if x1_free else phi, z[:n])
        rep = smallest_solution(phi, max_shell, start_shell=start)
        found, shell = shell_reference(phi, max_shell, start)
        assert (rep.found, rep.shell) == (found, shell)
        assert rep.exhausted_to == (max_shell if found is None else None)

    def test_budget_counts_shell_prefixes(self):
        # 2(x^3 + y^3 + z^3) + 1 is odd, so every shell is searched; shell s
        # needs (2s + 1)^2 prefixes: 49 at s = 3, 81 at s = 4
        phi = symmetrize(3, {(0, 0, 0): 2, (1, 1, 1): 2, (2, 2, 2): 2},
                         const=1)[0]
        assert smallest_solution(phi, 3, budget=49).exhausted_to == 3
        with pytest.raises(BudgetExceeded):
            smallest_solution(phi, 4, budget=49)
        with pytest.raises(BudgetExceeded):
            smallest_solution(phi, 4, budget=80, start_shell=4)

    def test_consistent_with_counts(self):
        phi = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): 1}, const=-9)[0]
        rep = smallest_solution(phi, 4)
        if rep.found is None:
            for s in range(1, 5):
                assert count_solutions(phi, s).count == 0
        else:
            assert count_solutions(phi, rep.shell).count > 0
            if rep.shell > 1:
                assert count_solutions(phi, rep.shell - 1).count == 0


class TestAsymptoticCompare:
    def test_violation_gives_zero_prediction(self):
        phi = symmetrize(1, {(0, 0, 0): 2}, const=1)[0]
        rows = asymptotic_compare(phi, [(-1.0, 1.0)], [3, 5], P0=3, Z=4.0)
        for row in rows:
            assert row["count"] == 0
            assert row["prediction"] == 0.0
            assert row["ratio"] is None

    def test_toy_rows_finite(self, fermat):
        box = [(0.2, 2.2), (0.2, 2.2), (0.2, 2.2)]
        rows = asymptotic_compare(fermat, box, [5, 10], P0=3, Z=4.0,
                                  budget=40_000_000)
        assert [r["P"] for r in rows] == [5, 10]
        for row in rows:
            assert row["prediction"] > 0
            assert row["count"] >= 0

    def test_nested_monotone(self, fermat):
        c1 = count_solutions(fermat, 5).count
        c2 = count_solutions(fermat, 10).count
        assert c2 >= c1
