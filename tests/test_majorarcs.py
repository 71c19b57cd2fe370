"""Real-point construction, certified boxes, the singular integral, slice
volumes, and truncated singular series."""

import random
from fractions import Fraction
from itertools import product
from math import pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from cubiclab import (BoxRegion, CubicPolynomial, build_box, real_point,
                      singular_integral, singular_series, slice_volume,
                      symmetrize)
from cubiclab import majorarcs
from cubiclab.budget import BudgetExceeded
from cubiclab.expsums import a_of_q_exact
from cubiclab.local import local_factor
from cubiclab.majorarcs import _cc_nodes, _grad_float, evaluate_array
from conftest import random_poly


# -- real point -------------------------------------------------------------

class TestRealPoint:
    def test_difference_of_cubes(self):
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -1})
        rp = real_point(C)
        # mode b) finds the integer zero before any real solve
        assert rp.kind == "integer"
        assert C.evaluate(list(rp.point)) == 0

    def test_diagonal_integer_early_exit(self):
        C, _ = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1})
        rp = real_point(C)
        assert rp.kind == "integer"
        assert rp.point != (0, 0, 0)
        assert C.evaluate(list(rp.point)) == 0

    def test_real_branch_two_variable_toy(self):
        # 2 x^3 + 3 x y^2 - y^3 has no small integer zero: real branch
        C, _ = symmetrize(2, {(0, 0, 0): 2, (0, 1, 1): 3, (1, 1, 1): -1})
        rp = real_point(C, mode="h-invariant", h=3)
        assert rp.kind == "real"
        x = rp.point
        val = evaluate_array(C, [np.asarray(float(v)) for v in x]).item()
        assert abs(val) < 1e-9
        assert rp.derivatives[0] > 0
        assert rp.xi > 0

    def test_normalization_required(self):
        C, _ = symmetrize(2, {(0, 0, 0): -1, (1, 1, 1): -2})
        with pytest.raises(ValueError):
            real_point(C, mode="h-invariant")


class TestBuildBox:
    def test_toy_box_certified(self):
        C, _ = symmetrize(2, {(0, 0, 0): 2, (0, 1, 1): 3, (1, 1, 1): -1})
        rp = real_point(C, mode="h-invariant", h=3)
        box = build_box(C, rp.point)
        assert isinstance(box, BoxRegion)
        assert box.width == 1.0
        assert box.d1 > 0 and box.d2 > 0
        assert max(abs(z) for z in box.center) >= 2.0  # origin excluded
        assert box.A >= 4 and box.A & (box.A - 1) == 0  # power of two
        assert box.sigma >= abs(
            evaluate_array(C, [np.asarray(v) for v in box.center]).item())

    def test_bounds_shape(self):
        box = BoxRegion(center=(5.0, -3.0))
        assert box.bounds == [(4.0, 6.0), (-4.0, -2.0)]


# -- Clenshaw-Curtis rule ---------------------------------------------------

def cosine_sum_weights(m):
    """Clenshaw-Curtis weights on [-1, 1] from the O(m^2) cosine sum,
    vectorised over the nodes only, so each weight sees the same arithmetic
    as the scalar double loop."""
    i = np.arange(m + 1)
    s = np.zeros(m + 1)
    for j in range(1, m // 2 + 1):
        b = 1.0 if 2 * j < m else 0.5
        s += b * np.cos(2 * j * pi * i / m) / (4 * j * j - 1)
    w = (2.0 / m) * (1 - 2 * s)
    w[0] /= 2
    w[-1] /= 2
    return w


class TestCCWeights:
    def test_fft_matches_cosine_sum(self):
        eps = np.finfo(float).eps
        for m in [*range(1, 65), 4096]:
            x, w = _cc_nodes(m, -1.0, 1.0)
            assert len(x) == len(w) == m + 1
            assert np.max(np.abs(w - cosine_sum_weights(m))) <= 2 * eps, m

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.5, 2.0)])
    def test_exact_up_to_degree_m(self, lo, hi):
        for m in range(1, 33):
            x, w = _cc_nodes(m, lo, hi)
            for d in range(m + 1):
                exact = (hi ** (d + 1) - lo ** (d + 1)) / (d + 1)
                assert float(w @ x ** d) == pytest.approx(
                    exact, rel=1e-13, abs=1e-13), (m, d)


# -- singular integral ------------------------------------------------------

def full_grid_integral(C, bounds, Z, m):
    """The Clenshaw-Curtis sum over the whole (m + 1)^n grid at once, with
    np.sinc: the reference for the slab-wise evaluation."""
    axes = [_cc_nodes(m, lo, hi) for lo, hi in bounds]
    n = len(bounds)
    X = [axes[i][0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
         for i in range(n)]
    vals = np.broadcast_to(evaluate_array(C, X), (m + 1,) * n)
    integ = 2.0 * Z * np.sinc(2.0 * Z * vals)
    for i in reversed(range(n)):
        integ = np.tensordot(integ, axes[i][1], axes=([i], [0]))
    return float(integ)


@st.composite
def boxes(draw, n):
    centres = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    halves = draw(st.lists(st.floats(0.05, 1), min_size=n, max_size=n))
    return [(c - h, c + h) for c, h in zip(centres, halves)]


class TestSingularIntegral:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.integers(0, 2**32 - 1), boxes(n))),
           st.floats(0.5, 8), st.sampled_from([16, 32, 64]),
           st.sampled_from([1, 7, 500, majorarcs._SLAB_POINTS]))
    def test_slabs_match_full_grid(self, case, Z, m, slab):
        seed, bounds = case
        C = random_poly(random.Random(seed), len(bounds), 4)
        want = full_grid_integral(C, bounds, Z, m)
        with mock.patch.object(majorarcs, "_SLAB_POINTS", slab):
            got = majorarcs._tensor_integral(C, bounds, Z, m)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_unconverged_raises(self):
        # tol = 0 is never met: the grid budget, not a node cap, ends it
        C = symmetrize(1, {(0, 0, 0): 1})[0]
        with pytest.raises(BudgetExceeded):
            singular_integral(C, [(1.0, 3.0)], 8.0, tol=0.0, budget=10_000)

    def test_no_zero_in_box_decays(self):
        C = symmetrize(1, {(0, 0, 0): 1})[0]
        out = singular_integral(C, [(1.0, 3.0)], 8.0)
        assert abs(out["value"]) < 0.1
        assert out["method"] == "clenshaw-curtis"

    def test_small_z_linear(self):
        C = symmetrize(1, {(0, 0, 0): 1})[0]
        v1 = singular_integral(C, [(1.0, 3.0)], 1e-6)["value"]
        v2 = singular_integral(C, [(1.0, 3.0)], 2e-6)["value"]
        assert v2 == pytest.approx(2 * v1, rel=1e-3)

    def test_monte_carlo_path_deterministic(self):
        C, _ = symmetrize(4, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1,
                              (3, 3, 3): -3})
        box = [(0.5, 1.5)] * 4
        a = singular_integral(C, box, 2.0, seed=7)
        b = singular_integral(C, box, 2.0, seed=7)
        assert a["method"] == "monte-carlo"
        assert a["value"] == b["value"]

    def test_transverse_zero_stabilizes(self):
        # C = x^3 - 2 y^3 with the zero sheet x = 2^(1/3) y through the box
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})
        c = 2.0 ** (1.0 / 3.0)
        box = [(c - 1, c + 1), (0.0, 2.0)]
        v8 = singular_integral(C, box, 8.0, tol=1e-9,
                               budget=30_000_000)["value"]
        v16 = singular_integral(C, box, 16.0, tol=1e-9,
                                budget=30_000_000)["value"]
        assert v8 > 0.1
        assert abs(v16 - v8) < 0.3 * v8


class TestSliceVolume:
    def test_one_variable(self):
        C = symmetrize(1, {(0, 0, 0): 1}, const=-1)[0]  # root x = 1
        out = slice_volume(C, [(0.5, 1.5)])
        assert not out["empty"]
        assert type(out["value"]) is float
        assert out["value"] == pytest.approx(1.0 / 3.0)  # 1/|3x^2| at x=1

    def test_no_zero_box(self):
        C = symmetrize(1, {(0, 0, 0): 1})[0]
        out = slice_volume(C, [(1.0, 3.0)])
        assert out["empty"] and out["value"] == 0.0

    def test_thin_shell_agreement(self):
        # V(0) against a Monte-Carlo thin-shell estimate vol{|C|<d}/(2d)
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})
        c = 2.0 ** (1.0 / 3.0)
        box = [(c - 1, c + 1), (0.0, 2.0)]
        v0 = slice_volume(C, box)["value"]
        rng = np.random.default_rng(1)
        N = 400_000
        d = 0.02
        xs = rng.uniform(box[0][0], box[0][1], N)
        ys = rng.uniform(box[1][0], box[1][1], N)
        vals = evaluate_array(C, [xs, ys])
        shell = 4.0 * np.count_nonzero(np.abs(vals) < d) / N / (2 * d)
        assert v0 == pytest.approx(shell, rel=0.05)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.integers(1, 5),
               st.lists(st.integers(-5, 5).filter(bool),
                        min_size=n - 1, max_size=n - 1),
               st.integers(-5, 5).filter(bool), boxes(n - 1))),
           st.floats(0.05, 0.4), st.integers(2, 16))
    def test_matches_brentq_per_node(self, case, rel_half, grid):
        # a x^3 + sum b_i y_i^3 + c: one root per slice, |x| >= 0.3 on the box
        a, bs, c, ybox = case
        n = len(bs) + 1
        C = CubicPolynomial(n, cubic={(0, 0, 0): a, **{
            (i + 1,) * 3: b for i, b in enumerate(bs)}}, const=c)
        t = -(sum(b * ((lo + hi) / 2) ** 3 for b, (lo, hi) in zip(bs, ybox))
              + c) / a
        xc = float(np.cbrt(t))
        assume(abs(xc) > 0.5)
        h = rel_half * abs(xc)
        bounds = [(xc - h, xc + h), *ybox]
        got = slice_volume(C, bounds, grid=grid)
        assert type(got["value"]) is float

        axes = [_cc_nodes(grid, lo, hi) for lo, hi in ybox]
        total, hit = 0.0, False
        for combo in product(*(range(grid + 1) for _ in ybox)):
            y = [float(axes[t][0][k]) for t, k in enumerate(combo)]
            w = np.prod([axes[t][1][k] for t, k in enumerate(combo)])

            def f(x):
                return evaluate_array(C, [np.asarray(v) for v in (x, *y)]).item()
            if f(bounds[0][0]) * f(bounds[0][1]) > 0:
                continue
            r = brentq(f, *bounds[0])
            total += w / abs(_grad_float(C, [r, *y])[0])
            hit = True
        assert got["empty"] == (not hit)
        assert got["value"] == pytest.approx(total, rel=1e-10)


# -- singular series --------------------------------------------------------

class TestSingularSeries:
    def test_fermat_small_cutoff(self, fermat):
        tr = singular_series(fermat, 5, mode="both")
        assert set(tr.factors) == {2, 3, 5}
        assert tr.value > 0
        # Euler factors are the exact local densities at the used level
        for p, k in tr.k_used.items():
            assert tr.factors[p] == local_factor(fermat, p, k)

    def test_qsum_q1_term(self, fermat):
        tr = singular_series(fermat, 1, mode="qsum")
        assert tr.frak_value == 1

    def test_qsum_matches_partial_sums(self, fermat):
        tr = singular_series(fermat, 6, mode="qsum")
        direct = sum((a_of_q_exact(fermat, q) for q in range(1, 7)),
                     Fraction(0))
        assert tr.frak_value == direct

    def test_violation_gives_zero_factor(self):
        phi = symmetrize(1, {(0, 0, 0): 2}, const=1)[0]  # 2x^3 + 1
        tr = singular_series(phi, 3, mode="euler")
        assert tr.factors[2] == 0
        assert tr.value == 0

    def test_tail_bound_shape(self, fermat):
        t1 = singular_series(fermat, 5).tail_bound
        t2 = singular_series(fermat, 10).tail_bound
        assert t2 < t1  # P0^(-1/3) decay
