"""Real-point construction, certified boxes, the singular integral, slice
volumes, and truncated singular series."""

import math
import os
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import inf, nextafter, pi
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from cubiclab import (BoxRegion, CubicPolynomial, singular_integral,
                      singular_series, slice_volume, symmetrize)
from cubiclab import local, majorarcs
from cubiclab.budget import BudgetExceeded
from cubiclab.local import local_factor
from cubiclab.majorarcs import (_Interval, _cc_nodes, build_box,
                                evaluate_array, real_point)
from cubiclab.nt import trial_factor
from cubiclab.polynomials import DimensionMismatch, _eval_terms
from conftest import (full_poly_strategy, make_fermat, make_selmer4,
                      random_poly)
from oracles import a_of_q_exact, splitmix64, uniform_sample


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
        rp = real_point(C, h=3)
        assert rp.kind == "real"
        x = rp.point
        val = evaluate_array(C, [np.asarray(float(v)) for v in x]).item()
        assert abs(val) < 1e-9
        assert rp.derivatives[0] > 0
        assert rp.xi > 0

    def test_normalization_required(self):
        C, _ = symmetrize(2, {(0, 0, 0): -1, (1, 1, 1): -2})
        with pytest.raises(ValueError):
            real_point(C)


def _certified_boxes():
    """(C, box) for the toy form, fermat (an axis through 0) and selmer4."""
    toy, _ = symmetrize(2, {(0, 0, 0): 2, (0, 1, 1): 3, (1, 1, 1): -1})
    out = [(toy, build_box(toy, real_point(toy, h=3).point))]
    for C in (make_fermat(), make_selmer4()):
        out.append((C, build_box(C, real_point(C).point)))
    return out


_BOXES = _certified_boxes()


class TestBuildBox:
    def test_toy_box_certified(self):
        C, _ = symmetrize(2, {(0, 0, 0): 2, (0, 1, 1): 3, (1, 1, 1): -1})
        rp = real_point(C, h=3)
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

    def test_toy_scale_and_center_pinned(self):
        _, box = _BOXES[0]
        assert box.A == 4 and box.center == (2563.34569045388, 8192.0)


def _enclosures(C, box):
    """The exact intervals of dC/dx_axis1, dC/dx_axis2 and C on the box."""
    ivals = [_Interval(Fraction(lo), Fraction(hi)) for lo, hi in box.bounds]
    return [_eval_terms(t, ivals) for t in
            (C.derivative(box.axis1), C.derivative(box.axis2), C.terms())]


class TestBoxCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(len(_BOXES))),
           st.lists(st.fractions(0, 1, max_denominator=2**12),
                    min_size=4, max_size=4))
    def test_points_of_the_box_obey_it(self, which, ts):
        C, box = _BOXES[which]
        x = [Fraction(lo) + t * (Fraction(hi) - Fraction(lo))
             for (lo, hi), t in zip(box.bounds, ts)]
        g1, g2, cv = _enclosures(C, box)
        grad, value = C.gradient(x), C.evaluate(x)
        for g, v, floor in ((g1, grad[box.axis1], box.d1),
                            (g2, grad[box.axis2], box.d2)):
            assert g.lo <= v <= g.hi
            assert abs(v) >= floor > 0
        assert cv.lo <= value <= cv.hi
        assert abs(value) <= box.sigma

    @pytest.mark.parametrize("which", range(len(_BOXES)))
    def test_floats_rounded_outward(self, which):
        C, box = _BOXES[which]
        g1, g2, cv = _enclosures(C, box)
        # the largest float below each exact floor, the smallest above the
        # exact bound of |C|
        for g, floor in ((g1, box.d1), (g2, box.d2)):
            exact = min(abs(g.lo), abs(g.hi))
            assert Fraction(floor) <= exact < Fraction(nextafter(floor, inf))
        exact = max(abs(cv.lo), abs(cv.hi))
        assert (Fraction(nextafter(box.sigma, -inf)) < exact
                <= Fraction(box.sigma))


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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)),
                    min_size=1, max_size=3))
    def test_axes_from_one_reference_rule(self, boxes):
        # the rule built once on [-1, 1] and mapped to each axis is, node
        # for node and weight for weight, the rule built on that axis
        bounds = [(c - h, c + h) for c, h in boxes]
        for m in (0, 1, 2, 16, 64):
            for (x, w), b in zip(majorarcs._cc_axes(m, bounds), bounds):
                want_x, want_w = _cc_nodes(m, *b)
                assert np.array_equal(x, want_x), (m, b)
                assert np.array_equal(w, want_w), (m, b)


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


@st.composite
def block_forms(draw, n):
    """A polynomial on disjoint variable blocks, C = C_1(x_U) + C_2(x_V) +
    ...: 0..n-1 shuffled and cut into blocks (all of size one for a
    diagonal form), each with cubic, quadratic and linear terms in its own
    variables only, plus a constant."""
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()) or n == 1:
        cuts = list(range(1, n))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    coeff = st.integers(-4, 4)
    cubic, quad, lin = {}, {}, [0] * n
    for a, b in zip([0, *cuts], [*cuts, n]):
        block = sorted(order[a:b])
        for t in combinations_with_replacement(block, 3):
            cubic[t] = draw(coeff)
        for t in combinations_with_replacement(block, 2):
            quad[t] = draw(coeff)
        for v in block:
            lin[v] = draw(coeff)
    return symmetrize(n, cubic, quad, lin, draw(coeff))[0]


def grid(bounds, m):
    """The Clenshaw-Curtis nodes of a box, one broadcastable axis each."""
    n = len(bounds)
    return [_cc_nodes(m, *b)[0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i, b in enumerate(bounds)]


def tensor_integral(C, bounds, Z, m):
    """One level of the tensor rule, C's structure read as singular_integral
    reads it before its doubling loop."""
    return majorarcs._tensor_integral(C, bounds, Z, m,
                                      majorarcs._tensor_split(C))


def one_table_kernel(C, X, Z):
    """2 Z sinc(2 Z C) from C's whole term table: t = 2 pi Z C and np.sinc's
    arithmetic on it, the integrand before C was split by variable block."""
    t = evaluate_array(C, X)
    t *= 2.0 * Z
    t *= pi
    zero = t == 0
    f = np.sin(t, out=np.empty_like(t))
    np.divide(f, t, out=f, where=~zero)
    f *= 2.0 * Z
    f[zero] = 2.0 * Z
    return f


def split_slab_sums(C, bounds, Z, m):
    """Each slab's sum from the production rule for C's variable blocks,
    next to the same slab summed from one_table_kernel, and the bound
    between them: the per-point bound 8 eps (T + 1) 2 Z, T = 2 pi Z sum
    |w prod x_i| over C's terms, at its largest on the slab, times the sum
    of |weights| there.  T bounds sum |2 pi Z C_k|, and it is T that bounds
    the rounding of a block whose terms cancel (6 x2^3 + 6 x1 x2 - 6 x2^2
    near its zeros): the two ways of summing t differ by eps T there."""
    n = len(bounds)
    blocks = majorarcs._variable_blocks(C.terms())
    assert len(blocks) > 1
    axes = [_cc_nodes(m, lo, hi) for lo, hi in bounds]
    cuts = majorarcs._slab_cuts(m, n)
    slab = majorarcs._split_slab(C, majorarcs._tensor_split(C), axes, Z,
                                 max(np.diff(cuts)))
    X = grid(bounds, m)
    shape = (m + 1,) * n
    f = np.broadcast_to(one_table_kernel(C, X, Z), shape)
    T = 2 * pi * Z * np.broadcast_to(_eval_terms(
        [(abs(w), idx) for w, idx in C.terms()], [np.abs(x) for x in X]),
        shape)
    W = np.ones(())
    for _, w in axes:
        W = np.multiply.outer(W, w)
    eps = np.finfo(float).eps
    out = []
    for s, e in zip(cuts[:-1], cuts[1:]):
        want = f[s:e]
        for _, w in reversed(axes[1:]):
            want = want @ w
        bound = (8 * eps * (T[s:e].max() + 1) * 2 * Z
                 * np.abs(W[s:e]).sum())
        out.append((slab((s, e)), float(axes[0][1][s:e] @ want), bound))
    return out


def sinc_points(fn):
    """fn() with every point handed to majorarcs._sinc_kernel recorded: the
    result and the list of (coordinate arrays, values) per call."""
    kernel, seen = majorarcs._sinc_kernel, []

    def spy(C, X, Z, out=None):
        f = kernel(C, X, Z, out)
        seen.append(([np.array(x, copy=True) for x in X], f.copy()))
        return f

    with mock.patch.object(majorarcs, "_sinc_kernel", spy):
        return fn(), seen


def assert_near_set_exact(C, bounds, Z, m, seen):
    """Every node with |t| < 1, t = 2 pi Z C from C's whole table, went to
    _sinc_kernel (seen as sinc_points records it), so its value there is
    bit for bit one_table_kernel's."""
    X = grid(bounds, m)
    t = np.broadcast_to(evaluate_array(C, X) * (2.0 * Z) * pi,
                        (m + 1,) * len(bounds))
    near = {tuple(float(X[i].flat[j]) for i, j in enumerate(ix))
            for ix in zip(*np.nonzero(np.abs(t) < 1))}
    points = {tuple(map(float, p)) for Y, _ in seen
              for p in zip(*np.broadcast_arrays(*Y))}
    assert near <= points


class TestVariableBlocks:
    def test_diagonal_form_one_block_per_variable(self):
        C, _ = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): -1},
                          const=5)
        assert majorarcs._variable_blocks(C.terms()) == [
            [(5, ()), (1, (0, 0, 0))], [(1, (1, 1, 1))], [(-1, (2, 2, 2))]]

    def test_terms_join_their_variables(self):
        # x0 x1 x3 and x1 x4 link 0, 1, 3, 4; x2 stands alone
        C, _ = symmetrize(5, {(0, 1, 3): 1, (2, 2, 2): 1},
                          {(1, 4): 2}, lin=[0, 0, 3, 0, 0])
        blocks = majorarcs._variable_blocks(C.terms())
        assert [sorted({i for _, idx in b for i in idx}) for b in blocks] == [
            [0, 1, 3, 4], [2]]
        assert sorted(sum(blocks, [])) == sorted(C.terms())

    def test_connected_and_constant_tables_are_one_block(self):
        chain, _ = symmetrize(3, {(0, 0, 1): 1, (1, 2, 2): 1})
        assert majorarcs._variable_blocks(chain.terms()) == [
            list(chain.terms())]
        const = CubicPolynomial(2, const=3)
        assert majorarcs._variable_blocks(const.terms()) == [[(3, ())]]
        zero = CubicPolynomial(2)
        assert majorarcs._variable_blocks(zero.terms()) == [[]]
        assert tensor_integral(zero, [(0.0, 1.0)] * 2, 3.0,
                               4) == pytest.approx(6.0)


FREE_BOX = [(0.5, 1.5), (0.2, 1.1), (0.3, 1.2)]


class TestBlockKernel:
    """The tensor rule for C = A(x_O) + B(x_L), contracted over L's points
    slab by slab, against the same slabs summed from the one-table
    integrand."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
               block_forms(n), boxes(n))),
           st.floats(0.5, 64), st.sampled_from([4, 16, 32]),
           st.sampled_from([1, 7, 500, majorarcs._SLAB_POINTS]))
    # C free of x0 (A = 0), of x1 (an axis of L) and of x2
    @example((symmetrize(3, {(1, 1, 1): 1, (2, 2, 2): -2})[0], FREE_BOX),
             5.0, 16, 500)
    @example((symmetrize(3, {(0, 0, 0): 1, (2, 2, 2): -2})[0], FREE_BOX),
             30.0, 16, 500)
    @example((symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): -1})[0], FREE_BOX),
             0.7, 16, 500)
    def test_matches_one_table(self, case, Z, m, slab):
        # single- and multi-axis L: a block of one or more variables, or
        # the union of several blocks
        C, bounds = case
        assume(len(majorarcs._variable_blocks(C.terms())) > 1)
        with mock.patch.object(majorarcs, "_SLAB_POINTS", slab):
            sums, seen = sinc_points(
                lambda: split_slab_sums(C, bounds, Z, m))
        for got, want, bound in sums:
            assert abs(got - want) <= bound
        assert_near_set_exact(C, bounds, Z, m, seen)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.integers(-4, 4)] * 3).filter(any),
           st.floats(-2, 2), st.floats(0.05, 1), st.floats(0.5, 64),
           st.sampled_from([4, 16, 32]))
    def test_on_and_near_the_zero_set(self, coeffs, centre, half, Z, m):
        # C = P(x0) - P(x1) is exactly 0 on the diagonal of a square box:
        # 1 / 0 in the slab, which the near set overwrites, and every
        # diagonal node goes to the one-table kernel
        a, b, c = coeffs
        C, _ = symmetrize(2, {(0, 0, 0): a, (1, 1, 1): -a},
                          {(0, 0): b, (1, 1): -b}, lin=[c, -c])
        bounds = [(centre - half, centre + half)] * 2
        x = _cc_nodes(m, *bounds[0])[0]
        sums, seen = sinc_points(
            lambda: split_slab_sums(C, bounds, Z, m))
        for got, want, bound in sums:
            assert abs(got - want) <= bound
        assert_near_set_exact(C, bounds, Z, m, seen)
        zeros = {(u, v) for X, f in seen for u, v, y in zip(*X, f)
                 if y == 2 * Z}
        assert {(v, v) for v in x} <= zeros

    def test_every_node_near(self):
        # |2 pi Z C| < 1 on the whole box: every node goes to the one-table
        # kernel, and the rule is 2 Z sinc(2 Z C) summed, about 2 Z vol
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})
        bounds, Z, m = [(0.5, 1.5), (0.0, 1.0)], 1e-3, 16
        sums, seen = sinc_points(
            lambda: split_slab_sums(C, bounds, Z, m))
        assert sum(len(f) for _, f in seen) == (m + 1) ** 2
        for got, want, bound in sums:
            assert abs(got - want) <= bound
        total = tensor_integral(C, bounds, Z, m)
        assert total == pytest.approx(2 * Z, rel=1e-4)

    def test_far_from_the_zero_set_no_kernel_call(self):
        # x^3 + y^3 > 0 on the box: every slab skips the near search
        C, _ = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): 1})
        got, seen = sinc_points(lambda: tensor_integral(
            C, [(1.0, 2.0), (1.0, 2.0)], 8.0, 32))
        assert seen == []
        want = serial_slab_integral(C, [(1.0, 2.0)] * 2, 8.0, 32)
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.integers(0, 2**32 - 1), boxes(n))),
           st.floats(0.5, 8), st.sampled_from([16, 32]))
    def test_connected_forms_unchanged(self, case, Z, m):
        seed, bounds = case
        C = random_poly(random.Random(seed), len(bounds), 4)
        assume(len(majorarcs._variable_blocks(C.terms())) == 1)
        want = serial_slab_integral(C, bounds, Z, m, kernel=one_table_kernel)
        assert tensor_integral(C, bounds, Z, m) == want


EPS = np.finfo(float).eps


@st.composite
def cauchy_levels(draw):
    """(T, u, v, cap) for majorarcs._cauchy_sums in one of six layouts:
    random T and u; the poles -u just outside the near window of the whole
    range [c - h, c + h] of T, (1 + kappa) h + 2 from c; T on the Chebyshev
    nodes of that range; a single T value; every pole inside the range of
    T; every pole far from it.  cap runs from len(u), one O point per block,
    to past the whole level."""
    kind = draw(st.sampled_from(
        ["random", "window edge", "on the nodes", "one value", "all near",
         "all far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P, N = draw(st.integers(1, 60)), draw(st.integers(1, 90))
    a, w = draw(st.floats(-400, 400)), draw(st.floats(0, 200))
    T = a + w * rng.random(P)
    if kind == "one value":
        T[:] = a
    c, h = (T.min() + T.max()) / 2, (T.max() - T.min()) / 2
    if kind == "on the nodes":
        x = majorarcs._chebyshev(draw(st.integers(1, 24)))[0]
        T = np.concatenate([c + h * x, [c - h, c + h]])
    r = (1 + majorarcs._KAPPA) * h + 2
    side = rng.choice([-1.0, 1.0], N)
    if kind == "window edge":
        poles = c + side * r * (1 + 1e-3 * rng.random(N) ** 4)
    elif kind == "all near":
        poles = c + h * rng.uniform(-1, 1, N)
    elif kind == "all far":
        poles = c + side * (r + 10.0 ** rng.uniform(0, 4, N))
    else:
        poles = c + (h + 2) * rng.uniform(-10, 10, N)
    v = rng.uniform(-1, 1, (2, N))
    N, P = len(poles), len(T)
    return T, -poles, v, draw(st.integers(N, 2 * P * N))


def dense_cauchy(T, u, v):
    """The contraction pair by pair: sum over l of v[:, l] / (T + u[l]) by
    fsum, the candidates u in (-2 - T, 2 - T) left out, and the candidate
    mask."""
    with np.errstate(divide="ignore", over="ignore"):
        R = 1.0 / (T[:, None] + u)  # t = 0 or subnormal: a candidate
    cand = (u > -2.0 - T[:, None]) & (u < 2.0 - T[:, None])
    R[cand] = 0.0
    S = np.array([[math.fsum(row * vc) for vc in v] for row in R])
    return S, cand


class TestFarField:
    """The split rule's contraction of 1/(T + u): near windows summed
    directly, far poles through Chebyshev proxies."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1 + majorarcs._KAPPA, 1e8), st.booleans(),
           st.lists(st.floats(-1, 1), max_size=20))
    def test_proxies_interpolate_a_pole_to_rounding(self, x, left, s):
        # 1/(s - p) for a pole p at |p| >= 1 + kappa, interpolated at the K
        # nodes taken from |p|, points on the nodes included
        p = -x if left else x
        K = int(majorarcs._proxies(x, 1.0))
        nodes = majorarcs._chebyshev(K)[0]
        s = np.concatenate([s, nodes])
        got = majorarcs._lagrange(s, K) @ (1.0 / (nodes - p))
        want = 1.0 / (s - p)
        assert np.all(np.abs(got - want) <= 8 * EPS * np.abs(want))

    @pytest.mark.parametrize("x", [1 + majorarcs._KAPPA, 4.5, 32.0, 1e3])
    def test_proxies_are_the_fewest_at_rounding_level(self, x):
        # K is the least with 1 / T_K(x) <= eps, T_K(x) = cosh(K acosh x)
        K = int(majorarcs._proxies(x, 1.0))
        assert np.cosh(K * np.arccosh(x)) >= 1 / EPS
        assert K == 1 or np.cosh((K - 1) * np.arccosh(x)) < 1 / EPS

    def test_node_points_take_the_identity_row(self):
        x = majorarcs._chebyshev(7)[0]
        assert np.array_equal(majorarcs._lagrange(x, 7), np.eye(7))

    @settings(max_examples=150, deadline=None)
    @given(cauchy_levels())
    def test_panels_keep_far_poles_outside_their_windows(self, level):
        T, u, _, cap = level
        Ts, us = np.sort(T), np.sort(u)
        panels = majorarcs._panels(Ts, us, cap)
        bnd = [p0 for p0, *_ in panels] + [panels[-1][1]]
        assert bnd[0] == 0 and bnd[-1] == len(T) and np.all(np.diff(bnd) > 0)
        for p0, p1, lo, hi, K, c, h in panels:
            panel = Ts[p0:p1]
            assert len(panel) * (hi - lo) <= cap
            if K == 0:
                assert (lo, hi) == (0, len(u))
                continue
            # [c - h, c + h] is the panel's range, to the rounding of c, h
            assert np.all(np.abs(panel - c)
                          <= h + 4 * np.spacing(np.abs(panel).max()))
            far = np.abs(np.concatenate([us[:lo], us[hi:]]) + c)
            r = (1 + majorarcs._KAPPA) * h + 2
            assert len(far) and far.min() >= r
            if h:
                with np.errstate(over="ignore"):
                    x = far.min() / h
                assert np.cosh(K * np.arccosh(x)) >= 1 / EPS

    @settings(max_examples=300, deadline=None)
    @given(cauchy_levels())
    def test_contraction_matches_dense_sum(self, level):
        # every candidate goes to `near` once, and S is the dense sum to
        # the bound of TestBlockKernel per O point: 8 eps (T' + 1) sum |v|,
        # T' = |T| + max |u| bounding the phase sum
        T, u, v, cap = level
        seen = []

        def near(o, l):
            seen.extend(zip(o.tolist(), l.tolist()))
            return (3.0 * o + l) % 5

        S, g = majorarcs._cauchy_sums(T, u, v, cap, near)
        want, cand = dense_cauchy(T, u, v)
        assert sorted(seen) == sorted(zip(*map(list, np.nonzero(cand))))
        o, l = np.nonzero(cand)
        assert np.array_equal(g, np.bincount(
            o, weights=(3.0 * o + l) % 5, minlength=len(T)))
        bound = 8 * EPS * (np.abs(T) + np.abs(u).max() + 1) * np.abs(v).sum()
        assert np.all(np.abs(S - want) <= bound[:, None])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([
               # O = {0, 1}, L = {2, 3}; O = {0}, L = {1, 2}; O = {0, 1, 2},
               # L = {3}
               ({(0, 0, 0): 1, (0, 1, 1): 2, (2, 2, 2): -2, (3, 3, 3): 1}, 4),
               ({(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): -1}, 3),
               ({(0, 0, 1): 1, (1, 1, 2): 1, (3, 3, 3): -3}, 4)]),
           st.floats(-0.5, 0.5), st.floats(8, 64), st.sampled_from([16, 32]),
           st.sampled_from([7, 500, 4096]))
    def test_split_forms_with_several_axes(self, form, shift, Z, m, slab):
        # boxes across and beside the zero set, slabs small enough that
        # the levels are cut into panels
        cubic, n = form
        C, _ = symmetrize(n, cubic)
        bounds = [(0.5 + shift, 1.5 + shift)] * (n - 1) + [(0.8, 1.3)]
        with mock.patch.object(majorarcs, "_SLAB_POINTS", slab):
            sums, seen = sinc_points(
                lambda: split_slab_sums(C, bounds, Z, m))
        for got, want, bound in sums:
            assert abs(got - want) <= bound
        assert_near_set_exact(C, bounds, Z, m, seen)

    @pytest.mark.parametrize("C,bounds,Z,m,slab", [
        # panels cut from a level across the zero set; one far panel
        (symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})[0],
         [(1.1619052598738477, 1.861905259873848),
          (0.85, 1.5499999999999998)], 64.0, 256, 16384),
        (make_fermat(), [(1.0, 2.0), (1.0, 2.0), (5.0, 6.0)], 4.0, 32, 7)])
    def test_far_fields_on_corpus_levels(self, C, bounds, Z, m, slab):
        calls = []
        lagrange = majorarcs._lagrange

        def spy(s, K):
            calls.append(K)
            return lagrange(s, K)

        with mock.patch.object(majorarcs, "_SLAB_POINTS", slab), \
                mock.patch.object(majorarcs, "_lagrange", spy):
            sums, seen = sinc_points(
                lambda: split_slab_sums(C, bounds, Z, m))
        assert calls
        for got, want, bound in sums:
            assert abs(got - want) <= bound
        assert_near_set_exact(C, bounds, Z, m, seen)


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
            got = tensor_integral(C, bounds, Z, m)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_constant_c_in_one_slab_row(self):
        # a constant C evaluates to a 0-d array, one value for the whole slab
        C = CubicPolynomial(1, const=2)
        want = full_grid_integral(C, [(-1.0, 1.0)], 1.0, 16)
        with mock.patch.object(majorarcs, "_SLAB_POINTS", 1):
            got = tensor_integral(C, [(-1.0, 1.0)], 1.0, 16)
        assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 4])
    def test_box_of_other_dimension_refused(self, dim):
        C = random_poly(random.Random(4), 3, 4)
        with pytest.raises(DimensionMismatch, match=f"dim {dim}, expected 3"):
            singular_integral(C, [(0.5, 1.5)] * dim, 2.0)

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

    @pytest.mark.parametrize("budget", [-1, 0, 1])
    def test_monte_carlo_below_two_points_raises(self, budget):
        # one point has no standard error, none has no mean
        C = random_poly(random.Random(3), 4, 4)
        with pytest.raises(BudgetExceeded, match="at least 2 points"):
            singular_integral(C, [(0.5, 1.5)] * 4, 4.0, budget=budget)
        out = singular_integral(C, [(0.5, 1.5)] * 4, 4.0, budget=2)
        assert out["nodes"] == 2 and out["error"] > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_grid_checked_before_it_is_built(self, n):
        C = random_poly(random.Random(4), n, 4)
        with mock.patch.object(majorarcs, "_tensor_integral") as rule, \
                pytest.raises(BudgetExceeded, match=rf"\(17\)\^{n}"):
            singular_integral(C, [(0.5, 1.5)] * n, 2.0, budget=17 ** n - 1)
        rule.assert_not_called()

    def test_budget_admits_exactly_the_grids_built(self):
        # 17^3 fits, 33^3 does not: one grid is built, then the next raises
        C = random_poly(random.Random(4), 3, 4)
        with mock.patch.object(majorarcs, "_tensor_integral",
                               return_value=0.0) as rule, \
                pytest.raises(BudgetExceeded, match=r"\(33\)\^3"):
            singular_integral(C, [(0.5, 1.5)] * 3, 2.0, tol=0.0,
                              budget=17 ** 3)
        assert [c.args[3] for c in rule.call_args_list] == [16]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 5), st.integers(0, 2**32 - 1),
           st.integers(2, 3000), st.sampled_from([3, 1000, 1 << 16]))
    def test_monte_carlo_matches_one_serial_draw(self, n, seed, N, chunk):
        # every axis drawn whole from one serial SplitMix64 stream before
        # any kernel call, and the one-table integrand: the estimate to the
        # last bit
        C = random_poly(random.Random(seed), n, 4)
        box = [(0.5, 1.5), (-1.0, 0.25)] + [(0.5, 1.5)] * (n - 2)
        vals = one_table_kernel(C, uniform_sample(seed, box, N), 4.0)
        vol = 1.0 * 1.25
        with mock.patch.object(majorarcs, "_MC_CHUNK", chunk):
            out = singular_integral(C, box, 4.0, budget=N, seed=seed)
        assert out == {"value": vol * float(np.mean(vals)),
                       "error": vol * float(np.std(vals) / np.sqrt(N)),
                       "nodes": N, "method": "monte-carlo"}

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_sample_chunks_are_slices_of_one_draw(self, seed):
        # each chunk computes its slice from the output index alone; the
        # serial Python-int stream draws every output before it
        box = [(0.5, 1.5), (-3.0, 2.0), (0.0, 1e-3), (5.0, 6.0), (-1.0, 1.0)]
        N, chunk = 400_000, 1 << 16
        whole = uniform_sample(seed, box, N)
        for c in range(0, N, chunk):
            size = min(chunk, N - c)
            got = majorarcs._sample_chunk(seed, box, N, c, size)
            for axis, g in zip(whole, got):
                assert np.array_equal(g, axis[c:c + size]), c

    def test_oracle_stream_is_splitmix64(self):
        # the first outputs of the reference splitmix64.c seeded with 0
        stream = splitmix64(0)
        assert [next(stream) for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_monte_carlo_unbiased(self):
        # C = x1^3 - 2 reads x1 alone: I is the volume of the other axes
        # times a 1-D integral across the zero 2^(1/3); each seed's estimate
        # lies within 6 of its standard errors
        C = CubicPolynomial(4, cubic={(0, 0, 0): 1}, const=-2)
        box = [(0.5, 1.5), (-1.0, 0.25), (0.5, 1.5), (0.0, 2.0)]
        Z = 4.0
        with mpmath.workdps(30):
            exact = 2.5 * float(mpmath.quad(
                lambda x: 2 * Z * mpmath.sincpi(2 * Z * (x**3 - 2)),
                [0.5, mpmath.cbrt(2), 1.5]))
        for seed in range(20):
            out = singular_integral(C, box, Z, seed=seed)
            assert out["method"] == "monte-carlo"
            assert abs(out["value"] - exact) < 6 * out["error"], seed

    @pytest.mark.parametrize("case,Z,nodes", [
        ("fermat", 4.0, 257), ("x3m2y3", 4.0, 129), ("x3m2y3", 16.0, 513),
        ("x3m2y3", 64.0, 2049)])
    def test_doubling_stops_where_the_dense_rule_stopped(self, case, Z,
                                                          nodes):
        # the levels the dense reciprocal matrix stopped at, fermat on
        # [1, 2]^2 x [5, 6] and x^3 - 2 y^3 on a box across its zero set;
        # the value within the per-level bound of the one-table integrand
        # (split_slab_sums) over the whole last grid
        C, bounds = {
            "fermat": (make_fermat(), [(1.0, 2.0), (1.0, 2.0), (5.0, 6.0)]),
            "x3m2y3": (symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): -2})[0],
                       [(1.1619052598738477, 1.861905259873848),
                        (0.85, 1.5499999999999998)])}[case]
        out = singular_integral(C, bounds, Z, budget=20_000_000)
        assert (out["method"], out["nodes"]) == ("clenshaw-curtis", nodes)
        top = [max(abs(lo), abs(hi)) for lo, hi in bounds]
        T = 2 * pi * Z * float(_eval_terms(
            [(abs(w), idx) for w, idx in C.terms()], top))
        vol = math.prod(hi - lo for lo, hi in bounds)
        want = serial_slab_integral(C, bounds, Z, nodes - 1)
        assert abs(out["value"] - want) <= 8 * EPS * (T + 1) * 2 * Z * vol

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


def serial_slab_integral(C, bounds, Z, m, kernel=one_table_kernel):
    """The slab loop of _tensor_integral for a connected C run serially,
    each slab's partial sum added in slab order: the reference its threaded
    form must match bit for bit.  Slabs are as few as keep each within
    _SLAB_POINTS points, their row counts as equal as they can be."""
    axes = [_cc_nodes(m, lo, hi) for lo, hi in bounds]
    n = len(bounds)
    X = [axes[i][0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
         for i in range(n)]
    x0, w0 = axes[0]
    rows = max(1, majorarcs._SLAB_POINTS // (m + 1) ** (n - 1))
    k = -(-(m + 1) // rows)
    cuts = [(m + 1) * i // k for i in range(k + 1)]
    assert max(np.diff(cuts)) - min(np.diff(cuts)) <= 1
    total = 0.0
    for s, e in zip(cuts[:-1], cuts[1:]):
        X[0] = x0[s:e].reshape((-1,) + (1,) * (n - 1))
        f = np.broadcast_to(kernel(C, X, Z), (e - s,) + (m + 1,) * (n - 1))
        for _, w in reversed(axes[1:]):
            f = f @ w
        total += float(w0[s:e] @ f)
    return total


def per_worker_count(fn, counts=(1, 2, 3)):
    """fn() with majorarcs._WORKERS patched to each count in turn."""
    out = []
    for w in counts:
        with mock.patch.object(majorarcs, "_WORKERS", w):
            out.append(fn())
    return out


class TestWorkers:
    """The slabs and Monte-Carlo chunks of the singular integral are shared
    among _WORKERS threads; no result may depend on the count."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.one_of(st.integers(0, 2**32 - 1).map(
                   lambda seed: random_poly(random.Random(seed), n, 4)),
                         block_forms(n)),
               boxes(n))),
           st.floats(0.5, 8), st.sampled_from([16, 32, 64]),
           st.sampled_from([1, 7, 500, majorarcs._SLAB_POINTS]))
    # C free of a variable: a thinner kernel, which the slab must lay out
    # and take the sine of as on the full slab (a constant C summed as a
    # zero-stride view gave 3.9999999999999996 against 4.0, and C = x_2
    # 1.8056466671605613 against 1.8056466671605615)
    @example((CubicPolynomial(1, const=0), [(-1.0, 1.0)]), 1.0, 64, 500)
    @example((CubicPolynomial(2, lin=(0, 1)), [(-1.0, 1.0)] * 2), 1.0, 32,
             500)
    def test_tensor_rule_identical_per_worker_count(self, case, Z, m, slab):
        # a connected C matches the serial slab loop bit for bit; the
        # contracted rule of a decomposable C is checked against it in
        # TestBlockKernel, here only against itself
        C, bounds = case
        with mock.patch.object(majorarcs, "_SLAB_POINTS", slab):
            got = per_worker_count(
                lambda: tensor_integral(C, bounds, Z, m))
            if len(majorarcs._variable_blocks(C.terms())) == 1:
                assert got[0] == serial_slab_integral(C, bounds, Z, m)
        assert got == [got[0]] * 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("slab", [1, 500, majorarcs._SLAB_POINTS])
    def test_singular_integral_identical_per_worker_count(self, n, slab):
        # converges at 65 nodes: up to 65 slabs, two at n = 3 by default
        C = random_poly(random.Random(2), n, 2)
        run = lambda: singular_integral(C, [(0.5, 1.0)] * n, 0.5)
        with mock.patch.object(majorarcs, "_SLAB_POINTS", slab):
            got = per_worker_count(run)
        assert got[0]["method"] == "clenshaw-curtis"
        assert got[0] == got[1] == got[2]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 5), st.integers(0, 2**32 - 1),
           st.integers(2, 3000), st.sampled_from([3, 1000, 1 << 16]))
    def test_monte_carlo_identical_per_chunking(self, n, seed, N, chunk):
        # N need not be a multiple of the chunk; one chunk of the whole
        # sample is the unchunked kernel call
        C = random_poly(random.Random(seed), n, 4)
        box = [(0.5, 1.5)] * n
        run = lambda: singular_integral(C, box, 4.0, budget=N, seed=seed)
        with mock.patch.object(majorarcs, "_MC_CHUNK", N):
            want = run()
        with mock.patch.object(majorarcs, "_MC_CHUNK", chunk):
            got = per_worker_count(run)
        assert want["method"] == "monte-carlo" and want["nodes"] == N
        assert got == [want] * 3

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slab_exception_reaches_caller(self, workers):
        # slabs 3 and 5 of 17 raise: the caller sees slab 3's error, never
        # a partial sum with a slab missing
        C = random_poly(random.Random(5), 2, 4)
        x0 = _cc_nodes(16, 0.5, 1.5)[0]
        kernel = majorarcs._sinc_kernel

        def faulty(C, X, Z, out=None):
            for s in (3, 5):
                if X[0].flat[0] == x0[s]:
                    raise MemoryError(f"slab {s}")
            return kernel(C, X, Z, out)

        with mock.patch.object(majorarcs, "_SLAB_POINTS", 17), \
                mock.patch.object(majorarcs, "_sinc_kernel", faulty), \
                mock.patch.object(majorarcs, "_WORKERS", workers), \
                pytest.raises(MemoryError, match="slab 3"):
            tensor_integral(C, [(0.5, 1.5)] * 2, 2.0, 16)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_map_keeps_order_and_first_error(self, workers):
        with mock.patch.object(majorarcs, "_WORKERS", workers):
            assert majorarcs._map(lambda x: x * x, range(50)) == [
                x * x for x in range(50)]
            assert majorarcs._map(abs, []) == []

            def fn(x):
                if x in (7, 30):
                    raise ValueError(x)
                return x

            with pytest.raises(ValueError, match="^7$"):
                majorarcs._map(fn, range(50))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_map_raises_first_item_not_first_in_time(self, workers):
        # item 3 raises first; item 2, already taken, raises after it
        raised = threading.Event()

        def fn(x):
            if x == 2:
                assert raised.wait(timeout=30)
                raise ValueError(2)
            if x == 3:
                raised.set()
                raise ValueError(3)
            return x

        with mock.patch.object(majorarcs, "_WORKERS", workers), \
                pytest.raises(ValueError, match="^2$"):
            majorarcs._map(fn, range(10))

    def test_map_stress_each_item_once(self):
        # more workers than cores and a short switch interval: every item
        # is called exactly once and lands in its own slot
        calls, lock, got = [], threading.Lock(), []

        def fn(x):
            with lock:
                calls.append(x)
            return -x

        def run():
            with mock.patch.object(majorarcs, "_WORKERS", 8):
                got.append(majorarcs._map(fn, range(3000)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=run)
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive()
        assert got == [[-x for x in range(3000)]]
        assert sorted(calls) == list(range(3000))

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and two CPUs")
    def test_map_pins_workers_not_caller(self):
        # two workers on a two-CPU mask: each runs pinned to one of them
        mask = os.sched_getaffinity(0)
        two = set(sorted(mask)[:2])
        os.sched_setaffinity(0, two)
        try:
            with mock.patch.object(majorarcs, "_WORKERS", 2):
                seen = majorarcs._map(lambda _: os.sched_getaffinity(0),
                                      range(8))
            assert all(len(m) == 1 and m <= two for m in seen)
            assert os.sched_getaffinity(0) == two
        finally:
            os.sched_setaffinity(0, mask)

    @pytest.mark.parametrize("cpus, pins", [
        ({4, 9}, [{4}, {9}]),  # one worker per CPU: each pinned
        ({4, 9, 11}, []),      # fewer workers than CPUs: none pinned
    ])
    def test_map_pins_only_a_full_mask(self, cpus, pins):
        pinned = []
        with mock.patch.object(majorarcs, "_WORKERS", 2), \
                mock.patch.object(os, "sched_getaffinity", create=True,
                                  return_value=cpus), \
                mock.patch.object(os, "sched_setaffinity", create=True,
                                  side_effect=lambda _, m: pinned.append(m)):
            assert majorarcs._map(abs, range(-6, 0)) == [6, 5, 4, 3, 2, 1]
        assert sorted(pinned, key=min) == pins

    def test_refused_pin_is_ignored(self):
        # a pin the system refuses (a seccomp filter, a shrunken cpuset)
        # leaves the workers unpinned, not dead: the Monte-Carlo sample is
        # still filled in full and matches the serial result
        C = random_poly(random.Random(3), 4, 4)
        box = [(0.5, 1.5)] * 4
        run = lambda: singular_integral(C, box, 4.0, budget=5000, seed=1)
        with mock.patch.object(majorarcs, "_WORKERS", 1):
            want = run()
        with mock.patch.object(majorarcs, "_WORKERS", 2), \
                mock.patch.object(majorarcs, "_MC_CHUNK", 1000), \
                mock.patch.object(os, "sched_getaffinity", create=True,
                                  return_value={0, 1}), \
                mock.patch.object(os, "sched_setaffinity", create=True,
                                  side_effect=OSError("denied")):
            assert run() == want

    def test_map_serial_in_calling_thread(self):
        me = threading.get_ident()
        with mock.patch.object(majorarcs, "_WORKERS", 1):
            assert majorarcs._map(lambda _: threading.get_ident(),
                                  range(5)) == [me] * 5
        with mock.patch.object(majorarcs, "_WORKERS", 4):
            assert majorarcs._map(lambda _: threading.get_ident(),
                                  [0]) == [me]


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
            total += w / abs(C.gradient([r, *y])[0])
            hit = True
        assert got["empty"] == (not hit)
        assert got["value"] == pytest.approx(total, rel=1e-10)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_box_of_other_dimension_refused(self, fermat, dim):
        # an extra axis used to multiply V(0) by its length, and a missing
        # one to raise IndexError
        with pytest.raises(DimensionMismatch, match=f"dim {dim}, expected 3"):
            slice_volume(fermat, [(0.5, 1.5)] * dim)


# -- singular series --------------------------------------------------------

class TestSingularSeries:
    def test_fermat_small_cutoff(self, fermat):
        tr = singular_series(fermat, 5, mode="both")
        assert set(tr.factors) == {2, 3, 5}
        assert tr.value > 0
        # Euler factors are the exact local densities at the used level
        for p, k in tr.k_used.items():
            assert tr.factors[p] == local_factor(fermat, p, k)

    def test_euler_factors_at_true_level_over_budget(self, watson5):
        # the 8^5 grid mod 2^3 exceeds 20000: rho stratifies at k(2) = 3
        # instead of the factor dropping to a lower level
        small = singular_series(watson5, 10, mode="euler", budget=20_000)
        assert small == singular_series(watson5, 10, mode="euler")
        assert small.k_used == {2: 3, 3: 2, 5: 1, 7: 1}
        assert small.value == Fraction(10406, 2205) and not small.partial

    def test_qsum_q1_term(self, fermat):
        tr = singular_series(fermat, 1, mode="qsum")
        assert tr.frak_value == 1

    def test_qsum_matches_partial_sums(self, fermat):
        tr = singular_series(fermat, 6, mode="qsum")
        direct = sum((a_of_q_exact(fermat, q) for q in range(1, 7)),
                     Fraction(0))
        assert tr.frak_value == direct

    @settings(max_examples=40, deadline=None)
    @given(full_poly_strategy(max_n=4, coeff_bound=3), st.booleans(),
           st.sampled_from([1, 2, 3, 6]), st.integers(1, 12))
    def test_qsum_matches_oracle(self, poly, form, scale, P0):
        # scale gives the table p-content at 2 and 3
        phi = poly.cubic_part() if form else poly
        phi = CubicPolynomial(
            phi.n, cubic={t: scale * c for t, c in phi.cubic.items()},
            quad={t: scale * c for t, c in phi.quad.items()},
            lin=[scale * v for v in phi.lin], const=scale * phi.const)
        tr = singular_series(phi, P0, mode="qsum")
        assert not tr.partial
        assert tr.frak_value == sum(a_of_q_exact(phi, q)
                                    for q in range(1, P0 + 1))

    def test_grids_are_prime_powers(self, fermat, monkeypatch):
        moduli, walk = [], local._residues

        def spy(tables, n, q, points):
            moduli.append(q)
            return walk(tables, n, q, points)

        monkeypatch.setattr(local, "_residues", spy)
        singular_series(fermat, 30, mode="both")
        assert moduli
        assert all(len(trial_factor(q)[0]) == 1 for q in moduli)

    def test_qsum_payload_has_no_euler_data(self, watson5):
        tr = singular_series(watson5, 10, mode="qsum")
        assert tr.factors == {} and tr.k_used == {} and tr.value == 1

    @pytest.mark.parametrize("name", ["watson5", "selmer4", "fermat",
                                      "diag5m2"])
    def test_euler_factors_sum_prime_power_terms(self, request, name):
        # at P0 = p^k the factor of p sits at level k, and
        # sum_(j <= k) A(p^j) = p^(k(1-n)) rho(p^k); the oracle walks the
        # whole p^(kn) grid, so levels past 2^20 points are left out
        phi = request.getfixturevalue(name)
        for p in (2, 3, 5, 7):
            for k in (1, 2):
                if p ** (k * phi.n) > 2**20:
                    continue
                tr = singular_series(phi, p**k, mode="euler")
                assert tr.k_used[p] == k
                assert tr.factors[p] == sum(a_of_q_exact(phi, p**j)
                                            for j in range(k + 1))

    def test_watson5_beyond_level_one_grids(self, watson5):
        # 23^5 and 29^5 exceed the default budget: rho(23) and rho(29)
        # count 23^4 and 29^4 slice prefixes instead
        tr = singular_series(watson5, 30, mode="both")
        assert not tr.partial
        assert tr.k_used == {2: 4, 3: 3, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1,
                             19: 1, 23: 1, 29: 1}
        for p in (2, 3, 5, 7):
            assert tr.factors[p] == local_factor(watson5, p, tr.k_used[p])
        assert singular_series(watson5, 12, mode="qsum").frak_value == sum(
            a_of_q_exact(watson5, q) for q in range(1, 13))

    @pytest.mark.parametrize("P0", [0, -3])
    def test_p0_below_one_refused(self, fermat, P0):
        with pytest.raises(ValueError, match="P0 must be >= 1"):
            singular_series(fermat, P0)

    def test_violation_gives_zero_factor(self):
        phi = symmetrize(1, {(0, 0, 0): 2}, const=1)[0]  # 2x^3 + 1
        tr = singular_series(phi, 3, mode="euler")
        assert tr.factors[2] == 0
        assert tr.value == 0

    def test_tail_bound_shape(self, fermat):
        t1 = singular_series(fermat, 5).tail_bound
        t2 = singular_series(fermat, 10).tail_bound
        assert t2 < t1  # P0^(-1/3) decay
