"""Exact lattice counting, expanding-shell search, and the prediction
comparison table."""

import random
from itertools import combinations_with_replacement, product
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubiclab import (CubicPolynomial, count_solutions, singular_series,
                      smallest_solution, symmetrize)
from cubiclab import counting
from cubiclab.budget import BudgetExceeded, check_budget
from cubiclab.majorarcs import asymptotic_compare
from cubiclab.polynomials import DimensionMismatch, _from_terms, _substitute
from conftest import (make_diag5m2, make_fermat, make_selmer4,
                      make_triple_product, make_watson5, random_poly)
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
    s >= start_shell that has one, by scanning the whole box [-s, s]^n:
    phi mod the prime 2^31 - 1 at every point in numpy, then exactly at the
    points of sup-norm s where that is 0."""
    p, n = 2**31 - 1, phi.n
    for s in range(start_shell, max_shell + 1):
        axes = [np.arange(-s, s + 1).reshape((-1,) + (1,) * (n - 1 - i))
                for i in range(n)]
        # each term below p, so the sum of the terms cannot wrap int64
        value = np.zeros((2 * s + 1,) * n, dtype=np.int64)
        for w, idx in phi.terms():
            term = np.int64(w % p)
            for i in idx:
                term = term * (axes[i] % p) % p
            value = value + term
        norm = np.max(np.broadcast_arrays(*map(np.abs, axes)), axis=0)
        zeros = [x for x in map(tuple, (np.argwhere((value % p == 0)
                                                    & (norm == s)) - s)
                                .tolist())
                 if phi.evaluate(x) == 0]
        if zeros:
            return min(zeros), s
    return None, None


def search_reference(phi, max_shell: int, budget: int,
                     start_shell: int = 0):
    """smallest_solution by single shells: each shell s >= 1 from
    start_shell on is charged its (2s + 1)^(n-1) prefixes, then scanned;
    (zero, shell), (None, None) when none is found, or the message of the
    first refused shell."""
    for s in range(start_shell, max_shell + 1):
        if s:
            try:
                check_budget((2 * s + 1) ** (phi.n - 1), budget,
                             what="shell search")
            except BudgetExceeded as exc:
                return str(exc)
        found = shell_reference(phi, s, s)
        if found[0] is not None:
            return found
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


def direct_sum(n, parts) -> CubicPolynomial:
    """The sum of the polynomials phi(x_axes) over the (phi, axes) parts,
    phi's variable i renamed to variable axes[i] of n."""
    table = {}
    for phi, axes in parts:
        U = [[int(j == a) for j in range(n)] for a in axes]
        for idx, w in _substitute(phi.terms(), U).items():
            table[idx] = table.get(idx, 0) + w
    return _from_terms(n, table)


@st.composite
def lattice_polys(draw, n, heights):
    """Polynomials in n variables: random_poly, perhaps with a zero x_1^3
    coefficient or free of x_1 (identically zero slices), or a split
    A(x_U) + B(x_V) on a random partition of the variables, x_1 in U, in V
    or in no term, each block of its own height."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        phi = random_poly(rng, n, coeff_bound=draw(st.sampled_from(heights)),
                          force_degenerate_leading=draw(st.booleans()))
        return drop_x1(phi) if draw(st.booleans()) else phi
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if side[i] == s] for s in (True, False)]
    phi = direct_sum(n, [(random_poly(rng, len(axes), coeff_bound=draw(
        st.sampled_from(heights))), axes) for axes in blocks if axes])
    return drop_x1(phi) if draw(st.booleans()) else phi


@st.composite
def counting_cases(draw, heights):
    """(phi, P, box, integer ranges of the box, keep) for n = 1..4: the
    polynomials of lattice_polys, boxes with empty ranges, and a planted
    zero when the box has points."""
    n = draw(st.integers(1, 4))
    phi = draw(lattice_polys(n, heights))
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


@st.composite
def hub_forms(draw, heights):
    """sum_j x_1 Q_j(y_j) + q_j(y_j) + a cubic in x_1 alone, over 1-4
    blocks y_j of one or two variables (n <= 5), Q_j of degree <= 2 and
    q_j <= 3: every slice in x_1 splits by block.  x_1 y_a^2 (y_a the
    block's first variable) and, in a block of two, y_a^2 y_b have nonzero
    coefficients, so striking x_1 leaves exactly the blocks y_j, and x_1
    joins them all into one block of phi."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    h = draw(st.sampled_from(heights))
    k = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)
                  .filter(lambda w: sum(w) <= 4))
    n = 1 + sum(widths)
    coeff = lambda: rng.randint(-h, h)
    nonzero = lambda: rng.choice([-1, 1]) * rng.randint(1, h)
    cubic, quad, lin = {(0, 0, 0): coeff()}, {(0, 0): coeff()}, [coeff()]
    for a, w in zip(np.cumsum([1, *widths[:-1]]).tolist(), widths):
        ys = range(a, a + w)
        for i, j in combinations_with_replacement(ys, 2):
            cubic[(0, i, j)], quad[(i, j)] = coeff(), coeff()
        for idx in combinations_with_replacement(ys, 3):
            cubic[idx] = coeff()
        quad.update({(0, i): coeff() for i in ys})
        lin += [coeff() for _ in ys]
        cubic[(0, a, a)] = nonzero()
        if w == 2:
            cubic[(a, a, a + 1)] = nonzero()
    return symmetrize(n, cubic, quad, lin, const=coeff())[0], widths


@st.composite
def hub_cases(draw, heights):
    """(phi, widths, P, box, integer ranges of the box, keep) for the
    forms of hub_forms: x_1 ranges of 1 to 5 values, one value often, y
    ranges of 1 to 4, one range in eight boxes empty, and a planted zero
    when the box has points."""
    phi, widths = draw(hub_forms(heights))
    P = draw(st.integers(1, 4))
    sizes = [draw(st.sampled_from([1, 1, 2, 3, 5]))]
    sizes += draw(st.lists(st.sampled_from([1, 2, 3, 4, 4]),
                           min_size=phi.n - 1, max_size=phi.n - 1))
    if draw(st.sampled_from([False] * 7 + [True])):
        sizes[draw(st.integers(0, phi.n - 1))] = 0
    los = draw(st.lists(st.integers(-3, 3), min_size=phi.n,
                        max_size=phi.n))
    ranges = [range(lo, lo + m) for lo, m in zip(los, sizes)]
    box = [(r.start / P, (r.stop - 1) / P) for r in ranges]
    if all(ranges) and draw(st.booleans()):
        phi = plant_zero(phi, [draw(st.sampled_from(r)) for r in ranges])
    return phi, widths, P, box, ranges, draw(st.sampled_from([0, 3, 100]))


@st.composite
def block_sums(draw, heights):
    """(phi, blocks): a sum of one to five blocks on a random partition of
    x_1..x_n, n <= 5, each a full cubic in its variables of its own height,
    with y_a^2 y_b nonzero for consecutive variables y_a, y_b of the block
    other than x_1, so that those hold together once x_1 is struck.  A
    block that holds x_1, and some that do not, get a nonzero x_1 y^2, y
    their first variable but x_1.  blocks is (the variables but x_1,
    whether a term holds x_1) per block with such variables."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    parts = {}
    for i, label in enumerate(labels):
        parts.setdefault(label, []).append(i)
    cubic, quad, lin, blocks = {}, {}, [0] * n, []
    for axes in parts.values():
        h = draw(st.sampled_from(heights))
        for idx in combinations_with_replacement(axes, 3):
            cubic[idx] = rng.randint(-h, h)
        for idx in combinations_with_replacement(axes, 2):
            quad[idx] = rng.randint(-h, h)
        for i in axes:
            lin[i] = rng.randint(-h, h)
        ys = [i for i in axes if i]
        for a, b in zip(ys, ys[1:]):
            cubic[(a, a, b)] = rng.choice([-1, 1]) * rng.randint(1, h)
        if ys:
            blocks.append((ys, 0 in axes or draw(st.booleans())))
            if blocks[-1][1]:
                cubic[(0, ys[0], ys[0])] = (rng.choice([-1, 1])
                                            * rng.randint(1, h))
    h = draw(st.sampled_from(heights))
    phi = symmetrize(n, cubic, quad, lin, const=rng.randint(-h, h))[0]
    return phi, blocks


@st.composite
def block_cases(draw, heights):
    """(phi, blocks, P, box, integer ranges of the box, keep) for the forms
    of block_sums, boxes as hub_cases draws them."""
    phi, blocks = draw(block_sums(heights))
    P = draw(st.integers(1, 4))
    sizes = [draw(st.sampled_from([1, 2, 3, 5]))]
    sizes += draw(st.lists(st.sampled_from([1, 2, 3, 4]),
                           min_size=phi.n - 1, max_size=phi.n - 1))
    if draw(st.sampled_from([False] * 7 + [True])):
        sizes[draw(st.integers(0, phi.n - 1))] = 0
    los = draw(st.lists(st.integers(-3, 3), min_size=phi.n,
                        max_size=phi.n))
    ranges = [range(lo, lo + m) for lo, m in zip(los, sizes)]
    box = [(r.start / P, (r.stop - 1) / P) for r in ranges]
    if all(ranges) and draw(st.booleans()):
        phi = plant_zero(phi, [draw(st.sampled_from(r)) for r in ranges])
    return phi, blocks, P, box, ranges, draw(st.sampled_from([0, 3, 100]))


def rule_points(blocks, ranges, parent: bool = False) -> int:
    """The points the join walks on the box of ranges for a form of
    block_sums, from the widths of its blocks once x_1 is struck: a block
    of no variables that holds x_1 (the pure-x_1 terms), then the blocks
    by their first variable.  The holders of x_1 against the rest walk
    T |holders' box| + |rest's box|, T the x_1 values; the blocks greedily
    balanced (largest box first, each to the group of the smaller box)
    walk |group's box| per group, times T for a group that holds x_1, and
    are taken when that is fewer and the smaller group walks at most the
    box's prefixes.  With parent, the rule before one join rule: each
    balanced group walked T |group's box|, holding x_1 or not."""
    size = [len(r) for r in ranges]
    T, prefixes = size[0], prod(size[1:])
    struck = [([], True)] + sorted(blocks)
    width = lambda ys: prod(size[i] for i in ys)
    holders = (T * prod(width(ys) for ys, held in struck if held)
               + prod(width(ys) for ys, held in struck if not held))
    groups, weight = ([], []), [1, 1]
    for ys, held in sorted(struck, key=lambda b: -width(b[0])):
        g = int(weight[1] < weight[0])
        groups[g].append(held)
        weight[g] *= width(ys)
    walked = [w * T ** (parent or any(g)) for w, g in zip(weight, groups)]
    if sum(walked) < holders and min(walked) <= prefixes:
        return sum(walked)
    return holders


def walked_points(phi, P, box, keep) -> tuple:
    """count_solutions' result and the points its join's two sides walk."""
    walked, sides = [], counting._sides

    def counted(walk):
        def inner(axes, ranges):
            for v, x in walk(axes, ranges):
                walked.append(v.size)
                yield v, x
        return inner

    def spy(blocks, box):
        return [(axes, counted(walk)) for axes, walk in sides(blocks, box)]

    with mock.patch.object(counting, "_sides", spy):
        res = count_solutions(phi, P, box=box, keep=keep)
    return res, sum(walked)


def shared_expected(widths, ranges) -> bool:
    """Whether the join over the x_1-fibres should be taken for a form of
    hub_forms on the box of ranges: the blocks greedily in two groups,
    largest first, each to the group of fewer points; against the one
    block of phi (T |y box| + 1 points), fewer points walked and at most
    as many held as the box has prefixes."""
    size = [len(r) for r in ranges]
    starts = np.cumsum([1, *widths]).tolist()
    groups = [1, 1]
    for m in sorted((prod(size[a:b]) for a, b in zip(starts, starts[1:])),
                    reverse=True):
        groups[groups[1] < groups[0]] *= m
    T, prefixes = size[0], prod(size[1:])
    return (T * sum(groups) < T * prefixes + 1
            and T * min(groups) <= prefixes)


def join_axes(phi, ranges) -> list:
    """The axes of each side of the join count_solutions takes on the box
    of ranges."""
    return [axes for axes, _ in counting._sides(counting._split(phi), ranges)]


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
        # coordinates past int64: the held side's points are decoded from
        # their flat indices in Python ints
        fermat = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): -1})[0]
        for P, box, zero in [(2**63, [(1, 1), (0, 0), (1, 1)],
                              (2**63, 0, 2**63)),
                             (2**62, [(0, 0), (1, 1), (1, 1)],
                              (0, 2**62, 2**62))]:
            res = count_solutions(fermat, P, box=box)
            assert res.solutions_sample == (zero,)


class TestSharedJoin:
    """Forms whose slices in x_1 split by block while x_1 holds phi
    together, joined over their x_1-fibres, against the scan of the box."""

    @settings(max_examples=200, deadline=None)
    @given(hub_cases(heights=[1, 5, 2**40, 2**70]))
    def test_count_matches_scan(self, case):
        phi, widths, P, box, ranges, keep = case
        ref = scan_zeros(phi, ranges)
        res = count_solutions(phi, P, box=box, keep=keep)
        assert res.count == len(ref)
        assert res.solutions_sample == tuple(ref[:keep])
        if all(ranges):
            axes = join_axes(phi, ranges)
            if shared_expected(widths, ranges):
                assert [a[-1:] for a in axes] == [[0], [0]]
                assert sorted(sum(axes, [])) == [0, 0, *range(1, phi.n)]
            else:
                assert axes == [[*range(1, phi.n), 0], []]

    @settings(max_examples=60, deadline=None)
    @given(hub_cases(heights=[1, 5, 2**70]), st.sampled_from([1, 2, 5, 13]))
    def test_any_chunk_size(self, case, chunk):
        phi, _, P, box, ranges, keep = case
        ref = scan_zeros(phi, ranges)
        with mock.patch.object(counting, "_CHUNK", chunk):
            res = count_solutions(phi, P, box=box, keep=keep)
        assert res.count == len(ref)
        assert res.solutions_sample == tuple(ref[:keep])

    # x_1^3 + x_1 (y^2 + z^2) + 3 y^3 + 5 z^3, joined over its x_1-fibres,
    # has no zero but the origin up to shell 9, which boxes 1 to 9 walk
    @example(form=(symmetrize(3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
                                  (1, 1, 1): 3, (2, 2, 2): 5})[0], [1, 1]),
             start=1, max_shell=9, z=[0] * 5)
    @example(form=(symmetrize(3, {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
                                  (1, 1, 1): 3, (2, 2, 2): 5})[0], [1, 1]),
             start=5, max_shell=9, z=[9, -4, 2, 0, 0])
    @settings(max_examples=80, deadline=None)
    @given(hub_forms(heights=[1, 5, 2**70]), st.integers(0, 4),
           st.integers(0, 9),
           st.lists(st.integers(-2, 2), min_size=5, max_size=5))
    def test_search_matches_shell_reference(self, form, start, max_shell,
                                            z):
        phi = plant_zero(form[0], z[:form[0].n])
        rep = smallest_solution(phi, max_shell, start_shell=start)
        found, shell = shell_reference(phi, max_shell, start)
        assert (rep.found, rep.shell) == (found, shell)
        assert rep.exhausted_to == (max_shell if found is None else None)

    def test_keys_past_int64(self):
        # 2^70 x_1 (y^2 - z^2): the keys are Python ints; every x_1 with
        # y = +-z is a zero
        H = 2**70
        phi = symmetrize(3, {(0, 1, 1): H, (0, 2, 2): -H})[0]
        ranges = [range(-2, 3)] * 3
        assert join_axes(phi, ranges) == [[1, 0], [2, 0]]
        res = count_solutions(phi, 2)
        assert res.count == len(scan_zeros(phi, ranges)) == 5 * 9 + 16

    def test_fibres_apart_by_both_values(self):
        # -6 x_1 y^2 + 3 x_1 z^2 + z^3 on [-1, 1]^3, y's side first: the
        # sides' bounds are 6 and 3 + 1, y's value reaches 6 at x_1 = -1 and
        # z's 1 at x_1 = 0, so the keys of those two fibres stay apart for
        # M > 6 + 4 but would meet for M = max(6, 4) + 1
        phi = CubicPolynomial(3, cubic={(0, 1, 1): -2, (0, 2, 2): 1,
                                        (2, 2, 2): 1})
        ranges = [range(-1, 2)] * 3
        assert join_axes(phi, ranges) == [[1, 0], [2, 0]]
        ref = scan_zeros(phi, ranges)
        res = count_solutions(phi, 1)
        assert res.count == len(ref)
        assert res.solutions_sample == tuple(ref)

    @pytest.mark.parametrize("make, P, balanced", [
        (make_fermat, 60, False), (make_selmer4, 12, True),
        (make_triple_product, 10, False), (make_watson5, 8, True),
        (make_diag5m2, 10, True)])
    def test_corpus_choice(self, make, P, balanced):
        # the sides, and whether both walk x_1 and are joined by keys
        expected = {make_fermat: ([[0], [1, 2]], False),
                    make_selmer4: ([[1, 3], [2, 0]], False),
                    make_triple_product: ([[1, 2, 0], [3]], False),
                    make_watson5: ([[1, 3, 0], [2, 4, 0]], True),
                    make_diag5m2: ([[1, 3, 0], [2, 4]], False)}[make]
        phi = make()
        sides = counting._sides(counting._split(phi),
                                [range(-P, P + 1)] * phi.n)
        axes = [axes for axes, _ in sides]
        assert (axes, all(0 in a for a in axes)) == expected
        # keyed sides carry the two key terms each beyond phi's own
        tables = [walk.args[0] for _, walk in sides]
        assert sum(map(len, tables)) - len(phi.terms()) == 4 * expected[1]
        # the holders of x_1 against the rest: x_1 and the variables that
        # share a term with it (for these forms all of phi's block that
        # holds x_1), against every other variable
        held = sorted({i for _, idx in phi.terms() if 0 in idx for i in idx}
                      - {0})
        rest = [i for i in range(1, phi.n) if i not in held]
        assert (axes != [held + [0], rest]) == balanced

    def test_held_side_within_the_prefixes(self):
        # x_1 (y^2 + z^2) - 3 on 50 x 2 x 2 points: the shared join walks
        # 50 (2 + 2) = 200 points against the one block's 50 * 4 + 1, but
        # would hold 100 keys for 4 prefixes, so the disjoint join is kept
        phi = symmetrize(3, {(0, 1, 1): 1, (0, 2, 2): 1}, const=-3)[0]
        ranges = [range(-25, 25), range(0, 2), range(1, 3)]
        assert join_axes(phi, ranges) == [[1, 2, 0], []]
        box = [(r.start / 25, (r.stop - 1) / 25) for r in ranges]
        res = count_solutions(phi, 25, box=box)
        assert res.count == len(scan_zeros(phi, ranges)) == 1


class TestJoinRule:
    """Sums of blocks on random partitions of the variables, some joined to
    x_1: the zeros against the scan of the box, and the points walked
    against the one join rule."""

    # selmer4 on [-2, 2]^4: four blocks, only the pure-x_1 one holding x_1,
    # balanced as {y, w} against {z} and x_1 for 2 * 25 points, where the
    # holders walk 5 + 125
    @example(case=(make_selmer4(), [([1], False), ([2], False),
                                    ([3], False)],
                   2, None, [range(-2, 3)] * 4, 100),
             start=0, max_shell=3)
    @settings(max_examples=150, deadline=None)
    @given(block_cases(heights=[1, 5, 2**70]), st.integers(0, 3),
           st.integers(0, 3))
    def test_zeros_and_points(self, case, start, max_shell):
        phi, blocks, P, box, ranges, keep = case
        ref = scan_zeros(phi, ranges)
        res, walked = walked_points(phi, P, box, keep)
        assert res.count == len(ref)
        assert res.solutions_sample == tuple(ref[:keep])
        if all(ranges):
            assert walked == rule_points(blocks, ranges)
            assert walked <= rule_points(blocks, ranges, parent=True)
        else:
            assert walked == 0
        rep = smallest_solution(phi, max_shell, start_shell=start)
        assert (rep.found, rep.shell) == shell_reference(phi, max_shell,
                                                         start)


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

    # x^3 + 2 y^3 + 4 z^3 has no zero but the origin up to shell 9
    @example(phi=symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 2,
                                (2, 2, 2): 4})[0],
             start=1, max_shell=9, z=[0] * 4)
    @example(phi=symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 2,
                                (2, 2, 2): 4})[0],
             start=5, max_shell=9, z=[9, -6, 3, 0])
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4).flatmap(
               lambda n: lattice_polys(n, heights=[5, 2**70])),
           st.integers(0, 5), st.integers(0, 9),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_matches_shell_reference(self, phi, start, max_shell, z):
        phi = plant_zero(phi, z[:phi.n])
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

    def test_budget_at_the_zeros_shell(self):
        # x^3 + y^3 = 341 = 6^3 + 5^3 first has zeros at shell 6, whose box
        # has 13 prefixes; in two variables box 7 follows box 5, and with
        # that budget shell 7 is refused, so box 6 is walked
        phi = symmetrize(2, {(0, 0, 0): 1, (1, 1, 1): 1}, const=-341)[0]
        rep = smallest_solution(phi, 9, budget=13)
        assert (rep.found, rep.shell) == shell_reference(phi, 9) == ((5, 6), 6)
        with pytest.raises(BudgetExceeded, match="needs 13 points"):
            smallest_solution(phi, 9, budget=12)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([
               {(0, 0, 0): 2, (1, 1, 1): 2, (2, 2, 2): 2, (): 1},
               {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1, (): -36},
               {(0, 0, 0): 1, (1, 1, 1): -2, (): 5},
               {(0, 0, 0): 1, (): -125}]),
           st.integers(0, 6), st.integers(0, 9), st.integers(-1, 400))
    def test_refusal_matches_shell_loop(self, table, start, max_shell,
                                        budget):
        # the first refused shell raises what the shell-by-shell loop
        # raises, unless the box before it has a zero
        n = 1 + max(i for idx in table for i in idx)
        phi = symmetrize(n, {k: v for k, v in table.items() if k},
                         const=table[()])[0]
        ref = search_reference(phi, max_shell, budget, start)
        if isinstance(ref, str):
            with pytest.raises(BudgetExceeded) as exc:
                smallest_solution(phi, max_shell, budget=budget,
                                  start_shell=start)
            assert str(exc.value) == ref
        else:
            rep = smallest_solution(phi, max_shell, budget=budget,
                                    start_shell=start)
            assert (rep.found, rep.shell) == ref

    @pytest.mark.parametrize("start", [1, 2, 3, 5, 8])
    def test_inner_zeros_never_reported(self, fermat, start):
        # x^3 + y^3 = z^3 has zeros in every shell, the origin among them;
        # the first box searched holds shells below start too
        rep = smallest_solution(fermat, start + 3, start_shell=start)
        assert rep.shell == start
        assert rep.found == shell_reference(fermat, start, start)[0]
        assert max(map(abs, rep.found)) == start

    @staticmethod
    def boxes(phi, max_shell):
        """The search's answer and the radii of the boxes it joins."""
        with mock.patch.object(counting, "_zeros",
                               wraps=counting._zeros) as spy:
            rep = smallest_solution(phi, max_shell)
        radii = [call.args[1][0].stop - 1 for call in spy.call_args_list]
        assert [call.args[1] for call in spy.call_args_list] == [
            [range(-S, S + 1)] * phi.n for S in radii]
        return rep, radii

    def test_one_join_per_box(self):
        # 2(x^3 + y^3 + z^3) + 1 is odd, so every box is walked: each the
        # largest whose (2S + 1)^3 points are at most twice the last's, or
        # one radius larger, the last capped at 40
        phi = symmetrize(3, {(0, 0, 0): 2, (1, 1, 1): 2, (2, 2, 2): 2},
                         const=1)[0]
        rep, radii = self.boxes(phi, 40)
        assert rep.exhausted_to == 40
        assert radii == [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 19, 24, 30, 37,
                         40]
        for W, S in zip([0] + radii, radii):
            assert S == W + 1 or (2 * S + 1) ** 3 <= 2 * (2 * W + 1) ** 3
            assert S == 40 or (2 * S + 3) ** 3 > 2 * (2 * W + 1) ** 3

    def test_zero_past_a_box_costs_at_most_twice_its_shell(self):
        # x^3 + 2 y^3 + 3 z^3 + 12 xyz + 239 is connected, so a box's join
        # walks every point of it; its first zero, (9, -4, 2), lies just
        # past box 8, and box 10 finds it with 21^3 <= 2 * 19^3 points
        # (box 16 would walk 33^3, five times box 9)
        phi = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 3,
                             (0, 1, 2): 12}, const=239)[0]
        rep, radii = self.boxes(phi, 40)
        assert (rep.found, rep.shell) == ((9, -4, 2), 9)
        assert radii == [1, 2, 3, 4, 5, 6, 7, 8, 10]

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

    def test_diag5m2_integrates_the_box_integrand(self, diag5m2):
        # N(P) counts P*B, whose integrand is phi(P x)/P^3 = C(x) - 2/P^3:
        # J at P = 30 matches an independent Monte-Carlo of
        # int_B 2 Z sinc(2 Z (C(x) - 2/P^3)) dx, not phi's own integral
        # (the P = 1 integrand, 1.03 here)
        box, P, Z = [(-1.0, 1.0)] * 5, 30, 16.0
        [row] = asymptotic_compare(diag5m2, box, [P], P0=10, Z=Z,
                                   budget=10**9)
        rng = np.random.default_rng(2026)
        vals = np.concatenate([
            2 * Z * np.sinc(2 * Z * ((x**3).sum(axis=1) - 2 / P**3))
            for x in (rng.uniform(-1.0, 1.0, (200_000, 5)) for _ in range(5))])
        vals *= 2.0**5  # the box's volume
        ref, se = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
        assert row["J_error"] > 0 and se > 0
        assert abs(row["J"] - ref) <= 4 * np.hypot(row["J_error"], se)
        assert 15 < row["J"] < 18
        series = singular_series(diag5m2, 10, mode="euler").value
        assert row["prediction"] == pytest.approx(
            float(series) * row["J"] * P**2, rel=1e-12)

    def test_nested_monotone(self, fermat):
        c1 = count_solutions(fermat, 5).count
        c2 = count_solutions(fermat, 10).count
        assert c2 >= c1
