"""Exact lattice counting of phi = 0 in boxes and expanding-shell search
for the smallest solution.

The zeros are found by a join of two sides whose values must cancel: the
side with fewer points is evaluated whole and sorted, and the other is
walked in chunks, each value looked up in that table by searchsorted.  A
join so costs the points of its two sides plus a sort, not their product.

The sides are two groups of the blocks that phi's terms form once x_1 is
struck from each (one block per other variable for selmer4 and watson5),
phi = A_1 + A_2 with A_i the terms of group i.  Per box (the shell
search's growing boxes [-S, S]^n included) the grouping is the cheaper of
two: the blocks whose terms hold x_1 against the rest, or the blocks
balanced greedily, each (largest box first) to the group of the smaller
box.  A side walks x_1 only when one of its blocks holds it.  When both do, the pairs with equal x_1 and A_1 = -A_2 are found by
joining the exact keys (x_1 - x_1,min) M + A_1 and (x_1 - x_1,min) M - A_2;
else by joining A_1 and -A_2.

A side that walks x_1 walks it last: for each chunk of prefixes it forms
the coefficients of its univariate cubic in x_1 in numpy and evaluates it
exactly, by Horner, at every x_1 of the box, so degenerate slices
(quadratic, linear, constant, identically zero) need no special case.  The
arithmetic is int64 when the height and the box prove that nothing
overflows, else Python ints in object arrays.
"""

import sys
from dataclasses import dataclass
from functools import partial
from math import ceil, floor, prod

import numpy as np

from .budget import BudgetExceeded, check_budget
from .polynomials import (CubicPolynomial, DimensionMismatch, _CHUNK,
                          _eval_terms, _variable_blocks, _walk, _x1_slices)

_SAMPLE = 100  # zeros count_solutions keeps in solutions_sample


def _size(r: range) -> int:
    """The points of a range of positive step, in integer arithmetic (len()
    of a range longer than sys.maxsize raises OverflowError)."""
    return max(0, (r.stop - r.start + r.step - 1) // r.step)


def _o_walk(A, n: int, axes: list, ranges: list):
    """The table A, whose variables are x_1 and the others of `axes`, on
    the box of `ranges`, the ranges of `axes` with x_1 last, in chunks: per
    chunk the values and the coordinate arrays in the order of `axes`."""
    slices = _x1_slices(A)
    for _, shape, x in _walk(ranges, _CHUNK, A):
        X = [None] * n
        for i, c in zip(axes, x):
            X[i] = c
        t = X[0]
        d, c, b, a = (_eval_terms(part, X[1:]) for part in slices)
        # Horner in place, so that a chunk holds one array of its shape
        h = np.add(a * t, b, out=np.empty(shape, t.dtype))
        for e in (c, d):
            h *= t
            h += e
        yield h, x


def _l_walk(B, n: int, axes: list, ranges: list):
    """The table B, whose variables are in `axes`, as _o_walk walks A."""
    for _, shape, x in _walk(ranges, _CHUNK, B):
        X = [None] * n
        for i, c in zip(axes, x):
            X[i] = c
        yield np.broadcast_to(_eval_terms(B, X), shape), x


def _split(phi: CubicPolynomial) -> list:
    """phi's table as blocks (variables, terms, holds x_1) for _sides to
    group: the blocks phi's terms form once x_1 is struck from each, marked
    whether a term of theirs holds x_1; one block of no variables for the
    pure-x_1 terms and the constant, marked as holding x_1; and each
    variable of x_2..x_n in no term, a block of its own with no terms.
    Blocks are ordered by their variables, the block of none first."""
    terms = phi.terms()
    # each term rides through _variable_blocks as the weight of its index
    # tuple with x_1 struck
    struck = [(sorted({i for _, idx in b for i in idx}), [t for t, _ in b])
              for b in _variable_blocks([(t, tuple(i for i in t[1] if i))
                                         for t in terms if any(t[1])]) if b]
    used = {i for axes, _ in struck for i in axes}
    struck += [([i], []) for i in range(1, phi.n) if i not in used]
    return [([], [t for t in terms if not any(t[1])], True)] + sorted(
        ((axes, table, any(0 in idx for _, idx in table))
         for axes, table in struck), key=lambda b: b[0])


def _sides(blocks: list, box: list) -> list:
    """The two sides (axes, walk) of phi's join on the box prod(box), whose
    ranges are all nonempty: the variables a side walks, x_1 last, and its
    walk of them, _o_walk when one of its blocks holds x_1, else _l_walk;
    blocks is _split(phi).  The balanced grouping is taken when its sides
    walk fewer points and its smaller side holds no more points than the
    box has prefixes (x_2..x_n), else the holders of x_1 against the rest.
    In a key (x_1 - x_1,min) M + value, M is more than twice the largest
    |value| either side can take, so equal keys are equal x_1 and values."""
    size = [_size(r) for r in box]

    def points(group) -> int:
        return prod(size[i] for axes, _, _ in group for i in axes)

    def walked(groups) -> list:
        return [points(g) * size[0] ** any(h for _, _, h in g)
                for g in groups]

    balanced, weight = ([], []), [1, 1]
    for b in sorted(blocks, key=lambda b: -points([b])):
        g = int(weight[1] < weight[0])
        balanced[g].append(b)
        weight[g] *= points([b])
    groups = ([b for b in blocks if b[2]], [b for b in blocks if not b[2]])
    cost = walked(balanced)
    if sum(cost) < sum(walked(groups)) and min(cost) <= prod(size[1:]):
        groups = balanced
    walks = [any(h for _, _, h in g) for g in groups]
    tables = [[t for _, table, _ in g for t in table] for g in groups]
    key = []
    if all(walks):
        top = max(abs(v) for r in box for v in (r[0], r[-1]))
        M = 2 * max(sum(abs(w) * top ** len(idx) for w, idx in table)
                    for table in tables) + 1
        key = [(M, (0,)), (-M * box[0][0], ())]
    return [(sorted(i for axes, _, _ in g for i in axes) + [0] * walk,
             partial(_o_walk if walk else _l_walk,
                     [(sign * w, idx) for w, idx in table] + key, len(box)))
            for g, table, walk, sign in zip(groups, tables, walks, (1, -1))]


def _coords(flat, ranges) -> list:
    """The coordinates of flat C-order indices into the box prod(ranges),
    Python ints where a coordinate could leave int64."""
    wide = any(max(-r.start, r.stop) >= 2**62 for r in ranges)
    digits = np.unravel_index(flat, [_size(r) for r in ranges])
    return [d.astype(object if wide else np.int64) * r.step + r.start
            for d, r in zip(digits, ranges)]


def _zeros(blocks: list, box: list):
    """Zeros of phi in the box prod(box), box[i] the range of x_(i+1), as
    (k, n) integer arrays of at most _CHUNK rows, in no particular order;
    blocks is _split(phi), joined as _sides chooses.  The held side's values
    are sorted once and their distinct values tabled with their runs; each
    chunk of the streamed side keeps the values within the table's range,
    finds each one's run by one searchsorted call and expands the
    (streamed point, held point) pairs _CHUNK at a time."""
    if not all(map(_size, box)):
        return
    sides = [(axes, walk, [box[i] for i in axes])
             for axes, walk in _sides(blocks, box)]
    sizes = [prod(map(_size, ranges)) for _, _, ranges in sides]
    (h_axes, h_walk, h_ranges), (s_axes, s_walk, s_ranges) = (
        sides if sizes[0] < sizes[1] else sides[::-1])
    values = np.concatenate([v.ravel() for v, _ in h_walk(h_axes, h_ranges)])
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # the distinct values, each with the start and length of its run
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], starts))
    table, runs = ordered[starts], np.diff(starts, append=len(ordered))
    low, high = table[0], table[-1]
    for v, x in s_walk(s_axes, s_ranges):
        flat = v.reshape(-1)
        # one comparison for a one-valued table, such as a connected phi's
        hit = (flat == low if low == high
               else (flat >= low) & (flat <= high))
        cand = np.flatnonzero(hit)
        if not len(cand):
            continue
        key = flat[cand]
        # key <= high, so its place is a place in the table
        place = np.searchsorted(table, key)
        match = table[place] == key
        cand, place = cand[match], place[match]
        lo, cnt = starts[place], runs[place]
        ends, total = np.cumsum(cnt), int(cnt.sum())
        # match m pairs streamed point cand[k] with held point
        # order[lo[k] + m - first match of k], k the point whose run holds m
        for m0 in range(0, total, _CHUNK):
            m = np.arange(m0, min(m0 + _CHUNK, total))
            k = np.searchsorted(ends, m, "right")
            at = np.unravel_index(cand[k], v.shape)
            cols = dict(zip(s_axes, (np.broadcast_to(c, v.shape)[at]
                                     for c in x)))
            if h_axes:
                held = order[lo[k] + m - ends[k] + cnt[k]]
                cols.update(zip(h_axes, _coords(held, h_ranges)))
            yield np.column_stack([cols[i] for i in range(len(box))])


@dataclass(frozen=True)
class CountResult:
    P: int
    count: int
    solutions_sample: tuple = ()


def _box_bounds(n: int, box) -> list:
    """box, a sequence of (lo, hi) pairs, as a list; a box of another
    dimension than n raises DimensionMismatch."""
    bounds = list(box)
    if len(bounds) != n:
        raise DimensionMismatch(f"box has dim {len(bounds)}, expected {n}")
    return bounds


def _box_ranges(n: int, P: int, box=None) -> list:
    """Ranges of the integers [ceil(P lo), floor(P hi)] per axis of the box
    scaled by P (default [-P, P]^n); count_solutions and weyl_sum walk them.
    A box that P scales past the floats is refused."""
    if box is None:
        return [range(-P, P + 1)] * n
    try:
        return [range(ceil(P * lo - 1e-12), floor(P * hi + 1e-12) + 1)
                for lo, hi in _box_bounds(n, box)]
    except OverflowError:
        raise ValueError("P scales the box past the largest float") from None


def _first(sample, z):
    """The first _SAMPLE rows of sample and z by the key (x_2..x_n, x_1)."""
    both = np.concatenate([sample, z])
    # np.lexsort sorts by its last key first
    key = both.T[[0, *range(both.shape[1] - 1, 0, -1)]]
    return both[np.lexsort(key)[:_SAMPLE]]


def count_solutions(phi: CubicPolynomial, P: int, box=None,
                    budget: int | None = None) -> CountResult:
    """Exact N(P) over the integer box (default [-P, P]^n).

    The budget counts the prefixes (x_2..x_n); solutions_sample holds the
    first _SAMPLE zeros in prefix order, x_1 ascending within a prefix.
    P < 0, a box of another dimension than phi's and a nonempty box with
    an axis of more than sys.maxsize integers, which no walk can index,
    are refused."""
    if P < 0:
        raise ValueError("P must be >= 0")
    rng = _box_ranges(phi.n, P, box)
    sizes = list(map(_size, rng))
    check_budget(prod(sizes[1:]), budget, what="solution count")
    if all(sizes) and max(sizes) > sys.maxsize:
        raise ValueError(f"an axis of the box has more than {sys.maxsize} "
                         "integers, too many to walk")
    count, sample = 0, np.empty((0, phi.n), dtype=np.int64)
    for z in _zeros(_split(phi), rng):
        count += len(z)
        sample = _first(sample, z)
    return CountResult(P=P, count=count,
                       solutions_sample=tuple(map(tuple, sample.tolist())))


@dataclass(frozen=True)
class SearchReport:
    found: tuple | None
    shell: int | None
    exhausted_to: int | None


def _least(blocks: list, n: int, S: int):
    """(sup-norm, zero), the least over the zeros in the box [-S, S]^n, the
    zero lexicographically least within its sup-norm; None if there is
    none.  blocks is _split(phi)."""
    best = None
    for z in _zeros(blocks, [range(-S, S + 1)] * n):
        norm = np.abs(z).max(axis=1)
        low = norm.min()
        least = (int(low), min(map(tuple, z[norm == low].tolist())))
        best = least if best is None else min(best, least)
    return best


def smallest_solution(phi: CubicPolynomial, max_shell: int,
                      budget: int | None = None) -> SearchReport:
    """First solution in expanding sup-norm shells (within a shell,
    lexicographically smallest), or certified emptiness up to max_shell.

    The shells are searched by whole boxes [-S, S]^n, one join each: after
    box W (at first W = 0, the origin, which is evaluated) S is the
    largest radius whose (2S + 1)^n points are at most twice box W's, and
    W + 1 at least, capped at max_shell.  A join's sides are products of
    powers of 2S + 1 whose exponents sum to at most n, so the box that
    finds a first zero of shell s costs at most twice box s (doubling S
    could cost 2^n times).  The least of a box's zeros by sup-norm, then
    lexicographically, is the answer, every box before having held none.
    The budget counts the (2s + 1)^(n-1) prefixes of shell s's box,
    charged shell by shell, in order, before a box is walked; when shell s
    is refused, box s - 1 is walked first and the refusal stands only if
    that box has no zero.  max_shell < 0 is refused."""
    if max_shell < 0:
        raise ValueError("max_shell must be >= 0")
    n, blocks = phi.n, _split(phi)
    if phi.evaluate([0] * n) == 0:
        return SearchReport(found=(0,) * n, shell=0, exhausted_to=None)
    walked, refused = 0, None
    while walked < max_shell:
        S = walked + 1
        while S < max_shell and (2 * S + 3) ** n <= 2 * (2 * walked + 1) ** n:
            S += 1
        for s in range(walked + 1, S + 1):
            try:
                check_budget((2 * s + 1) ** (n - 1), budget,
                             what="shell search")
            except BudgetExceeded as exc:
                S, refused = s - 1, exc
                break
        best = _least(blocks, n, S) if S > walked else None
        if best is not None:
            return SearchReport(found=best[1], shell=best[0],
                                exhausted_to=None)
        if refused is not None:
            raise refused
        walked = S
    return SearchReport(found=None, shell=None, exhausted_to=max_shell)
