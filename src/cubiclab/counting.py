"""Exact lattice counting of phi = 0 in boxes and expanding-shell search
for the smallest solution.

The counter walks the coordinates x_2..x_n of the box (the prefixes) in
chunks; for each chunk it forms the coefficients of the univariate cubic
in x_1 in numpy and evaluates it exactly, by Horner, at every x_1 of the
box.  Degenerate slices (quadratic, linear, constant, identically zero)
need no special case.  The arithmetic is int64 when the height and the box
prove that nothing overflows, else Python ints in object arrays.
"""

from dataclasses import dataclass
from math import ceil, floor, prod

import numpy as np

from .budget import check_budget
from .polynomials import CubicPolynomial, _eval_terms

_BLOCK = 1 << 15  # array elements per chunk; bounds peak memory


def _zeros(phi: CubicPolynomial, t_range: range, ranges: list):
    """Zeros of phi with x_1 in t_range and (x_2..x_n) in the product of
    `ranges`, as (k, n) integer arrays, one per chunk: prefixes in
    itertools.product order, x_1 ascending within a prefix."""
    sizes = [len(r) for r in ranges]
    nprefix = prod(sizes)
    if not nprefix or not t_range:
        return
    B = max(1, *(abs(v) for r in (t_range, *ranges) for v in (r[0], r[-1])))
    # every partial sum and Horner step is at most sum |w| B^deg, every
    # coordinate step at most 2B
    wide = 2 * B + sum(abs(w) * B ** len(idx) for w, idx in phi.terms()) >= 2 ** 63
    dtype = object if wide else np.int64
    slices = phi.x1_slices()
    # a prefix row holds its x_1 values, its coordinates and 4 coefficients
    rows = max(1, _BLOCK // (len(t_range) + len(ranges) + 5))
    for start in range(0, nprefix, rows):
        flat = np.arange(start, min(start + rows, nprefix))
        y = [None] * len(ranges)
        for j in reversed(range(len(ranges))):
            flat, digit = np.divmod(flat, sizes[j])
            y[j] = digit.astype(dtype) * ranges[j].step + ranges[j].start
        d, c, b, a = ((np.zeros(len(flat), dtype) + _eval_terms(part, y))[:, None]
                      for part in slices)
        for t0 in range(0, len(t_range), _BLOCK):
            tr = t_range[t0:t0 + _BLOCK]
            t = np.arange(len(tr)).astype(dtype) * tr.step + tr.start
            h = a * t + b
            for e in (c, d):
                h *= t
                h += e
            r, k = np.nonzero(h == 0)
            if len(r):
                yield np.column_stack([t[k], *(col[r] for col in y)])


@dataclass(frozen=True)
class CountResult:
    P: int
    count: int
    prediction: float | None = None
    solutions_sample: tuple = ()


def _box_ranges(n: int, P: int, box=None) -> list:
    """Integer ranges [ceil(P lo), floor(P hi)] per axis of the box scaled
    by P (default [-P, P]^n); count_solutions and weyl_sum walk these."""
    if box is None:
        return [(-P, P)] * n
    bounds = box.bounds if hasattr(box, "bounds") else list(box)
    return [(ceil(P * lo - 1e-12), floor(P * hi + 1e-12)) for lo, hi in bounds]


def count_solutions(phi: CubicPolynomial, P: int, box=None,
                    budget: int | None = None, keep: int = 100) -> CountResult:
    """Exact N(P) over the integer box (default [-P, P]^n).

    The budget counts the prefixes (x_2..x_n); solutions_sample holds the
    first `keep` zeros in prefix order, x_1 ascending within a prefix."""
    rng = [range(lo, hi + 1) for lo, hi in _box_ranges(phi.n, P, box)]
    check_budget(prod(len(r) for r in rng[1:]), budget, what="solution count")
    count, sample = 0, []
    for z in _zeros(phi, rng[0], rng[1:]):
        count += len(z)
        sample += z[:keep - len(sample)].tolist()
    return CountResult(P=P, count=count,
                       solutions_sample=tuple(map(tuple, sample)))


@dataclass(frozen=True)
class SearchReport:
    found: tuple | None
    shell: int | None
    exhausted_to: int | None


def smallest_solution(phi: CubicPolynomial, max_shell: int,
                      budget: int | None = None,
                      start_shell: int = 0) -> SearchReport:
    """First solution in expanding sup-norm shells (within a shell,
    lexicographically smallest), or certified emptiness up to max_shell.

    Only the new shell is enumerated: prefixes (x_2..x_n) of sup-norm s take
    every x_1 in [-s, s], the others x_1 = -s and s.  The budget counts the
    (2s + 1)^(n-1) prefixes of the shell's box."""
    n = phi.n
    for s in range(start_shell, max_shell + 1):
        if s == 0:
            if phi.evaluate([0] * n) == 0:
                return SearchReport(found=(0,) * n, shell=0, exhausted_to=None)
            continue
        check_budget((2 * s + 1) ** (n - 1), budget, what="shell search")
        inner, full = range(1 - s, s), range(-s, s + 1)
        ends = range(-s, s + 1, 2 * s)
        # face j: |x_(j+2)| = s, the prefix coordinates before it below s
        faces = [(full, [inner] * j + [ends] + [full] * (n - 2 - j))
                 for j in range(n - 1)] + [(ends, [inner] * (n - 1))]
        found = [min(map(tuple, z.tolist()))
                 for t, ys in faces for z in _zeros(phi, t, ys)]
        if found:
            return SearchReport(found=min(found), shell=s, exhausted_to=None)
    return SearchReport(found=None, shell=None, exhausted_to=max_shell)

