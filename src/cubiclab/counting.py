"""Exact lattice counting of phi = 0 in boxes and expanding-shell search
for the smallest solution.

The counter walks the prefixes (x_2..x_n) of the box in chunks; for each
chunk it forms the coefficients of the univariate cubic in x_1 in numpy
and evaluates it exactly, by Horner, at every x_1 of the box.  Degenerate
slices (quadratic, linear, constant, identically zero) need no special
case.  The arithmetic is int64 when the height and the box prove that
nothing overflows, else Python ints in object arrays.
"""

from dataclasses import dataclass
from math import ceil, floor, prod

import numpy as np

from .budget import check_budget
from .polynomials import CubicPolynomial, _CHUNK, _eval_terms, _walk


def _zeros(phi: CubicPolynomial, t_range: range, ranges: list):
    """Zeros of phi with x_1 in t_range and (x_2..x_n) in the product of
    `ranges`, as (k, n) integer arrays, one per chunk of the C-order walk of
    (x_2, .., x_n, x_1): prefixes lexicographic, x_1 ascending in each."""
    slices = phi.x1_slices()
    for _, shape, (*y, t) in _walk([*ranges, t_range], _CHUNK, phi.terms()):
        d, c, b, a = (_eval_terms(part, y) for part in slices)
        # Horner in place, so that a chunk holds one array of its shape
        h = np.add(a * t, b, out=np.empty(shape, t.dtype))
        for e in (c, d):
            h *= t
            h += e
        hit = np.nonzero(h == 0)
        if len(hit[0]):
            yield np.column_stack([np.broadcast_to(col, shape)[hit]
                                   for col in (t, *y)])


@dataclass(frozen=True)
class CountResult:
    P: int
    count: int
    prediction: float | None = None
    solutions_sample: tuple = ()


def _box_ranges(n: int, P: int, box=None) -> list:
    """Ranges of the integers [ceil(P lo), floor(P hi)] per axis of the box
    scaled by P (default [-P, P]^n); count_solutions and weyl_sum walk them."""
    if box is None:
        return [range(-P, P + 1)] * n
    bounds = box.bounds if hasattr(box, "bounds") else list(box)
    return [range(ceil(P * lo - 1e-12), floor(P * hi + 1e-12) + 1)
            for lo, hi in bounds]


def count_solutions(phi: CubicPolynomial, P: int, box=None,
                    budget: int | None = None, keep: int = 100) -> CountResult:
    """Exact N(P) over the integer box (default [-P, P]^n).

    The budget counts the prefixes (x_2..x_n); solutions_sample holds the
    first `keep` zeros in prefix order, x_1 ascending within a prefix."""
    rng = _box_ranges(phi.n, P, box)
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

