"""Invariants of cubic forms: the Delta discriminant-gcd, Hessian rank
statistics, the rank-census diagnostic, and the small-subspace solution
bound.

Delta(C) is the gcd of all n x n minors of the n x binom(n+1, 2) matrix
whose (i, (j, k)) entry is c_{ijk}, columns indexed by unordered pairs
j <= k.  It vanishes exactly when C is degenerate, and p | Delta whenever
C is degenerate mod p.  It is computed exactly, from one unimodular column
reduction of that matrix, never from a sample of minors.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from .budget import check_budget
from .nt import column_reduce, trial_factor, ceil_fraction, is_prime
from .polynomials import CubicPolynomial, _variable_blocks, _walk

_PSI_BOUND_CONST = 20.0  # largest regularized ratio psi_good_report accepts
_CHUNK_ENTRIES = 2**14  # Hessian entries a rank_census chunk holds at most


# -- Delta ------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaInvariant:
    value: int
    prime_factorization: dict = field(default_factory=dict)
    unfactored_cofactor: int = 1


def delta(C: CubicPolynomial) -> DeltaInvariant:
    """gcd of all n x n minors of the coefficient matrix: the product of the
    pivots of its column reduction, 0 when its rank is below n.

    Only the nonzero columns are built, from the stored entries C.cubic, and
    reduced, in the order of their pairs: a zero column adds no vector to
    the column lattice, so neither its index nor the rank changes (wall14's
    homogenised form, n = 15, has 31 nonzero columns of 120)."""
    cols = {}
    for (a, b, c), v in C.cubic.items():
        for i, pair in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            cols.setdefault(pair, [0] * C.n)[i] = v
    pairs = sorted(cols)
    pivots, _ = column_reduce([[cols[jk][i] for jk in pairs]
                               for i in range(C.n)])
    if len(pivots) < C.n:
        return DeltaInvariant(0)
    g = prod(abs(v) for v in pivots)
    factors, cof = trial_factor(g)
    return DeltaInvariant(g, prime_factorization=factors,
                          unfactored_cofactor=cof)


# -- Hessian rank census ----------------------------------------------------


@dataclass(frozen=True)
class RankCensus:
    H: int
    counts: dict            # rank r -> number of x with |x| < H, r(x) = r
    p: int | None = None    # None: rank over Q; else over F_p


def _large_primes():
    """The primes below 2**31, largest first."""
    return filter(is_prime, range(2**31 - 1, 2, -2))


def _ranks_mod(M, q: int):
    """Ranks over F_q, q < 2**31, of the (N, n, n) int64 stack M with
    entries in [0, q), all matrices eliminated at once and in place.  In
    each column a matrix pivots on its first row with a nonzero entry, and
    on the later columns every row becomes s * row - a * pivot row (s the
    pivot, a the row's entry): s is a unit, so no inverse is needed; the
    pivot row becomes zero, so no row pivots twice; and both products stay
    below q**2 < 2**62, so their difference is exact in int64 and one % q
    per entry suffices."""
    N, n, _ = M.shape
    rows = np.arange(N)
    rank = np.zeros(N, dtype=np.int64)
    for col in range(n):
        a = M[:, :, col]
        piv = (a != 0).argmax(axis=1)
        s = a[rows, piv]
        rank += s != 0
        s = np.where(s != 0, s, 1)[:, None, None]
        pivot_row = M[rows, piv, col + 1:][:, None, :]
        M[:, :, col + 1:] = (s * M[:, :, col + 1:]
                             - a[:, :, None] * pivot_row) % q
    return rank


def _block_census(basis: list, H: int, p: int | None):
    """Rank counts over |x| < H, as an int64 array indexed by rank, of
    M(x) = sum_k x_k basis[k] for n x n integer matrices basis[k], n >= 1.

    The box is walked in chunks of whole trailing axes, at most
    _CHUNK_ENTRIES matrix entries, and each chunk's stack of M(x) mod q is
    ranked at once by _ranks_mod.  Over F_p that is one prime, q = p.
    Over Q, rank_q <= rank_Q for every q: a matrix whose largest rank so
    far is r has all its (r+1) x (r+1) minors divisible by every prime
    tried, so once their product P exceeds the Hadamard bound on those
    minors (the product of the r+1 largest max(1, |row_i|) over the box),
    none is nonzero and rank_Q = r.  Primes below 2**31 are tried, largest
    first, until every rank is settled."""
    n = len(basis)
    if p is None:
        # |M(x)_ij| <= bound[i][j] on the box; squared row norms, largest first
        bound = [[(H - 1) * sum(abs(b[i][j]) for b in basis) for j in range(n)]
                 for i in range(n)]
        rows_sq = sorted((max(1, sum(v * v for v in row)) for row in bound),
                         reverse=True)
        stages, P = [], 1
        for q in _large_primes():
            P *= q
            # settled[r]: rank r after the primes so far is rank_Q
            settled = [P * P > prod(rows_sq[:r + 1]) for r in range(n)]
            settled.append(True)
            stages.append((q, settled))
            if all(settled):
                break
    else:
        stages = [(p, [True] * (n + 1))]
    # M(e_k) mod q, reduced in Python ints so big coefficients stay exact
    stages = [(q, np.array([[[v % q for v in row] for row in b]
                            for b in basis], dtype=np.int64),
               np.array(settled)) for q, settled in stages]
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, shape, x in _walk([range(1 - H, H)] * n, _CHUNK_ENTRIES // n**2):
        X = np.stack([np.broadcast_to(c, shape).ravel() for c in x], axis=1)
        rank = np.zeros(len(X), dtype=np.int64)
        live = np.arange(len(X))
        for q, B, settled in stages:
            Xq = X[live] % q
            M = np.zeros((len(live), n, n), dtype=np.int64)
            for k in range(n):
                M = (M + Xq[:, k, None, None] * B[k]) % q
            rank[live] = np.maximum(rank[live], _ranks_mod(M, q))
            live = live[~settled[rank[live]]]
            if not len(live):
                break
        counts += np.bincount(rank, minlength=n + 1)
    return counts


def rank_census(C: CubicPolynomial, H: int, p: int | None = None,
                budget: int | None = None) -> RankCensus:
    """Exact rank statistics of M(x) = sum_k x_k M(e_k) over the box |x| < H.

    M(x) is block diagonal over the variable blocks of C's cubic terms
    (polynomials._variable_blocks), each block a function of its own
    variables, and the rank of a block-diagonal matrix is the sum of its
    blocks' ranks, over Q and over F_p.  So the census is the convolution
    of the blocks' rank histograms, each by _block_census over that
    block's own box; the variables in no cubic term are one rank-0 block.
    The budget counts the (2H - 1)^n points of the whole box.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    if p is not None and not (p < 2**31 and is_prime(p)):
        raise ValueError("p must be a prime below 2**31")
    n = C.n
    check_budget((2 * H - 1) ** n, budget, what="rank census")
    basis = [C.hessian([int(i == k) for i in range(n)]) for k in range(n)]
    blocks = [sorted({i for _, idx in b for i in idx}) for b in
              _variable_blocks([t for t in C.terms() if len(t[1]) == 3])]
    free = n - sum(map(len, blocks))
    counts = np.array([(2 * H - 1) ** free], dtype=np.int64)
    for U in filter(None, blocks):
        sub = [[[basis[k][i][j] for j in U] for i in U] for k in U]
        counts = np.convolve(counts, _block_census(sub, H, p))
    return RankCensus(H=H, p=p,
                      counts={r: int(c) for r, c in enumerate(counts) if c})


def regularized_ratio(count: int, H: int, n: int, r: int) -> float:
    """A rank-r count over |x| < H in n variables / H^max(r, n-14+r)."""
    return count / H ** max(r, n - 14 + r)


def psi_good_report(C: CubicPolynomial, H_max: int,
                    budget: int | None = None) -> dict:
    """Rank-census growth diagnostic over doubling box sizes.

    For each H in 2, 4, ..., H_max and each rank r <= 13 reports the raw
    ratio counts[r] / H^(n-14+r) together with the regularized ratio
    counts[r] / H^max(r, n-14+r).  The raw exponent n-14+r is the target
    regime (n >= 14); at desk scale n < 14 it is negative and every count
    trivially explodes against it, so the verdict is based on the
    regularized exponent, which coincides with the raw one for n >= 14 and
    with the non-singular stratification bound dim{r(x) <= r} <= r below.
    This is a diagnostic, not a proof.
    """
    n = C.n
    rows = []
    consistent = True
    H = 2
    while H <= H_max:
        census = rank_census(C, H, budget=budget)
        for r in sorted(census.counts):
            if r > 13:
                continue
            c = census.counts[r]
            raw = c / H ** (n - 14 + r)
            reg = regularized_ratio(c, H, n, r)
            if reg > _PSI_BOUND_CONST:
                consistent = False
            rows.append({"H": H, "r": r, "count": c,
                         "ratio_raw": raw, "ratio": reg})
        H *= 2
    return {"rows": rows, "bound_const": _PSI_BOUND_CONST,
            "verdict": "consistent" if consistent else "inconsistent"}


# -- small-subspace solution bound ------------------------------------------


@dataclass(frozen=True)
class SubspaceBound:
    """Size bound M^(97 + 91 psi) for a nonzero point on the special
    subspace; only the exponent is asserted, never an implicit constant."""
    exponent: Fraction
    exponent_ceil: int
    value: int  # M ** exponent_ceil


def small_subspace_solution_bound(psi, M: int) -> SubspaceBound:
    if M < 2:
        raise ValueError("M must be >= 2")
    psi = Fraction(str(psi))
    if psi < 0:
        raise ValueError("psi must be >= 0")
    e = 97 + 91 * psi
    ec = ceil_fraction(e)
    return SubspaceBound(exponent=e, exponent_ceil=ec, value=M**ec)
