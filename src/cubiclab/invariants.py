"""Invariants of cubic forms: the Delta discriminant-gcd, Hessian rank
statistics, the rank-census diagnostic, and Siegel-lemma small kernel vectors.

Delta(C) is the gcd of all n x n minors of the n x binom(n+1, 2) matrix
whose (i, (j, k)) entry is c_{ijk}, columns indexed by unordered pairs
j <= k.  It vanishes exactly when C is degenerate, and p | Delta whenever
C is degenerate mod p.  It is computed exactly, from one unimodular column
reduction of that matrix, never from a sample of minors.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import log, prod

from .budget import check_budget
from .nt import column_reduce, trial_factor, ceil_fraction
from .polynomials import CubicPolynomial, DimensionMismatch

_FACTOR_BOUND = 10**6  # trial division bound for the factorization of Delta
_PSI_BOUND_CONST = 20.0  # largest regularized ratio psi_good_report accepts
_LLL_DELTA = Fraction(3, 4)  # the Lovasz condition parameter of _lll


# -- exact linear algebra helpers -------------------------------------------


def rank_rational(rows: list) -> int:
    """Rank over Q of an integer matrix by fraction-free (Bareiss)
    elimination: every division by the previous pivot is exact."""
    a = [list(r) for r in rows]
    m = len(a)
    rank, prev = 0, 1
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        p = pr[col]
        for i in range(rank + 1, m):
            y = a[i][col]
            a[i] = [(x * p - y * z) // prev for x, z in zip(a[i], pr)]
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def rank_mod_p(rows: list, p: int) -> int:
    """Rank over F_p."""
    a = [[v % p for v in r] for r in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        inv = pow(pr[col], -1, p)
        for i in range(rank + 1, m):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


# -- Delta ------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaInvariant:
    value: int
    prime_factorization: dict = field(default_factory=dict)
    unfactored_cofactor: int = 1

    def v_p(self, p: int) -> int:
        return self.prime_factorization.get(p, 0)


def coefficient_matrix(C: CubicPolynomial) -> list:
    """The n x binom(n+1,2) matrix (c_{ijk})_{i, (j<=k)}."""
    n = C.n
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    return [[C.c(i, j, k) for (j, k) in pairs] for i in range(n)]


def delta(C: CubicPolynomial) -> DeltaInvariant:
    """gcd of all n x n minors of the coefficient matrix: the product of the
    pivots of its column reduction, 0 when its rank is below n."""
    pivots, _, _ = column_reduce(coefficient_matrix(C))
    if len(pivots) < C.n:
        return DeltaInvariant(0)
    g = prod(abs(v) for v in pivots)
    factors, cof = trial_factor(g, _FACTOR_BOUND)
    return DeltaInvariant(g, prime_factorization=factors,
                          unfactored_cofactor=cof)


# -- Hessian rank census ----------------------------------------------------


@dataclass(frozen=True)
class RankCensus:
    H: int
    counts: dict            # rank r -> number of x with |x| < H, r(x) = r
    p: int | None = None    # None: rank over Q; else over F_p
    exponent_fit: dict = field(default_factory=dict)  # r -> log count / log H

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def rank_census(C: CubicPolynomial, H: int, p: int | None = None,
                budget: int | None = None) -> RankCensus:
    """Exact rank statistics of M(x) over the box |x| < H.

    Walks the lattice with an odometer, updating the Hessian incrementally
    (M(x + e_k) = M(x) + M(e_k)) so each step costs O(n^2).
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    n = C.n
    side = 2 * H - 1
    check_budget(side**n, budget, what="rank census")
    basis = []
    for k in range(n):
        e = [0] * n
        e[k] = 1
        basis.append(C.hessian(e))
    lo = -(H - 1)
    x = [lo] * n
    M = [[sum(basis[k][i][j] * x[k] for k in range(n)) for j in range(n)]
         for i in range(n)]
    rank_of = (lambda rows: rank_mod_p(rows, p)) if p else rank_rational
    counts: dict[int, int] = {}
    while True:
        r = rank_of(M)
        counts[r] = counts.get(r, 0) + 1
        # odometer step
        k = 0
        while k < n and x[k] == H - 1:
            # roll coordinate k back to lo: subtract side-1 steps of e_k
            for i in range(n):
                row_b, row_m = basis[k][i], M[i]
                for j in range(n):
                    row_m[j] -= (side - 1) * row_b[j]
            x[k] = lo
            k += 1
        if k == n:
            break
        x[k] += 1
        for i in range(n):
            row_b, row_m = basis[k][i], M[i]
            for j in range(n):
                row_m[j] += row_b[j]
    fit = {r: (log(c) / log(H) if H > 1 and c > 0 else None)
           for r, c in counts.items()}
    return RankCensus(H=H, counts=counts, p=p, exponent_fit=fit)


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
            reg = c / H ** max(r, n - 14 + r)
            if reg > _PSI_BOUND_CONST:
                consistent = False
            rows.append({"H": H, "r": r, "count": c,
                         "ratio_raw": raw, "ratio": reg})
        H *= 2
    return {"rows": rows, "bound_const": _PSI_BOUND_CONST,
            "verdict": "consistent" if consistent else "inconsistent"}


# -- Siegel-lemma small kernel vectors --------------------------------------


class FullRankError(ValueError):
    pass


def _lll(basis: list) -> list:
    """Textbook LLL reduction of integer row vectors (exact rationals)."""
    b = [list(map(int, v)) for v in basis]
    k_max = len(b)

    def gram(bv):
        # Gram-Schmidt: returns (mu, Bnorms)
        mu = [[Fraction(0)] * k_max for _ in range(k_max)]
        star: list = []
        norms = []
        for i in range(k_max):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = Fraction(sum(x * y for x, y in zip(b[i], star[j])),
                                    1) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(sum(x * x for x in v))
        return mu, norms

    k = 1
    mu, norms = gram(b)
    while k < k_max:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gram(b)
        if norms[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gram(b)
            k = max(k - 1, 1)
    return b


def integer_kernel_basis(A: list) -> list:
    """Basis of the full integer kernel lattice {x in Z^n : Ax = 0}: the
    U-columns of the unimodular column reduction that pair with zeroed-out
    A-columns, so they generate (not merely span rationally) the lattice."""
    pivots, U, _ = column_reduce(A)
    return U[len(pivots):]


def siegel_solve(A: list) -> list:
    """Nonzero integer kernel vector of the m x n matrix A, m < n, with
    |x|_inf <= (n * maxentry)^(m/(n-m)) (classical Siegel bound, asserted)."""
    m = len(A)
    n = len(A[0])
    if any(len(r) != n for r in A):
        raise DimensionMismatch("ragged matrix")
    if rank_rational(A) >= n:
        raise FullRankError("kernel is trivial: matrix has full column rank")
    basis = integer_kernel_basis(A)
    maxentry = max((abs(v) for row in A for v in row), default=0)
    bound = float(n * max(maxentry, 1)) ** (m / (n - m))
    cand = min(basis, key=lambda v: max(abs(x) for x in v))
    if max(abs(x) for x in cand) > bound and len(basis) > 1:
        red = _lll(basis)
        red = [v for v in red if any(v)]
        cand = min(red, key=lambda v: max(abs(x) for x in v))
        basis = red
    if max(abs(x) for x in cand) > bound:
        # last resort: small integer combinations of the (reduced) basis
        best = cand
        rng = range(-3, 4)
        for coeffs in product(rng, repeat=len(basis)):
            if not any(coeffs):
                continue
            v = [sum(c * bv[i] for c, bv in zip(coeffs, basis))
                 for i in range(n)]
            if any(v) and max(abs(x) for x in v) < max(abs(x) for x in best):
                best = v
        cand = best
    norm = max(abs(x) for x in cand)
    assert norm <= bound, (
        f"Siegel bound violated: |x| = {norm} > {bound}")
    assert all(sum(r[i] * cand[i] for i in range(n)) == 0 for r in A)
    return cand


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
    psi = Fraction(str(psi)) if not isinstance(psi, (int, Fraction)) else Fraction(psi)
    if psi < 0:
        raise ValueError("psi must be >= 0")
    e = 97 + 91 * psi
    ec = ceil_fraction(e)
    return SubspaceBound(exponent=e, exponent_ceil=ec, value=M**ec)
