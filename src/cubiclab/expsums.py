"""Exponential sums: complete Gauss sums S(q, a), Weyl sums over scaled
boxes and the Weyl-differencing probe, and exact verifiers for the
shrinking and bootstrap lemmas.  The averages A(q) of the singular series
are read off local densities instead (majorarcs).

Implicit-constant policy: lemmas stated with << become probes that report
ratios; only exact identities and divisibility statements are asserted.
Phases are reduced in exact integer arithmetic whenever the frequency is
rational, so the only floating-point step is the final root of unity.
"""

from fractions import Fraction
from math import gcd, tau, floor, inf, isfinite, prod
import cmath

import numpy as np

from .budget import check_budget
from .counting import _box_ranges
from .nt import nearest_int_distance
from .polynomials import CubicPolynomial, _CHUNK, _eval_terms, _walk


def _unit_root(m: int, q: int) -> complex:
    """e(m/q) for 0 <= m < q, the upper half mirrored from the lower, so
    e((q - m)/q) is *exactly* the conjugate of e(m/q) and conjugate
    symmetries of the sums hold to the last bit."""
    if 2 * m > q:
        return _unit_root(q - m, q).conjugate()
    if 2 * m == q:
        return complex(-1.0, 0.0)  # e(1/2) = -1 exactly, its own conjugate
    return cmath.exp(1j * tau * m / q)


def _sum_once(counts, phases) -> complex:
    """sum count * phase, summed exactly in Fractions and rounded once:
    to the last bit the fsum of the phase over every counted point."""
    re = sum(c * Fraction(z.real) for c, z in zip(counts, phases))
    im = sum(c * Fraction(z.imag) for c, z in zip(counts, phases))
    return complex(float(re), float(im))


# -- Gauss sums -------------------------------------------------------------


def gauss_sum(phi: CubicPolynomial, q: int, a: int,
              budget: int | None = None) -> complex:
    """S(q, a) = sum_(r mod q) e(a phi(r)/q) for gcd(a, q) = 1: the
    complete Weyl sum at alpha = a/q over the box [0, q - 1]^n."""
    if gcd(a, q) != 1:
        raise ValueError(f"a = {a} not coprime to q = {q}")
    return weyl_sum(phi, Fraction(a, q), [(0, q - 1)] * phi.n, budget=budget)


# -- Weyl sums --------------------------------------------------------------


def weyl_sum(phi: CubicPolynomial, alpha, bounds, P: float = 1.0,
             budget: int | None = None) -> complex:
    """S(alpha) = sum_{x in P.box} e(alpha phi(x)).

    bounds is a list of (lo, hi) per coordinate (the unscaled box).  The
    points are grouped by an exact integer key, a phi(x) mod q for
    rational alpha = a/q (phase e(key/q)), else phi(x) (phase
    cmath.exp(2 pi i ((alpha key) mod 1))).  The phases times their counts
    are summed exactly and rounded once, as fsum over the points would.
    """
    ranges = _box_ranges(phi.n, P, bounds)
    npts = prod(len(r) for r in ranges)
    if not npts:
        return 0j
    check_budget(npts, budget, what="Weyl sum lattice")
    terms = phi.terms()
    rational = isinstance(alpha, Fraction)
    if rational:
        q, a = alpha.denominator, alpha.numerator % alpha.denominator
    groups = []  # (distinct keys, their counts) per chunk
    for _, shape, x in _walk(ranges, _CHUNK, terms):
        key = np.broadcast_to(_eval_terms(terms, x), shape)
        if rational:  # in Python ints once a * key may pass 2**63
            key = (key % q).astype(object if q * q >= 2**63 else np.int64)
            key = key * a % q
        groups.append(np.unique(key, return_counts=True))
    keys, mults = (np.concatenate(g) for g in zip(*groups))
    keys, inverse = np.unique(keys, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, mults)
    phases = [_unit_root(k, q) if rational
              else cmath.exp(1j * tau * ((alpha * k) % 1.0))
              for k in keys.tolist()]
    return _sum_once(counts.tolist(), phases)


# -- shrinking lemma verifier ----------------------------------------------


def _near_integer_count(L, r: int, eps) -> int:
    """#{u in [-r, r]^n : ||(L u)_i|| < eps for all i}, n = len(L), over
    chunks of the box.  Each value is formed in the order and the
    arithmetic of one point's sum_j L[i][j] u[j]: exact for int and
    Fraction entries, IEEE double once a float enters; its distance to the
    nearest integer is taken as nt.nearest_int_distance takes it."""
    rows = [[(w, (j,)) for j, w in enumerate(row)] for row in L]
    height = [term for row in rows for term in row]
    count = 0
    for _, shape, u in _walk([range(-r, r + 1)] * len(L), _CHUNK, height):
        near = True
        for row in rows:
            x = _eval_terms(row, u)
            frac = x - x // 1
            near = near & (np.minimum(frac, 1 - frac) < eps)
        count += int(np.count_nonzero(np.broadcast_to(near, shape)))
    return count


def shrinking_count(L, a, Z, budget: int | None = None) -> int:
    """N(Z) = #{u : |u| <= a Z, ||(L u)_i|| < a^-1 Z for all i}."""
    r = floor(float(a) * float(Z) + 1e-12)
    check_budget((2 * r + 1) ** len(L), budget, what="shrinking count")
    return _near_integer_count(L, r, float(Z) / float(a))


def shrinking_check(L, a, Z, budget: int | None = None) -> dict:
    """Report N(1) against Z^-n N(Z) (Davenport's shrinking bound)."""
    if not 0 < Z <= 1:
        raise ValueError("need 0 < Z <= 1")
    n = len(L)
    NZ = shrinking_count(L, a, Z, budget)
    N1 = shrinking_count(L, a, 1, budget)
    assert NZ >= 1, "u = 0 is always counted"
    ratio = N1 / (float(Z) ** (-n) * NZ)
    return {"N1": N1, "NZ": NZ, "Z": float(Z), "ratio": ratio}


# -- bootstrap lemma verifier ----------------------------------------------


def bootstrap_check(q: int, a: int, theta: Fraction, X: int, P1: int,
                    m: int) -> dict:
    """Exact instance check of the rational-approximation bootstrap.

    Preconditions: gcd(a, q) = 1, 2qX|theta| <= 1, P1 >= 2q, |m| <= X and
    ||alpha m|| <= 1/P1 with alpha = a/q + theta.  The lemma asserts q | m,
    and m = 0 when additionally X < q or |theta| > 1/(q P1).

    The conclusion q | m needs at least one precondition to be strict:
    ||am/q|| <= ||alpha m|| + |theta m| <= 1/P1 + 1/(2q) <= 1/q, and q not
    dividing m gives ||am/q|| >= 1/q, so q fails to divide m only when
    P1 = 2q, 2qX|theta| = 1, |m| = X and ||alpha m|| = 1/P1 all hold with
    equality, e.g. (q, a, theta, X, P1, m) = (2, 1, 1/4, 1, 4, -1).  Such
    all-tight instances are reported (``divides`` False), not rejected.
    Where q | m holds, m = 0 follows in the forced-zero regime.  PAPER.md
    does not settle which inequality the paper makes strict.
    """
    theta = Fraction(theta)
    if gcd(a, q) != 1:
        raise ValueError("gcd(a, q) != 1")
    if 2 * q * X * abs(theta) > 1:
        raise ValueError("precondition 2qX|theta| <= 1 fails")
    if P1 < 2 * q:
        raise ValueError("precondition P1 >= 2q fails")
    if abs(m) > X:
        raise ValueError("precondition |m| <= X fails")
    alpha = Fraction(a, q) + theta
    if not nearest_int_distance(alpha * m) <= Fraction(1, P1):
        raise ValueError("precondition ||alpha m|| <= 1/P1 fails")
    zero_regime = X < q or abs(theta) > Fraction(1, q * P1)
    return {"divides": m % q == 0,
            "forced_zero": zero_regime,
            "is_zero": m == 0}


def weyl_bound_probe(C: CubicPolynomial, q: int, a: int, theta: float,
                     P: int, psi: float, budget: int | None = None) -> dict:
    """|S(alpha)| over the box P [-1, 1]^n against the Weyl-differencing
    right-hand side (epsilon dropped, implicit constant unknown: reported,
    never asserted)."""
    if q < 1 or P < 1 or gcd(a, q) != 1:
        raise ValueError(f"need q >= 1, P >= 1 and gcd(a, q) = 1, got "
                         f"q = {q}, a = {a}, P = {P}")
    if not (isfinite(theta) and isfinite(psi)):
        raise ValueError(f"theta and psi must be finite, got theta = "
                         f"{theta}, psi = {psi}")
    n = C.n
    M = max(C.height, 1)
    th = abs(float(theta))
    try:
        inner = 1.0 / P**2 + M * q * th + q / P**3
        inner += (1.0 / q) * min(float(M), 1.0 / (th * P**3)) if th \
            else float(M) / q
        inner += float(M) ** (-2.0 * psi)
        rhs = P**n * inner ** (7.0 / 4.0)
    except OverflowError:
        rhs = inf
    if not isfinite(rhs):
        raise ValueError(f"the Weyl bound is not a finite float at q = {q}, "
                         f"theta = {theta}, P = {P}, psi = {psi}")
    S = weyl_sum(C, a / q + theta, [(-1.0, 1.0)] * n, P, budget)
    return {"S_abs": abs(S), "rhs": rhs,
            "ratio": abs(S) / rhs if rhs else float("inf")}
