"""Major-arc machinery: constructive real zeros of the cubic form, scaled
box regions with certified derivative floors, the singular integral via the
sinc-kernel representation, and truncated singular series.

The singular integral is computed from the interchanged form

    I(Z) = int_B sin(2 pi Z C(x)) / (pi C(x)) dx = int_B 2 Z sinc(2 Z C(x)) dx,

whose integrand is smooth (the zero set of C is a removable sinc point).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, log, pi

import numpy as np
from mpmath import iv

from .budget import check_budget, enumeration_budget, BudgetExceeded
from .invariants import siegel_solve, FullRankError
from .local import local_factor, rho, ncc_threshold
from .nt import primes_up_to, valuation
from .polynomials import CubicPolynomial, _mult3, _mult2


# -- real non-singular point ------------------------------------------------


@dataclass(frozen=True)
class RealPoint:
    kind: str                # "integer" (exact solution) or "real"
    point: tuple             # z~ with C(z~) = 0
    xi: float | None = None  # positive real root of a xi^3 + F2 xi + F3
    derivatives: tuple = ()  # grad C at the point
    bracket: tuple | None = None   # (lower, upper) reference for xi
    runner_ups: tuple = ()   # other coordinates with comparable derivative


def _x1_slices(C: CubicPolynomial):
    """C(x1, y) = a x1^3 + x1^2 F1(y) + x1 F2(y) + F3(y); returns
    (a, F1 coeff vector, F2 as (n-1)-var quadratic, F3 as (n-1)-var cubic)."""
    n = C.n
    a = C.c(0, 0, 0)
    f1 = [3 * C.c(0, 0, j) for j in range(1, n)]

    # F2's symmetric matrix can be half-integral, so it is evaluated
    # directly rather than stored as a CubicPolynomial.
    def F2(y):
        tot = 0
        for j in range(1, n):
            for k in range(1, n):
                tot += 3 * C.c(0, j, k) * y[j - 1] * y[k - 1]
        return tot

    F3 = CubicPolynomial(
        n - 1,
        cubic={(i - 1, j - 1, k - 1): c
               for (i, j, k), c in C.cubic.items() if i >= 1})
    return a, f1, F2, F3


def real_point(C: CubicPolynomial, mode: str = "n-variable",
               h: int | None = None, calibration: float = 1e3) -> RealPoint:
    """Constructive zero of C with large first partial derivative.

    Requires the leading normalization c_111 > 0.  Finds an integer y != 0
    with F1(y) = 0 (Siegel), exits early with the integer solution (0, y)
    when F3(y) = 0, otherwise flips signs so F3(y) <= -1 and solves
    a xi^3 + F2(y) xi + F3(y) = 0 for its smallest positive real root.
    Only positivity of the derivative and the xi bracket (up to the frozen
    calibration constant) are asserted; achieved values are reported.
    """
    n = C.n
    a, f1, F2, F3 = _x1_slices(C)
    if a <= 0:
        raise ValueError("normalization c_111 > 0 required (run normalize_leading)")
    if n < 2:
        raise ValueError("real_point needs n >= 2")
    if mode == "n-variable":
        # early exit: scan for a small nonzero integer solution first
        from .counting import smallest_solution
        M0 = max(C.height, 2)
        shell_cap = max(1, int(round(M0 ** (1.0 / max(n - 2, 1)))) + 1)
        rep = smallest_solution(C, shell_cap, start_shell=1)
        if rep.found is not None:
            grad = C.gradient(list(rep.found))
            return RealPoint(kind="integer", point=rep.found,
                             derivatives=tuple(grad))
    if all(v == 0 for v in f1):
        y = [0] * (n - 1)
        y[0] = 1
    else:
        try:
            y = siegel_solve([f1])
        except FullRankError:
            raise RuntimeError("F1 has no nonzero integer kernel vector")
    if F3.evaluate(y) == 0:
        sol = (0, *y)
        grad = C.gradient(list(sol))
        return RealPoint(kind="integer", point=sol, derivatives=tuple(grad))
    if F3.evaluate(y) > 0:
        y = [-v for v in y]  # F1(-y) = 0, F2 even, F3 odd
    f2v, f3v = F2(y), F3.evaluate(y)
    roots = np.roots([a, 0, f2v, f3v])
    real_pos = sorted(r.real for r in roots
                      if abs(r.imag) < 1e-9 * max(1.0, abs(r)) and r.real > 0)
    if not real_pos:
        raise RuntimeError("no positive real root for the x1 cubic")
    xi = float(real_pos[0])
    # Newton polish
    for _ in range(60):
        g = a * xi**3 + f2v * xi + f3v
        dg = 3 * a * xi**2 + f2v
        if dg == 0:
            break
        step = g / dg
        xi -= step
        if abs(step) < 1e-15 * max(1.0, abs(xi)):
            break
    z = (xi, *(float(v) for v in y))
    grad = [float(g) for g in _grad_float(C, z)]
    d1 = grad[0]
    assert d1 > 0, "first partial derivative must be positive at the point"
    hh = h if (mode == "h-invariant" and h) else n
    M = max(C.height, 2)
    if hh > 2:
        lo = M ** (-1.0 - 2.0 / (hh - 2)) / calibration
        hi = M ** (1.0 / (hh - 2)) * calibration
        assert lo <= xi <= hi, f"xi = {xi} outside calibrated bracket [{lo}, {hi}]"
    else:
        lo = hi = None  # bracket exponent degenerates at h <= 2
    others = sorted(range(1, n), key=lambda i: -abs(grad[i]))
    lead = abs(grad[others[0]]) if others else 0.0
    runner_ups = tuple(i for i in others[1:] if abs(grad[i]) >= 0.5 * lead)
    return RealPoint(kind="real", point=z, xi=xi, derivatives=tuple(grad),
                     bracket=(lo, hi) if lo is not None else None,
                     runner_ups=runner_ups)


def _grad_float(C: CubicPolynomial, x):
    n = C.n
    g = [0.0] * n
    for m in range(n):
        s = 0.0
        for (i, j, k), cc in C.cubic.items():
            mult = _mult3(i, j, k)
            idx = (i, j, k)
            for pos in range(3):
                if idx[pos] == m:
                    u, v = idx[(pos + 1) % 3], idx[(pos + 2) % 3]
                    s += mult * cc * x[u] * x[v]
        for (i, j), qq in C.quad.items():
            mlt = _mult2(i, j)
            idx = (i, j)
            for pos in range(2):
                if idx[pos] == m:
                    s += mlt * qq * x[idx[1 - pos]]
        g[m] = s + C.lin[m]
    return g


# -- box construction with certified floors ---------------------------------


@dataclass(frozen=True)
class BoxRegion:
    center: tuple
    width: float = 1.0      # half-width per axis
    scale: float = 1.0      # P
    sigma: float = 0.0      # certified upper bound of |C| on the box
    d1: float = 0.0         # certified floor of dC/dx_axis1 on the box
    d2: float = 0.0         # certified floor of dC/dx_axis2 on the box
    axis1: int = 0
    axis2: int = 1
    A: int = 4              # frozen power-of-2 scaling constant

    @property
    def bounds(self) -> list:
        return [(z - self.width, z + self.width) for z in self.center]


def _interval_eval(terms, intervals):
    """Interval extension of a sparse polynomial given as
    [(coeff, (index,...)), ...]."""
    tot = iv.mpf(0)
    for coeff, idx in terms:
        t = iv.mpf(coeff)
        for i in idx:
            t = t * intervals[i]
        tot = tot + t
    return tot


def _poly_terms(C: CubicPolynomial):
    terms = []
    for (i, j, k), c in C.cubic.items():
        terms.append((_mult3(i, j, k) * c, (i, j, k)))
    for (i, j), c in C.quad.items():
        terms.append((_mult2(i, j) * c, (i, j)))
    for i, li in enumerate(C.lin):
        if li:
            terms.append((li, (i,)))
    if C.const:
        terms.append((C.const, ()))
    return terms


def _grad_terms(C: CubicPolynomial, m: int):
    terms = []
    for (i, j, k), c in C.cubic.items():
        mult = _mult3(i, j, k)
        idx = (i, j, k)
        for pos in range(3):
            if idx[pos] == m:
                terms.append((mult * c, (idx[(pos + 1) % 3], idx[(pos + 2) % 3])))
    for (i, j), c in C.quad.items():
        idx = (i, j)
        for pos in range(2):
            if idx[pos] == m:
                terms.append((_mult2(i, j) * c, (idx[1 - pos],)))
    if C.lin[m]:
        terms.append((C.lin[m], ()))
    return terms


def build_box(C: CubicPolynomial, z_tilde, n: int | None = None,
              M: int | None = None, max_A_log2: int = 10) -> BoxRegion:
    """Scale z~ to z = A M^(3 + 8/(n-2)) z~ and certify the box floors.

    A is the smallest power of two >= 4 for which interval arithmetic
    certifies both derivative floors positive on all of B; it is frozen
    into the region.  Axes are relabeled (axis1/axis2 fields) so the
    dominant derivative comes first.
    """
    n = n if n is not None else C.n
    M = M if M is not None else max(C.height, 2)
    base = float(M) ** (3.0 + 8.0 / max(n - 2, 1))
    grad0 = _grad_float(C, z_tilde)
    order = sorted(range(n), key=lambda i: -abs(grad0[i]))
    ax1, ax2 = order[0], (order[1] if n > 1 else order[0])
    A = 4
    while A <= 2**max_A_log2:
        z = tuple(A * base * v for v in z_tilde)
        ivals = [iv.mpf([zi - 1.0, zi + 1.0]) for zi in z]
        g1 = _interval_eval(_grad_terms(C, ax1), ivals)
        g2 = _interval_eval(_grad_terms(C, ax2), ivals)
        lo1 = float(iv.mpf(g1).a)
        lo2 = float(iv.mpf(g2).a)
        ok_sign = lo1 > 0 or float(iv.mpf(g1).b) < 0
        ok_sign2 = lo2 > 0 or float(iv.mpf(g2).b) < 0
        origin_ok = max(abs(zi) for zi in z) >= 2.0
        if ok_sign and ok_sign2 and origin_ok:
            d1 = min(abs(lo1), abs(float(iv.mpf(g1).b)))
            d2 = min(abs(lo2), abs(float(iv.mpf(g2).b)))
            cv = _interval_eval(_poly_terms(C), ivals)
            sigma = max(abs(float(cv.a)), abs(float(cv.b)))
            return BoxRegion(center=z, width=1.0, sigma=sigma,
                             d1=d1, d2=d2, axis1=ax1, axis2=ax2, A=A)
        A *= 2
    raise RuntimeError(
        f"box verification failed for every A <= 2^{max_A_log2}")


# -- singular integral ------------------------------------------------------


def _cc_nodes(m: int, lo: float, hi: float):
    """Clenshaw-Curtis nodes and weights on [lo, hi] (m + 1 points).

    The weights come from Waldvogel's FFT construction (BIT 46, 2006),
    O(m log m); his formula needs m >= 2, so m = 0 (midpoint) and m = 1
    (trapezoid) are set directly.
    """
    if m == 0:
        return np.array([(lo + hi) / 2]), np.array([hi - lo])
    k = np.arange(m + 1)
    x = np.cos(pi * k / m)
    if m == 1:
        w = np.ones(2)
    else:
        odd = np.arange(1, m, 2)
        h = len(odd)
        v = np.zeros(m + 1)
        v[:h] = 2.0 / (odd * (odd - 2))
        v[h] = 1.0 / odd[-1]
        v = -v[:-1] - v[:0:-1]
        g = -np.ones(m)
        g[h] += m
        g[m - h] += m
        v += g / (m * m - 1 + m % 2)
        w = np.fft.ifft(v).real
        w = np.append(w, w[0])
    half = (hi - lo) / 2
    return (lo + hi) / 2 + half * x, half * w


def evaluate_array(phi: CubicPolynomial, X: list) -> np.ndarray:
    """phi over broadcastable float arrays (one per coordinate)."""
    acc = np.asarray(float(phi.const))
    for (i, j, k), c in phi.cubic.items():
        acc = acc + (_mult3(i, j, k) * c) * X[i] * X[j] * X[k]
    for (i, j), c in phi.quad.items():
        acc = acc + (_mult2(i, j) * c) * X[i] * X[j]
    for i, li in enumerate(phi.lin):
        if li:
            acc = acc + li * X[i]
    return acc


# Grid points whose integrand is held at once: _tensor_integral works through
# the grid in slabs of whole axis-0 rows, so memory stays O(_SLAB_POINTS)
# instead of O((m + 1)^n).
_SLAB_POINTS = 1 << 18


def _sinc_kernel(C: CubicPolynomial, X: list, Z: float) -> np.ndarray:
    """2 Z sinc(2 Z C) over the broadcast of the coordinate arrays X, with
    the removable point C = 0 set to 2 Z.  Same arithmetic as np.sinc,
    built in the buffer evaluate_array returns plus one more."""
    t = evaluate_array(C, X)
    t *= 2.0 * Z
    t *= pi
    zero = t == 0
    f = np.sin(t)
    np.divide(f, t, out=f, where=~zero)
    f *= 2.0 * Z
    f[zero] = 2.0 * Z
    return f


def _tensor_integral(C: CubicPolynomial, bounds, Z: float, m: int) -> float:
    axes = [_cc_nodes(m, lo, hi) for lo, hi in bounds]
    n = len(bounds)
    X = [axes[i][0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
         for i in range(n)]
    x0, w0 = axes[0]
    rows = max(1, _SLAB_POINTS // (m + 1) ** (n - 1))
    total = 0.0
    for s in range(0, m + 1, rows):
        X[0] = x0[s:s + rows].reshape((-1,) + (1,) * (n - 1))
        # a C free of some variable evaluates to a thinner array
        f = np.broadcast_to(_sinc_kernel(C, X, Z),
                            (len(X[0]),) + (m + 1,) * (n - 1))
        for _, w in reversed(axes[1:]):
            f = f @ w
        total += float(w0[s:s + rows] @ f)
    return total


def singular_integral(C: CubicPolynomial, box, Z: float,
                      tol: float = 1e-8, budget: int | None = None,
                      seed: int = 0) -> dict:
    """I(Z) = int_B 2 Z sinc(2 Z C(x)) dx.

    Tensorized Clenshaw-Curtis with node doubling and Richardson-style
    stopping for n <= 3; seeded Monte Carlo with reported standard error
    for higher dimension.  The budget counts Clenshaw-Curtis grid points:
    BudgetExceeded is raised when the next (m + 1)^n grid would exceed it
    before tol is reached.
    """
    bounds = box.bounds if isinstance(box, BoxRegion) else list(box)
    n = len(bounds)
    if n <= 3:
        m = 16
        prev = _tensor_integral(C, bounds, Z, m)
        cap = enumeration_budget(budget)
        while True:
            m *= 2
            if (m + 1) ** n > cap:
                raise BudgetExceeded(
                    f"quadrature grid ({m + 1})^{n} exceeds budget before "
                    f"reaching tol {tol}")
            cur = _tensor_integral(C, bounds, Z, m)
            err = abs(cur - prev)
            if err < tol * max(1.0, abs(cur)):
                return {"value": cur, "error": err, "nodes": m + 1,
                        "method": "clenshaw-curtis"}
            prev = cur
    rng = np.random.default_rng(seed)
    N = min(enumeration_budget(budget), 400_000)
    pts = [rng.uniform(lo, hi, size=N) for lo, hi in bounds]
    vol = 1.0
    for lo, hi in bounds:
        vol *= hi - lo
    vals = _sinc_kernel(C, pts, Z)
    est = vol * float(np.mean(vals))
    se = vol * float(np.std(vals) / np.sqrt(N))
    return {"value": est, "error": se, "nodes": N, "method": "monte-carlo"}


def slice_volume(C: CubicPolynomial, box, grid: int = 128) -> dict:
    """V(0) = int over {C = 0} cap B of dx_2..dx_n / (dC/dx_1).

    Clenshaw-Curtis with grid + 1 nodes per rest axis; the x_1-slice root at
    every node is found by one bisection over all sign-changing nodes at
    once, run until the bracket is two adjacent floats.  A BoxRegion's
    positive certified floor for dC/dx_1 (axis1) makes that root unique; for
    a plain bounds list (axis 0) the caller guarantees at most one root per
    slice.  Returns a float value, 0 with the empty flag when C has no zero
    in the box.
    """
    bounds = box.bounds if isinstance(box, BoxRegion) else list(box)
    ax = box.axis1 if isinstance(box, BoxRegion) else 0
    n = len(bounds)
    lo1, hi1 = bounds[ax]
    rest = [i for i in range(n) if i != ax]

    # every slice node as a flat array per rest axis; none when n = 1,
    # which leaves a single slice of weight 1
    axes = [_cc_nodes(grid, *bounds[i]) for i in rest]
    W = np.ones(())
    for _, w in axes:
        W = np.multiply.outer(W, w)
    W = W.ravel()
    Y = [g.ravel() for g in np.meshgrid(*(x for x, _ in axes), indexing="ij")]

    def point(x1, Y):
        X = [None] * n
        X[ax] = x1
        for i, y in zip(rest, Y):
            X[i] = y
        return X

    f_lo = evaluate_array(C, point(np.full(W.size, float(lo1)), Y))
    f_hi = evaluate_array(C, point(np.full(W.size, float(hi1)), Y))
    hit = np.sign(f_lo) * np.sign(f_hi) <= 0
    if not hit.any():
        return {"value": 0.0, "empty": True}
    W, Y, s_lo = W[hit], [y[hit] for y in Y], np.sign(f_lo[hit])
    a, b = np.full(W.size, float(lo1)), np.full(W.size, float(hi1))
    while True:
        mid = 0.5 * (a + b)
        if not ((a < mid) & (mid < b)).any():
            break
        right = np.sign(evaluate_array(C, point(mid, Y))) == s_lo
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    d = _grad_float(C, point(mid, Y))[ax]
    return {"value": float(np.sum(W / np.abs(d))), "empty": False}


# -- singular series --------------------------------------------------------


@dataclass(frozen=True)
class SeriesTruncation:
    P0: int
    factors: dict = field(default_factory=dict)  # p -> Fraction (truncated chi_p)
    k_used: dict = field(default_factory=dict)   # p -> truncation level
    value: Fraction = Fraction(1)                # Euler product S(P0)
    frak_value: Fraction | None = None           # q-sum frak-S(P0)
    tail_bound: float = 0.0                      # Lemma-13-shape diagnostic
    partial: bool = False                        # some prime hit the budget


def singular_series(phi: CubicPolynomial, P0: int, mode: str = "both",
                    budget: int | None = None) -> SeriesTruncation:
    """Truncated singular series.

    Euler mode: product over p <= P0 of p^(-k(n-1)) rho(p^k) with
    k = k(p) shrunk to the enumeration budget; q-sum mode: sum of the
    exact rational A(q) over q <= P0.  Both are exact rationals.
    """
    from .expsums import a_of_q_exact

    n = phi.n
    cap = enumeration_budget(budget)
    factors, k_used = {}, {}
    partial = False
    value = Fraction(1)
    if mode in ("euler", "both"):
        for p in primes_up_to(P0):
            k = ncc_threshold(p, P0, 0, None)
            while k > 1 and (p**k) ** n > cap:
                k -= 1
                partial = True
            factors[p] = local_factor(phi, p, k, budget)
            k_used[p] = k
            value *= factors[p]
    frak = None
    if mode in ("qsum", "both"):
        frak = Fraction(0)
        for q in range(1, P0 + 1):
            if q**n > cap:
                partial = True
                break
            frak += a_of_q_exact(phi, q, budget)
    M = max(phi.height, 2)
    tail = float(M) ** (7.0 / 3.0) * float(P0) ** (-1.0 / 3.0)
    return SeriesTruncation(P0=P0, factors=factors, k_used=k_used,
                            value=value, frak_value=frak,
                            tail_bound=tail, partial=partial)
