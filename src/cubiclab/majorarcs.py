"""Major-arc machinery: constructive real zeros of the cubic form, scaled
box regions with certified derivative floors, the singular integral via the
sinc-kernel representation, truncated singular series, and the comparison
of exact counts against the circle-method prediction.

The singular integral is computed from the interchanged form

    I(Z) = int_B sin(2 pi Z C(x)) / (pi C(x)) dx = int_B 2 Z sinc(2 Z C(x)) dx,

whose integrand is smooth (the zero set of C is a removable sinc point).
The integrand's sines and cosines come from one tangent per phase (_sinpi).
The tensor rule maps one Clenshaw-Curtis rule per level to every axis and
works through the grid in axis-0 slabs of equal row counts.  When C's
terms split into blocks of disjoint variables, C = A(x_O) + B(x_L) with x_0
in O (every diagonal form), it contracts over L's points once per level:
with T = 2 pi Z A and u = 2 pi Z B, the sines and cosines are taken on the
O and L subgrids and folded into two weight vectors, which leaves the sums
of those vectors over 1/(T + u).  The O points are cut into panels of
contiguous T values.  The poles -u within (1 + kappa) h + 2 of a panel's
centre, h its half-width and kappa = 3 (the near window), are summed
directly, in blocks of at most a slab's points held in one buffer; the far
poles go through K Chebyshev proxies on the panel, K the largest over the
level's panels of the fewest nodes whose Bernstein-ellipse bound for the
nearest far pole is eps.  A level of one slab, and a panel whose proxies
would cost as much as its far poles, sums every pole directly, and the
nodes near the zero set of C take the integrand from C's whole table.  Its
independent pieces, the slabs of a connected C and the Monte-Carlo chunks
(each computing its own slice of the seeded sample, in buffers its thread
allocates once), run on up to _WORKERS threads (numpy releases the GIL in
the kernel's ufuncs); the pieces and the order their partial results are
combined in do not depend on the worker count, so neither does any result,
to the last bit.

Both modes of the truncated singular series read one table of local
densities rho(p^j), p^j <= P0: the Euler factors are its top levels, and
the q-sum takes A(p^j) as a difference of two of its entries and A(q) as a
product over the prime powers of q, so no composite q is put on a grid.
"""

import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import acosh, inf, isfinite, nextafter, pi

import numpy as np

from .budget import check_budget, enumeration_budget, BudgetExceeded
from .counting import _box_bounds, count_solutions, smallest_solution
from .invariants import siegel_solve, FullRankError
from .local import local_factor, ncc_certify, ncc_levels
from .nt import primes_up_to
from .polynomials import (CubicPolynomial, _eval_terms, _variable_blocks,
                          _x1_split, transform)

_CALIBRATION = 1e3  # frozen slack of real_point's xi bracket
_MAX_A_LOG2 = 10  # build_box gives up beyond A = 2^10


# -- real non-singular point ------------------------------------------------


@dataclass(frozen=True)
class RealPoint:
    kind: str                # "integer" (exact solution) or "real"
    point: tuple             # z~ with C(z~) = 0
    xi: float | None = None  # positive real root of a xi^3 + F2 xi + F3
    derivatives: tuple = ()  # grad C at the point


def real_point(C: CubicPolynomial, h: int | None = None) -> RealPoint:
    """Constructive zero of C with large first partial derivative.

    Requires the leading normalization c_111 > 0.  Without h it returns an
    integer zero from the first shells if they hold one; h, the h-invariant,
    skips that search and brackets xi by h in place of n.  Finds an integer
    y != 0 with F1(y) = 0 (Siegel), exits early with the integer solution
    (0, y) when F3(y) = 0, otherwise flips signs so F3(y) <= -1 and solves
    a xi^3 + F2(y) xi + F3(y) = 0 for its smallest positive real root.
    Only positivity of the derivative and the xi bracket (up to the frozen
    calibration constant) are asserted; achieved values are reported.
    """
    n = C.n
    a = C.c(0, 0, 0)
    f1 = [3 * C.c(0, 0, j) for j in range(1, n)]
    F3, F2 = C.x1_slices()[:2]
    if a <= 0:
        raise ValueError("normalization c_111 > 0 required (run normalize_leading)")
    if n < 2:
        raise ValueError("real_point needs n >= 2")
    M = max(C.height, 2)
    if h is None:
        shell_cap = max(1, int(round(M ** (1.0 / max(n - 2, 1)))) + 1)
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
    if _eval_terms(F3, y) == 0:
        sol = (0, *y)
        grad = C.gradient(list(sol))
        return RealPoint(kind="integer", point=sol, derivatives=tuple(grad))
    if _eval_terms(F3, y) > 0:
        y = [-v for v in y]  # F1(-y) = 0, F2 even, F3 odd
    f2v, f3v = _eval_terms(F2, y), _eval_terms(F3, y)
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
    grad = [float(g) for g in C.gradient(z)]
    assert grad[0] > 0, "first partial derivative must be positive at the point"
    hh = h or n
    if hh > 2:  # the bracket's exponent degenerates at h <= 2
        lo = M ** (-1.0 - 2.0 / (hh - 2)) / _CALIBRATION
        hi = M ** (1.0 / (hh - 2)) * _CALIBRATION
        assert lo <= xi <= hi, f"xi = {xi} outside calibrated bracket [{lo}, {hi}]"
    return RealPoint(kind="real", point=z, xi=xi, derivatives=tuple(grad))


# -- box construction with certified floors ---------------------------------


@dataclass(frozen=True)
class BoxRegion:
    center: tuple
    width: float = 1.0      # half-width per axis
    sigma: float = 0.0      # certified upper bound of |C| on the box
    d1: float = 0.0         # certified floor of dC/dx_axis1 on the box
    d2: float = 0.0         # certified floor of dC/dx_axis2 on the box
    axis1: int = 0
    axis2: int = 1
    A: int = 4              # frozen power-of-2 scaling constant

    @property
    def bounds(self) -> list:
        return [(z - self.width, z + self.width) for z in self.center]


@dataclass(frozen=True)
class _Interval:
    """[lo, hi] with exact Fraction endpoints, closed under the + and * of
    _eval_terms (a number is the interval [x, x]), so a term table
    evaluated on intervals encloses its exact range on the box."""
    lo: Fraction
    hi: Fraction

    def __add__(self, other):
        other = _as_interval(other)
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        other = _as_interval(other)
        ends = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return _Interval(min(ends), max(ends))

    __radd__, __rmul__ = __add__, __mul__


def _as_interval(x) -> _Interval:
    return x if isinstance(x, _Interval) else _Interval(Fraction(x), Fraction(x))


def _to_float(x: Fraction, up: bool) -> float:
    """x rounded to a float towards +inf (up) or -inf."""
    f = float(x)
    if (Fraction(f) < x) if up else (Fraction(f) > x):
        f = nextafter(f, inf if up else -inf)
    return f


def build_box(C: CubicPolynomial, z_tilde) -> BoxRegion:
    """Scale z~ to z = A M^(3 + 8/(n-2)) z~, n = C.n and M = max(C.height,
    2), and certify the box floors.

    A is the smallest power of two >= 4 for which exact interval
    arithmetic on the box bounds certifies both derivatives of one sign on
    all of B; it is frozen into the region.  The floors d1, d2 are rounded
    down to floats and the bound sigma of |C| up.  Axes are relabeled
    (axis1/axis2 fields) so the dominant derivative comes first.
    """
    n = C.n
    base = float(max(C.height, 2)) ** (3.0 + 8.0 / max(n - 2, 1))
    grad0 = C.gradient(z_tilde)
    order = sorted(range(n), key=lambda i: -abs(grad0[i]))
    ax1, ax2 = order[0], (order[1] if n > 1 else order[0])
    A = 4
    while A <= 2**_MAX_A_LOG2:
        z = tuple(A * base * v for v in z_tilde)
        ivals = [_Interval(Fraction(zi - 1.0), Fraction(zi + 1.0)) for zi in z]
        g1, g2 = (_as_interval(_eval_terms(C.derivative(ax), ivals))
                  for ax in (ax1, ax2))
        if (all(g.lo > 0 or g.hi < 0 for g in (g1, g2))
                and max(abs(zi) for zi in z) >= 2.0):
            d1, d2 = (_to_float(min(abs(g.lo), abs(g.hi)), up=False)
                      for g in (g1, g2))
            cv = _as_interval(_eval_terms(C.terms(), ivals))
            sigma = _to_float(max(abs(cv.lo), abs(cv.hi)), up=True)
            return BoxRegion(center=z, width=1.0, sigma=sigma,
                             d1=d1, d2=d2, axis1=ax1, axis2=ax2, A=A)
        A *= 2
    raise RuntimeError(
        f"box verification failed for every A <= 2^{_MAX_A_LOG2}")


# -- singular integral ------------------------------------------------------


def _cc_nodes(m: int):
    """Clenshaw-Curtis nodes and weights on [-1, 1] (m + 1 points).

    The weights come from Waldvogel's FFT construction (BIT 46, 2006),
    O(m log m); his formula needs m >= 2, so m = 0 (midpoint) and m = 1
    (trapezoid) are set directly.
    """
    if m == 0:
        return np.zeros(1), np.full(1, 2.0)
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
    return x, w


def _cc_axes(m: int, bounds) -> list:
    """The rule _cc_nodes(m) mapped to [lo, hi] for each (lo, hi) of
    bounds."""
    x, w = _cc_nodes(m)
    return [((lo + hi) / 2 + (hi - lo) / 2 * x, (hi - lo) / 2 * w)
            for lo, hi in bounds]


# Threads of the singular integral: one per CPU this process may run on,
# capped to bound the slabs held in memory at once.
_WORKERS = min(4, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _map(fn, items) -> list:
    """[fn(x) for x in items], the items shared among up to _WORKERS
    threads.  Items are taken in order and a worker stops taking them once
    any call has raised; the exception of the first item that raised is
    re-raised here, as the serial loop would raise it.  With one worker or
    one item the loop runs in the calling thread.

    When there is one worker for each CPU of the caller's affinity set,
    each worker pins itself to its own CPU: left to the scheduler, two busy
    threads were seen sharing one CPU of a 2-CPU virtual machine for
    seconds at a time while the other idled.  With fewer workers than CPUs
    nothing is pinned, so that concurrent processes are not all held to
    the same few CPUs.  Pinning is a hint only; a refused pin is ignored."""
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else [])
    out, errors = [None] * len(items), {}
    lock, todo = threading.Lock(), iter(range(len(items)))

    def work(w: int):
        if len(cpus) == workers:
            try:
                os.sched_setaffinity(0, {cpus[w]})  # this thread only
            except OSError:
                pass
        while not errors:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return out


def evaluate_array(phi: CubicPolynomial, X: list) -> np.ndarray:
    """phi over broadcastable float arrays (one per coordinate): a new float
    array of one value per point of their broadcast, whichever variables
    phi reads."""
    f = np.asarray(_eval_terms(phi.terms(), X), dtype=float)
    shape = np.broadcast_shapes(*(np.shape(x) for x in X))
    return f if f.shape == shape else np.broadcast_to(f, shape).astype(float)


# Grid points whose integrand is held at once: _tensor_integral works through
# the grid in slabs of whole axis-0 rows, so memory stays O(_SLAB_POINTS)
# instead of O((m + 1)^n).
_SLAB_POINTS = 1 << 18
# Monte-Carlo sample points per kernel call: the unit the sample is shared
# among workers in, fixed so that results do not depend on _WORKERS.
_MC_CHUNK = 1 << 16


def _sinpi(y: np.ndarray, cos: bool = False, out: tuple | None = None):
    """sin(pi y), or (sin(pi y), cos(pi y)) with cos, for a float array y,
    from one tangent: y = 2 k + d with k = rint(y / 2) and |d| <= 1, both
    exact (d by Sterbenz's lemma), tau = tan(pi d / 2), sin = 2 tau / (1 +
    tau^2) and cos = (1 - tau^2) / (1 + tau^2).  Against sinpi and cospi the
    absolute error stays within 2 eps for every y, where np.sin(pi y) errs
    by about eps |y| (numpy computes tan in SIMD, sin and cos one element at
    a time).  out holds the work arrays, of y's shape: two, or three with
    cos, the results in the first (two); new arrays when None."""
    a, b, *c = out or [np.empty_like(y) for _ in range(2 + cos)]
    np.multiply(y, 0.5, out=a)
    np.rint(a, out=a)
    a *= -2.0
    a += y
    a *= pi / 2
    np.tan(a, out=a)
    np.multiply(a, a, out=b)
    if not cos:
        b += 1.0
        a /= b
        a *= 2.0
        return a
    den = np.add(b, 1.0, out=c[0])
    a /= den
    a *= 2.0
    np.subtract(1.0, b, out=b)
    b /= den
    return a, b


def _sinc_kernel(C: CubicPolynomial, X: list, Z: float,
                 out: np.ndarray | None = None,
                 work: tuple | None = None) -> np.ndarray:
    """2 Z sinc(2 Z C) = 2 Z sin(t) / t, t = pi y and y = 2 Z C, over the
    broadcast of the coordinate arrays X, with 2 Z, the limit, where t is 0
    or subnormal (there sin t = t to the last bit, while _sinpi's pi y / 2
    rounds to fewer bits): y and t round as written, and sin(t) is
    _sinpi(y).  With out, the broadcast's float array, and work, two float
    arrays and one bool array of its shape, the kernel is built in out, C's
    values through the out path of _eval_terms, and allocates nothing; else
    in new arrays."""
    if out is None:
        y = evaluate_array(C, X)
        work = (np.empty_like(y), np.empty_like(y), np.empty(y.shape, bool))
    else:
        y = _eval_terms(C.terms(), X, out=out, work=work[0])
    y *= 2.0 * Z
    s = _sinpi(y, out=work[:2])
    t = y
    t *= pi
    live = np.greater_equal(np.abs(t, out=work[1]), 2.0 ** -1022,
                            out=work[2])
    np.divide(s, t, out=t, where=live)
    t *= 2.0 * Z
    np.copyto(t, 2.0 * Z, where=np.logical_not(live, out=live))
    return t


def _slab_cuts(m: int, n: int) -> list:
    """Row boundaries of the axis-0 slabs of the (m + 1)^n grid: as few
    slabs as keep each within _SLAB_POINTS points (at least one row), their
    row counts as equal as they can be."""
    rows = max(1, _SLAB_POINTS // (m + 1) ** (n - 1))
    k = -(-(m + 1) // rows)
    return [(m + 1) * i // k for i in range(k + 1)]


def _full_slab(C: CubicPolynomial, axes: list, Z: float):
    """The slab sum of the tensor rule for a C whose variables form one
    block: slab((s, e)) is the rule's sum over axis-0 rows s .. e - 1, with
    _sinc_kernel over the whole slab."""
    n = len(axes)
    rest = [axes[i][0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i in range(1, n)]
    x0, w0 = axes[0]

    def slab(cut) -> float:
        s, e = cut
        X0 = x0[s:e].reshape((-1,) + (1,) * (n - 1))
        f = _sinc_kernel(C, [X0, *rest], Z)
        for _, w in reversed(axes[1:]):
            f = f @ w
        return float(w0[s:e] @ f)

    return slab


# Near window of a panel of the split rule: the poles -u within
# (1 + _KAPPA) h + 2 of the centre c of a panel [c - h, c + h] of T are
# summed directly, the rest through Chebyshev proxies, so a far pole lies at
# least 1 + _KAPPA half-widths from the centre.
_KAPPA = 3.0
# K first-kind Chebyshev nodes interpolate 1/(t - p) on a panel, p a pole x
# half-widths from its centre, to a relative error of 1 / T_K(x) = 2 /
# (rho^K + rho^-K), rho = x + sqrt(x^2 - 1) the Bernstein ellipse through p:
# at most eps once K acosh(x) >= acosh(1 / eps).
_ACOSH_EPS = acosh(1.0 / np.finfo(float).eps)


@cache
def _chebyshev(K: int) -> tuple:
    """The K first-kind Chebyshev nodes cos theta_j, theta_j = (2 j + 1) pi
    / (2 K), and their barycentric weights (-1)^j sin theta_j (Berrut &
    Trefethen, SIAM Review 46, 2004), as read-only arrays."""
    theta = (2 * np.arange(K) + 1) * (pi / (2 * K))
    x, beta = np.cos(theta), np.sin(theta)
    beta[1::2] *= -1.0
    x.flags.writeable = beta.flags.writeable = False
    return x, beta


def _lagrange(s: np.ndarray, K: int) -> np.ndarray:
    """The Lagrange basis of _chebyshev(K)'s nodes at the points s,
    (len(s), K), by the barycentric formula; a point on a node is that
    node's row of the identity."""
    x, beta = _chebyshev(K)
    D = s[:, None] - x
    if D.all():
        Q = beta / D
    else:
        hit = D == 0
        with np.errstate(divide="ignore"):
            Q = beta / D
        on = hit.any(axis=1)
        Q[on] = hit[on]
    Q /= Q.sum(axis=1, keepdims=True)
    return Q


def _proxies(dist, h) -> np.ndarray:
    """K for panels of half-width h whose nearest far pole lies dist from
    their centre, x = dist / h half-widths (inf when h = 0)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.divide(dist, h)
    return np.maximum(1, np.ceil(_ACOSH_EPS / np.arccosh(x))).astype(int)


def _panels(Ts: np.ndarray, us: np.ndarray, cap: int) -> list:
    """The cut of the sorted T values Ts into panels for the sorted u
    values us: a list of (p0, p1, lo, hi, K, c, h), the panel Ts[p0:p1] in
    [c - h, c + h] with its near window us[lo:hi] and K proxies (0 where it
    sums every pole directly).  The cuts are into 1, 2, 4, ... panels of
    equal counts, up to one per T value, and into as few as hold every pole
    within cap, all priced at once by the reciprocals they take, P N near +
    K (N far + P) summed over panels of P points; the one taken has the
    fewest reciprocals, then panels, among those whose near blocks P N near
    stay within cap, as the cut into single T values does (cap >= N)."""
    P, N = len(Ts), len(us)
    ns = sorted({min(1 << d, P) for d in range(P.bit_length() + 1)}
                | {-(-P // max(1, cap // N))})
    cut = [P * np.arange(n + 1) // n for n in ns]
    start = np.concatenate([b[:-1] for b in cut])
    end = np.concatenate([b[1:] for b in cut])
    a, b = Ts[start], Ts[end - 1]
    c, h = (a + b) / 2, (b - a) / 2
    r = (1 + _KAPPA) * h + 2
    lo, hi = np.searchsorted(us, -c - r), np.searchsorted(us, r - c)
    far, size = N - (hi - lo), end - start
    dist = np.minimum(np.where(lo > 0, -us[lo - 1] - c, inf),
                      np.where(hi < N, c + us[np.minimum(hi, N - 1)], inf))
    K = np.where(far > 0, _proxies(dist, h), 0)
    direct = K * (far + size) >= size * far
    lo[direct], hi[direct], K[direct] = 0, N, 0
    near = size * (hi - lo)
    offs = np.cumsum([0] + ns)
    cost = np.add.reduceat(near + K * (N - (hi - lo) + size), offs[:-1])
    ok = np.maximum.reduceat(near, offs[:-1]) <= cap
    i = np.flatnonzero(ok)[np.argmin(cost[ok])]
    j = slice(offs[i], offs[i + 1])
    return list(zip(*(x[j].tolist() for x in (start, end, lo, hi, K, c, h))))


def _cauchy_sums(T: np.ndarray, u: np.ndarray, v: np.ndarray, cap: int,
                 near) -> tuple:
    """(S, g): S[o] = sum over l of v[:, l] / (T[o] + u[l]), (len(T), 2),
    leaving out the candidate pairs u[l] in (-2 - T[o], 2 - T[o]), and g[o]
    the sum of near(o', l') over the candidates (o', l') with o' = o, near
    taking index arrays; no block of reciprocals it holds has more than
    cap >= len(u) entries, or K for a far field of one column.

    The O points are cut into panels of contiguous T values (_panels).  The
    poles -u of a panel [c - h, c + h] within (1 + _KAPPA) h + 2 of c (the
    near window, which holds every candidate of the panel) are summed
    directly, the rest through K Chebyshev proxies tau_j = c + h x_j (Dutt,
    Gu & Rokhlin, SIAM J. Numer. Anal. 33, 1996): Phi_j = sum over far l of
    v[:, l] / (tau_j + u[l]) and S[o] += sum_j l_j(T[o]) Phi_j, K taken from
    the nearest far pole so that no far term is off by more than eps of
    itself (_ACOSH_EPS).  A level of at most cap pairs is one panel that
    sums every pole directly, over u in its given order, and a larger one
    whose window over the whole range of T holds no pole one far panel; u
    is sorted only to find candidates or to cut panels.  The panels run in
    order in the calling thread, every far field with the largest K of the
    level's panels, so one Lagrange basis serves all O points."""
    P, N = len(T), len(u)
    u_lo, u_hi = u.min(), u.max()
    a, b = T.min(), T.max()
    c, h = (a + b) / 2, (b - a) / 2
    r = (1 + _KAPPA) * h + 2
    pairs = a + u_lo < 2 and b + u_hi > -2  # some |T + u| < 2 possible
    planned = P * N > cap and c - r <= -u_lo and -u_hi <= c + r
    Ts, cu, cv, tord, order = T, u, v, None, None
    if planned or pairs:
        order = np.argsort(u, kind="stable")
    if planned:
        tord = np.argsort(T, kind="stable")
        Ts = T[tord]
        cu, cv = u[order], v[:, order]
        panels = _panels(Ts, cu, cap)
    elif P * N > cap:  # every pole is far
        panels = [(0, P, 0, 0, int(_proxies(max(c + u_lo, -u_hi - c), h)),
                   c, h)]
    else:
        panels = [(0, P, 0, N, 0, c, h)]
    if pairs:
        # the candidates of Ts[i] are u's sorted positions kl[i] ..
        # kl[i] + cnt[i] - 1, all within the window of its panel: numbered
        # in the order of Ts, candidate j = first[i] .. first[i + 1] - 1 is
        # sorted position j - shift[i]
        us = cu if planned else u[order]
        kl = np.searchsorted(us, -2.0 - Ts, "right")
        cnt = np.searchsorted(us, 2.0 - Ts, "left") - kl
        first = np.zeros(P + 1, dtype=np.intp)
        np.cumsum(cnt, out=first[1:])
        shift = first[:-1] - kl
    Kg = max(p[4] for p in panels)
    buf = np.empty(max(cap, Kg))  # a far block has one column or more
    S = np.empty((P, 2))
    g = np.zeros(P)
    held = []  # candidates (rows, L points) not yet handed to near

    def flush():
        o, l = held[0] if len(held) == 1 else (
            np.concatenate(x) for x in zip(*held))
        g[:] += np.bincount(o, weights=near(o if tord is None else tord[o], l),
                            minlength=P)
        held.clear()

    if Kg:
        x = _chebyshev(Kg)[0]
        size = [p1 - p0 for p0, p1, *_ in panels]
        s = Ts - np.repeat([p[5] for p in panels], size)
        s /= np.repeat([p[6] or 1.0 for p in panels], size)
        L = _lagrange(s, Kg)
    for p0, p1, a, z, _, c, h in panels:
        R = buf[:(p1 - p0) * (z - a)].reshape(p1 - p0, z - a)
        np.add(Ts[p0:p1, None], cu[a:z], out=R)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, R, out=R)  # t = 0 or subnormal: a candidate
        if pairs and first[p0] < first[p1]:
            n = cnt[p0:p1]
            o = np.repeat(np.arange(p0, p1), n)
            k = np.arange(first[p0], first[p1]) - np.repeat(shift[p0:p1], n)
            l = order[k]
            R.reshape(-1)[(o - p0) * (z - a) + (k if planned else l) - a] = 0.0
            held.append((o, l))
            # near takes the candidates of several panels at once, a
            # sixteenth of a block or more
            if 16 * sum(len(o) for o, _ in held) >= cap:
                flush()
        np.matmul(R, cv[:, a:z].T, out=S[p0:p1])
        if Kg and a + N - z:
            tau = c + h * x
            phi = np.zeros((Kg, 2))
            step = max(1, cap // Kg)
            for j0, j1 in ((0, a), (z, N)):
                for j in range(j0, j1, step):
                    e = min(j1, j + step)
                    F = buf[:Kg * (e - j)].reshape(Kg, e - j)
                    np.add(tau[:, None], cu[j:e], out=F)
                    np.divide(1.0, F, out=F)
                    phi += F @ cv[:, j:e].T
            S[p0:p1] += L[p0:p1] @ phi
    if held:
        flush()
    if tord is not None:
        S[tord], g[tord] = S.copy(), g.copy()
    return S, g


def _split_slab(C: CubicPolynomial, split: tuple, axes: list, Z: float,
                rows: int):
    """The slab sum of the tensor rule for C = A(x_O) + B(x_L), O the axes
    of the variable block that holds x_0 and L every other axis (split is
    (O, A, L, B) from _tensor_split): slab((s, e)) is the rule's sum over
    axis-0 rows s .. e - 1, a slab of at most `rows` rows.

    With T = 2 pi Z A and u = 2 pi Z B, the sum over L of the weights w_L
    times 2 Z sin(T + u) / (T + u) is sin T (R @ v_c) + cos T (R @ v_s),
    R = 1 / (T + u) on (O points) x (L points) and v_c, v_s = 2 Z w_L
    (cos u, sin u): the two contractions S are taken once per level by
    _cauchy_sums, in blocks of at most `rows` rows' worth of R, and each
    slab reads its rows of S; sines are taken only on the O and L subgrids,
    by _sinpi of T / pi and u / pi.  The candidates |T + u| < 2 take
    _sinc_kernel at their points instead, so where |t| < 1 the integrand is
    bit for bit that of one block; elsewhere sin(T + u) has an absolute
    error of a few eps T' from the rounding of T and u, T' = 2 pi Z times
    the sum of |w prod x_i| over C's terms, and of at most 9 eps from the
    four sines and cosines (each within 2 eps) and their angle addition,
    divided by |t| >= 1, and the far field of _cauchy_sums adds at most eps
    of each far term."""
    n, m1 = len(axes), len(axes[0][0])
    O, head, L, rest = split

    def phase(table, dims):
        """2 Z table over the grid of the axes dims, flat in C order."""
        X = [None] * n
        for d, i in enumerate(dims):
            X[i] = axes[i][0].reshape((-1,) + (1,) * (len(dims) - 1 - d))
        y = np.asarray(_eval_terms(table, X), dtype=float) * (2.0 * Z)
        return np.broadcast_to(y, (m1,) * len(dims)).ravel()

    # one _sinpi call for both subgrids: on the small grids of the first
    # levels each numpy call costs more than its elements
    y = np.concatenate([phase(head, O), phase(rest, L)])
    P = m1 ** len(O)
    s, c = _sinpi(y, cos=True)
    y *= pi
    T, sinT, cosT = y[:P], s[:P], c[:P]
    u, sin_u, cos_u = y[P:], s[P:], c[P:]
    wL = np.ones(())
    for i in L:
        wL = np.multiply.outer(wL, axes[i][1])
    wL = wL.ravel()
    # laid out (2, L points), R @ v.T is one BLAS product, measured 2.5
    # times as fast as R @ v with v laid out (L points, 2) on a 3 x 66049
    # slab (x86-64, single-threaded BLAS)
    v = np.empty((2, len(u)))
    np.multiply(cos_u, wL, out=v[0])
    np.multiply(sin_u, wL, out=v[1])
    v *= 2.0 * Z
    def near(o, l):
        """w_L 2 Z sinc(2 Z C) at O points o and L points l."""
        X = [None] * n
        for i, j in zip(O, np.unravel_index(o, (m1,) * len(O))):
            X[i] = axes[i][0][j]
        for i, j in zip(L, np.unravel_index(l, (m1,) * len(L))):
            X[i] = axes[i][0][j]
        return wL[l] * _sinc_kernel(C, X, Z)

    width = m1 ** (len(O) - 1)  # O points per axis-0 row
    S, extra = _cauchy_sums(T, u, v, rows * width * len(u), near)
    g = sinT * S[:, 0]
    g += cosT * S[:, 1]
    g += extra
    w0 = axes[0][1]

    def slab(cut) -> float:
        s, e = cut
        f = g[s * width:e * width].reshape((e - s,) + (m1,) * (len(O) - 1))
        for i in reversed(O[1:]):
            f = f @ axes[i][1]
        return float(w0[s:e] @ f)

    return slab


def _tensor_split(C: CubicPolynomial) -> tuple | None:
    """What the tensor rule reads of C's structure, whatever the level:
    None when C's variables form one block (_variable_blocks), else the
    (O, A, L, B) of _x1_split."""
    blocks = _variable_blocks(C.terms())
    return None if len(blocks) == 1 else _x1_split(blocks, C.n)


def _tensor_integral(C: CubicPolynomial, bounds, Z: float, m: int,
                     split: tuple | None) -> float:
    """The (m + 1)^n tensor rule on the box, split = _tensor_split(C)."""
    axes = _cc_axes(m, bounds)
    cuts = _slab_cuts(m, len(bounds))
    rows = max(e - s for s, e in zip(cuts[:-1], cuts[1:]))
    slabs = zip(cuts[:-1], cuts[1:])
    if split is None:
        parts = _map(_full_slab(C, axes, Z), slabs)
    else:  # the slabs read the contractions _split_slab took
        parts = map(_split_slab(C, split, axes, Z, rows), slabs)
    total = 0.0
    for part in parts:
        total += part  # in slab order, whatever thread computed it
    return total


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the step of its state and
# the (shift, multiplier) of its two multiply-xorshift rounds
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))


def _sample_chunk(seed: int, bounds, N: int, c: int, steps: np.ndarray,
                  out: list, work: np.ndarray) -> list:
    """Points c .. c + size - 1 of the seeded sample of N points written to
    out, one float array of size points per axis, and returned; steps holds
    j gamma mod 2^64 for j < size or more, and work is a (2, size) uint64
    array.  Axis i's point j comes from output k = i N + j of the SplitMix64
    stream keyed by the seed, 0 <= seed < 2^64: the state seed + (k + 1)
    gamma mod 2^64, the chunk's first state plus steps[j - c], put through
    the two multiply-xorshift rounds and s ^= s >> 31, gives s, and the
    point is lo + (hi - lo) u, u = (s >> 11) 2^-53 in [0, 1).  Output k is
    computed from k alone, so a chunk takes its slice with no set-up and no
    chunk size changes a bit.  The arithmetic stays on uint64 arrays, which
    wrap silently where a scalar would warn."""
    s, tmp = work
    for i, ((lo, hi), x) in enumerate(zip(bounds, out)):
        first = ((i * N + c + 1) * int(_GAMMA) + seed) % 2**64
        np.add(steps[:len(x)], np.uint64(first), out=s)
        for shift, mult in _MIX:
            s ^= np.right_shift(s, shift, out=tmp)
            s *= mult
        s ^= np.right_shift(s, np.uint64(31), out=tmp)
        s >>= np.uint64(11)
        # one rounding: (s >> 11) 2^-53 is exact, and so is its float
        np.multiply(s, (hi - lo) * 2.0 ** -53, out=x)
        x += lo
    return out


def _region(n: int, box) -> list:
    """_box_bounds(n, box) for an integral: an axis with lo > hi, which the
    rules would integrate with a sign, raises ValueError."""
    bounds = _box_bounds(n, box)
    for i, (lo, hi) in enumerate(bounds):
        if lo > hi:
            raise ValueError(f"box axis {i + 1} has lo {lo} > hi {hi}")
    return bounds


def singular_integral(C: CubicPolynomial, box, Z: float,
                      tol: float = 1e-8, budget: int | None = None,
                      seed: int = 0) -> dict:
    """I(Z) = int_B 2 Z sinc(2 Z C(x)) dx.

    Tensorized Clenshaw-Curtis with node doubling for n <= 3, stopping at
    the first m whose value I_m agrees with I_(m/2) to tol (relative, or
    absolute below 1); the reported error is that agreement |I_m - I_(m/2)|,
    not a bound.  Seeded Monte Carlo with reported standard error for
    higher dimension, on the sample _sample_chunk computes from the seed.
    The budget counts points: BudgetExceeded is raised before any
    (m + 1)^n grid that would exceed it, so also when not even the first
    17^n grid fits, and when it admits fewer than two Monte-Carlo points,
    which leave no standard error.  A box of another dimension than C's
    raises DimensionMismatch; an axis lo > hi, a Z not finite and positive,
    a Z whose bound 2 Z sum |w| B^deg (B the largest |bound|) on y = 2 Z C,
    the phase over pi, is not a finite float or reaches 2^52, past which
    every float y is an integer, or a seed outside [0, 2^64) ValueError,
    whatever the method.
    """
    bounds = _region(C.n, box)
    n = len(bounds)
    if not (isfinite(Z) and Z > 0):
        raise ValueError(
            f"Z must be {'positive' if isfinite(Z) else 'finite'}, got {Z}")
    B = max([0.0] + [abs(float(v)) for pair in bounds for v in pair])
    try:
        ymax = 2 * Z * sum(abs(w) * B ** len(idx) for w, idx in C.terms())
    except OverflowError:  # a weight past the float range
        ymax = inf
    if not isfinite(ymax):
        raise ValueError(f"Z = {Z} makes the phase 2 pi Z C(x) overflow on "
                         f"this box")
    if ymax >= 2.0 ** 52:
        raise ValueError(f"Z = {Z} makes 2 Z C(x) reach 2^52 on this box, "
                         f"where a float phase has no fractional part")
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    if seed >= 2**64:
        raise ValueError("--seed must be < 2^64")
    cap = enumeration_budget(budget)
    if n <= 3:
        split = _tensor_split(C)
        m, prev = 16, None
        while True:
            if (m + 1) ** n > cap:
                raise BudgetExceeded(
                    f"quadrature grid ({m + 1})^{n} exceeds budget before "
                    f"reaching tol {tol}")
            cur = _tensor_integral(C, bounds, Z, m, split)
            if prev is not None:
                err = abs(cur - prev)
                if err < tol * max(1.0, abs(cur)):
                    return {"value": cur, "error": err, "nodes": m + 1,
                            "method": "clenshaw-curtis"}
            m, prev = 2 * m, cur
    N = min(cap, 400_000)
    if N < 2:
        raise BudgetExceeded(
            f"monte-carlo sample needs at least 2 points, budget is {cap}")
    vol = 1.0
    for lo, hi in bounds:
        vol *= hi - lo
    vals = np.empty(N)
    top = min(_MC_CHUNK, N)
    steps = np.arange(top, dtype=np.uint64) * _GAMMA
    held = threading.local()  # each worker's buffers, one chunk's worth

    def chunk(c: int) -> None:
        if not hasattr(held, "x"):
            held.x = np.empty((n, top))
            held.work = np.empty((2, top))
            held.live = np.empty(top, dtype=bool)
        size = min(_MC_CHUNK, N - c)
        work = held.work[:, :size]
        # the sampler's uint64 scratch is the kernel's, done with before it
        x = _sample_chunk(seed, bounds, N, c, steps, list(held.x[:, :size]),
                          work.view(np.uint64))
        _sinc_kernel(C, x, Z, out=vals[c:c + size],
                     work=(*work, held.live[:size]))

    _map(chunk, range(0, N, _MC_CHUNK))
    est = vol * float(np.mean(vals))
    se = vol * float(np.std(vals) / np.sqrt(N))
    return {"value": est, "error": se, "nodes": N, "method": "monte-carlo"}


def slice_volume(C: CubicPolynomial, box, grid: int = 128) -> dict:
    """V(0) = int over {C = 0} cap B of dx_2..dx_n / (dC/dx_1).

    Clenshaw-Curtis with grid + 1 nodes per rest axis (grid = 0 is the
    midpoint rule; a negative grid raises ValueError); the x_1-slice root at
    every node is found by one bisection over all sign-changing nodes at
    once, run until the bracket is two adjacent floats.  A BoxRegion's
    positive certified floor for dC/dx_1 (axis1) makes that root unique; for
    a plain bounds list (axis 0) the caller guarantees at most one root per
    slice.  Returns a float value, 0 with the empty flag when C has no zero
    in the box.  A box of another dimension than C's raises
    DimensionMismatch, and one with an axis lo > hi ValueError (_region).
    """
    if grid < 0:
        raise ValueError(f"grid must be >= 0, got {grid}")
    bounds = _region(C.n, box)
    ax = box.axis1 if isinstance(box, BoxRegion) else 0
    n = len(bounds)
    lo1, hi1 = bounds[ax]
    rest = [i for i in range(n) if i != ax]

    # every slice node as a flat array per rest axis; none when n = 1,
    # which leaves a single slice of weight 1
    axes = _cc_axes(grid, [bounds[i] for i in rest])
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
    d = _eval_terms(C.derivative(ax), point(mid, Y))
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
    partial: bool = False                        # q-sum stopped short of P0


def singular_series(phi: CubicPolynomial, P0: int, mode: str = "both",
                    budget: int | None = None) -> SeriesTruncation:
    """Truncated singular series, exact rationals read off one table of
    densities p^(-j(n-1)) rho(p^j) for p <= P0, each entry counted once
    (local.local_factor, cached for the call).

    Euler mode: product over p <= P0 of p^(-k(n-1)) rho(p^k) at
    k = k(p) = max(floor(log_p P0), 1); a rho that overruns the budget
    raises BudgetExceeded.  q-sum mode: sum of A(q) over q <= P0, with
    A(p^j) = p^(j(1-n)) rho(p^j) - p^((j-1)(1-n)) rho(p^(j-1)) (the partial
    sums of A over the powers of p are the local factors) and A
    multiplicative, so A(q) is the product of A(p^e) over the prime powers
    p^e exactly dividing q.  The first q to need a rho(p^j) that overruns
    the budget is a prime power; the sum stops there with `partial` set.
    The q-sum's top levels p^k(p) are the Euler levels, so in mode "both"
    it adds only the levels below them.  The sieve up to P0 counts P0
    points against the budget.  A height whose tail bound overflows the
    floats is refused (ValueError) before any of it.
    """
    if P0 < 1:
        raise ValueError("P0 must be >= 1")
    M = max(phi.height, 2)
    try:
        tail = float(M) ** (7.0 / 3.0) * float(P0) ** (-1.0 / 3.0)
    except OverflowError:
        raise ValueError("the tail bound M^(7/3) P0^(-1/3) is not a finite "
                         "float: the height M is too large") from None
    n = phi.n
    density = cache(lambda p, j: local_factor(phi, p, j, budget))
    factors, k_used = {}, {}
    partial = False
    value = Fraction(1)
    check_budget(P0, budget, what="primes up to P0")
    primes = primes_up_to(P0)
    if mode in ("euler", "both"):
        for p in primes:
            _, k_used[p] = ncc_levels(n, p, P0, 0)
            factors[p] = density(p, k_used[p])
            value *= factors[p]
    frak = None
    if mode in ("qsum", "both"):
        spf = list(range(P0 + 1))  # smallest prime factor
        for p in reversed(primes):
            spf[p * p::p] = [p] * len(spf[p * p::p])
        terms = [Fraction(0), Fraction(1)]  # terms[q] = A(q)
        for q in range(2, P0 + 1):
            p, m, j = spf[q], q, 0
            while m % p == 0:
                m, j = m // p, j + 1
            if m > 1:  # q = p^j m with p prime to m
                terms.append(terms[q // m] * terms[m])
                continue
            try:
                terms.append(density(p, j) - density(p, j - 1))
            except BudgetExceeded:
                partial = True
                break
        frak = sum(terms)
    return SeriesTruncation(P0=P0, factors=factors, k_used=k_used,
                            value=value, frak_value=frak,
                            tail_bound=tail, partial=partial)


def asymptotic_compare(phi: CubicPolynomial, box, P_list, P0: int, Z: float,
                       budget: int | None = None) -> list:
    """Rows (P, N(P) over P*B, J, J's error, S(P0) * J * P^(n-3), ratio):
    S(P0) the Euler product, 0 under an NCC violation, and J the singular
    integral int_B 2 Z sinc(2 Z phi(P x)/P^3) dx of P*B's integrand, which
    tends to the cubic part's as P grows, computed as P^3 I_{phi(P x)}(Z/P^3)
    (the error times P^3, at tolerance 1e-8/P^3).  Purely diagnostic: no
    assertion is made about the ratios."""
    n = phi.n
    violated = ncc_certify(phi, P0, budget).status == "violation"
    series_val = 0.0 if violated else float(singular_series(
        phi, P0, mode="euler", budget=budget).value)
    rows = []
    for P in P_list:
        count = count_solutions(phi, P, box=box, budget=budget,
                                keep=0).count
        scaled = transform(phi, [[P * (i == j) for j in range(n)]
                                 for i in range(n)])
        J = singular_integral(scaled, box, Z / P**3, tol=1e-8 / P**3,
                              budget=budget)
        pred = series_val * P**3 * J["value"] * float(P) ** (n - 3)
        rows.append({"P": P, "count": count, "J": P**3 * J["value"],
                     "J_error": P**3 * J["error"], "prediction": pred,
                     "ratio": count / pred if pred else None})
    return rows
