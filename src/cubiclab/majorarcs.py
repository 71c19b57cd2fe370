"""Major-arc machinery: constructive real zeros of the cubic form, scaled
box regions with certified derivative floors, the singular integral via the
sinc-kernel representation, truncated singular series, and the comparison
of exact counts against the circle-method prediction.

The singular integral is computed from the interchanged form

    I(Z) = int_B sin(2 pi Z C(x)) / (pi C(x)) dx = int_B 2 Z sinc(2 Z C(x)) dx,

whose integrand is smooth (the zero set of C is a removable sinc point).
The tensor rule works through the grid in axis-0 slabs of equal row
counts.  When C's terms split into blocks of disjoint variables,
C = A(x_O) + B(x_L) with x_0 in O (every diagonal form), it contracts
each slab over L's points: the sines and cosines of 2 pi Z A and 2 pi Z B
are taken on the O and L subgrids and folded into two weight vectors once
per level, so a slab costs one add, one reciprocal, in one buffer per
worker thread reused from slab to slab, and one matrix product with those
two vectors; the nodes near the zero set of C take the integrand from C's
whole table.  Its independent pieces, the slabs of the tensor rule and the
Monte-Carlo chunks (each drawing its own slice of the seeded sample), run
on up to _WORKERS threads (numpy releases the GIL in the kernel's ufuncs);
the pieces and the order their partial results are combined in do not
depend on the worker count, so neither does any result, to the last bit.

Both modes of the truncated singular series read one table of local
densities rho(p^j), p^j <= P0: the Euler factors are its top levels, and
the q-sum takes A(p^j) as a difference of two of its entries and A(q) as a
product over the prime powers of q, so no composite q is put on a grid.
"""

import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import pi

import numpy as np
from mpmath import iv

from .budget import enumeration_budget, BudgetExceeded
from .counting import count_solutions, smallest_solution
from .invariants import siegel_solve, FullRankError
from .local import ncc_certify, ncc_levels, rho
from .nt import primes_up_to
from .polynomials import CubicPolynomial, DimensionMismatch, _eval_terms

_CALIBRATION = 1e3  # frozen slack of real_point's xi bracket
_MAX_A_LOG2 = 10  # build_box gives up beyond A = 2^10


# -- real non-singular point ------------------------------------------------


@dataclass(frozen=True)
class RealPoint:
    kind: str                # "integer" (exact solution) or "real"
    point: tuple             # z~ with C(z~) = 0
    xi: float | None = None  # positive real root of a xi^3 + F2 xi + F3
    derivatives: tuple = ()  # grad C at the point
    bracket: tuple | None = None   # (lower, upper) reference for xi
    runner_ups: tuple = ()   # other coordinates with comparable derivative


def real_point(C: CubicPolynomial, mode: str = "n-variable",
               h: int | None = None) -> RealPoint:
    """Constructive zero of C with large first partial derivative.

    Requires the leading normalization c_111 > 0.  Finds an integer y != 0
    with F1(y) = 0 (Siegel), exits early with the integer solution (0, y)
    when F3(y) = 0, otherwise flips signs so F3(y) <= -1 and solves
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
    if mode == "n-variable":
        # early exit: scan for a small nonzero integer solution first
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
    d1 = grad[0]
    assert d1 > 0, "first partial derivative must be positive at the point"
    hh = h if (mode == "h-invariant" and h) else n
    M = max(C.height, 2)
    if hh > 2:
        lo = M ** (-1.0 - 2.0 / (hh - 2)) / _CALIBRATION
        hi = M ** (1.0 / (hh - 2)) * _CALIBRATION
        assert lo <= xi <= hi, f"xi = {xi} outside calibrated bracket [{lo}, {hi}]"
    else:
        lo = hi = None  # bracket exponent degenerates at h <= 2
    others = sorted(range(1, n), key=lambda i: -abs(grad[i]))
    lead = abs(grad[others[0]]) if others else 0.0
    runner_ups = tuple(i for i in others[1:] if abs(grad[i]) >= 0.5 * lead)
    return RealPoint(kind="real", point=z, xi=xi, derivatives=tuple(grad),
                     bracket=(lo, hi) if lo is not None else None,
                     runner_ups=runner_ups)


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


def build_box(C: CubicPolynomial, z_tilde, n: int | None = None,
              M: int | None = None) -> BoxRegion:
    """Scale z~ to z = A M^(3 + 8/(n-2)) z~ and certify the box floors.

    A is the smallest power of two >= 4 for which interval arithmetic
    certifies both derivative floors positive on all of B; it is frozen
    into the region.  Axes are relabeled (axis1/axis2 fields) so the
    dominant derivative comes first.
    """
    n = n if n is not None else C.n
    M = M if M is not None else max(C.height, 2)
    base = float(M) ** (3.0 + 8.0 / max(n - 2, 1))
    grad0 = C.gradient(z_tilde)
    order = sorted(range(n), key=lambda i: -abs(grad0[i]))
    ax1, ax2 = order[0], (order[1] if n > 1 else order[0])
    A = 4
    while A <= 2**_MAX_A_LOG2:
        z = tuple(A * base * v for v in z_tilde)
        ivals = [iv.mpf([zi - 1.0, zi + 1.0]) for zi in z]
        g1 = _eval_terms(C.derivative(ax1), ivals)
        g2 = _eval_terms(C.derivative(ax2), ivals)
        lo1 = float(iv.mpf(g1).a)
        lo2 = float(iv.mpf(g2).a)
        ok_sign = lo1 > 0 or float(iv.mpf(g1).b) < 0
        ok_sign2 = lo2 > 0 or float(iv.mpf(g2).b) < 0
        origin_ok = max(abs(zi) for zi in z) >= 2.0
        if ok_sign and ok_sign2 and origin_ok:
            d1 = min(abs(lo1), abs(float(iv.mpf(g1).b)))
            d2 = min(abs(lo2), abs(float(iv.mpf(g2).b)))
            cv = _eval_terms(C.terms(), ivals)
            sigma = max(abs(float(cv.a)), abs(float(cv.b)))
            return BoxRegion(center=z, width=1.0, sigma=sigma,
                             d1=d1, d2=d2, axis1=ax1, axis2=ax2, A=A)
        A *= 2
    raise RuntimeError(
        f"box verification failed for every A <= 2^{_MAX_A_LOG2}")


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
    """phi over broadcastable float arrays (one per coordinate)."""
    return np.asarray(_eval_terms(phi.terms(), X), dtype=float)


# Grid points whose integrand is held at once: _tensor_integral works through
# the grid in slabs of whole axis-0 rows, so memory stays O(_SLAB_POINTS)
# instead of O((m + 1)^n).
_SLAB_POINTS = 1 << 18
# Monte-Carlo sample points per kernel call: the unit the sample is shared
# among workers in, fixed so that results do not depend on _WORKERS.
_MC_CHUNK = 1 << 16


def _variable_blocks(terms) -> list:
    """A (weight, index tuple) table split into the tables of its connected
    variable blocks, C = C_1(x_U) + C_2(x_V) + ...: two variables share a
    block when some term holds both.  Blocks are ordered by their first
    term, and terms keep their order within a block; the constant joins the
    first block, and a table with no variable is one block."""
    root = {}

    def find(i: int) -> int:
        while root.setdefault(i, i) != i:
            i = root[i]
        return i

    for _, idx in terms:
        for i in idx[1:]:
            root[find(i)] = find(idx[0])
    first = next((idx[0] for _, idx in terms if idx), None)
    blocks = {}
    for w, idx in terms:
        blocks.setdefault(find(idx[0] if idx else first), []).append((w, idx))
    return list(blocks.values()) or [[]]


def _sinc_kernel(C: CubicPolynomial, X: list, Z: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """2 Z sinc(2 Z C) = 2 Z sin(t) / t, t = 2 pi Z C, over the broadcast of
    the coordinate arrays X, with the removable point t = 0 set to 2 Z: the
    arithmetic of np.sinc, built in the buffer evaluate_array returns plus
    `out` (a new array when None)."""
    t = evaluate_array(C, X)
    t *= 2.0 * Z
    t *= pi
    zero = t == 0
    f = np.sin(t, out=np.empty_like(t) if out is None else out)
    np.divide(f, t, out=f, where=~zero)
    f *= 2.0 * Z
    f[zero] = 2.0 * Z
    return f


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
        # a C free of some variable evaluates to a thinner array
        f = np.broadcast_to(_sinc_kernel(C, [X0, *rest], Z),
                            (e - s,) + (len(x0),) * (n - 1))
        for _, w in reversed(axes[1:]):
            f = f @ w
        return float(w0[s:e] @ f)

    return slab


def _split_slab(C: CubicPolynomial, blocks: list, axes: list, Z: float,
                rows: int):
    """The slab sum of the tensor rule for C = A(x_O) + B(x_L), O the axes
    of the variable block that holds x_0 and L every other axis (blocks is
    C's term table split by _variable_blocks, at least two of them):
    slab((s, e)) is the rule's sum over axis-0 rows s .. e - 1, a slab of at
    most `rows` rows.

    With T = 2 pi Z A and u = 2 pi Z B, the sum over L of the weights w_L
    times 2 Z sin(T + u) / (T + u) is sin T (R @ v_c) + cos T (R @ v_s),
    R = 1 / (T + u) on the slab's (O points) x (L points) and v_c, v_s =
    2 Z w_L (cos u, sin u) folded once per level: each slab costs one add,
    one reciprocal in a buffer kept per thread, and one product with the
    two columns of v; sines are taken only on the O and L subgrids.  The
    candidates |T + u| < 2, found per O point by searchsorted on the sorted
    u, take _sinc_kernel at their points instead, so where |t| < 1 the
    integrand is bit for bit that of one block; elsewhere sin(T + u) has an
    absolute error of a few eps (T' + 1), T' = 2 pi Z times the sum of
    |w prod x_i| over C's terms, divided by |t| >= 1."""
    n, m1 = len(axes), len(axes[0][0])
    head = next((b for b in blocks if any(0 in idx for _, idx in b)), [])
    O = sorted({0}.union(*(idx for _, idx in head)))
    L = [i for i in range(n) if i not in O]

    def phase(table, dims):
        """2 pi Z table over the grid of the axes dims, flat in C order."""
        X = [None] * n
        for d, i in enumerate(dims):
            X[i] = axes[i][0].reshape((-1,) + (1,) * (len(dims) - 1 - d))
        v = np.asarray(_eval_terms(table, X), dtype=float) * (2.0 * Z)
        v *= pi
        return np.broadcast_to(v, (m1,) * len(dims)).ravel()

    T = phase(head, O)
    u = phase([term for b in blocks if b is not head for term in b], L)
    wL = np.ones(())
    for i in L:
        wL = np.multiply.outer(wL, axes[i][1])
    wL = wL.ravel()
    # laid out (2, L points), R @ v.T is one BLAS product, measured 2.5
    # times as fast as R @ v with v laid out (L points, 2) on a 3 x 66049
    # slab (x86-64, single-threaded BLAS)
    v = np.empty((2, len(u)))
    np.multiply(np.cos(u), wL, out=v[0])
    np.multiply(np.sin(u), wL, out=v[1])
    v *= 2.0 * Z
    sin_T, cos_T = np.sin(T), np.cos(T)
    u_lo, u_hi = u.min(), u.max()

    def has_candidates(Ts) -> bool:
        """Whether the ranges of Ts and u admit some |T + u| < 2."""
        return Ts.min() + u_lo < 2 and Ts.max() + u_hi > -2

    if has_candidates(T):  # else no slab has one, and u need no sorting
        order = np.argsort(u, kind="stable")
        us = u[order]
    K = m1 ** (len(O) - 1)  # O points per axis-0 row
    w0 = axes[0][1]
    local = threading.local()

    def slab(cut) -> float:
        s, e = cut
        Ts = T[s * K:e * K]
        P = len(Ts)
        if not hasattr(local, "buf"):
            local.buf = np.empty(rows * K * len(u))
        R = local.buf[:P * len(u)].reshape(P, len(u))
        np.add(Ts[:, None], u, out=R)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, R, out=R)  # t = 0 or subnormal: a candidate
        near = 0.0
        if has_candidates(Ts):
            # candidate k is O point o[k] and L point l[k]: u's sorted
            # positions lo[o] .. lo[o] + cnt[o] - 1
            lo = np.searchsorted(us, -2.0 - Ts, "right")
            cnt = np.searchsorted(us, 2.0 - Ts, "left") - lo
            o = np.repeat(np.arange(P), cnt)
            l = order[np.arange(len(o)) + np.repeat(lo - np.cumsum(cnt) + cnt,
                                                    cnt)]
            X = [None] * n
            for i, j in zip(O, np.unravel_index(o + s * K, (m1,) * len(O))):
                X[i] = axes[i][0][j]
            for i, j in zip(L, np.unravel_index(l, (m1,) * len(L))):
                X[i] = axes[i][0][j]
            R.reshape(-1)[o * len(u) + l] = 0.0
            near = np.bincount(o, weights=wL[l] * _sinc_kernel(C, X, Z),
                               minlength=P)
        S = R @ v.T
        g = sin_T[s * K:e * K] * S[:, 0]
        g += cos_T[s * K:e * K] * S[:, 1]
        g += near
        g = g.reshape((e - s,) + (m1,) * (len(O) - 1))
        for i in reversed(O[1:]):
            g = g @ axes[i][1]
        return float(w0[s:e] @ g)

    return slab


def _tensor_integral(C: CubicPolynomial, bounds, Z: float, m: int) -> float:
    axes = [_cc_nodes(m, lo, hi) for lo, hi in bounds]
    blocks = _variable_blocks(C.terms())
    cuts = _slab_cuts(m, len(bounds))
    rows = max(e - s for s, e in zip(cuts[:-1], cuts[1:]))
    slab = (_full_slab(C, axes, Z) if len(blocks) == 1
            else _split_slab(C, blocks, axes, Z, rows))
    total = 0.0
    for part in _map(slab, zip(cuts[:-1], cuts[1:])):
        total += part  # in slab order, whatever thread computed it
    return total


def _sample_chunk(seed: int, bounds, N: int, c: int, size: int) -> list:
    """Points c .. c + size - 1 of the sample default_rng(seed) draws as
    [uniform(lo, hi, N) for each axis], one array per axis.  Each uniform
    takes one 64-bit output of the PCG64 stream, so axis i's point j is
    output i N + j, reached by advance without drawing what comes before."""
    return [np.random.Generator(np.random.PCG64(seed).advance(i * N + c))
            .uniform(lo, hi, size) for i, (lo, hi) in enumerate(bounds)]


def singular_integral(C: CubicPolynomial, box, Z: float,
                      tol: float = 1e-8, budget: int | None = None,
                      seed: int = 0) -> dict:
    """I(Z) = int_B 2 Z sinc(2 Z C(x)) dx.

    Tensorized Clenshaw-Curtis with node doubling for n <= 3, stopping at
    the first m whose value I_m agrees with I_(m/2) to tol (relative, or
    absolute below 1); the reported error is that agreement |I_m - I_(m/2)|,
    not a bound.  Seeded Monte Carlo with reported standard error for
    higher dimension.  The budget counts points: BudgetExceeded is raised
    before any (m + 1)^n grid that would exceed it, so also when not even
    the first 17^n grid fits, and when it admits fewer than two Monte-Carlo
    points, which leave no standard error.  A box of another dimension
    than C's raises DimensionMismatch.
    """
    bounds = box.bounds if isinstance(box, BoxRegion) else list(box)
    n = len(bounds)
    if n != C.n:
        raise DimensionMismatch(f"box has dim {n}, expected {C.n}")
    cap = enumeration_budget(budget)
    if n <= 3:
        m, prev = 16, None
        while True:
            if (m + 1) ** n > cap:
                raise BudgetExceeded(
                    f"quadrature grid ({m + 1})^{n} exceeds budget before "
                    f"reaching tol {tol}")
            cur = _tensor_integral(C, bounds, Z, m)
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

    def chunk(c: int) -> None:
        size = min(_MC_CHUNK, N - c)
        _sinc_kernel(C, _sample_chunk(seed, bounds, N, c, size), Z,
                     out=vals[c:c + size])

    _map(chunk, range(0, N, _MC_CHUNK))
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
    rho(p^j) for p <= P0, each entry counted once (local.rho).

    Euler mode: product over p <= P0 of p^(-k(n-1)) rho(p^k) at
    k = k(p) = max(floor(log_p P0), 1); a rho that overruns the budget
    raises BudgetExceeded.  q-sum mode: sum of A(q) over q <= P0, with
    A(p^j) = p^(j(1-n)) rho(p^j) - p^((j-1)(1-n)) rho(p^(j-1)) (the partial
    sums of A over the powers of p are the local factors) and A
    multiplicative, so A(q) is the product of A(p^e) over the prime powers
    p^e exactly dividing q.  The first q to need a rho(p^j) that overruns
    the budget is a prime power; the sum stops there with `partial` set.
    The q-sum's top levels p^k(p) are the Euler levels, so in mode "both"
    it adds only the levels below them.
    """
    if P0 < 1:
        raise ValueError("P0 must be >= 1")
    n = phi.n
    rhos = {}

    def density(p: int, j: int) -> Fraction:
        """p^(-j(n-1)) rho(p^j), rho from the table."""
        if (p, j) not in rhos:
            rhos[p, j] = rho(phi, p, j, budget) if j else 1
        return Fraction(rhos[p, j], p ** (j * (n - 1)))

    factors, k_used = {}, {}
    partial = False
    value = Fraction(1)
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
    M = max(phi.height, 2)
    tail = float(M) ** (7.0 / 3.0) * float(P0) ** (-1.0 / 3.0)
    return SeriesTruncation(P0=P0, factors=factors, k_used=k_used,
                            value=value, frak_value=frak,
                            tail_bound=tail, partial=partial)


def asymptotic_compare(phi: CubicPolynomial, box, P_list, P0: int, Z: float,
                       budget: int | None = None) -> list:
    """Rows (P, N(P), prediction frak-S(P0) * I(Z) * P^(n-3), ratio).

    Purely diagnostic: the theorem's regime is far beyond enumeration, so
    no assertion is made about the ratios.
    """
    n = phi.n
    cert = ncc_certify(phi, P0, budget)
    if cert.status == "violation":
        series_val = Fraction(0)
        integral = {"value": 0.0}
    else:
        series_val = singular_series(phi, P0, mode="euler", budget=budget).value
        integral = singular_integral(phi, box, Z, budget=budget)
    rows = []
    for P in P_list:
        res = count_solutions(phi, P, box=box, budget=budget)
        pred = float(series_val) * integral["value"] * float(P) ** (n - 3)
        rows.append({"P": P, "count": res.count, "prediction": pred,
                     "ratio": res.count / pred if pred else None})
    return rows
