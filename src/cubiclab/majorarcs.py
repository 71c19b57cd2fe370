"""Major-arc machinery: constructive real zeros of the cubic form, scaled
box regions with certified derivative floors, the singular integral via the
sinc-kernel representation, truncated singular series, and the comparison
of exact counts against the circle-method prediction.

The singular integral is computed from the interchanged form

    I(Z) = int_B sin(2 pi Z C(x)) / (pi C(x)) dx = int_B 2 Z sinc(2 Z C(x)) dx,

whose integrand is smooth (the zero set of C is a removable sinc point).
The tensor rule takes its sines on the subgrid of each block of variables
that C's terms keep apart, so a diagonal form costs one sine per node and
axis, not one per grid point, away from the zero set of C.  Its
independent pieces, the axis-0 slabs of the tensor rule and the
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
from .polynomials import CubicPolynomial, _eval_terms

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


def _sinc(t: np.ndarray, Z: float, out: np.ndarray | None = None):
    """2 Z sin(t) / t for t = 2 pi Z C, with the removable point t = 0 set
    to 2 Z: the arithmetic of np.sinc, in `out` (a new array when None)."""
    zero = t == 0
    f = np.sin(t, out=out)
    np.divide(f, t, out=f, where=~zero)
    f *= 2.0 * Z
    f[zero] = 2.0 * Z
    return f


def _sinc_kernel(C: CubicPolynomial, blocks: list, X: list, Z: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """2 Z sinc(2 Z C) over the broadcast of the coordinate arrays X, built
    in the buffer evaluate_array returns plus `out` (a new array when None).

    blocks is C's term table split by _variable_blocks.  With one block the
    integrand is _sinc(2 pi Z C).  With several, sin and cos are taken of
    each block's t_k = 2 pi Z C_k on that block's own broadcast shape (one
    axis each for a diagonal form) and sin t, t = 2 pi Z C, is put together
    by angle addition, so no sine is taken over the whole grid.  Where
    |t| < 1 the integrand is _sinc(t), bit for bit that of one block near
    the zero set of C; elsewhere it is sin t times 2 Z / t, and the
    absolute error of sin t, a few eps (T + 1) with T = 2 pi Z times the
    sum of |w prod x_i| over C's terms, is divided by |t| >= 1."""
    t = evaluate_array(C, X)
    t *= 2.0 * Z
    t *= pi
    if out is None:
        out = np.empty_like(t)  # an array even for a constant C
    if len(blocks) == 1:
        return _sinc(t, Z, out)
    near = np.abs(t, out=out) < 1
    t_near = t[near]
    t[near] = 1.0  # kept in t_near; any nonzero value avoids 2 Z / 0
    r = np.divide(2.0 * Z, t, out=t)  # 2 Z / t off the near set
    for k, block in enumerate(blocks):
        u = np.asarray(_eval_terms(block, X), dtype=float) * (2.0 * Z)
        u *= pi
        s_k, c_k = np.sin(u), np.cos(u)
        if k == 0:
            s, c = s_k, c_k
        elif k < len(blocks) - 1:
            s, c = s * c_k + c * s_k, c * c_k - s * s_k
    # out = (s c_k + c s_k) 2 Z / t with no array beyond out and r
    f = np.multiply(s, c_k, out=out)
    f *= r
    r *= c
    r *= s_k
    f += r
    f[near] = _sinc(t_near, Z)
    return f


def _tensor_integral(C: CubicPolynomial, bounds, Z: float, m: int) -> float:
    axes = [_cc_nodes(m, lo, hi) for lo, hi in bounds]
    n = len(bounds)
    rest = [axes[i][0].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            for i in range(1, n)]
    x0, w0 = axes[0]
    rows = max(1, _SLAB_POINTS // (m + 1) ** (n - 1))
    blocks = _variable_blocks(C.terms())

    def slab(s: int) -> float:
        X0 = x0[s:s + rows].reshape((-1,) + (1,) * (n - 1))
        # a C free of some variable evaluates to a thinner array
        f = np.broadcast_to(_sinc_kernel(C, blocks, [X0, *rest], Z),
                            (len(X0),) + (m + 1,) * (n - 1))
        for _, w in reversed(axes[1:]):
            f = f @ w
        return float(w0[s:s + rows] @ f)

    total = 0.0
    for part in _map(slab, range(0, m + 1, rows)):
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
    points, which leave no standard error.
    """
    bounds = box.bounds if isinstance(box, BoxRegion) else list(box)
    n = len(bounds)
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
    blocks = [C.terms()]  # scattered points have no subgrid to factor on

    def chunk(c: int) -> None:
        size = min(_MC_CHUNK, N - c)
        _sinc_kernel(C, blocks, _sample_chunk(seed, bounds, N, c, size), Z,
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
