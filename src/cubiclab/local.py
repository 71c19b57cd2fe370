"""p-adic solubility machinery: solution counts rho(p^k), non-singular
counts rho*(p^k), Hensel lifting, quantitative lifting levels, and the
necessary-congruence-condition (NCC) certifier.

Counting is exact, and every quantity is computed at its true level or
raises BudgetExceeded; ncc_levels is the one rule for that level.  rho
first divides out the p-content of phi's term table, so only content-free
tables are counted.  At level 1 the slice kernel counts them: with
phi(t, y) = sum_d t^d phi_d(y), each of the p^(n-1) prefixes y adds the
number of distinct roots of its slice in t, deg gcd(f_y, t^p - t), so the
budget counts prefixes, not the p^n points.  Above level 1, residue grids
are enumerated with numpy (all arithmetic reduced mod q at every step, so
int64 never overflows for the moduli the budget admits); beyond the
budget, rho falls back to a stratified recursion: each non-singular root
mod p (read off the level-1 grid, which the recursion needs point by
point) contributes p^((k-1)(n-1)) and each singular root a is rescaled via
psi_a(y) = phi(a + p y)/p and counted at level k-1.  The recursion runs on
term tables and never builds a CubicPolynomial.

NCC witnesses are not read off a whole grid: _first_root walks [0, q)^n in
C order a block at a time and stops at the first root, so the budget caps
the points it walks.  Roots are dense, so a certificate at k(p) usually
costs one block however large q^n is; a violation still needs all q^n
points, of p^k(p) or of the lower level that proves it.  The walk refuses
q >= 2**31, where q^2 no longer fits int64.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .budget import check_budget, BudgetExceeded, enumeration_budget
from .invariants import delta, DeltaInvariant, _ranks_mod
from .nt import is_prime, primes_up_to, valuation
from .polynomials import (CubicPolynomial, _derivative, _eval_terms,
                          _substitute, _walk, _x1_slices, homogenize)

_MAX_SINGULAR = 4096  # singular roots mod p one stratification step rescales
_REPORT_P0 = 100  # the P0 of local_report's k_threshold
_WALK_BLOCK = 2**13  # points of a mod-q _walk evaluated at once: an early
                     # root costs little, a full walk stays at numpy speed
_WALK_MAX_Q = 2**31  # _eval_terms mod q is exact in int64 while q**2 < 2**63
_SLICE_MAX_P = 2**19  # the slice kernel's packed keys (< p^3) and unreduced
                      # sums (< 9 p^3) stay below 2**63


class HenselPreconditionError(ValueError):
    pass


# -- residue grids ----------------------------------------------------------


def _grid(terms, q: int, n: int) -> np.ndarray:
    """Read-only array of shape (q,)*n holding the (weight, index tuple)
    table's value mod q (x_1 the slowest axis)."""
    x = np.ix_(*[np.arange(q)] * n)
    return np.broadcast_to(_eval_terms(terms, x, q), (q,) * n)


def residue_values(phi: CubicPolynomial, q: int,
                   budget: int | None = None) -> np.ndarray:
    """Read-only array of shape (q,)*n holding phi(x) mod q (x_1 the
    slowest axis)."""
    check_budget(q**phi.n, budget, what=f"residue grid mod {q}")
    return _grid(phi.terms(), q, phi.n)


def value_distribution(phi: CubicPolynomial, q: int,
                       budget: int | None = None) -> np.ndarray:
    """counts[m] = #{x mod q : phi(x) = m mod q}; sums to q^n."""
    arr = residue_values(phi, q, budget)
    return np.bincount(arr.ravel(), minlength=q)


def _nonsingular_mask(terms, n: int, q: int, mod: int) -> np.ndarray:
    """Boolean grid mod q: some gradient component of the table is nonzero
    mod `mod`."""
    mask = np.zeros((q,) * n, dtype=bool)
    for i in range(n):
        mask |= _grid(_derivative(terms, i), q, n) % mod != 0
    return mask


# -- rho / rho* -------------------------------------------------------------


def _psi_rescale(terms, p: int, a: list) -> list:
    """The table of psi_a(y) = phi(a + p y) / p, integral whenever
    phi(a) = 0 mod p: every coefficient of phi(a + p y) but the constant
    carries a factor p."""
    if _eval_terms(terms, a) % p:
        raise ValueError("a is not a root mod p")
    pI = [[p * (i == j) for j in range(len(a))] for i in range(len(a))]
    return [(c // p, idx) for idx, c in _substitute(terms, pI, a).items()]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError("p must be a prime")


def _times_t(v, m, p: int):
    """t v mod t^d + m(t), for the (d, N) stacks v of residues of degree
    < d and m of the lower coefficients of a monic modulus."""
    return (np.concatenate((np.zeros_like(v[:1]), v[:-1])) - v[-1] * m) % p


def _frobenius_roots(f, p: int) -> np.ndarray:
    """The number of distinct roots in F_p of each column of the (d+1, N)
    coefficient stack f (constant first, f[d] nonzero, d >= 2).

    That number is deg gcd(f, t^p - t), which is d minus the rank of
    multiplication by g = t^p - t on F_p[t]/(f): its image is the ideal of
    the gcd.  With s = f_d t, f_d^(d-1) f(s / f_d) is monic with the same
    number of roots; t^p is reached by square-and-multiply, each square's
    coefficients of degree >= d folding back through t^(d+j) mod f, and
    the rank comes from the batched elimination of invariants._ranks_mod.
    """
    d, N = len(f) - 1, f.shape[1]
    m, scale = np.empty((d, N), dtype=np.int64), 1
    for i in reversed(range(d)):
        m[i] = f[i] * scale % p
        scale = scale * f[d] % p
    fold = [-m % p]  # fold[j] = t^(d+j) mod the monic modulus
    for _ in range(d - 1):
        fold.append(_times_t(fold[-1], m, p))
    fold = np.stack(fold)
    # the products r_i r_j in order of degree i + j, and where each begins
    degree = [i + j for i in range(d) for j in range(d)]
    order = np.argsort(degree, kind="stable")
    starts = np.searchsorted(np.sort(degree), range(2 * d - 1))
    r = np.zeros((d, N), dtype=np.int64)
    r[1] = 1
    for bit in bin(p)[3:]:
        sq = np.add.reduceat((r[:, None] * r[None]).reshape(d * d, N)[order],
                             starts)  # sq[e] = sum_(i+j=e) r_i r_j
        if bit == "1":  # times t: degrees d-1.. fold, the rest shift up
            low = np.concatenate((np.zeros_like(sq[:1]), sq[:d - 1]))
            r = (low + (sq[d - 1:, None] * fold).sum(axis=0)) % p
        else:
            r = (sq[:d] + (sq[d:, None] * fold[:d - 1]).sum(axis=0)) % p
    r[1] = (r[1] - 1) % p
    cols = [r]
    for _ in range(d - 1):
        cols.append(_times_t(cols[-1], m, p))
    return d - _ranks_mod(np.stack(cols).transpose(2, 1, 0), p)


def _slice_roots(terms, n: int, p: int, cap: int) -> int:
    """rho(p) of a (weight, index tuple) table, counted slice by slice.

    With phi(t, y) = sum_d t^d phi_d(y), each prefix y in F_p^(n-1) adds
    the number of roots t mod p of f_y = sum_d phi_d(y) t^d: p when f_y
    vanishes identically, none when it is a nonzero constant, one when it
    is linear, else _frobenius_roots.  The degree of f_y drops below 3
    wherever p divides the x_1^3 weight, and below 2 where phi_2(y) = 0
    too.  A block of prefixes is cut down to its distinct slices (np.unique
    on phi_0..phi_2 packed base p; phi_3 is the constant x_1^3 weight)
    before they are solved.  The budget counts the p^(n-1) prefixes.
    """
    check_budget(p ** (n - 1), cap, what=f"slice prefixes mod {p}")
    slices, total = _x1_slices(terms), 0
    for _, shape, y in _walk([range(p)] * (n - 1), _WALK_BLOCK):
        key = np.zeros(shape, dtype=np.int64)
        for part in reversed(slices[:3]):
            key = key * p + _eval_terms(part, y, p)
        key, mult = np.unique(key, return_counts=True)
        f = np.empty((4, len(key)), dtype=np.int64)
        f[3] = _eval_terms(slices[3], y, p)
        for d in range(3):
            key, f[d] = np.divmod(key, p)
        nonzero = f != 0
        deg = np.where(nonzero.any(axis=0), 3 - nonzero[::-1].argmax(axis=0), -1)
        roots = np.where(deg == -1, p, deg == 1)  # zero, constant, linear
        for d in (2, 3):
            if (sel := deg == d).any():
                roots[sel] = _frobenius_roots(f[:d + 1, sel], p)
        total += int(roots @ mult)
    return total


def rho(phi: CubicPolynomial, p: int, k: int,
        budget: int | None = None) -> int:
    """Exact #{x mod p^k : phi(x) = 0 mod p^k} for a prime p.

    Content reduction first: when p^c divides every weight of phi.terms(),
    rho(phi, p^k) = p^(cn) rho(phi / p^c, p^(k-c)), which is p^(kn) once
    c >= k.  Only a content-free table is counted: at level 1 by the slice
    kernel (p < 2**19), else on its residue grid when that fits the budget,
    else by stratification at p.
    """
    _require_prime(p)
    return _rho(phi.terms(), phi.n, p, k, enumeration_budget(budget), 0)


def _rho(terms, n: int, p: int, k: int, cap: int, depth: int) -> int:
    """rho on a (weight, index tuple) table; the stratified recursion
    rescales each singular root mod p to the table of psi_a at level k-1."""
    if k == 0:
        return 1
    c = min((valuation(w, p) for w, _ in terms), default=k)
    if c >= k:
        return p ** (k * n)
    if c:
        reduced = [(w // p**c, idx) for w, idx in terms]
        return p ** (c * n) * _rho(reduced, n, p, k - c, cap, depth)
    if k == 1 and p < _SLICE_MAX_P:
        return _slice_roots(terms, n, p, cap)
    if (p**k) ** n <= cap:
        return int(np.count_nonzero(_grid(terms, p**k, n) == 0))
    if p**n > cap:
        raise BudgetExceeded(
            f"rho({p}^{k}): even the level-1 grid {p}^{n} exceeds budget {cap}")
    if depth > 3 * k + 6:
        raise BudgetExceeded("rho stratification recursion too deep")
    sol = _grid(terms, p, n) == 0
    nonsing = _nonsingular_mask(terms, n, p, p) & sol
    count = int(np.count_nonzero(nonsing)) * p ** ((k - 1) * (n - 1))
    singular = np.argwhere(sol & ~nonsing)
    if len(singular) > _MAX_SINGULAR:
        raise BudgetExceeded(
            f"rho({p}^{k}): {len(singular)} singular roots mod {p} "
            f"exceed stratification cap {_MAX_SINGULAR}")
    for a in singular:
        psi = _psi_rescale(terms, p, [int(v) for v in a])
        count += _rho(psi, n, p, k - 1, cap, depth + 1)
    return count


def rho_star(phi: CubicPolynomial, p: int, k: int,
             budget: int | None = None) -> int:
    """Non-singular solution count mod p^k.

    For k = 1 this is the paper-standard count of roots with nonzero
    gradient mod p.  For k > 1 we use the Hensel-stable convention: the
    gradient must not vanish mod p^ceil(k/2) (documented choice; the
    source definition is only exercised where Hensel applies).
    """
    _require_prime(p)
    q = p**k
    arr = residue_values(phi, q, budget)
    t = p ** ((k + 1) // 2)
    mask = _nonsingular_mask(phi.terms(), phi.n, q, t)
    return int(np.count_nonzero((arr == 0) & mask))


def local_factor(phi: CubicPolynomial, p: int, k: int,
                 budget: int | None = None) -> Fraction:
    """Exact rational p^(-k(n-1)) * rho(p^k) for a prime p."""
    return Fraction(rho(phi, p, k, budget), p ** (k * (phi.n - 1)))


# -- Hensel lifting ---------------------------------------------------------


def hensel_lift(phi: CubicPolynomial, p: int, x: list, ell: int,
                target_k: int) -> list:
    """Newton-lift x to a solution mod p^target_k.

    Preconditions (checked, never silently skipped): phi(x) = 0 mod
    p^(2 ell - 1) and the gradient at x is not divisible by p^ell.
    The result y satisfies y = x mod p^ell and phi(y) = 0 mod p^target_k.
    """
    n = phi.n
    if len(x) != n:
        raise ValueError("point dimension mismatch")
    val = phi.evaluate(x)
    pre_mod = p ** (2 * ell - 1)
    if val % pre_mod:
        raise HenselPreconditionError(
            f"phi(x) = {val} is not 0 mod {p}^{2 * ell - 1}")
    grad = phi.gradient(x)
    vs = [valuation(g, p) if g else ell for g in grad]
    v = min(vs)
    if v >= ell:
        raise HenselPreconditionError(
            f"gradient divisible by {p}^{ell} at x")
    y = list(x)
    big = p**target_k
    while True:
        val = phi.evaluate(y)
        if val % big == 0:
            return [c % big for c in y]
        m = valuation(val, p)
        grad = phi.gradient(y)
        vs = [(valuation(g, p) if g else target_k, i)
              for i, g in enumerate(grad)]
        v, i = min(vs)
        if m <= 2 * v:
            raise HenselPreconditionError(
                f"Newton step stalled: v_p(phi) = {m} <= 2 v_p(grad) = {2 * v}")
        a = val // p**m
        b = grad[i] // p**v
        step_mod = p ** (target_k - (m - v)) if target_k > m - v else 1
        s = (-a * pow(b, -1, step_mod)) % step_mod if step_mod > 1 else 0
        y[i] += p ** (m - v) * s


def lifting_level(kind: str, p: int, v_delta: int, n: int) -> int:
    """Quantitative Hensel level: 3 floor(v/(n-9)) + 3 for forms (n >= 10);
    98 or 144 v + 2 for general polynomials (n >= 15)."""
    if kind == "homogeneous":
        if n < 10:
            raise ValueError("homogeneous lifting level needs n >= 10")
        return 3 * (v_delta // (n - 9)) + 3
    if kind == "inhomogeneous":
        if n < 15:
            raise ValueError("inhomogeneous lifting level needs n >= 15")
        return 98 if v_delta == 0 else 144 * v_delta + 2
    raise ValueError(f"unknown kind {kind!r}")


# -- NCC certification ------------------------------------------------------


@dataclass(frozen=True)
class PrimeCertificate:
    p: int
    k: int
    witness: tuple | None         # lexicographically first root mod p^k, the
                                  # first zero of the C-order walk
    grad_valuation: int | None    # min v_p of the gradient at the witness
    hensel_liftable: bool         # gradient nonzero mod p at the witness


@dataclass(frozen=True)
class NCCCertificate:
    status: str                   # certified | violation | degenerate
    P0: int
    primes: tuple = ()
    violation: tuple | None = None  # (p, k) smallest insoluble prime power
    delta_phi: DeltaInvariant | None = None


def _first_root(phi: CubicPolynomial, q: int, budget=None):
    """The lexicographically first x mod q with phi(x) = 0 mod q, or None.

    The grid [0, q)^n is walked in C order, _WALK_BLOCK points at a time,
    and the walk stops at the first block holding a zero.  The budget caps
    the points walked, not q^n: a root among the first `budget` points is
    returned, but a grid with no root there raises BudgetExceeded when q^n
    exceeds the budget, since only the whole grid proves there is none.
    """
    if q >= _WALK_MAX_Q:
        raise BudgetExceeded(
            f"modulus {q} is too large for the int64 walk (q >= 2**31)")
    n, terms = phi.n, phi.terms()
    cap = enumeration_budget(budget)
    size = q**n
    limit = min(size, cap)
    for first, shape, x in _walk([range(q)] * n, _WALK_BLOCK):
        if first >= limit:
            break
        zero = np.broadcast_to(_eval_terms(terms, x, q) == 0, shape)
        zero = zero.ravel()[:limit - first]
        hit = int(zero.argmax())
        if zero[hit]:
            at = np.unravel_index(hit, shape)
            return tuple(int(c.ravel()[at[len(shape) - c.ndim]]) for c in x)
    check_budget(size, cap, what=f"residue grid mod {q}")
    return None


def _rootless_level(phi: CubicPolynomial, p: int, k: int,
                    budget=None) -> int | None:
    """The smallest j < k with no root of phi mod p^j, or None when every
    level below k has a root or a level overruns the budget first: its
    grid is too large to walk whole, and so is every higher level's."""
    for j in range(1, k):
        try:
            if _first_root(phi, p**j, budget) is None:
                return j
        except BudgetExceeded:
            return None
    return None


def ncc_levels(n: int, p: int, P0: int,
               v_delta: int) -> tuple[int | None, int]:
    """(ell, k(p)): the inhomogeneous lifting level (None below the
    lemma's variable range) and k(p) = max(floor(log_p P0), 1), raised to
    2 ell - 1 when p | Delta and ell is available."""
    try:
        ell = lifting_level("inhomogeneous", p, v_delta, n)
    except ValueError:
        ell = None
    k = 0
    q = 1
    while q * p <= P0:
        q *= p
        k += 1
    k = max(k, 1)
    if v_delta > 0 and ell is not None:
        k = max(k, 2 * ell - 1)
    return ell, k


def ncc_certify(phi: CubicPolynomial, P0: int,
                budget: int | None = None) -> NCCCertificate:
    """Check solubility of phi = 0 mod p^k(p) for every prime p <= P0.

    Requires Delta(phi) != 0 for the finite thresholds to be meaningful;
    a degenerate phi yields status "degenerate" (unbounded check required).
    Every prime is certified at its true k(p), never at a lower level: the
    budget caps the points walked for each witness, and a level with no
    root among them raises BudgetExceeded unless its whole grid was walked.
    Only a violation may be read off a lower level: when p^k(p) is out of
    reach, the first level j < k(p) whose whole grid has no root is
    reported as the violation (p, j), and the BudgetExceeded stands when
    there is none.  A non-singular witness additionally certifies all
    higher powers of p by Hensel lifting.
    """
    form, _scale = homogenize(phi)
    dphi = delta(form)
    if dphi.value == 0:
        return NCCCertificate(status="degenerate", P0=P0, delta_phi=dphi)
    certs = []

    def violation(p: int, j: int) -> NCCCertificate:
        return NCCCertificate(status="violation", P0=P0, primes=tuple(certs),
                              violation=(p, j), delta_phi=dphi)

    for p in primes_up_to(P0):
        _, k = ncc_levels(phi.n, p, P0, valuation(dphi.value, p))
        try:
            w = _first_root(phi, p**k, budget)
        except BudgetExceeded:
            # p^k is out of reach, but a lower level with no root still
            # proves the violation
            if (j := _rootless_level(phi, p, k, budget)) is None:
                raise
            return violation(p, j)
        if w is None:
            # the smallest violating power: p^k itself unless a lower one is
            return violation(p, _rootless_level(phi, p, k, budget) or k)
        grad = phi.gradient(list(w))
        gv = min((valuation(g, p) for g in grad if g), default=None)
        certs.append(PrimeCertificate(
            p=p, k=k, witness=w, grad_valuation=gv,
            hensel_liftable=(gv == 0)))
    return NCCCertificate(status="certified", P0=P0, primes=tuple(certs),
                          delta_phi=dphi)


# -- per-prime report -------------------------------------------------------


@dataclass(frozen=True)
class LocalReport:
    p: int
    v_delta: int
    ell: int | None
    k_threshold: int
    rho: dict = field(default_factory=dict)
    rho_star: dict = field(default_factory=dict)
    rho_star_skipped: tuple = ()  # levels whose rho* grid exceeds the budget
    witness: tuple | None = None


def local_report(phi: CubicPolynomial, p: int, k_max: int,
                 budget: int | None = None) -> LocalReport:
    _require_prime(p)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    form, _ = homogenize(phi)
    dphi = delta(form)
    v = valuation(dphi.value, p) if dphi.value else 0
    ell, k_threshold = ncc_levels(phi.n, p, _REPORT_P0, v)
    rhos = {k: rho(phi, p, k, budget) for k in range(1, k_max + 1)}
    stars = {}
    for k in rhos:
        try:
            stars[k] = rho_star(phi, p, k, budget)
        except BudgetExceeded:
            break  # every higher level's grid is larger still
    return LocalReport(p=p, v_delta=v, ell=ell,
                       k_threshold=k_threshold,
                       rho=rhos, rho_star=stars,
                       rho_star_skipped=tuple(k for k in rhos
                                              if k not in stars),
                       witness=_first_root(phi, p, budget))
