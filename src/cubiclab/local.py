"""p-adic solubility machinery: solution counts rho(p^k), non-singular
counts rho*(p^k), Hensel lifting, quantitative lifting levels, and the
necessary-congruence-condition (NCC) certifier.

Counting is exact, and every quantity is computed at its true level or
raises BudgetExceeded; ncc_levels is the one rule for that level.  Every
count mod q walks [0, q)^n, or a variable block's [0, q)^|U|, through one
generator, _residues: _walk's chunks in C order, each with its term
tables' values mod q (computed in int64, reduced mod q where a running
bound says the next product or sum could overflow and once at the end, so
below q = 2**15 usually once per table; it refuses q >= 2**31, where q^2
no longer fits int64); no whole grid is built.

rho divides out the p-content of phi's term table and counts the rest
mod q = p^k by the kernel that the table, p and k pick, in this order:

  kernel    runs first where                      budget charge
  blocks    B >= 2 variable blocks U_j, and       sum_j q^|U_j| points,
            k = 1 or sum_j q^|U_j| <= _MAX_WALK   (B - 2) q^2 + q products
  slice     k = 1, p < _SLICE_MAX_P               p^(n-1) prefixes
  grid      k = 1 or q^n <= _MAX_WALK             q^n points
  stratify  anywhere else                         p^n points a step

The budget only refuses: a refused kernel hands the table down the order,
and a refused slice kernel or stratification (by the budget, by over
_MAX_SINGULAR singular roots mod p, or deeper down) hands it back to the
blocks, then the grid, where their charge fits.  A stratification step
adds p^((k-1)(n-1)) per non-singular root mod p and rescales each singular
root a to psi_a(y) = phi(a + p y)/p at level k-1, in the same order.

NCC witnesses come from the same walk: _first_root takes it a block at a
time and stops at the first root, so the budget caps the points it walks.
Roots are dense, so a certificate at k(p) usually costs one block however
large q^n is; a violation still needs all q^n points, of p^k(p) or of the
lower level that proves it.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .budget import check_budget, BudgetExceeded, enumeration_budget
from .invariants import delta, DeltaInvariant, _ranks_mod
from .nt import is_prime, primes_up_to, valuation
from .polynomials import (CubicPolynomial, _CHUNK, _derivative, _eval_terms,
                          _substitute, _variable_blocks, _walk, _x1_slices,
                          homogenize)

_MAX_SINGULAR = 4096  # singular roots mod p one stratification step rescales
_REPORT_P0 = 100  # the P0 of local_report's k_threshold
_WALK_BLOCK = 2**13  # points of a mod-q _walk evaluated at once: an early
                     # root costs little, a full walk stays at numpy speed
_WALK_MAX_Q = 2**31  # _eval_terms mod q is exact in int64 while q**2 < 2**63
_MAX_WALK = 2**15  # points a grid or block walk takes above level 1; past
                  # it stratifying was faster (BENCH_rho-kernels.json)
_BLOCK_MAX_CONV = 2**20  # block kernel products: about 0.5 ms, near the
                         # floor of stratifying a form smooth mod p (0.14-0.31
                         # ms for fermat, selmer4 and diag5m2 mod 5^3..7^4, in
                         # process on a 2-CPU host); past it the blocks took
                         # up to 10x that floor (fermat mod 7^4: 2.2 ms)
_SLICE_MAX_P = 2**19  # the slice kernel's packed keys (< p^3) and unreduced
                      # sums (< 9 p^3) stay below 2**63


class HenselPreconditionError(ValueError):
    pass


# -- residue walk -----------------------------------------------------------


def _residues(tables, n: int, q: int, points: int):
    """[0, q)^n walked in C order by _walk, about `points` points at a time.
    Yields (first, shape, x, values) per chunk: its flat index, its shape,
    its coordinate arrays and the value mod q of each (weight, index tuple)
    table in `tables`, broadcast to shape.  The values come from
    _eval_terms, which reduces mod q only where its running bound could
    pass int64, and that needs q**2 < 2**63: a modulus q >= 2**31 raises
    BudgetExceeded before any point is walked."""
    if q >= _WALK_MAX_Q:
        raise BudgetExceeded(
            f"modulus {q} is too large for the int64 walk (q >= 2**31)")
    for first, shape, x in _walk([range(q)] * n, points):
        yield first, shape, x, [np.broadcast_to(_eval_terms(t, x, q), shape)
                                for t in tables]


def _block_zeros(terms, n: int, q: int, cap: int) -> int | None:
    """rho(q) of a table of two or more variable blocks,
    phi = sum_k phi_k(x_(U_k)) (_variable_blocks), or None.

    Each distinct block table is walked once by _residues on its own
    variables into its value histogram mod q; the cyclic convolution of
    all but the last block's histograms, h, counts the points of those
    blocks by their phi value, and the zeros are sum_r h(r) g(-r), g the
    last block's histogram, times q^f for the f variables in no term.  The
    kernel costs sum_k q^|U_k| points and (B - 2) q^2 + q products, B the
    number of blocks.  It runs only where that fits the cap, where the
    products stay within _BLOCK_MAX_CONV (so q <= 2**20, which _residues
    walks) and where q^u < 2**63 (u the variables in some term) keeps every
    int64 count exact; elsewhere it is None, before any histogram is
    allocated.  The module docstring's kernel order says where it runs.
    """
    blocks = _variable_blocks(terms)
    if len(blocks) < 2:
        return None
    tables = []  # each block's table on its own variables, and their number
    for block in blocks:
        used = sorted({i for _, idx in block for i in idx})
        at = {i: j for j, i in enumerate(used)}
        tables.append((tuple((w, tuple(at[i] for i in idx))
                             for w, idx in block), len(used)))
    u = sum(d for _, d in tables)
    conv = (len(tables) - 2) * q * q + q
    if (conv > _BLOCK_MAX_CONV or q**u >= 2**63
            or sum(q**d for _, d in tables) + conv > cap):
        return None
    hist = {}
    for table, d in set(tables):
        hist[table] = np.zeros(q, dtype=np.int64)
        for *_, (v,) in _residues([table], d, q, _CHUNK):
            hist[table] += np.bincount(v.ravel(), minlength=q)
    h = hist[tables[0][0]]
    for table, _ in tables[1:-1]:
        h = np.convolve(h, hist[table])
        h[:q - 1] += h[q:]
        h = h[:q]
    return int(h @ hist[tables[-1][0]][-np.arange(q) % q]) * q ** (n - u)


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
    r = np.zeros((d, N), dtype=np.int64)
    r[1] = 1
    for bit in bin(p)[3:]:
        sq = np.zeros((2 * d - 1, N), dtype=np.int64)
        for i in range(d):  # sq[e] = sum_(i+j=e) r_i r_j
            sq[i:i + d] += r[i] * r
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
    is linear.  The degree of f_y drops below 3 wherever p divides the
    x_1^3 weight, and below 2 where phi_2(y) = 0 too.  A block of prefixes
    is cut down to its distinct slices (np.unique on phi_0..phi_2 packed
    base p; phi_3 is the constant x_1^3 weight) before they are solved.
    The slices of degree 2 and 3 are evaluated at every t mod p, in one
    Horner pass and one %, while their number times p fits _WALK_BLOCK
    (coefficients and t below p <= _WALK_BLOCK keep every value below
    p^4 < 2**63); past that, where p reaches 2**19, _frobenius_roots counts
    them.  The budget counts the p^(n-1) prefixes.
    """
    check_budget(p ** (n - 1), cap, what=f"slice prefixes mod {p}")
    slices, total = _x1_slices(terms), 0
    for _, _, _, parts in _residues(slices[:3], n - 1, p, _WALK_BLOCK):
        key = 0
        for part in reversed(parts):
            key = key * p + part
        key, mult = np.unique(key, return_counts=True)
        f = np.empty((4, len(key)), dtype=np.int64)
        f[3] = _eval_terms(slices[3], (), p)
        for d in range(3):
            key, f[d] = np.divmod(key, p)
        nonzero = f != 0
        deg = np.where(nonzero.any(axis=0), 3 - nonzero[::-1].argmax(axis=0), -1)
        roots = np.where(deg == -1, p, deg == 1)  # zero, constant, linear
        high = deg >= 2
        if high.sum() * p <= _WALK_BLOCK:
            t, v = np.arange(p)[:, None], f[3, high]
            for d in (2, 1, 0):
                v = v * t + f[d, high]
            roots[high] = np.count_nonzero(v % p == 0, axis=0)
        else:
            for d in (2, 3):
                if (sel := deg == d).any():
                    roots[sel] = _frobenius_roots(f[:d + 1, sel], p)
        total += int(roots @ mult)
    return total


def rho(phi: CubicPolynomial, p: int, k: int,
        budget: int | None = None) -> int:
    """Exact #{x mod p^k : phi(x) = 0 mod p^k} for a prime p and k >= 0.

    When p^c divides every weight of phi.terms(), rho(phi, p^k) =
    p^(cn) rho(phi / p^c, p^(k-c)), which is p^(kn) once c >= k; the rest
    is counted exactly in the module docstring's kernel order (refused
    where a stratification nests past the interpreter's stack).
    """
    _require_prime(p)
    if k < 0:
        raise ValueError("k must be >= 0")
    try:
        return _rho(phi.terms(), phi.n, p, k, enumeration_budget(budget))
    except RecursionError:
        raise BudgetExceeded(f"rho({p}^{k}): stratification nests deeper "
                             "than the interpreter's stack") from None


def _rho(terms, n: int, p: int, k: int, cap: int) -> int:
    """rho on a (weight, index tuple) table, cap the budget: content
    reduction, then the module docstring's kernel order.  Each call the
    stratification makes is a level lower, so it nests at most k deep."""
    if k == 0:
        return 1
    c = min((valuation(w, p) for w, _ in terms), default=k)
    if c >= k:
        return p ** (k * n)
    if c:
        reduced = [(w // p**c, idx) for w, idx in terms]
        return p ** (c * n) * _rho(reduced, n, p, k - c, cap)
    q, blocks = p**k, _variable_blocks(terms)
    walk = sum(q ** len({i for _, idx in b for i in idx}) for b in blocks)
    if (k == 1 or walk <= _MAX_WALK) \
            and (zeros := _block_zeros(terms, n, q, cap)) is not None:
        return zeros
    try:
        if k == 1 and p < _SLICE_MAX_P:
            return _slice_roots(terms, n, p, cap)
        if (k > 1 and q**n > _MAX_WALK) or q**n > cap:
            if p**n > cap:
                raise BudgetExceeded(f"rho({p}^{k}): even the level-1 grid "
                                     f"{p}^{n} exceeds budget {cap}")
            grad = [_derivative(terms, i) for i in range(n)]
            count, singular = 0, []
            for _, shape, x, (v, *dv) in _residues([terms, *grad], n, p,
                                                   _CHUNK):
                sol = v == 0
                nonsing = sol & np.any(dv, axis=0)
                count += int(np.count_nonzero(nonsing))
                sing = sol & ~nonsing  # its roots' coordinates, in C order
                singular.append(np.column_stack(
                    [np.broadcast_to(c, shape)[sing] for c in x]))
            singular = np.concatenate(singular).tolist()
            count *= p ** ((k - 1) * (n - 1))
            if len(singular) > _MAX_SINGULAR:
                raise BudgetExceeded(
                    f"rho({p}^{k}): {len(singular)} singular roots mod {p} "
                    f"exceed stratification cap {_MAX_SINGULAR}")
            for a in singular:
                count += _rho(_psi_rescale(terms, p, a), n, p, k - 1, cap)
            return count
    except BudgetExceeded:
        if (zeros := _block_zeros(terms, n, q, cap)) is not None:
            return zeros
        if q**n > cap:
            raise
    return sum(int(np.count_nonzero(v == 0))
               for *_, (v,) in _residues([terms], n, q, _CHUNK))


def rho_star(phi: CubicPolynomial, p: int, k: int,
             budget: int | None = None) -> int:
    """Non-singular solution count mod p^k.

    For k = 1 this is the paper-standard count of roots with nonzero
    gradient mod p.  For k > 1 we use the Hensel-stable convention: the
    gradient must not vanish mod p^ceil(k/2) (documented choice; the
    source definition is only exercised where Hensel applies).
    """
    _require_prime(p)
    if k < 0:
        raise ValueError("k must be >= 0")
    n, q, t = phi.n, p**k, p ** ((k + 1) // 2)
    check_budget(q**n, budget, what=f"residue grid mod {q}")
    tables = [phi.terms(), *map(phi.derivative, range(n))]
    count = 0
    for *_, (v, *dv) in _residues(tables, n, q, _CHUNK):
        zero = v == 0  # the gradient is tested at the roots only
        count += int(np.count_nonzero(np.any([d[zero] % t for d in dv],
                                             axis=0)))
    return count


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
    cap = enumeration_budget(budget)
    size = q**phi.n
    limit = min(size, cap)
    for first, shape, x, (v,) in _residues([phi.terms()], phi.n, q,
                                           _WALK_BLOCK):
        if first >= limit:
            break
        zero = (v == 0).ravel()[:limit - first]
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
    higher powers of p by Hensel lifting.  The sieve up to P0 counts P0
    points against the budget.
    """
    if P0 < 1:
        raise ValueError("P0 must be >= 1")
    form, _scale = homogenize(phi)
    dphi = delta(form)
    if dphi.value == 0:
        return NCCCertificate(status="degenerate", P0=P0, delta_phi=dphi)
    certs = []

    def violation(p: int, j: int) -> NCCCertificate:
        return NCCCertificate(status="violation", P0=P0, primes=tuple(certs),
                              violation=(p, j), delta_phi=dphi)

    check_budget(P0, budget, what="primes up to P0")
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
    check_budget(k_max, budget, what="levels up to k_max")
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
