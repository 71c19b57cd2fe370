"""Independent references that the tests compare cubiclab against; no CLI
command reaches any of them."""

import cmath
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import floor, fsum, gcd, isqrt, prod, tau

import numpy as np
from scipy import integrate

from cubiclab import CubicPolynomial, weyl_sum
from cubiclab.budget import check_budget
from cubiclab.counting import _box_ranges
from cubiclab.expsums import _unit_root
from cubiclab.nt import nearest_int_distance, trial_factor
from cubiclab.polynomials import _eval_terms


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, unsorted scan order."""
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    if n == 1:
        return 1
    factors, cof = trial_factor(n)
    if cof != 1:
        raise ValueError(f"could not factor {n} for mobius")
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def ramanujan_sum(q: int, m: int) -> int:
    """c_q(m) = sum over a coprime to q of e(am/q); always an integer."""
    g = gcd(m % q if q else m, q) if q > 1 else 1
    if q == 1:
        return 1
    return sum(d * mobius(q // d) for d in divisors(q) if g % d == 0)


def a_of_q_exact(phi: CubicPolynomial, q: int,
                 budget: int | None = None) -> Fraction:
    """A(q) = sum_(a;q)=1 S(q,a)/q^n as an exact rational, from the whole
    residue grid mod q: the reference for singular_series, which reads A(q)
    off the local densities rho(p^j) instead.

    Summing the coprime phases first gives A(q) = (sum_m counts[m] c_q(m)) /
    q^n with c_q the Ramanujan sum, so the value is rational and exact.
    """
    if q == 1:
        return Fraction(1)
    cnt = value_distribution(phi, q, budget)
    num = sum(int(cnt[m]) * ramanujan_sum(q, m) for m in range(q))
    return Fraction(num, q**phi.n)


def residue_grid(phi: CubicPolynomial, q: int) -> np.ndarray:
    """Read-only array of shape (q,)*n holding phi(x) mod q (x_1 the
    slowest axis): the whole-grid reference for the chunked residue walk
    of cubiclab.local.  phi is evaluated exactly over one np.ix_ open
    mesh, with no reduction on the way, and reduced mod q once, so the
    walk's running-bound reduction is checked, not shared.  The mesh is
    int64 where sum |w| q^deg < 2**63 bounds every product and partial
    sum, else Python ints in object arrays (which for watson5 mod 27 took
    5 s and 1.2 GB where int64 takes 0.5 s and 0.3 GB)."""
    terms = phi.terms()
    wide = sum(abs(w) * q ** len(idx) for w, idx in terms) >= 2**63
    x = np.ix_(*[np.arange(q, dtype=object if wide else np.int64)] * phi.n)
    exact = sum(w * prod(x[i] for i in idx) for w, idx in terms)
    return np.broadcast_to(np.asarray(exact % q, dtype=np.int64),
                           (q,) * phi.n)


def value_distribution(phi: CubicPolynomial, q: int,
                       budget: int | None = None) -> np.ndarray:
    """counts[m] = #{x mod q : phi(x) = m mod q}; sums to q^n."""
    check_budget(q**phi.n, budget, what=f"residue grid mod {q}")
    return np.bincount(residue_grid(phi, q).ravel(), minlength=q)


def scan_zeros(phi: CubicPolynomial, ranges) -> list:
    """Zeros in the box by evaluating every point, prefix-major."""
    return [(t, *y) for y in product(*ranges[1:]) for t in ranges[0]
            if phi.evaluate((t, *y)) == 0]


def first_root(phi: CubicPolynomial, q: int):
    """The lexicographically first root mod q, read off the whole residue
    grid: the reference for the block walk of local._first_root."""
    arr = residue_grid(phi, q)
    flat = np.flatnonzero(arr == 0)
    if not len(flat):
        return None
    return tuple(int(v) for v in np.unravel_index(int(flat[0]), arr.shape))


def integer_roots_cubic(a: int, b: int, c: int, d: int):
    """Integer roots of a t^3 + b t^2 + c t + d.

    Returns ("all", None) when the polynomial vanishes identically,
    else ("roots", sorted list of distinct integer roots).
    """
    if a == 0 and b == 0 and c == 0:
        return ("all", None) if d == 0 else ("roots", [])
    if a == 0 and b == 0:
        return "roots", ([-d // c] if d % c == 0 else [])
    if a == 0:
        disc = c * c - 4 * b * d
        if disc < 0:
            return "roots", []
        s = isqrt(disc)
        if s * s != disc:
            return "roots", []
        roots = []
        for num in (-c + s, -c - s):
            if num % (2 * b) == 0:
                roots.append(num // (2 * b))
        return "roots", sorted(set(roots))
    if d == 0:
        _, rest = integer_roots_cubic(0, a, b, c)
        return "roots", sorted(set([0] + rest))
    roots = []
    for r in divisors(d):
        for t in (r, -r):
            if ((a * t + b) * t + c) * t + d == 0:
                roots.append(t)
    return "roots", sorted(set(roots))


def rank_mod_p(rows: list, p: int) -> int:
    """Rank over F_p by row reduction in Python ints: the reference for the
    batched elimination of rank_census."""
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


def coefficient_matrix(C: CubicPolynomial) -> list:
    """The whole n x binom(n+1,2) matrix (c_{ijk})_{i, (j<=k)}, zero columns
    included: the reference for invariants.delta, which builds only the
    nonzero columns."""
    n = C.n
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    return [[C.c(i, j, k) for (j, k) in pairs] for i in range(n)]


def minor_gcd(mat: list) -> int:
    """Reference Delta: the gcd of every n x n minor of the n-row matrix
    mat, all enumerated."""
    n, g = len(mat), 0
    for cols in combinations(range(len(mat[0])), n):
        g = gcd(g, int_det([[row[c] for c in cols] for row in mat]))
    return g


def int_det(rows: list) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=256)
def _exact_residue_profile(poly_json: str, q: int) -> tuple:
    """counts[m] = #{r mod q : phi(r) = m mod q}, by exact evaluation in
    Python ints (independent of the numpy grid path).  Cached per (phi, q):
    every numerator a of one modulus reuses it."""
    phi = CubicPolynomial.from_json_dict(json.loads(poly_json))
    counts, terms = [0] * q, phi.terms()
    for r in product(range(q), repeat=phi.n):
        counts[_eval_terms(terms, r) % q] += 1
    return tuple(counts)


def gauss_sum_direct(phi: CubicPolynomial, q: int, a: int,
                     budget: int | None = None) -> complex:
    """S(q, a) by direct summation over residues (exact Python evaluation);
    count times root is summed exactly in Fractions and rounded once."""
    check_budget(q**phi.n, budget, what=f"Gauss sum mod {q}")
    roots = [_unit_root(m, q) for m in range(q)]
    counts = _exact_residue_profile(json.dumps(phi.to_json_dict()), q)
    re = sum(counts[m] * Fraction(roots[a * m % q].real) for m in range(q))
    im = sum(counts[m] * Fraction(roots[a * m % q].imag) for m in range(q))
    return complex(float(re), float(im))


def a_of_q(phi: CubicPolynomial, q: int, budget: int | None = None) -> complex:
    """Floating A(q) by summing the direct Gauss sums over coprime
    numerators: the reference for a_of_q_exact, which sums Ramanujan sums
    over the numpy value distribution instead."""
    if q == 1:
        return complex(1.0)
    total = 0j
    for a in range(1, q):
        if gcd(a, q) == 1:
            total += gauss_sum_direct(phi, q, a, budget)
    return total / q**phi.n


def euler_comparison(phi: CubicPolynomial, lam: float, bounds,
                     budget: int | None = None) -> dict:
    """|sum_{x in box} e(lam phi(x)) - integral over the box| for smooth
    phase; the bound K psi^-1 R^(n-1) of the stationary-phase-free regime
    is reported as a ratio (K calibrated by the test suite, frozen there)."""
    n = phi.n
    S = weyl_sum(phi, lam, bounds, 1.0, budget)

    def f(*x):
        return cmath.exp(1j * tau * lam * phi.evaluate(x))

    if n == 1:
        re, _ = integrate.quad(lambda x: f(x).real, bounds[0][0], bounds[0][1],
                               limit=200)
        im, _ = integrate.quad(lambda x: f(x).imag, bounds[0][0], bounds[0][1],
                               limit=200)
    elif n == 2:
        re, _ = integrate.dblquad(lambda y, x: f(x, y).real,
                                  bounds[0][0], bounds[0][1],
                                  bounds[1][0], bounds[1][1])
        im, _ = integrate.dblquad(lambda y, x: f(x, y).imag,
                                  bounds[0][0], bounds[0][1],
                                  bounds[1][0], bounds[1][1])
    else:
        raise ValueError("comparison implemented for n <= 2 only")
    I = complex(re, im)
    R = max(hi - lo for lo, hi in bounds) / 2.0
    return {"sum": S, "integral": I, "diff": abs(S - I), "R": R}


# -- the Monte-Carlo sample --------------------------------------------------


def splitmix64(seed: int):
    """The SplitMix64 stream of seed mod 2^64, one output per next() in
    Python-int arithmetic (Steele, Lea & Flood, OOPSLA 2014): the state
    steps by gamma, and each output is the state put through two
    multiply-xorshift rounds and a last xorshift."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def uniform_sample(seed: int, bounds, N: int) -> list:
    """N points drawn serially from one splitmix64(seed) stream, axis by
    axis, one array per axis: each output z gives lo + (hi - lo) u with
    u = (z >> 11) 2^-53, a double in [0, 1) from z's top 53 bits."""
    stream = splitmix64(seed)
    return [np.array([lo + (hi - lo) * ((next(stream) >> 11) * 2.0 ** -53)
                      for _ in range(N)]) for lo, hi in bounds]


# -- per-point references of the chunked box walks ---------------------------


def weyl_sum_direct(phi: CubicPolynomial, alpha, bounds,
                    P: float = 1.0) -> complex:
    """weyl_sum by one exact evaluation per point of the box, in
    itertools.product order, and fsum over the points' phases: e(m/q) of
    _unit_root for rational alpha = a/q, m = a phi(x) mod q, else
    cmath.exp(2 pi i ((alpha phi(x)) mod 1))."""
    re_parts, im_parts = [], []
    terms = phi.terms()
    for x in product(*_box_ranges(phi.n, P, bounds)):
        v = _eval_terms(terms, x)
        if isinstance(alpha, Fraction):
            q = alpha.denominator
            z = _unit_root(alpha.numerator * v % q, q)
        else:
            z = cmath.exp(1j * tau * ((alpha * v) % 1.0))
        re_parts.append(z.real)
        im_parts.append(z.imag)
    return complex(fsum(re_parts), fsum(im_parts))


def shrinking_count_direct(L, a, Z) -> int:
    """shrinking_count point by point: #{u : |u| <= a Z, ||(L u)_i|| <
    Z / a for all i}, each (L u)_i summed in index order in Python."""
    r = floor(float(a) * float(Z) + 1e-12)
    eps = float(Z) / float(a)
    n = len(L)
    return sum(
        all(nearest_int_distance(sum(L[i][j] * u[j] for j in range(n))) < eps
            for i in range(n))
        for u in product(range(-r, r + 1), repeat=n))


def normalize_direction_direct(phi: CubicPolynomial):
    """(t, C(t)) for the first primitive t in itertools.product order over
    [-3, 3]^n with the largest |C(t)| > 0, C the cubic part; (None, 0) when
    C vanishes on all of them."""
    C = phi.cubic_part()
    best_t, best_val = None, 0
    for t in product(range(-3, 4), repeat=phi.n):
        if gcd(*t) == 1 and abs(C.evaluate(t)) > abs(best_val):
            best_t, best_val = list(t), C.evaluate(t)
    return best_t, best_val


def siegel_scan_direct(basis: list, best: list) -> list:
    """The first nonzero combination sum c_j basis[j], c in [-3, 3]^k in
    itertools.product order, whose sup norm is smallest and below that of
    `best`; `best` itself when there is none."""
    n = len(basis[0])
    for coeffs in product(range(-3, 4), repeat=len(basis)):
        v = [sum(c * bv[i] for c, bv in zip(coeffs, basis)) for i in range(n)]
        if any(v) and max(map(abs, v)) < max(map(abs, best)):
            best = v
    return best
