"""Brute-force references, written apart from the package so they share no
code with what they check.

A polynomial is handled in the package's JSON form (1-based symmetric
tensor entries) and expanded here into monomials: coefficient times index
tuple.  Everything exact uses Python integers or numpy int64 grids with
every product reduced mod q; the float paths (Monte-Carlo, Gauss-Legendre,
Clenshaw-Curtis weights) are independent textbook versions.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod

import numpy as np


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def monomials(pj: dict) -> list:
    """[(coefficient, 0-based index tuple)] with phi = sum c * prod x[idx]."""
    out = []
    for i, j, k, c in pj.get("cubic", []):
        out.append((c * len(set(permutations((i, j, k)))), (i - 1, j - 1, k - 1)))
    for i, j, c in pj.get("quad", []):
        out.append((c * (1 if i == j else 2), (i - 1, j - 1)))
    for i, c in enumerate(pj.get("lin", [])):
        if c:
            out.append((c, (i,)))
    if pj.get("const"):
        out.append((pj["const"], ()))
    return out


def evaluate(terms: list, x) -> int:
    return sum(c * prod(x[i] for i in idx) for c, idx in terms)


def gradient(terms: list, n: int, x) -> list:
    g = [0] * n
    for c, idx in terms:
        for pos, m in enumerate(idx):
            g[m] += c * prod(x[i] for t, i in enumerate(idx) if t != pos)
    return g


def random_poly(rng: random.Random, n: int, bound: int = 5) -> dict:
    """Dense random cubic with every tensor entry uniform in [-bound, bound]
    (the recipe of the test suite's `random_poly`), in JSON form."""
    cubic = [[i + 1, j + 1, k + 1, c]
             for i in range(n) for j in range(i, n) for k in range(j, n)
             if (c := rng.randint(-bound, bound))]
    quad = [[i + 1, j + 1, c] for i in range(n) for j in range(i, n)
            if (c := rng.randint(-bound, bound))]
    lin = [rng.randint(-bound, bound) for _ in range(n)]
    return {"n": n, "cubic": cubic, "quad": quad, "lin": lin,
            "const": rng.randint(-bound, bound)}


# -- residues mod q ------------------------------------------------------------


def residues(pj: dict, q: int, first: int) -> np.ndarray:
    """phi(first, x_2, ..., x_n) mod q over all x_2..x_n mod q."""
    n = pj["n"]
    axes = [np.array(first, dtype=np.int64).reshape((1,) * n)]
    axes += [np.arange(q, dtype=np.int64).reshape((1,) * i + (q,) + (1,) * (n - 1 - i))
             for i in range(1, n)]
    acc = np.zeros((1,) + (q,) * (n - 1), dtype=np.int64)
    for c, idx in monomials(pj):
        t = np.full((1,) * n, c % q, dtype=np.int64)
        for i in idx:
            t = (t * axes[i]) % q
        acc = (acc + t) % q
    return acc


def zero_count(pj: dict, q: int) -> int:
    """#{x mod q : phi(x) = 0 mod q}, one x_1 slice at a time."""
    return sum(int(np.count_nonzero(residues(pj, q, a) == 0)) for a in range(q))


def first_root(pj: dict, q: int):
    """Lexicographically first root mod q, or None."""
    for a in range(q):
        hit = np.flatnonzero(residues(pj, q, a).ravel() == 0)
        if len(hit):
            rest = np.unravel_index(int(hit[0]), (q,) * (pj["n"] - 1))
            return [a] + [int(v) for v in rest]
    return None


def nonsingular_zero_count(pj: dict, q: int, t: int) -> int:
    """Roots mod q at which some partial derivative is nonzero mod t."""
    terms, n = monomials(pj), pj["n"]
    return sum(1 for x in product(range(q), repeat=n)
               if evaluate(terms, x) % q == 0
               and any(g % t for g in gradient(terms, n, x)))


def residue_counts(pj: dict, q: int) -> np.ndarray:
    return sum(np.bincount(residues(pj, q, a).ravel(), minlength=q)
               for a in range(q))


def mobius(n: int) -> int:
    res, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            res = -res
        p += 1
    return -res if n > 1 else res


def ramanujan(q: int, m: int) -> int:
    g = gcd(m, q)
    return sum(d * mobius(q // d) for d in range(1, g + 1) if g % d == 0 and q % d == 0)


def a_of_q(pj: dict, q: int) -> Fraction:
    """A(q) = q^-n sum_m #{phi = m mod q} c_q(m)."""
    cnt = residue_counts(pj, q)
    return Fraction(sum(int(cnt[m]) * ramanujan(q, m) for m in range(q)),
                    q ** pj["n"])


# -- invariants ------------------------------------------------------------------


def homogenized(pj: dict) -> dict:
    """Tensor of the cubic form s * phi(x) homogenized with a last variable
    w, where s in (1, 3) is the least factor that keeps the tensor integral."""
    n = pj["n"]
    w = n + 1
    low = [(i, j, c) for i, j, c in pj.get("quad", [])]
    low += [(i, w, c) for i, c in enumerate(pj.get("lin", []), 1) if c]
    s = 3 if any(c % 3 for *_, c in low) else 1
    cubic = [[i, j, k, s * c] for i, j, k, c in pj.get("cubic", [])]
    cubic += [[i, j, w, c * s // 3] for i, j, c in pj.get("quad", [])]
    cubic += [[i, w, w, c * s // 3] for i, c in enumerate(pj.get("lin", []), 1) if c]
    if pj.get("const"):
        cubic.append([w, w, w, s * pj["const"]])
    return {"n": n + 1, "cubic": cubic}


def det(rows: list) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in r] for r in rows]
    n, sign, out = len(a), 1, Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(sign * out)


def delta(form: dict) -> int:
    """gcd of all n x n minors of the matrix (c_ijk)_(i, j<=k), every minor."""
    n = form["n"]
    entry = {tuple(sorted((i - 1, j - 1, k - 1))): c for i, j, k, c in form["cubic"]}
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    mat = [[entry.get(tuple(sorted((i, j, k))), 0) for j, k in pairs] for i in range(n)]
    g = 0
    for cols in combinations(range(len(pairs)), n):
        g = gcd(g, det([[row[c] for c in cols] for row in mat]))
        if g == 1:
            break
    return g


def valuation(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


# -- lattice points ----------------------------------------------------------------


def box_solutions(pj: dict, P: int) -> list:
    """All integer zeros in [-P, P]^n, ordered as (x_2..x_n, x_1)."""
    n, terms = pj["n"], monomials(pj)
    side = np.arange(-P, P + 1, dtype=np.int64)
    out = []
    for first in side:
        X = [np.array(first).reshape((1,) * n)] + [
            side.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i in range(1, n)]
        acc = np.zeros((1,) + (2 * P + 1,) * (n - 1), dtype=np.int64)
        for c, idx in terms:
            t = np.full((1,) * n, c, dtype=np.int64)
            for i in idx:
                t = t * X[i]
            acc = acc + t
        for rest in np.argwhere(acc[0] == 0):
            out.append((int(first), *(int(side[r]) for r in rest)))
    return sorted(out, key=lambda x: (x[1:], x[0]))


# -- real integrals ------------------------------------------------------------------


def evaluate_float(terms: list, X: list):
    acc = 0.0
    for c, idx in terms:
        t = float(c)
        for i in idx:
            t = t * X[i]
        acc = acc + t
    return acc


def monte_carlo(pj: dict, bounds, Z: float, N: int, seed, chunk: int = 500_000):
    """Mean of 2Z sinc(2Z phi) over the box from uniform points: (value, se)."""
    rng = np.random.default_rng(seed)
    terms = monomials(pj)
    vol = prod(hi - lo for lo, hi in bounds)
    s = s2 = 0.0
    done = 0
    while done < N:
        m = min(chunk, N - done)
        X = [rng.uniform(lo, hi, size=m) for lo, hi in bounds]
        v = 2.0 * Z * np.sinc(2.0 * Z * evaluate_float(terms, X))
        s += float(v.sum())
        s2 += float((v * v).sum())
        done += m
    mean = s / N
    var = max(s2 / N - mean * mean, 0.0)
    return vol * mean, vol * (var / N) ** 0.5


def gauss_legendre(pj: dict, bounds, Z: float, nodes: list) -> float:
    """Tensor Gauss-Legendre rule for int_B 2Z sinc(2Z phi), x_1 in slices."""
    terms, n = monomials(pj), len(bounds)
    axes = []
    for (lo, hi), m in zip(bounds, nodes):
        x, w = np.polynomial.legendre.leggauss(m)
        axes.append(((hi + lo) / 2 + (hi - lo) / 2 * x, (hi - lo) / 2 * w))
    total = 0.0
    for x1, w1 in zip(*axes[0]):
        X = [np.array(x1)] + [axes[i][0].reshape((-1,) + (1,) * (n - 1 - i))
                              for i in range(1, n)]
        vals = 2.0 * Z * np.sinc(2.0 * Z * evaluate_float(terms, X))
        for i in reversed(range(1, n)):
            vals = np.tensordot(vals, axes[i][1], axes=([vals.ndim - 1], [0]))
        total += w1 * float(vals)
    return total


def clenshaw_curtis(m: int, lo: float, hi: float):
    """Nodes cos(pi k / m) and weights by the closed-form cosine series."""
    k = np.arange(m + 1)
    theta = np.pi * k / m
    j = np.arange(1, m // 2 + 1)
    b = np.where(2 * j < m, 2.0, 1.0)
    w = (1.0 - (b[None, :] * np.cos(2 * j[None, :] * theta[:, None])
                / (4 * j[None, :] ** 2 - 1)).sum(axis=1)) * (2.0 / m)
    w[0] /= 2
    w[-1] /= 2
    half = (hi - lo) / 2
    return (lo + hi) / 2 + half * np.cos(theta), half * w
