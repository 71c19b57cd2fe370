"""Exact cubic polynomials: symmetric tensor storage, Hessians, bilinear forms.

A cubic polynomial in n variables is split into homogeneous parts
phi = C + Q + L + N where C carries a symmetric integer 3-tensor c_{ijk},
Q a symmetric integer matrix, L an integer vector and N an integer.
All sums below use the *full* convention, i.e.

    phi(x) = sum_{i,j,k} c_{ijk} x_i x_j x_k
           + sum_{i,j} q_{ij} x_i x_j + sum_i l_i x_i + N,

so an off-diagonal stored entry contributes once per index permutation.
Only entries with i <= j <= k (resp. i <= j) are stored; a single
canonical accessor expands the symmetry.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
import json


class DimensionMismatch(ValueError):
    pass


class DegreeError(ValueError):
    pass


def _mult3(i: int, j: int, k: int) -> int:
    """Number of distinct permutations of the sorted triple (i, j, k)."""
    if i == j == k:
        return 1
    if i == j or j == k:
        return 3
    return 6


def _mult2(i: int, j: int) -> int:
    return 1 if i == j else 2


# w * x[i] * x[j] * x[k] for 0..3 indices, each one expression: numpy reuses
# a temporary array that nothing else references, so every product after the
# first, and the running sum of _eval_terms, is computed in place.  A loop
# over a named running product allocates an array per factor instead, which
# doubles the time of a 400,000-point Monte-Carlo integrand.
_MONOMIAL = (lambda w, x, idx: w,
             lambda w, x, idx: w * x[idx[0]],
             lambda w, x, idx: w * x[idx[0]] * x[idx[1]],
             lambda w, x, idx: w * x[idx[0]] * x[idx[1]] * x[idx[2]])


def _eval_terms(terms, x, mod=None):
    """sum w * prod x[i] over (weight, index tuple) terms, for x of exact
    numbers, numpy arrays or mpmath intervals.  With mod, every product and
    partial sum is reduced mod q, so int64 residue grids never overflow."""
    total = 0
    for w, idx in terms:
        if mod is None:
            total = total + _MONOMIAL[len(idx)](w, x, idx)
        else:
            w %= mod
            for i in idx:
                w = w * x[i] % mod
            total = (total + w) % mod
    return total


@dataclass(frozen=True)
class CubicPolynomial:
    """Immutable integer cubic polynomial in n variables (0-based indices)."""

    n: int
    cubic: dict = field(default_factory=dict)  # (i<=j<=k) -> c_ijk
    quad: dict = field(default_factory=dict)   # (i<=j) -> q_ij
    lin: tuple = ()
    const: int = 0

    def __post_init__(self):
        cub = {tuple(sorted(t)): int(c) for t, c in self.cubic.items() if c}
        qd = {tuple(sorted(t)): int(c) for t, c in self.quad.items() if c}
        lin = tuple(int(c) for c in self.lin) if self.lin else (0,) * self.n
        if len(lin) != self.n:
            raise DimensionMismatch(f"lin has length {len(lin)}, expected {self.n}")
        for t in cub:
            if any(not 0 <= i < self.n for i in t):
                raise DimensionMismatch(f"cubic index {t} out of range for n={self.n}")
        for t in qd:
            if any(not 0 <= i < self.n for i in t):
                raise DimensionMismatch(f"quad index {t} out of range for n={self.n}")
        object.__setattr__(self, "cubic", cub)
        object.__setattr__(self, "quad", qd)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", int(self.const))
        terms = [(self.const, ())] if self.const else []
        terms += [(_mult3(*t) * c, t) for t, c in cub.items()]
        terms += [(_mult2(*t) * q, t) for t, q in qd.items()]
        terms += [(li, (i,)) for i, li in enumerate(lin) if li]
        object.__setattr__(self, "_terms", tuple(terms))

    # -- canonical accessors ------------------------------------------------

    def c(self, i: int, j: int, k: int) -> int:
        """Symmetric tensor entry c_{ijk} (any index order)."""
        return self.cubic.get(tuple(sorted((i, j, k))), 0)

    def q(self, i: int, j: int) -> int:
        return self.quad.get(tuple(sorted((i, j))), 0)

    @property
    def height(self) -> int:
        """max |coefficient| over all stored parts; recomputed on every call."""
        vals = [abs(v) for v in self.cubic.values()]
        vals += [abs(v) for v in self.quad.values()]
        vals += [abs(v) for v in self.lin]
        vals.append(abs(self.const))
        return max(vals) if vals else 0

    @property
    def is_form(self) -> bool:
        """True when only the degree-3 part is present."""
        return not self.quad and not any(self.lin) and self.const == 0

    def cubic_part(self) -> "CubicPolynomial":
        return CubicPolynomial(self.n, cubic=dict(self.cubic))

    def terms(self) -> tuple:
        """phi as (weight, index tuple) pairs, phi(x) = sum w * prod x[i]:
        the constant first, then one pair per stored entry, its weight
        carrying the permutation count.  Every evaluation of phi reads this
        table, which is built once, with the polynomial."""
        return self._terms

    def derivative(self, m: int) -> list:
        """d phi / d x_m as (weight, index tuple) pairs: one pair per
        occurrence of m in a term, the other indices in cyclic order."""
        return [(w, idx[p + 1:] + idx[:p]) for w, idx in self._terms
                for p, i in enumerate(idx) if i == m]

    def x1_slices(self) -> list:
        """[phi_0, phi_1, phi_2, phi_3] with phi(t, y) = sum t^d phi_d(y),
        y = (x_2..x_n), each as (weight, index tuple) pairs over y."""
        parts = [[], [], [], []]
        for w, idx in self._terms:
            parts[idx.count(0)].append((w, tuple(i - 1 for i in idx if i)))
        return parts

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x) -> int:
        """Exact value phi(x) for an integer (or Fraction) vector x."""
        if len(x) != self.n:
            raise DimensionMismatch(f"point has dim {len(x)}, expected {self.n}")
        return _eval_terms(self._terms, x)

    def gradient(self, x) -> list:
        """nabla phi(x), exact."""
        if len(x) != self.n:
            raise DimensionMismatch(f"point has dim {len(x)}, expected {self.n}")
        return [_eval_terms(self.derivative(m), x) for m in range(self.n)]

    # -- Hessian / bilinear forms ------------------------------------------

    def hessian(self, x) -> list:
        """Matrix M(x) with M_ij = sum_k c_{ijk} x_k (cubic part only)."""
        if len(x) != self.n:
            raise DimensionMismatch(f"point has dim {len(x)}, expected {self.n}")
        n = self.n
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s = sum(self.c(i, j, k) * x[k] for k in range(n) if x[k])
                M[i][j] = M[j][i] = s
        return M

    def bilinear(self, x, y) -> list:
        """B_i(x, y) = sum_{j,k} c_{ijk} x_j y_k, for all i."""
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("bilinear arguments must have dim n")
        n = self.n
        out = [0] * n
        for i in range(n):
            s = 0
            for j in range(n):
                if not x[j]:
                    continue
                for k in range(n):
                    if y[k]:
                        s += self.c(i, j, k) * x[j] * y[k]
            out[i] = s
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "cubic": [[i + 1, j + 1, k + 1, c] for (i, j, k), c in sorted(self.cubic.items())],
            "quad": [[i + 1, j + 1, c] for (i, j), c in sorted(self.quad.items())],
            "lin": list(self.lin),
            "const": self.const,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "CubicPolynomial":
        try:
            n = int(d["n"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("polynomial JSON: missing or invalid field 'n'")
        cubic = {}
        for entry in d.get("cubic", []):
            if len(entry) != 4:
                raise ValueError(f"polynomial JSON: bad cubic entry {entry}")
            i, j, k, c = entry
            cubic[(i - 1, j - 1, k - 1)] = c
        quad = {}
        for entry in d.get("quad", []):
            if len(entry) != 3:
                raise ValueError(f"polynomial JSON: bad quad entry {entry}")
            i, j, c = entry
            quad[(i - 1, j - 1)] = c
        return cls(n, cubic=cubic, quad=quad,
                   lin=tuple(d.get("lin", [0] * n)), const=d.get("const", 0))

    @classmethod
    def from_json(cls, s: str) -> "CubicPolynomial":
        return cls.from_json_dict(json.loads(s))


# -- construction from raw monomial coefficients ----------------------------


def symmetrize(n: int, cubic_monomials: dict | None = None,
               quad_monomials: dict | None = None,
               lin=None, const: int = 0) -> tuple[CubicPolynomial, int]:
    """Build a symmetric-integral polynomial from monomial coefficients.

    cubic_monomials maps an index multiset (i, j, k) to the coefficient of
    the monomial x_i x_j x_k; quad_monomials likewise for degree 2.
    Returns (poly, scale) where poly represents scale * (input polynomial);
    scale is 6 when some symmetric tensor entry would be fractional, else 1.
    """
    cubic_monomials = cubic_monomials or {}
    quad_monomials = quad_monomials or {}
    lin = list(lin) if lin is not None else [0] * n
    for t in cubic_monomials:
        if len(t) != 3:
            raise DegreeError(f"cubic monomial {t} does not have degree 3")
    for t in quad_monomials:
        if len(t) != 2:
            raise DegreeError(f"quad monomial {t} does not have degree 2")

    cub_frac = {}
    for t, a in cubic_monomials.items():
        key = tuple(sorted(t))
        cub_frac[key] = cub_frac.get(key, 0) + Fraction(a, _mult3(*key))
    quad_frac = {}
    for t, a in quad_monomials.items():
        key = tuple(sorted(t))
        quad_frac[key] = quad_frac.get(key, 0) + Fraction(a, _mult2(*key))

    fractional = any(v.denominator != 1 for v in cub_frac.values())
    fractional = fractional or any(v.denominator != 1 for v in quad_frac.values())
    scale = 6 if fractional else 1
    cubic = {t: int(v * scale) for t, v in cub_frac.items()}
    quad = {t: int(v * scale) for t, v in quad_frac.items()}
    poly = CubicPolynomial(n, cubic=cubic, quad=quad,
                           lin=[scale * v for v in lin], const=scale * const)
    return poly, scale


def homogenize(phi: CubicPolynomial) -> tuple[CubicPolynomial, int]:
    """Homogenize phi into a cubic form F in n+1 variables.

    Returns (F, scale) with F(x, 1) == scale * phi(x); scale is the least
    factor (1 or 3) making the symmetric tensor of F integral.
    """
    n, w = phi.n, phi.n  # w is the new variable index
    need3 = any(v % 3 for v in phi.quad.values()) or any(v % 3 for v in phi.lin)
    scale = 3 if need3 else 1
    cubic = {t: scale * c for t, c in phi.cubic.items()}
    for (i, j), qq in phi.quad.items():
        cubic[(i, j, w)] = scale * qq // 3 if scale == 1 else qq
    for i, li in enumerate(phi.lin):
        if li:
            cubic[(i, w, w)] = scale * li // 3 if scale == 1 else li
    if phi.const:
        cubic[(w, w, w)] = scale * phi.const
    return CubicPolynomial(n + 1, cubic=cubic), scale


# -- leading-coefficient normalization --------------------------------------


class NormalizationError(RuntimeError):
    pass


def _extend_to_unimodular(t: list) -> list:
    """Unimodular integer matrix whose first column is the primitive vector t."""
    n = len(t)
    if all(v == 0 for v in t):
        raise ValueError("zero vector cannot be a basis column")
    vec = list(t)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_add(dst, src, q):  # column dst += q * column src
        for r in range(n):
            U[r][dst] += q * U[r][src]

    def col_swap(a, b):
        for r in range(n):
            U[r][a], U[r][b] = U[r][b], U[r][a]

    def col_neg(a):
        for r in range(n):
            U[r][a] = -U[r][a]

    # Euclid the vector down to +-e_1, mirroring each row op by the inverse
    # column op on U so that U @ vec_current stays equal to t.
    while True:
        nz = [i for i, v in enumerate(vec) if v != 0]
        if len(nz) == 1:
            break
        piv = min(nz, key=lambda i: abs(vec[i]))
        for i in nz:
            if i == piv:
                continue
            qq = vec[i] // vec[piv]
            if qq:
                vec[i] -= qq * vec[piv]
                col_add(piv, i, qq)
    pos = next(i for i, v in enumerate(vec) if v != 0)
    if pos != 0:
        vec[0], vec[pos] = vec[pos], vec[0]
        col_swap(0, pos)
    if vec[0] < 0:
        vec[0] = -vec[0]
        col_neg(0)
    if vec[0] != 1:
        raise ValueError(f"vector {t} is not primitive (gcd {vec[0]})")
    return U


def transform(phi: CubicPolynomial, U: list) -> CubicPolynomial:
    """phi(U y) for a unimodular integer matrix U (exact)."""
    n = phi.n
    cubic = {}
    for a in range(n):
        for b in range(a, n):
            for cdx in range(b, n):
                s = 0
                for (i, j, k), cc in phi.cubic.items():
                    # sum over all 6 (or fewer distinct) permutations
                    perms = {(i, j, k), (i, k, j), (j, i, k), (j, k, i),
                             (k, i, j), (k, j, i)}
                    for (pi, pj, pk) in perms:
                        s += cc * U[pi][a] * U[pj][b] * U[pk][cdx]
                if s:
                    cubic[(a, b, cdx)] = s
    quad = {}
    for a in range(n):
        for b in range(a, n):
            s = 0
            for (i, j), qq in phi.quad.items():
                perms = {(i, j), (j, i)}
                for (pi, pj) in perms:
                    s += qq * U[pi][a] * U[pj][b]
            if s:
                quad[(a, b)] = s
    lin = [sum(phi.lin[i] * U[i][a] for i in range(n)) for a in range(n)]
    return CubicPolynomial(n, cubic=cubic, quad=quad, lin=lin, const=phi.const)


def normalize_leading(phi: CubicPolynomial, height_bound: int = 3):
    """Coordinate change making the x_1^3 coefficient positive and large.

    Searches primitive vectors t with |t| <= height_bound and picks the one
    maximizing |C(t)|; requires |C(t)| >= M / (10 n^3).  Returns
    (transformed phi, U) with phi'(y) = phi(U y).  Raises
    NormalizationError when no such vector exists within the search height.
    """
    from itertools import product

    n = phi.n
    C = phi.cubic_part()
    M = phi.height
    best_t, best_val = None, 0
    for t in product(range(-height_bound, height_bound + 1), repeat=n):
        g = 0
        for v in t:
            g = gcd(g, v)
        if g != 1:
            continue
        val = C.evaluate(t)
        if abs(val) > abs(best_val):
            best_t, best_val = list(t), val
    threshold = Fraction(M, 10 * n**3)
    if best_t is None or abs(best_val) < threshold:
        raise NormalizationError(
            f"no primitive vector of height <= {height_bound} with "
            f"|C(t)| >= {threshold}")
    U = _extend_to_unimodular(best_t)
    out = transform(phi, U)
    if out.c(0, 0, 0) < 0:
        neg = [[-U[i][j] if j == 0 else U[i][j] for j in range(n)] for i in range(n)]
        U = neg
        out = transform(phi, U)
    return out, U
