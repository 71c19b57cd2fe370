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

terms() lists phi as weighted monomials, one per stored entry, and
_from_terms inverts it.  Evaluation reads that table, and so does every
construction: symmetrize, homogenize, and each coordinate change
phi(shift + U y) through _substitute (transform, and the p-adic rescaling
psi_a of the local densities).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, prod
import json

import numpy as np

from .budget import check_budget
from .nt import column_reduce

_NORMALIZE_HEIGHT = 3  # normalize_leading searches primitive t with |t| <= this
_CHUNK = 1 << 15  # points per _walk chunk; bounds peak memory
_INT64_MAX = 2**63 - 1
_MONOMIAL_MAX = 2**62  # so a monomial plus a reduced total fits int64


class DimensionMismatch(ValueError):
    pass


class DegreeError(ValueError):
    pass


def _json_int(value, what: str) -> int:
    """value, if it is a JSON integer (a bool is not), else ValueError."""
    if type(value) is not int:
        raise ValueError(
            f"polynomial JSON: {what} must be an integer, got {value!r}")
    return value


def _json_list(d: dict, key: str) -> list:
    """d[key], a list, or [] where it is missing; else ValueError."""
    value = d.get(key, [])
    if not isinstance(value, list):
        raise ValueError(
            f"polynomial JSON: field {key!r} must be a list, got {value!r}")
    return value


def _mult(idx: tuple) -> int:
    """Number of distinct orderings of a sorted index tuple of length <= 3:
    len! over the factorial of its one run of repeated indices."""
    return factorial(len(idx)) // factorial(len(idx) - len(set(idx)) + 1)


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
    numbers, numpy arrays or the exact intervals of majorarcs.

    With mod = q < 2**31 the coordinates must lie in [0, q), as the residue
    walk of local gives them, and the value comes back in [0, q).  The
    weights are reduced mod q; then the products and sums run unreduced,
    each with a running bound: w (q - 1)^deg for a monomial, the sum of
    those for the total.  A monomial is reduced only where its next factor
    could pass 2**62, the total only where the next sum could pass
    2**63 - 1, so int64 never overflows, and the total once at the end.
    Below q = 2**15 no monomial of degree <= 3 needs a reduction, and a
    table of fewer than 2**63 / q**4 terms needs only the last %."""
    total = 0
    if mod is None:
        for w, idx in terms:
            total = total + _MONOMIAL[len(idx)](w, x, idx)
        return total
    top, bound = mod - 1, 0  # the largest residue; the bound of total
    for w, idx in terms:
        m = mb = w % mod
        for i in idx:
            if mb * top > _MONOMIAL_MAX:
                m, mb = m % mod, top
            m, mb = m * x[i], mb * top
        if bound + mb > _INT64_MAX:
            total, bound = total % mod, top
        total, bound = total + m, bound + mb
    return total % mod


def _walk(ranges, points: int, terms=()):
    """The box prod(ranges) in C order (the last axis fastest), about
    `points` points at a time.  Yields (first, shape, x) per chunk: its
    flat index, its shape (prefixes,) + the trailing axis lengths, and one
    coordinate array per range: a batch of leading prefixes, decoded from
    the flat index, times as many full trailing axes as fit `points`.  The
    arrays broadcast to shape, each varying along its first axis only,
    axis len(shape) - ndim of the chunk.  They are int64, or Python ints
    in object arrays where evaluating the (weight, index tuple) table
    `terms` on the box could overflow int64: every partial sum is at most
    sum |w| B^deg and every coordinate step at most 2B, B the largest
    |coordinate|."""
    sizes = [len(r) for r in ranges]
    if not all(sizes):
        return
    B = max([1] + [abs(v) for r in ranges for v in (r[0], r[-1])])
    wide = 2 * B + sum(abs(w) * B ** len(idx) for w, idx in terms) >= 2 ** 63
    dtype = object if wide else np.int64
    lead, row = len(ranges), 1
    while lead and row * sizes[lead - 1] <= points:
        lead -= 1
        row *= sizes[lead]
    trail = len(ranges) - lead
    tail = [np.arange(r.start, r.stop, r.step, dtype=dtype)
            .reshape((-1,) + (1,) * (trail - 1 - i))
            for i, r in enumerate(ranges[lead:])]
    prefixes, step = prod(sizes[:lead]), max(1, points // row)
    for p0 in range(0, prefixes, step):
        flat, x = np.arange(p0, min(p0 + step, prefixes)), []
        for r in reversed(ranges[:lead]):
            flat, digit = np.divmod(flat, len(r))
            x.append((digit.astype(dtype, copy=False) * r.step + r.start)
                     .reshape((-1,) + (1,) * trail))
        yield (p0 * row, (min(step, prefixes - p0), *sizes[lead:]),
               x[::-1] + tail)


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


def _x1_split(blocks: list, n: int) -> tuple:
    """(O, A, L, B) with phi(x) = A(x_O) + B(x_L) for phi's table split by
    _variable_blocks: A the block that holds x_1 and O its variables (x_1
    alone when no term holds it), B the terms of every other block and L
    every variable not in O.  A connected table has L empty and B = []."""
    head = next((b for b in blocks if any(0 in idx for _, idx in b)), [])
    O = sorted({0}.union(*(idx for _, idx in head)))
    L = [i for i in range(n) if i not in O]
    return O, head, L, [t for b in blocks if b is not head for t in b]


def _derivative(terms, m: int) -> list:
    """d/dx_m of a (weight, index tuple) table: one pair per occurrence of
    m in a term, the other indices in cyclic order."""
    return [(w, idx[p + 1:] + idx[:p]) for w, idx in terms
            for p, i in enumerate(idx) if i == m]


def _x1_slices(terms) -> list:
    """The slices [phi_0, ..., phi_3] of a (weight, index tuple) table,
    phi(t, y) = sum t^d phi_d(y) with t = x_1 and y = (x_2..x_n)."""
    parts = [[], [], [], []]
    for w, idx in terms:
        parts[idx.count(0)].append((w, tuple(i - 1 for i in idx if i)))
    return parts


def _substitute(terms, U, shift=None) -> dict:
    """The merged table {sorted index tuple: coefficient} of phi(shift + U y)
    for phi's (weight, index tuple) terms and an integer matrix U; zero
    coefficients are dropped."""
    factors = [[((j,), u) for j, u in enumerate(row) if u] for row in U]
    if shift is not None:
        factors = [([((), s)] if s else []) + f for s, f in zip(shift, factors)]
    table = {}
    for w, idx in terms:
        for choice in product(*(factors[i] for i in idx)):
            key = tuple(sorted(j for js, _ in choice for j in js))
            table[key] = table.get(key, 0) + w * prod(u for _, u in choice)
    return {key: c for key, c in table.items() if c}


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
        terms += [(_mult(t) * c, t) for part in (cub, qd)
                  for t, c in part.items()]
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

    @cached_property
    def _gradient_terms(self) -> tuple:
        """The n tables of d phi / d x_m, built on first use."""
        return tuple(_derivative(self._terms, m) for m in range(self.n))

    def derivative(self, m: int) -> list:
        """d phi / d x_m as (weight, index tuple) pairs."""
        return list(self._gradient_terms[m])

    def x1_slices(self) -> list:
        """[phi_0, phi_1, phi_2, phi_3] with phi(t, y) = sum t^d phi_d(y),
        y = (x_2..x_n), each as (weight, index tuple) pairs over y."""
        return _x1_slices(self._terms)

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
        return [_eval_terms(t, x) for t in self._gradient_terms]

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
        """B_i(x, y) = sum_{j,k} c_{ijk} x_j y_k = (M(x) y)_i, for all i."""
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("bilinear arguments must have dim n")
        return [sum(m * v for m, v in zip(row, y)) for row in self.hessian(x)]

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
        """The object {"n", "cubic": [[i, j, k, c], ...], "quad": [[i, j,
        c], ...], "lin", "const"}, indices 1-based, n >= 1.  Every number is
        a JSON integer and every field a list but "n" and "const"; a float,
        a string or a bool in place of an integer is a ValueError, as is
        any other shape."""
        if not isinstance(d, dict):
            raise ValueError("polynomial JSON: expected an object")
        n = _json_int(d.get("n"), "field 'n'")
        if n < 1:
            raise ValueError(f"polynomial JSON: need n >= 1, got {n}")
        parts = []
        for key, width in (("cubic", 4), ("quad", 3)):
            part = {}
            for entry in _json_list(d, key):
                if not isinstance(entry, list) or len(entry) != width:
                    raise ValueError(
                        f"polynomial JSON: bad {key} entry {entry!r}")
                *idx, c = [_json_int(v, f"each number of {key} entry "
                                        f"{entry}") for v in entry]
                part[tuple(i - 1 for i in idx)] = c
            parts.append(part)
        lin = [_json_int(v, "each 'lin' entry") for v in _json_list(d, "lin")]
        return cls(n, cubic=parts[0], quad=parts[1], lin=tuple(lin),
                   const=_json_int(d.get("const", 0), "field 'const'"))

    @classmethod
    def from_json(cls, s: str) -> "CubicPolynomial":
        return cls.from_json_dict(json.loads(s))


# -- construction: the inverse of terms() ----------------------------------


def _from_terms(n: int, table: dict) -> CubicPolynomial:
    """The polynomial whose term table is {sorted index tuple: weight}: each
    weight divided by its permutation count.  Raises ValueError when a
    division is not exact."""
    parts = ({}, {}, {}, {})
    for idx, w in table.items():
        m = _mult(idx)
        if w % m:
            raise ValueError(f"weight {w} of {idx} is not a multiple of {m}")
        parts[len(idx)][idx] = w // m
    const, lin, quad, cubic = parts
    return CubicPolynomial(n, cubic=cubic, quad=quad,
                           lin=[lin.get((i,), 0) for i in range(n)],
                           const=const.get((), 0))


def symmetrize(n: int, cubic_monomials: dict | None = None,
               quad_monomials: dict | None = None,
               lin=None, const: int = 0) -> tuple[CubicPolynomial, int]:
    """Build a symmetric-integral polynomial from monomial coefficients.

    cubic_monomials maps an index multiset (i, j, k) to the coefficient of
    the monomial x_i x_j x_k; quad_monomials likewise for degree 2.
    Returns (poly, scale) where poly represents scale * (input polynomial);
    scale is 6 when some symmetric tensor entry would be fractional, else 1.
    """
    lin = list(lin) if lin is not None else [0] * n
    if len(lin) != n:
        raise DimensionMismatch(f"lin has length {len(lin)}, expected {n}")
    table = {}
    for part, degree, monomials in (("cubic", 3, cubic_monomials),
                                    ("quad", 2, quad_monomials)):
        for t, a in (monomials or {}).items():
            if len(t) != degree:
                raise DegreeError(
                    f"{part} monomial {t} does not have degree {degree}")
            key = tuple(sorted(t))
            table[key] = table.get(key, 0) + a
    table.update({(i,): v for i, v in enumerate(lin)})
    table[()] = const
    try:
        return _from_terms(n, table), 1
    except ValueError:
        return _from_terms(n, {t: 6 * a for t, a in table.items()}), 6


def homogenize(phi: CubicPolynomial) -> tuple[CubicPolynomial, int]:
    """Homogenize phi into a cubic form F in n+1 variables: index n is
    appended to every term until it has degree 3.

    Returns (F, scale) with F(x, 1) == scale * phi(x); scale is the least
    factor (1 or 3) making the symmetric tensor of F integral.
    """
    n = phi.n
    table = {idx + (n,) * (3 - len(idx)): w for w, idx in phi.terms()}
    try:
        return _from_terms(n + 1, table), 1
    except ValueError:
        return _from_terms(n + 1, {t: 3 * w for t, w in table.items()}), 3


# -- coordinate changes -----------------------------------------------------


class NormalizationError(RuntimeError):
    pass


def _extend_to_unimodular(t: list) -> list:
    """Unimodular integer matrix whose first column is the primitive vector t.

    The column reduction of the row t^T gives t^T U = g e_1^T, so
    t = g V^T e_1 with V = U^-1: V^T with its first column times g = +-1.
    """
    if not any(t):
        raise ValueError("zero vector cannot be a basis column")
    (g,), _, V = column_reduce([t])
    if abs(g) != 1:
        raise ValueError(f"vector {t} is not primitive (gcd {abs(g)})")
    return [[g * col[0], *col[1:]] for col in zip(*V)]


def transform(phi: CubicPolynomial, U: list) -> CubicPolynomial:
    """phi(U y) for an integer matrix U (exact)."""
    return _from_terms(phi.n, _substitute(phi.terms(), U))


def normalize_leading(phi: CubicPolynomial):
    """Coordinate change making the x_1^3 coefficient positive and large.

    Searches primitive vectors t with |t| <= 3 and picks the first, in C
    order, maximizing |C(t)|; requires |C(t)| >= M / (10 n^3).  Returns
    (transformed phi, U) with phi'(y) = phi(U y), U's first column t or
    -t, whichever has C > 0.  Raises NormalizationError when no such
    vector exists within the search height, and BudgetExceeded when its
    7^n candidates exceed the enumeration budget.
    """
    n = phi.n
    h = _NORMALIZE_HEIGHT
    check_budget((2 * h + 1) ** n, what="normalize_leading search")
    terms = phi.cubic_part().terms()
    best_t, best_val = None, 0
    for _, shape, t in _walk([range(-h, h + 1)] * n, _CHUNK, terms):
        val = np.broadcast_to(_eval_terms(terms, t), shape)
        primitive = np.gcd.reduce(np.broadcast_arrays(*t), initial=0) == 1
        size = np.where(primitive, abs(val), 0)
        at = np.unravel_index(size.argmax(), shape)
        if size[at] > abs(best_val):
            best_t = [int(c.ravel()[at[len(shape) - c.ndim]]) for c in t]
            best_val = int(val[at])
    threshold = Fraction(phi.height, 10 * n**3)
    if best_t is None or abs(best_val) < threshold:
        raise NormalizationError(
            f"no primitive vector of height <= {h} with "
            f"|C(t)| >= {threshold}")
    if best_val < 0:
        best_t = [-v for v in best_t]
    U = _extend_to_unimodular(best_t)
    return transform(phi, U), U
