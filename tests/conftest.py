"""Shared corpus fixtures and helpers.

The four corpus polynomials are small enough for exact exhaustive checks
yet exercise every structural branch: a diagonal form, an inhomogeneous
5-variable polynomial with no small solutions, a diagonal form with a
nontrivial discriminant, and a form whose Hessian degenerates mod 3.
"""

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from cubiclab import CubicPolynomial, symmetrize
from cubiclab.local import _residues


def make_fermat() -> CubicPolynomial:
    """x^3 + y^3 - z^3."""
    poly, scale = symmetrize(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): -1})
    assert scale == 1
    return poly


def make_watson5() -> CubicPolynomial:
    """Six times Watson's 5-variable polynomial: everywhere locally soluble
    but with no integral zero.  The positive integer scaling (forced by the
    symmetric-tensor storage) preserves the zero set and every congruence
    condition."""
    poly, scale = symmetrize(
        5,
        {(0, 0, 0): 2, (0, 1, 1): 2, (0, 2, 2): 2, (0, 3, 3): 2, (0, 4, 4): 2},
        {(0, 0): -1, (1, 1): -1, (2, 2): -1, (3, 3): -1, (4, 4): -1,
         (0, 1): 1},
        lin=[2, 0, 0, 0, 0],
        const=-1)
    assert scale == 6
    return poly


def make_selmer4() -> CubicPolynomial:
    """x^3 + 2 y^3 + 4 z^3 - w^3."""
    poly, scale = symmetrize(
        4, {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 4, (3, 3, 3): -1})
    assert scale == 1
    return poly


def make_triple_product() -> CubicPolynomial:
    """6 x1 x2 x3 - x4^3."""
    poly, scale = symmetrize(4, {(0, 1, 2): 6, (3, 3, 3): -1})
    assert scale == 1
    return poly


def make_diag5m2() -> CubicPolynomial:
    """x1^3 + ... + x5^3 - 2: a sparse polynomial whose homogenised form
    has only 5 + 1 nonzero columns in its 6 x 21 coefficient matrix."""
    poly, scale = symmetrize(5, {(i, i, i): 1 for i in range(5)}, const=-2)
    assert scale == 1
    return poly


def make_wall14() -> CubicPolynomial:
    """2(x1^2 - 2 x2^2 + 3 x3^2 - 6 x4^2) + 18 sum_{i<=j<=4} x_i x_j y_ij + 1
    with ten auxiliary variables y_ij: odd everywhere, so insoluble mod 2,
    and sparse (10 + 4 nonzero cubic entries in 14 variables)."""
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    cub = {(i, j, 4 + idx): 18 for idx, (i, j) in enumerate(pairs)}
    quad = {(0, 0): 2, (1, 1): -4, (2, 2): 6, (3, 3): -12}
    poly, scale = symmetrize(14, cub, quad, const=1)
    assert scale == 1
    return poly


@pytest.fixture(scope="session")
def diag5m2():
    return make_diag5m2()


@pytest.fixture(scope="session")
def wall14():
    return make_wall14()


@pytest.fixture(scope="session")
def fermat():
    return make_fermat()


@pytest.fixture(scope="session")
def watson5():
    return make_watson5()


@pytest.fixture(scope="session")
def selmer4():
    return make_selmer4()


@pytest.fixture(scope="session")
def triple_product():
    return make_triple_product()


@pytest.fixture(scope="session")
def corpus(fermat, watson5, selmer4, triple_product):
    return {"fermat": fermat, "watson5": watson5, "selmer4": selmer4,
            "triple_product": triple_product}


def random_poly(rng: random.Random, n: int, coeff_bound: int = 5,
                force_degenerate_leading: bool = False) -> CubicPolynomial:
    """Random dense cubic polynomial with symmetric-tensor storage."""
    cubic = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    cubic[(i, j, k)] = c
    quad = {}
    for i in range(n):
        for j in range(i, n):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                quad[(i, j)] = c
    lin = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
    const = rng.randint(-coeff_bound, coeff_bound)
    if force_degenerate_leading:
        cubic.pop((0, 0, 0), None)
        if rng.random() < 0.5:
            # degenerate all the way down to linear/constant in x1
            for key in [k for k in cubic if 0 in k]:
                cubic.pop(key)
            quad.pop((0, 0), None)
    return CubicPolynomial(n, cubic=cubic, quad=quad, lin=lin, const=const)


# a cubic in n variables that vanishes on {-1, 0, 1, 2}^n is identically 0
CUBIC_UNISOLVENT = range(-1, 3)


def full_poly_strategy(max_n=4, coeff_bound=4):
    """random_poly in n <= max_n variables with all four parts, cubic,
    quadratic, linear and constant, nonzero."""
    return st.builds(
        lambda n, seed: random_poly(random.Random(seed), n, coeff_bound),
        st.integers(1, max_n), st.integers(0, 2**32 - 1)).filter(
        lambda phi: phi.cubic and phi.quad and any(phi.lin) and phi.const)


def residue_walk(phi: CubicPolynomial, q: int, points: int) -> list:
    """(x, phi(x) mod q, [d phi / d x_i (x) mod q]) for every point that
    local._residues yields with phi's table and its gradient tables, in the
    order it yields them; each chunk's flat index is the number of points
    before it."""
    tables = [phi.terms(), *map(phi.derivative, range(phi.n))]
    out = []
    for first, shape, x, values in _residues(tables, phi.n, q, points):
        assert first == len(out)
        coords = [np.broadcast_to(c, shape).ravel().tolist() for c in x]
        v, *grad = [t.ravel().tolist() for t in values]
        out += [(x, w, list(g))
                for x, w, g in zip(zip(*coords), v, zip(*grad))]
    return out
