"""Core polynomial representation: symmetrization, evaluation, Hessians,
homogenization, serialization and substitution."""

import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from mpmath import iv

from cubiclab import CubicPolynomial, symmetrize, homogenize
from cubiclab import polynomials
from cubiclab.majorarcs import evaluate_array
from cubiclab.polynomials import (DimensionMismatch, DegreeError,
                                  _eval_terms, _from_terms, _substitute,
                                  _x1_slices)
from conftest import (CUBIC_UNISOLVENT, full_poly_strategy, random_poly,
                      residue_walk)


# -- strategies -------------------------------------------------------------

def poly_strategy(max_n=4, coeff=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        seed = draw(st.integers(0, 2**32 - 1))
        return random_poly(random.Random(seed), n, coeff)
    return build()


def point_for(poly, draw_ints):
    return [draw_ints() for _ in range(poly.n)]


# -- symmetrize -------------------------------------------------------------

class TestSymmetrize:
    def test_cube_monomial_scale_one(self):
        poly, scale = symmetrize(1, {(0, 0, 0): 1})
        assert scale == 1
        assert poly.c(0, 0, 0) == 1

    def test_triple_product_scale_six(self):
        poly, scale = symmetrize(3, {(0, 1, 2): 1})
        assert scale == 6
        assert poly.c(0, 1, 2) == 1
        assert poly.c(2, 1, 0) == 1  # symmetric accessor

    def test_square_times_linear_scale_one(self):
        poly, scale = symmetrize(2, {(0, 0, 1): 3})
        assert scale == 1
        assert poly.c(0, 0, 1) == 1
        assert poly.c(0, 1, 0) == 1

    def test_scale_applies_to_all_parts(self):
        poly, scale = symmetrize(3, {(0, 1, 2): 1}, {(0, 0): 1},
                                 lin=[1, 0, 0], const=5)
        assert scale == 6
        assert poly.quad[(0, 0)] == 6
        assert poly.lin == (6, 0, 0)
        assert poly.const == 30

    def test_degree_rejected(self):
        with pytest.raises(DegreeError):
            symmetrize(2, {(0, 0, 0, 0): 1})
        with pytest.raises(DegreeError):
            symmetrize(2, quad_monomials={(0, 0, 1): 1})

    def test_represents_scaled_input(self):
        # 2 x1 x2 x3 + x1^2 x2 + x2 x3 evaluated against the monomial form
        poly, scale = symmetrize(3, {(0, 1, 2): 2, (0, 0, 1): 1},
                                 {(1, 2): 1})
        rng = random.Random(7)
        for _ in range(20):
            x = [rng.randint(-5, 5) for _ in range(3)]
            direct = 2 * x[0] * x[1] * x[2] + x[0] ** 2 * x[1] + x[1] * x[2]
            assert poly.evaluate(x) == scale * direct


# -- evaluation -------------------------------------------------------------

class TestEvaluate:
    def test_cube_plus_one(self):
        poly, _ = symmetrize(1, {(0, 0, 0): 1}, const=1)
        assert poly.evaluate([2]) == 9

    def test_fermat_point(self, fermat):
        assert fermat.evaluate([3, 4, 5]) == -34

    def test_watson_unit_point(self, watson5):
        # the polynomial is stored at 6x scale; the underlying value is 2
        assert watson5.evaluate([1, 0, 0, 0, 0]) == 6 * 2

    def test_dimension_mismatch(self, fermat):
        with pytest.raises(DimensionMismatch):
            fermat.evaluate([1, 2])

    def test_height_recomputed(self):
        poly = CubicPolynomial(2, cubic={(0, 0, 0): 3}, quad={(0, 1): -7},
                               lin=[1, 0], const=2)
        assert poly.height == 7

    def test_is_form(self, fermat, watson5):
        assert fermat.is_form
        assert not watson5.is_form
        assert watson5.cubic_part().is_form

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_decomposition(self, poly, seed):
        rng = random.Random(seed)
        x = [rng.randint(-6, 6) for _ in range(poly.n)]
        parts = (poly.cubic_part().evaluate(x)
                 + CubicPolynomial(poly.n, quad=poly.quad).evaluate(x)
                 + sum(l * v for l, v in zip(poly.lin, x)) + poly.const)
        assert poly.evaluate(x) == parts


# -- the term table: one evaluator for every arithmetic ----------------------

@st.composite
def float_tables(draw):
    """A (weight, index tuple) table in n <= 4 variables, weights up to
    2^60, constant-only half the time, and n float arrays of mutually
    broadcastable shapes, 0-d among them, holding signed zeros."""
    n = draw(st.integers(1, 4))
    index = (st.just(()) if draw(st.booleans()) else
             st.lists(st.integers(0, n - 1), max_size=3).map(tuple))
    terms = draw(st.lists(st.tuples(st.integers(-2**60, 2**60), index),
                          max_size=6))
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=n, min_dims=0, max_dims=3, max_side=3))
    values = st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0, 1e-3, 2.0**30 + 1])
    return terms, [draw(hnp.arrays(float, shape, elements=values))
                   for shape in shapes.input_shapes]


class TestTermTable:
    def test_constant_first(self, watson5):
        assert watson5.terms()[0] == (watson5.const, ())
        assert CubicPolynomial(1, cubic={(0, 0, 0): 1}).terms() == ((1, (0, 0, 0)),)

    def test_derivative_of_square_times_linear(self):
        # 3 x0^2 x1 stored as c_001 = 1: d/dx0 = 6 x0 x1, d/dx1 = 3 x0^2
        poly, _ = symmetrize(2, {(0, 0, 1): 3})
        assert poly.derivative(0) == [(3, (0, 1)), (3, (1, 0))]
        assert poly.derivative(1) == [(3, (0, 0))]

    @settings(max_examples=80, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_gradient_central_difference(self, poly, seed):
        # phi restricted to the x_m line is a t^3 + b t^2 + c t + d with
        # a = c_mmm, so (phi(x + e_m) - phi(x - e_m)) / 2 = d phi/dx_m + c_mmm
        rng = random.Random(seed)
        x = [rng.randint(-9, 9) for _ in range(poly.n)]
        grad = poly.gradient(x)
        for m in range(poly.n):
            up = [v + (i == m) for i, v in enumerate(x)]
            down = [v - (i == m) for i, v in enumerate(x)]
            diff = poly.evaluate(up) - poly.evaluate(down)
            assert diff % 2 == 0
            assert diff // 2 - poly.c(m, m, m) == grad[m]

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(max_n=3), st.sampled_from([2, 3, 4, 5, 7, 9]))
    def test_residue_grids_match_exact_mod_q(self, poly, q):
        # every point of [0, q)^n once, in C order, with phi and its
        # gradient mod q
        walk = residue_walk(poly, q, 7)
        assert [x for x, _, _ in walk] \
            == list(product(range(q), repeat=poly.n))
        for x, v, grad in walk:
            assert v == poly.evaluate(x) % q
            assert grad == [g % q for g in poly.gradient(x)]

    @settings(max_examples=80, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    @example(CubicPolynomial(1, const=4), 0)  # one value per point
    def test_float_arrays_exact_at_small_integers(self, poly, seed):
        rng = random.Random(seed)
        pts = [[rng.randint(-6, 6) for _ in range(poly.n)] for _ in range(5)]
        X = [np.array([float(p[i]) for p in pts]) for i in range(poly.n)]
        assert evaluate_array(poly, X).tolist() == [poly.evaluate(p) for p in pts]
        grads = [np.broadcast_to(g, (5,)).tolist() for g in poly.gradient(X)]
        assert [list(g) for g in zip(*grads)] == [poly.gradient(p) for p in pts]

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_intervals_contain_exact_value(self, poly, seed):
        # coordinates near 2^40 push the products past 53 bits, so the
        # interval sums round outward and must still enclose the value
        rng = random.Random(seed)
        x = [rng.randint(-2**40, 2**40) for _ in range(poly.n)]
        box = [iv.mpf([v, v]) for v in x]
        assert poly.evaluate(x) in iv.mpf(_eval_terms(poly.terms(), box))
        for m, g in enumerate(poly.gradient(x)):
            assert g in iv.mpf(_eval_terms(poly.derivative(m), box))

    @settings(max_examples=80, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_x1_slices_recompose(self, poly, seed):
        rng = random.Random(seed)
        x = [rng.randint(-7, 7) for _ in range(poly.n)]
        parts = _x1_slices(poly.terms())
        assert len(parts) == 4
        assert sum(x[0] ** d * _eval_terms(part, x[1:])
                   for d, part in enumerate(parts)) == poly.evaluate(x)

    @settings(max_examples=200, deadline=None)
    @given(float_tables())
    # 2^53 + 2 is a float, 2^53 + 1 is not: the constants sum exactly
    @example(([(2**53, ()), (1, ()), (1, ())], [np.zeros(())]))
    def test_out_path_is_the_allocating_path(self, case):
        # bit for bit, signs of zero included, on monomials of fewer axes
        # than the broadcast and on 0-d coordinates
        terms, X = case
        shape = np.broadcast_shapes(*(x.shape for x in X))
        want = np.broadcast_to(np.asarray(_eval_terms(terms, X), float),
                               shape)
        out, work = np.full(shape, np.nan), np.full(shape, np.nan)
        got = _eval_terms(terms, X, out=out, work=work)
        assert got is out
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


# -- variable blocks: the split the slab, the counter and the census share --

class TestVariableBlocks:
    def test_constant_joins_the_first_block(self):
        # the first term with a variable is x1^3, so {x1, x3} is block 1
        phi = CubicPolynomial(3, cubic={(1, 1, 1): 1, (0, 2, 2): 2},
                              lin=(0, 4, 0), const=5)
        assert polynomials._variable_blocks(phi.terms()) == [
            [(5, ()), (1, (1, 1, 1)), (4, (1,))], [(6, (0, 2, 2))]]

    def test_table_with_no_variable_is_one_block(self):
        const = CubicPolynomial(2, const=3)
        assert polynomials._variable_blocks(const.terms()) == [[(3, ())]]
        assert polynomials._variable_blocks([]) == [[]]
        O, A, L, B = polynomials._x1_split([[(3, ())]], 2)
        assert (O, A, L, B) == ([0], [], [1], [(3, ())])

    def test_x1_block_and_the_rest(self):
        # x2 x3^2 and x1^3 + x1 x4: O = {x1, x4}, L = {x2, x3, x5}
        phi = CubicPolynomial(5, cubic={(1, 2, 2): 1, (0, 0, 0): 2},
                              quad={(0, 3): 1}, const=7)
        O, A, L, B = polynomials._x1_split(
            polynomials._variable_blocks(phi.terms()), 5)
        assert (O, L) == ([0, 3], [1, 2, 4])
        assert A == [(2, (0, 0, 0)), (2, (0, 3))]
        assert B == [(7, ()), (3, (1, 2, 2))]

    def test_free_x1(self):
        # no term holds x1: O is x1 alone, A is empty, B is all of phi
        phi = CubicPolynomial(3, cubic={(1, 1, 1): 1, (2, 2, 2): -1},
                              const=2)
        O, A, L, B = polynomials._x1_split(
            polynomials._variable_blocks(phi.terms()), 3)
        assert (O, A, L) == ([0], [], [1, 2])
        assert sorted(B) == sorted(phi.terms())

    def test_connected_table_has_no_rest(self):
        phi, _ = symmetrize(3, {(0, 0, 1): 1, (1, 2, 2): 1})
        O, A, L, B = polynomials._x1_split(
            polynomials._variable_blocks(phi.terms()), 3)
        assert (O, A, L, B) == ([0, 1, 2], list(phi.terms()), [], [])


# -- Hessian and bilinear forms ---------------------------------------------

class TestHessianBilinear:
    def test_single_variable(self):
        poly, _ = symmetrize(1, {(0, 0, 0): 1})
        assert poly.hessian([2]) == [[2]]

    def test_triple_product_unit(self):
        poly, _ = symmetrize(3, {(0, 1, 2): 6})
        assert poly.hessian([1, 0, 0]) == [[0, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_zero_point(self, fermat):
        assert fermat.hessian([0, 0, 0]) == [[0] * 3 for _ in range(3)]

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_hessian_linearity(self, poly, seed):
        rng = random.Random(seed)
        n = poly.n
        x = [rng.randint(-4, 4) for _ in range(n)]
        y = [rng.randint(-4, 4) for _ in range(n)]
        Mx, My = poly.hessian(x), poly.hessian(y)
        Mxy = poly.hessian([a + b for a, b in zip(x, y)])
        assert Mxy == [[Mx[i][j] + My[i][j] for j in range(n)]
                       for i in range(n)]

    @settings(max_examples=100, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_euler_identity(self, poly, seed):
        # 3 C(x) = x . grad C(x), with grad C_i = 3 B_i(x, x) and
        # B(x, x) = M(x) x, M the Hessian
        rng = random.Random(seed)
        C = poly.cubic_part()
        x = [rng.randint(-5, 5) for _ in range(poly.n)]
        B = [sum(m * v for m, v in zip(row, x)) for row in C.hessian(x)]
        grad = C.gradient(x)
        assert grad == [3 * b for b in B]
        assert 3 * C.evaluate(x) == sum(xi * g for xi, g in zip(x, grad))


# -- homogenization ---------------------------------------------------------

class TestHomogenize:
    def test_cube_plus_one(self):
        poly, _ = symmetrize(1, {(0, 0, 0): 1}, const=1)
        F, scale = homogenize(poly)
        assert F.n == 2 and F.is_form
        # x^3 + y^3 (scale 1: no quadratic or linear part to clear)
        assert scale == 1
        assert F.c(0, 0, 0) == 1 and F.c(1, 1, 1) == 1

    def test_cube_plus_linear(self):
        poly, _ = symmetrize(1, {(0, 0, 0): 1}, lin=[3])
        F, scale = homogenize(poly)
        assert scale == 1
        assert F.c(0, 1, 1) == 1  # x y^2 with full-sum multiplicity 3

    def test_scale_three_when_needed(self):
        poly, _ = symmetrize(1, {(0, 0, 0): 1}, lin=[1])
        F, scale = homogenize(poly)
        assert scale == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_specialization_identity(self, watson5, seed):
        F, scale = homogenize(watson5)
        rng = random.Random(seed)
        for _ in range(5):
            x = [rng.randint(-8, 8) for _ in range(5)]
            assert F.evaluate(x + [1]) == scale * watson5.evaluate(x)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), st.integers(0, 2**32 - 1))
    def test_specialization_random(self, poly, seed):
        F, scale = homogenize(poly)
        assert F.is_form
        rng = random.Random(seed)
        x = [rng.randint(-5, 5) for _ in range(poly.n)]
        assert F.evaluate(x + [1]) == scale * poly.evaluate(x)


# -- serialization ----------------------------------------------------------

class TestJson:
    def test_round_trip(self, watson5):
        text = json.dumps(watson5.to_json_dict())
        assert CubicPolynomial.from_json_dict(json.loads(text)) == watson5

    def test_one_based_indices(self, fermat):
        d = fermat.to_json_dict()
        assert [1, 1, 1, 1] in d["cubic"]
        assert [3, 3, 3, -1] in d["cubic"]

    def test_missing_n_rejected(self):
        with pytest.raises(ValueError):
            CubicPolynomial.from_json_dict({"cubic": []})

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            CubicPolynomial.from_json_dict({"n": 2, "cubic": [[1, 1, 1]]})


# -- coordinate changes -----------------------------------------------------

class TestSubstitute:
    def test_transform_identity(self, fermat):
        U = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert _from_terms(3, _substitute(fermat.terms(), U)) == fermat

    @settings(max_examples=60, deadline=None)
    @given(full_poly_strategy(), st.integers(0, 2**32 - 1))
    def test_transform_is_substitution(self, poly, seed):
        # any integer U, singular and non-unimodular ones included
        rng = random.Random(seed)
        n = poly.n
        U = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        out = _from_terms(n, _substitute(poly.terms(), U))
        for y in product(CUBIC_UNISOLVENT, repeat=n):
            x = [sum(U[i][j] * y[j] for j in range(n)) for i in range(n)]
            assert out.evaluate(y) == poly.evaluate(x)
