"""Exact polynomial engine: basis polynomials, evaluation, pair
decompositions and Rayleigh differences."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from matroidwb.core import direct_sum
from matroidwb.constructions import k4, graphic, uniform
from matroidwb.poly import BoundedPoly, basis_poly, pair_decomposition, rayleigh_diff

X1, X2, X3, X4 = 1, 2, 4, 8  # variable bit-masks


def textbook_rayleigh_value(f, i, j, point):
    """d_i f * d_j f - d_i d_j f * f at a point, for multi-affine f, whose
    d_i f there is f with x_i = 1 minus f with x_i = 0."""
    def at(xi, xj):
        x = list(point)
        x[i - 1], x[j - 1] = xi, xj
        return f.evaluate(x)
    di, dj = at(1, point[j - 1]) - at(0, point[j - 1]), at(point[i - 1], 1) - at(point[i - 1], 0)
    return di * dj - (at(1, 1) - at(1, 0) - at(0, 1) + at(0, 0)) * f.evaluate(point)


class TestBoundedPoly:
    def test_basis_poly_u12(self):
        f = basis_poly(uniform(1, 2))
        assert f.terms == {(X1, 0): 1, (X2, 0): 1}

    def test_basis_poly_u23(self):
        f = basis_poly(uniform(2, 3))
        assert len(f.terms) == 3 and all(c == 1 for c in f.terms.values())

    def test_evaluate_exact(self):
        f = basis_poly(uniform(2, 4))
        assert f.evaluate([1, 1, 1, 1]) == 6
        v = f.evaluate([Fraction(1, 2)] * 4)
        assert v == Fraction(6, 4)


class TestRayleighDiff:
    def test_u24_pair12(self):
        d = rayleigh_diff(basis_poly(uniform(2, 4)), 1, 2)
        assert d.terms == {(0, X3): 1, (X3 | X4, 0): 1, (0, X4): 1}

    @pytest.mark.parametrize("pair", [(1, 9), (0, 1), (2, 2), (-1, 2), (5, 1)])
    def test_pair_outside_the_variables_is_an_error(self, pair):
        with pytest.raises(ValueError, match=r"two distinct variables of 1\.\.4"):
            rayleigh_diff(basis_poly(uniform(2, 4)), *pair)

    def test_single_basis_zero(self):
        f = BoundedPoly(2, {(X1 | X2, 0): 1})
        assert rayleigh_diff(f, 1, 2).is_zero()

    def test_matches_textbook_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            M = uniform(k, n)
            f = basis_poly(M)
            i, j = rng.sample(range(1, n + 1), 2)
            red = rayleigh_diff(f, i, j)
            for _ in range(3):
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                assert red.evaluate(point) == textbook_rayleigh_value(f, i, j, point)
            bij = (1 << (i - 1)) | (1 << (j - 1))
            for (lin, sq) in red.terms:
                assert not ((lin | sq) & bij)
            assert red == rayleigh_diff(f, j, i)

    def test_coloop_identities(self):
        f = basis_poly(uniform(2, 4))
        g = basis_poly(direct_sum(uniform(2, 4), uniform(1, 1)))  # coloop 5
        # x_5^2 times the difference without the coloop
        lifted = {(lin, sq | 16): c for (lin, sq), c in rayleigh_diff(f, 1, 2).terms.items()}
        assert rayleigh_diff(g, 1, 2).terms == lifted
        assert rayleigh_diff(g, 5, 1).is_zero()

    def test_all_ones_counts_link(self):
        M = graphic(k4())
        f = basis_poly(M)
        N = len(M.basis_masks)
        for (e, fe) in combinations(range(1, 7), 2):
            Ne = sum(1 for B in M.basis_masks if B & (1 << (e - 1)))
            Nf = sum(1 for B in M.basis_masks if B & (1 << (fe - 1)))
            Nef = sum(
                1
                for B in M.basis_masks
                if B & (1 << (e - 1)) and B & (1 << (fe - 1))
            )
            d = rayleigh_diff(f, e, fe)
            assert d.evaluate([1] * 6) == Ne * Nf - N * Nef

    def test_scaling_squares(self):
        f = basis_poly(uniform(2, 4))
        d = rayleigh_diff(f, 1, 2)
        g = BoundedPoly(4, {k: c * Fraction(3, 5) for k, c in f.terms.items()})
        assert rayleigh_diff(g, 1, 2).terms == {k: c * Fraction(9, 25) for k, c in d.terms.items()}

    @pytest.mark.parametrize("pair", [(1, 9), (2, 2), (0, 1)])
    def test_pair_decomposition_refuses_a_pair_outside_the_variables(self, pair):
        with pytest.raises(ValueError, match=r"two distinct variables of 1\.\.4"):
            pair_decomposition(basis_poly(uniform(2, 4)), *pair)

    def test_pair_decomposition_reassembles(self):
        rng = random.Random(8)
        for _ in range(50):
            M = uniform(rng.randint(1, 5), 5)
            f = basis_poly(M)
            i, j = rng.sample(range(1, 6), 2)
            # x_i x_j f_ij + x_i f_i + x_j f_j + f_0, whose four parts share no term
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            parts = zip((bi | bj, bi, bj, 0), pair_decomposition(f, i, j))
            terms = {(lin | b, sq): c for b, p in parts for (lin, sq), c in p.terms.items()}
            assert terms == f.terms
