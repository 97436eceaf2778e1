"""Exact Gram certificates: the uniform Gram matrix, one integer matrix over
its scale and over monomial masks Q in the polynomial's own term-key format,
its exact verification, and a property test that a certified polynomial is
nonnegative at random signed rational points."""
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroidwb.constructions import uniform
from matroidwb.errors import SizeCapExceeded
from matroidwb.poly import BoundedPoly, basis_poly, rayleigh_diff
from matroidwb.sos import GramCertificate, _is_psd_integer, sos_certificate

# (x1 - x2)^2 = x1^2 - 2 x1 x2 + x2^2
SQUARE = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): -2, (0, 0b10): 1})


def _tampered(cert: GramCertificate, i: int, j: int) -> GramCertificate:
    rows = [list(row) for row in cert.matrix]
    rows[i][j] += 1
    return replace(cert, matrix=tuple(tuple(row) for row in rows))


class TestUniformGram:
    def test_square_of_linear_form(self):
        cert = sos_certificate(SQUARE)
        assert cert is not None and cert.verify(SQUARE)

    def test_rayleigh_difference_of_uniform_matroid(self):
        diff = rayleigh_diff(basis_poly(uniform(2, 4)), 1, 2)
        assert sos_certificate(diff).verify(diff)

    def test_zero_polynomial_has_empty_certificate(self):
        cert = sos_certificate(BoundedPoly(3))
        assert (cert.basis, cert.matrix) == ((), ()) and cert.verify(BoundedPoly(3))

    def test_linear_only_variable_is_never_sos(self):
        # x1 x2^2 + x2^2: x1 occurs only linearly
        p = BoundedPoly(2, {(0b01, 0b10): 1, (0, 0b10): 1})
        assert sos_certificate(p) is None

    def test_negative_polynomial_has_no_certificate(self):
        assert sos_certificate(BoundedPoly(1, {(0, 0): -1})) is None

    def test_variable_cap(self):
        p = BoundedPoly(11, {(0, (1 << 11) - 1): 1})
        with pytest.raises(SizeCapExceeded) as info:
            sos_certificate(p)
        assert isinstance(info.value, ValueError)

    def test_matrix_is_integer_over_the_scale(self):
        # the uniform Gram of (x1 - x2)^2 + x1 x2 = x1^2 - x1 x2 + x2^2
        # spreads -1 over two entries: [[2, -1], [-1, 2]] over scale 2
        p = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): -1, (0, 0b10): 1})
        cert = sos_certificate(p)
        assert cert.scale == 2 and cert.matrix == ((2, -1), (-1, 2))


class TestVerify:
    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_tampered_entry(self, i, j):
        cert = sos_certificate(SQUARE)
        assert cert.verify(SQUARE)
        assert not _tampered(cert, i, j).verify(SQUARE)

    def test_rejects_non_symmetric_matrix(self):
        # [[1, 4], [0, 1]] expands to x1^2 + 4 x1 x2 + x2^2, which is -2 at
        # (1, -1); its coefficients match, so only the symmetry test refuses it
        p = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): 4, (0, 0b10): 1})
        cert = GramCertificate((0b01, 0b10), ((1, 4), (0, 1)), 1)
        assert p.evaluate([1, -1]) < 0
        assert not cert.verify(p)

    def test_psd_exact(self):
        assert _is_psd_integer([[1, -1], [-1, 1]])
        assert not _is_psd_integer([[1, 2], [2, 1]])
        assert not _is_psd_integer([[0, 1], [1, 0]])
        assert not _is_psd_integer([[-1]])
        assert _is_psd_integer([[0, 0], [0, 0]])


class TestVerifyRefuses:
    """Each malformed or foreign certificate is refused with False."""

    def test_a_polynomial_in_other_variables(self):
        x3_squared = BoundedPoly(3, {(0, 0b100): 1})
        assert not sos_certificate(SQUARE).verify(x3_squared)

    def test_a_polynomial_missing_a_term_of_the_expansion(self):
        # the certificate's -2 x1 x2 has no term of x1^2 + x2^2 to match
        sum_of_squares = BoundedPoly(2, {(0, 0b01): 1, (0, 0b10): 1})
        assert not sos_certificate(SQUARE).verify(sum_of_squares)

    @pytest.mark.parametrize("entry", [True, 1.0, "1", None])
    def test_a_bool_or_non_int_entry(self, entry):
        cert = sos_certificate(SQUARE)
        matrix = cert.matrix
        bad = ((entry,) + matrix[0][1:],) + matrix[1:]
        assert matrix[0][0] == 1
        assert not replace(cert, matrix=bad).verify(SQUARE)

    @pytest.mark.parametrize("scale", [0, -1, True, 1.0])
    def test_a_scale_that_is_not_a_positive_int(self, scale):
        cert = sos_certificate(SQUARE)
        assert cert.scale == 1
        assert not replace(cert, scale=scale).verify(SQUARE)

    def test_a_scaled_certificate_with_its_scale_changed(self):
        cert = sos_certificate(SQUARE)
        doubled = tuple(tuple(2 * q for q in row) for row in cert.matrix)
        assert replace(cert, matrix=doubled, scale=2).verify(SQUARE)
        assert not replace(cert, matrix=doubled).verify(SQUARE)

    @pytest.mark.parametrize(
        "matrix", [((1, -1), (-1,)), ((1, -1),), ((1, -1, 0), (-1, 1, 0)), ((1,), (-1,))]
    )
    def test_a_ragged_or_non_square_block(self, matrix):
        cert = sos_certificate(SQUARE)
        assert not replace(cert, matrix=matrix).verify(SQUARE)

    @pytest.mark.parametrize("mask", [-1, True, 1.0, "1", None, (0, 0b100), [0b100]])
    def test_a_negative_bool_or_non_int_mask(self, mask):
        # the monomial x^mask only adds a zero row and column, so only the
        # mask test refuses it; a tuple or a list is not a mask either
        cert = sos_certificate(SQUARE)
        basis, matrix = cert.basis, cert.matrix
        assert basis == (0b01, 0b10)
        padded = tuple(row + (0,) for row in matrix) + ((0,) * (len(basis) + 1),)
        assert replace(cert, basis=basis + (0b100,), matrix=padded).verify(SQUARE)
        assert not replace(cert, basis=basis + (mask,), matrix=padded).verify(SQUARE)

    @pytest.mark.parametrize("basis", [(0b01,), (0b01, 0b10, 0b100)])
    def test_a_basis_vector_of_another_length(self, basis):
        # the basis must have one mask per row and column of the matrix
        cert = sos_certificate(SQUARE)
        assert cert.basis == (0b01, 0b10)
        assert not replace(cert, basis=basis).verify(SQUARE)


@st.composite
def bounded_polys(draw):
    """A polynomial in up to 3 variables with per-variable degree <= 2: a few
    random terms plus the square of a random combination of multi-affine
    monomials, so that some draws have a uniform Gram certificate."""
    n = draw(st.integers(1, 3))
    mask = st.integers(0, (1 << n) - 1)
    keys = st.tuples(mask, mask).map(lambda k: (k[0] & ~k[1], k[1]))
    terms = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=4))
    form = draw(st.dictionaries(mask, st.integers(-2, 2), max_size=3))
    for a, ca in form.items():
        for b, cb in form.items():
            terms[a ^ b, a & b] = terms.get((a ^ b, a & b), 0) + ca * cb
    return BoundedPoly(n, terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(bounded_polys(), st.lists(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3,
                                          max_size=3), min_size=4, max_size=4))
@example(SQUARE, [[Fraction(1), Fraction(-1), Fraction(0)]] * 4)
def test_a_certified_polynomial_is_nonnegative_at_signed_rational_points(p, points):
    cert = sos_certificate(p)
    if cert is not None:
        assert cert.verify(p)
        assert all(p.evaluate(point[:p.n]) >= 0 for point in points)
