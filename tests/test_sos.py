"""Exact Gram certificates: the uniform Gram matrix, an integer matrix over
its scale and over factors (P, Q) in the polynomial's own term-key format,
and its exact verification."""
from dataclasses import replace

import pytest

from matroidwb.constructions import uniform
from matroidwb.errors import SizeCapExceeded
from matroidwb.poly import BoundedPoly, basis_poly, rayleigh_diff
from matroidwb.sos import (
    GramBlock,
    GramCertificate,
    _is_psd_integer,
    sos_certificate,
    sos_certificate_orthant,
)

# (x1 - x2)^2 = x1^2 - 2 x1 x2 + x2^2
SQUARE = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): -2, (0, 0b10): 1})


def _tampered(cert: GramCertificate, i: int, j: int) -> GramCertificate:
    blk = cert.blocks[0]
    rows = [list(row) for row in blk.matrix]
    rows[i][j] += 1
    new = replace(blk, matrix=tuple(tuple(row) for row in rows))
    return replace(cert, blocks=(new,) + cert.blocks[1:])


class TestUniformGram:
    def test_square_of_linear_form(self):
        cert = sos_certificate(SQUARE)
        assert cert is not None and cert.verify(SQUARE)

    def test_rayleigh_difference_of_uniform_matroid(self):
        diff = rayleigh_diff(basis_poly(uniform(2, 4)), 1, 2)
        assert sos_certificate(diff).verify(diff)
        assert sos_certificate_orthant(diff).verify(diff)

    def test_zero_polynomial_has_empty_certificate(self):
        cert = sos_certificate(BoundedPoly(3))
        assert cert.blocks == () and cert.verify(BoundedPoly(3))

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
        assert cert.scale == 2 and cert.blocks[0].matrix == ((2, -1), (-1, 2))


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
        blk = GramBlock(((0, 0b01), (0, 0b10)), ((1, 4), (0, 1)))
        cert = GramCertificate((blk,), "none", 1)
        assert p.evaluate([1, -1]) < 0
        assert not cert.verify(p)

    def test_psd_exact(self):
        assert _is_psd_integer([[1, -1], [-1, 1]])
        assert not _is_psd_integer([[1, 2], [2, 1]])
        assert not _is_psd_integer([[0, 1], [1, 0]])
        assert not _is_psd_integer([[-1]])
        assert _is_psd_integer([[0, 0], [0, 0]])


def _with_block(cert: GramCertificate, basis, matrix) -> GramCertificate:
    return replace(cert, blocks=(GramBlock(basis, matrix),))


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
        basis, matrix = cert.blocks[0].basis, cert.blocks[0].matrix
        bad = ((entry,) + matrix[0][1:],) + matrix[1:]
        assert matrix[0][0] == 1
        assert not _with_block(cert, basis, bad).verify(SQUARE)

    @pytest.mark.parametrize("scale", [0, -1, True, 1.0])
    def test_a_scale_that_is_not_a_positive_int(self, scale):
        cert = sos_certificate(SQUARE)
        assert cert.scale == 1
        assert not replace(cert, scale=scale).verify(SQUARE)

    def test_a_scaled_certificate_with_its_scale_changed(self):
        cert = sos_certificate(SQUARE)
        doubled = tuple(tuple(2 * q for q in row) for row in cert.blocks[0].matrix)
        assert replace(_with_block(cert, cert.blocks[0].basis, doubled), scale=2).verify(SQUARE)
        assert not _with_block(cert, cert.blocks[0].basis, doubled).verify(SQUARE)

    @pytest.mark.parametrize(
        "matrix", [((1, -1), (-1,)), ((1, -1),), ((1, -1, 0), (-1, 1, 0)), ((1,), (-1,))]
    )
    def test_a_ragged_or_non_square_block(self, matrix):
        cert = sos_certificate(SQUARE)
        assert not _with_block(cert, cert.blocks[0].basis, matrix).verify(SQUARE)

    @pytest.mark.parametrize(
        "basis", [((0, 0b01), (0,)), ((0, 0b01), (0, 0b10, 0)), ((0, 0b01), [0, 0b10]), ((0, 0b01), 0b10)])
    def test_a_basis_vector_of_another_length(self, basis):
        # every factor must be a tuple (P, Q): not one of length 1 or 3, a
        # list or a bare int
        cert = sos_certificate(SQUARE)
        assert cert.blocks[0].basis == ((0, 0b01), (0, 0b10))
        assert not _with_block(cert, basis, cert.blocks[0].matrix).verify(SQUARE)

    def test_a_basis_exponent_outside_0_to_2(self):
        # (P, Q) with P & Q != 0 is y^3, outside every factor's 0..2.  The
        # factor (1, 1) only adds a zero row and column to the orthant
        # certificate of x1 = (y1)^2, so only the mask test refuses it
        x1 = BoundedPoly(1, {(1, 0): 1})
        cert = sos_certificate_orthant(x1)
        assert cert.blocks == (GramBlock(((1, 0),), ((1,),)),) and cert.verify(x1)
        assert not _with_block(cert, ((1, 0), (1, 1)), ((1, 0), (0, 0))).verify(x1)

    @pytest.mark.parametrize("mask", [-1, True, 1.0, "1", None])
    def test_a_negative_bool_or_non_int_mask(self, mask):
        # the factor (0, mask) only adds a zero row and column, so only the
        # mask test refuses it
        cert = sos_certificate(SQUARE)
        basis, matrix = cert.blocks[0].basis, cert.blocks[0].matrix
        padded = tuple(row + (0,) for row in matrix) + ((0,) * (len(basis) + 1),)
        assert _with_block(cert, basis + ((0, 0b100),), padded).verify(SQUARE)
        assert not _with_block(cert, basis + ((0, mask),), padded).verify(SQUARE)

    def test_a_block_with_two_different_p(self):
        # rows (1, y1) with P taken row by row would sum to 2 + 2 x1, which
        # is negative at x1 = -2: one P per block is what makes it a product
        p = BoundedPoly(1, {(0, 0): 2, (1, 0): 2})
        mixed = GramCertificate((GramBlock(((0, 0), (1, 0)), ((1, 1), (1, 1))),), "none", 1)
        assert p.evaluate([-2]) < 0
        assert not mixed.verify(p)
        assert not replace(mixed, substitution="square").verify(p)

    def test_a_nonzero_p_in_a_plain_certificate(self):
        # the orthant certificate of x1 proves nothing on all reals
        x1 = BoundedPoly(1, {(1, 0): 1})
        cert = sos_certificate_orthant(x1)
        assert cert.verify(x1) and sos_certificate(x1) is None
        assert not replace(cert, substitution="none").verify(x1)
