"""Exact Gram certificates: the uniform Gram matrix and its exact
verification."""
from dataclasses import replace
from fractions import Fraction

import pytest

from matroidwb import sos
from matroidwb.constructions import uniform
from matroidwb.poly import BoundedPoly, basis_poly, rayleigh_diff
from matroidwb.sos import (
    GramBlock,
    GramCertificate,
    _is_psd_exact,
    sos_certificate,
    sos_certificate_orthant,
)

# (x1 - x2)^2 = x1^2 - 2 x1 x2 + x2^2
SQUARE = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): -2, (0, 0b10): 1})


def _tampered(cert: GramCertificate, i: int, j: int) -> GramCertificate:
    blk = cert.blocks[0]
    rows = [list(row) for row in blk.matrix]
    rows[i][j] += Fraction(1, 3)
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
        cert = sos_certificate(BoundedPoly.zero(3))
        assert cert.blocks == () and cert.verify(BoundedPoly.zero(3))

    def test_linear_only_variable_is_never_sos(self):
        # x1 x2^2 + x2^2: x1 occurs only linearly
        p = BoundedPoly(2, {(0b01, 0b10): 1, (0, 0b10): 1})
        assert sos_certificate(p) is None

    def test_negative_polynomial_has_no_certificate(self):
        assert sos_certificate(BoundedPoly.constant(1, -1)) is None

    def test_variable_cap(self):
        p = BoundedPoly(11, {(0, (1 << 11) - 1): 1})
        with pytest.raises(ValueError):
            sos_certificate(p)


class TestVerify:
    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_tampered_entry(self, i, j):
        cert = sos_certificate(SQUARE)
        assert cert.verify(SQUARE)
        assert not _tampered(cert, i, j).verify(SQUARE)

    def test_rejects_non_symmetric_matrix(self):
        # [[1, 4], [0, 1]] expands to x1^2 + 4 x1 x2 + x2^2, which is -2 at
        # (1, -1); its lower triangle alone would pass the LDL^T test
        p = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): 4, (0, 0b10): 1})
        F = Fraction
        blk = GramBlock(((1, 0), (0, 1)), ((F(1), F(4)), (F(0), F(1))))
        cert = GramCertificate((1, 2), (blk,), "none")
        assert cert.expanded() == sos._poly_to_exponents(p, (1, 2), False)
        assert p.evaluate([1, -1]) < 0
        assert not cert.verify(p)

    def test_psd_exact(self):
        F = Fraction
        assert _is_psd_exact([[F(1), F(-1)], [F(-1), F(1)]])
        assert not _is_psd_exact([[F(1), F(2)], [F(2), F(1)]])
        assert not _is_psd_exact([[F(0), F(1)], [F(1), F(0)]])
