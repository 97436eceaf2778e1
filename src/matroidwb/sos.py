"""Sum-of-squares certificates via exact Gram matrices: the second of the
three nonnegativity tiers in :mod:`matroidwb.analysis`.

A certificate is a PSD Gram matrix over an explicit basis of multi-affine
monomials reproducing the target polynomial exactly.  Its entries are
Python integers over one positive common denominator, ``scale``.  The one
candidate is the closed-form uniform Gram matrix, which spreads each
coefficient of the target evenly over the entries whose monomial pair
produces it: it matches the coefficients by construction and costs no
solver.  It is checked once, by :meth:`GramCertificate.verify`
(coefficients, symmetry and a PSD test by pivoted integer elimination), and
discarded if that fails.

A basis entry is a mask Q standing for the monomial x^Q, so the product of
x^Qa and x^Qb has the term key ``(Qa ^ Qb, Qa & Qb)`` in
:class:`~matroidwb.poly.BoundedPoly`'s own format.  A sum of squares is
nonnegative on all of real space, so one certificate serves both domains of
:mod:`matroidwb.analysis`: all reals and the positive orthant.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .core import popcount
from .errors import SizeCapExceeded
from .poly import BoundedPoly, TermKey

# the most active variables a Gram certificate is sought over; the Gram tier
# of :mod:`matroidwb.analysis` is skipped above it
MAX_GRAM_VARS = 10


@dataclass(frozen=True)
class GramCertificate:
    """Exact SOS witness: m^T G m equals scale times the target, where m is
    the vector of monomials x^Q for Q in ``basis``, G is the integer
    ``matrix`` over it and scale > 0."""

    basis: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    scale: int

    def verify(self, p: BoundedPoly) -> bool:
        """Integer entries over an int scale > 0; a square, symmetric matrix
        over a basis of non-negative int masks; entries summing to zero
        outside p's term keys and to scale times p's coefficient on each of
        them; and the matrix PSD by :func:`_is_psd_integer`.  False for any
        other input."""
        basis, mat, scale = self.basis, self.matrix, self.scale
        if type(scale) is not int or scale <= 0:
            return False
        m = len(basis)
        if len(mat) != m or any(len(row) != m or any(type(q) is not int for q in row) for row in mat):
            return False
        if any(type(Q) is not int or Q < 0 for Q in basis):
            return False
        if any(mat[i][j] != mat[j][i] for i in range(m) for j in range(i)):
            return False
        sums: dict[TermKey, int] = {}
        for a, row in zip(basis, mat):
            for b, q in zip(basis, row):
                if q:
                    key = (a ^ b, a & b)
                    sums[key] = sums.get(key, 0) + q
        if any(v and key not in p.terms for key, v in sums.items()):
            return False
        if any(sums.get(key, 0) * c.denominator != scale * c.numerator for key, c in p.terms.items()):
            return False
        return _is_psd_integer(mat)


def _is_psd_integer(matrix) -> bool:
    """PSD test of a symmetric integer matrix by pivoted elimination.  With
    pivot d > 0, each row whose pivot-column entry c is nonzero becomes
    d*row - c*pivot_row, a positive multiple of its Schur-complement row,
    and is divided by its content.  So every held row is a positive
    multiple of the Schur complement's: same signs, same zeros, no inexact
    division.  Rows are sparse dicts over the uneliminated columns."""
    rows = [{j: q for j, q in enumerate(row) if q} for row in matrix]
    active = set(range(len(rows)))
    while active:
        if any(rows[i].get(i, 0) < 0 for i in active):
            return False
        pivots = [i for i in active if rows[i].get(i, 0) > 0]
        if not pivots:
            return not any(rows[i] for i in active)
        piv = min(pivots, key=lambda i: len(rows[i]))
        active.remove(piv)
        rp = rows[piv]
        d = rp.pop(piv)
        # the zero pattern stays symmetric: rp's columns are the rows to change
        for i in rp:
            ri = rows[i]
            c = ri.pop(piv)
            for j in ri:
                ri[j] *= d
            for j, v in rp.items():
                x = ri.get(j, 0) - c * v
                if x:
                    ri[j] = x
                else:
                    ri.pop(j, None)
            g = gcd(*ri.values())
            if g > 1:
                for j in ri:
                    ri[j] //= g
    return True


# ---------------------------------------------------------------------------
# Gram search


def _submasks(mask: int):
    sub = 0
    while sub != mask:
        yield sub
        sub = (sub - mask) & mask
    yield mask


def _basis(p: BoundedPoly) -> list[int]:
    """The candidate monomials x^Q for p.  The square of x^Q is x^(2Q), so
    Q uses only variables that p has squared, and 2|Q| lies within p's
    degrees."""
    if not p.terms:
        return []
    active = squared = 0
    for lin, sq in p.terms:
        active |= lin | sq
        squared |= sq
    if popcount(active) > MAX_GRAM_VARS:
        raise SizeCapExceeded(f"SOS search capped at {MAX_GRAM_VARS} active variables")
    degrees = [popcount(lin) + 2 * popcount(sq) for lin, sq in p.terms]
    lo, hi = min(degrees), max(degrees)
    return [Q for Q in _submasks(squared) if lo <= 2 * popcount(Q) <= hi]


def sos_certificate(p: BoundedPoly) -> Optional[GramCertificate]:
    """Exact SOS certificate for a per-variable-degree-<=2 polynomial over
    the multi-affine monomial basis, from the closed-form uniform Gram
    matrix.  A returned certificate has passed :meth:`GramCertificate.verify`
    against p; None when that matrix is not PSD, which is not a proof of
    non-SOS."""
    basis = _basis(p)
    entries = Counter((a ^ b, a & b) for a in basis for b in basis)
    terms = p.terms
    if any(key not in entries for key in terms):
        return None
    # every term's coefficient spread evenly over its entries, all over the
    # least common denominator of the shares
    dens = {key: c.denominator * entries[key] for key, c in terms.items()}
    scale = lcm(*(den // gcd(terms[key].numerator, den) for key, den in dens.items()))
    share = {key: c.numerator * scale // dens[key] for key, c in terms.items()}
    matrix = tuple(tuple(share.get((a ^ b, a & b), 0) for b in basis) for a in basis)
    cert = GramCertificate(tuple(basis), matrix, scale)
    return cert if cert.verify(p) else None


def sos_certificate_orthant(p: BoundedPoly) -> Optional[GramCertificate]:
    """:func:`sos_certificate` under the name that the benchmark's tracer
    lists; no library module calls it.  A sum of squares is nonnegative
    everywhere, so it proves p >= 0 on the positive orthant too."""
    return sos_certificate(p)
