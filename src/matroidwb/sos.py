"""Sum-of-squares certificates via exact Gram matrices: the second of the
three nonnegativity tiers in :mod:`matroidwb.analysis`.

A certificate is a PSD Gram matrix over an explicit monomial basis
reproducing the target polynomial exactly.  Its entries are Python integers
over one positive common denominator, ``scale``.  The one candidate is the
closed-form uniform Gram matrix, which spreads each coefficient of the
target evenly over the entries whose monomial pair produces it: it matches
the coefficients by construction and costs no solver.  It is checked once,
by :meth:`GramCertificate.verify` (coefficients, symmetry and a PSD test by
pivoted integer elimination), and discarded if that fails.

A factor of the basis is a pair of disjoint masks ``(P, Q)`` standing for
y^P * y^(2Q) under the substitution x_i = y_i^2, that is x^Q when P = 0.
The factors of one block share their P, so the product of (P, Qa) and
(P, Qb) is x^P * x^Qa * x^Qb, whose term key is
``(P | (Qa ^ Qb), Qa & Qb)`` in :class:`~matroidwb.poly.BoundedPoly`'s own
format.  A block with P != 0 has odd powers of y in its factors, so it
proves nonnegativity only where every x_i is a square: only an orthant
(``"square"``) certificate may have one.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .core import popcount
from .errors import SizeCapExceeded
from .poly import BoundedPoly, TermKey

Factor = tuple[int, int]  # (P, Q): y^P * y^(2Q), disjoint masks

# the most active variables a Gram certificate is sought over; the Gram tier
# of :mod:`matroidwb.analysis` is skipped above it
MAX_GRAM_VARS = 10


@dataclass(frozen=True)
class GramBlock:
    basis: tuple[Factor, ...]
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GramCertificate:
    """Exact SOS witness: sum over blocks of m^T G m equals scale times the
    target, where each G is an integer matrix over factors (P, Q) with one P
    per block (see the module docstring) and scale > 0."""

    blocks: tuple[GramBlock, ...]
    substitution: str  # "none" for plain SOS (every P = 0), "square" for x_i = y_i^2
    scale: int

    def verify(self, p: BoundedPoly) -> bool:
        """Integer entries over an int scale > 0; square, symmetric blocks
        whose factors are pairs of disjoint non-negative int masks with one P
        per block, and P = 0 unless the substitution is ``"square"``; entries
        summing to zero outside p's term keys and to scale times p's
        coefficient on each of them; and every block PSD by
        :func:`_is_psd_integer`.  False for any other input."""
        scale, square = self.scale, self.substitution == "square"
        if type(scale) is not int or scale <= 0:
            return False
        sums: dict[TermKey, int] = {}
        for blk in self.blocks:
            basis, mat = blk.basis, blk.matrix
            m = len(basis)
            if len(mat) != m or any(len(row) != m or any(type(q) is not int for q in row) for row in mat):
                return False
            if any(type(f) is not tuple or len(f) != 2 or any(type(x) is not int or x < 0 for x in f)
                   or f[0] & f[1] or f[0] != basis[0][0] for f in basis):
                return False
            if basis and basis[0][0] and not square:
                return False
            if any(mat[i][j] != mat[j][i] for i in range(m) for j in range(i)):
                return False
            for (P, a), row in zip(basis, mat):
                for (_, b), q in zip(basis, row):
                    if q:
                        key = (P | (a ^ b), a & b)
                        sums[key] = sums.get(key, 0) + q
        if any(v and key not in p.terms for key, v in sums.items()):
            return False
        if any(sums.get(key, 0) * c.denominator != scale * c.numerator for key, c in p.terms.items()):
            return False
        return all(_is_psd_integer(b.matrix) for b in self.blocks)


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


def _blocks(p: BoundedPoly, square: bool) -> list[list[Factor]]:
    """The nonempty blocks of candidate factors for p, one per P: P = 0 alone
    when plain, every P within p's variables when square.  A factor's Q
    squares into an x_i^2, so it uses only variables that p has squared, and
    its product with itself, of x-degree |P| + 2|Q|, lies within p's
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
    blocks = ([(P, Q) for Q in _submasks(squared & ~P) if lo <= popcount(P) + 2 * popcount(Q) <= hi]
              for P in (_submasks(active) if square else (0,)))
    return [block for block in blocks if block]


def _certify(p: BoundedPoly, square: bool) -> Optional[GramCertificate]:
    """The uniform Gram certificate for p (for p(y^2) when square), or None
    when it does not verify exactly."""
    blocks = _blocks(p, square)
    entries = Counter((P | (a ^ b), a & b) for block in blocks for P, a in block for _, b in block)
    terms = p.terms
    if any(key not in entries for key in terms):
        return None
    # every term's coefficient spread evenly over its entries, all over the
    # least common denominator of the shares
    dens = {key: c.denominator * entries[key] for key, c in terms.items()}
    scale = lcm(*(den // gcd(terms[key].numerator, den) for key, den in dens.items()))
    share = {key: c.numerator * scale // dens[key] for key, c in terms.items()}
    cert = GramCertificate(
        tuple(
            GramBlock(tuple(block), tuple(tuple(share.get((P | (a ^ b), a & b), 0) for _, b in block)
                                          for P, a in block))
            for block in blocks
        ),
        "square" if square else "none",
        scale,
    )
    return cert if cert.verify(p) else None


def sos_certificate(p: BoundedPoly) -> Optional[GramCertificate]:
    """Exact SOS certificate for a per-variable-degree-<=2 polynomial over
    the multi-affine monomial basis, from the closed-form uniform Gram
    matrix.  A returned certificate has passed :meth:`GramCertificate.verify`
    against p; None when that matrix is not PSD, which is not a proof of
    non-SOS."""
    return _certify(p, False)


def sos_certificate_orthant(p: BoundedPoly) -> Optional[GramCertificate]:
    """Uniform-Gram SOS certificate for p(y_1^2, ..., y_k^2), which proves
    p >= 0 on the closed positive orthant.  A returned certificate has passed
    :meth:`GramCertificate.verify` against p."""
    return _certify(p, True)
