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

Monomial signatures are packed exponent vectors, 3 bits per variable: with
every exponent at most 4, the signature of a product is the sum of two ints.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, lcm
from typing import Optional

from .core import elements
from .errors import SizeCapExceeded
from .poly import BoundedPoly, Rational

ExpVec = tuple[int, ...]


def _poly_to_exponents(p: BoundedPoly, var_ids: tuple[int, ...], double: bool) -> dict[ExpVec, Rational]:
    """p as a map from exponent tuples over var_ids to its coefficients, ints
    kept as ints; double=True substitutes x_i = y_i^2 (doubling all
    exponents).  Distinct terms give distinct tuples."""
    idx = {v: k for k, v in enumerate(var_ids)}
    one, two = (2, 4) if double else (1, 2)
    out: dict[ExpVec, Rational] = {}
    for (lin, sq), c in p.terms.items():
        e = [0] * len(var_ids)
        for v in elements(lin):
            e[idx[v]] = one
        for v in elements(sq):
            e[idx[v]] = two
        out[tuple(e)] = c
    return out


def _pack(e: ExpVec) -> int:
    return sum(x << (3 * k) for k, x in enumerate(e))


@dataclass(frozen=True)
class GramBlock:
    basis: tuple[ExpVec, ...]
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GramCertificate:
    """Exact SOS witness: sum over blocks of m^T Q m equals scale times the
    target, where each Q is an integer matrix and scale > 0."""

    var_ids: tuple[int, ...]
    blocks: tuple[GramBlock, ...]
    substitution: str  # "none" for plain SOS, "square" for x_i = y_i^2
    scale: int

    def verify(self, p: BoundedPoly) -> bool:
        """Integer entries over scale > 0; square, symmetric blocks over
        exponent vectors in 0..2 of var_ids' length; for every signature, its
        entries summing to scale times p's coefficient (after substitution);
        and every block PSD by :func:`_is_psd_integer`.  False for any other
        input, including a p with variables outside var_ids."""
        k, scale = len(self.var_ids), self.scale
        if type(scale) is not int or scale <= 0 or not p.active_vars() <= set(self.var_ids):
            return False
        sums: dict[int, int] = {}
        for blk in self.blocks:
            basis, mat = blk.basis, blk.matrix
            m = len(basis)
            if len(mat) != m or any(len(row) != m or any(type(q) is not int for q in row) for row in mat):
                return False
            # exponents in 0..2 keep every packed sum below a carry
            if any(len(e) != k or any(type(x) is not int or not 0 <= x <= 2 for x in e) for e in basis):
                return False
            if any(mat[i][j] != mat[j][i] for i in range(m) for j in range(i)):
                return False
            packed = [_pack(e) for e in basis]
            for a, row in zip(packed, mat):
                for b, q in zip(packed, row):
                    if q:
                        sums[a + b] = sums.get(a + b, 0) + q
        target = _poly_to_exponents(p, self.var_ids, self.substitution == "square")
        want = {_pack(e): c for e, c in target.items()}
        if any(v and s not in want for s, v in sums.items()):
            return False
        if any(sums.get(s, 0) * c.denominator != scale * c.numerator for s, c in want.items()):
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
# basis construction


def _multiaffine_basis(target: dict[ExpVec, Rational], k: int) -> list[ExpVec]:
    """Candidate square factors for a per-variable-degree-2 target: 0/1
    exponent vectors.  A variable may appear only if the target contains its
    square somewhere; degrees are filtered by (half the) target degrees."""
    allowed = [i for i in range(k) if any(e[i] == 2 for e in target)]
    degs = {sum(e) for e in target}
    if not degs:
        return []
    out = []
    for size in range((min(degs) + 1) // 2, max(degs) // 2 + 1):
        for combo in combinations(allowed, size):
            e = [0] * k
            for i in combo:
                e[i] = 1
            out.append(tuple(e))
    return out


def _even_basis(target: dict[ExpVec, Rational], k: int) -> list[list[ExpVec]]:
    """Candidate factors for an even target (all exponents even, max 4),
    grouped into parity classes: for even polynomials a parity-pure SOS
    exists, so the Gram may be block-diagonal over classes."""
    if not target:
        return []
    maxdeg = max(sum(e) for e in target)
    mindeg = min(sum(e) for e in target)
    # a factor exponent of d on variable i squares to 2d, which must occur
    cap = [max(e[i] for e in target) // 2 for i in range(k)]
    ranges = [range(0, cap[i] + 1) for i in range(k)]
    lo, hi = (mindeg + 1) // 2, maxdeg // 2
    groups: dict[tuple[int, ...], list[ExpVec]] = {}
    for e in product(*ranges):
        if lo <= sum(e) <= hi:
            parity = tuple(x % 2 for x in e)
            groups.setdefault(parity, []).append(tuple(e))
    return [groups[key] for key in sorted(groups)]


# ---------------------------------------------------------------------------
# Gram search


def _certify(p: BoundedPoly, square: bool) -> Optional[GramCertificate]:
    """The uniform Gram certificate for p (for p(y^2) when square), or None
    when it does not verify exactly."""
    var_ids = tuple(sorted(p.active_vars()))
    k = len(var_ids)
    if k > 10:
        raise SizeCapExceeded("SOS search capped at 10 active variables")
    target = _poly_to_exponents(p, var_ids, double=square)
    if square:
        blocks = _even_basis(target, k)
    else:
        # a variable occurring only linearly cannot appear in any square
        # factor, so a target mentioning it linearly-only is never an SOS
        for i in range(k):
            if any(e[i] for e in target) and not any(e[i] == 2 for e in target):
                return None
        blocks = [_multiaffine_basis(target, k)]
    blocks = [b for b in blocks if b]
    packed = [[_pack(e) for e in basis] for basis in blocks]
    entries = Counter(a + b for pk in packed for a in pk for b in pk)
    want = {_pack(e): c for e, c in target.items()}
    if any(sig not in entries for sig in want):
        return None
    # every signature's coefficient spread evenly over its entries, all over
    # the least common denominator of the shares
    dens = {s: c.denominator * entries[s] for s, c in want.items()}
    scale = lcm(*(den // gcd(want[s].numerator, den) for s, den in dens.items()))
    share = {s: c.numerator * scale // dens[s] for s, c in want.items()}
    cert = GramCertificate(
        var_ids,
        tuple(
            GramBlock(tuple(basis), tuple(tuple(share.get(a + b, 0) for b in pk) for a in pk))
            for basis, pk in zip(blocks, packed)
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
