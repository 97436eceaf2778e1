"""Sum-of-squares certificates via exact Gram matrices: the second of the
three nonnegativity tiers in :mod:`matroidwb.analysis`.

A certificate is a PSD rational Gram matrix over an explicit monomial basis
reproducing the target polynomial exactly.  The one candidate is the
closed-form uniform Gram matrix, which spreads each coefficient of the
target evenly over the entries whose monomial pair produces it: it matches
the coefficients by construction and costs no solver.  It is checked once,
by :meth:`GramCertificate.verify` (coefficients, symmetry and an LDL^T PSD
test in rational arithmetic), and discarded if that fails.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .core import elements
from .poly import BoundedPoly

ExpVec = tuple[int, ...]


def _poly_to_exponents(p: BoundedPoly, var_ids: tuple[int, ...], double: bool) -> dict[ExpVec, Fraction]:
    """p as a map from exponent tuples over var_ids; double=True substitutes
    x_i = y_i^2 (doubling all exponents)."""
    idx = {v: k for k, v in enumerate(var_ids)}
    out: dict[ExpVec, Fraction] = {}
    for (lin, sq), c in p.terms.items():
        e = [0] * len(var_ids)
        for v in elements(lin):
            e[idx[v]] = 1
        for v in elements(sq):
            e[idx[v]] = 2
        if double:
            e = [2 * x for x in e]
        key = tuple(e)
        out[key] = out[key] + c if key in out else Fraction(c)
    return {k: v for k, v in out.items() if v != 0}


@dataclass(frozen=True)
class GramBlock:
    basis: tuple[ExpVec, ...]
    matrix: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class GramCertificate:
    """Exact SOS witness: sum over blocks of m^T Q m equals the target."""

    var_ids: tuple[int, ...]
    blocks: tuple[GramBlock, ...]
    substitution: str  # "none" for plain SOS, "square" for x_i = y_i^2

    def expanded(self) -> dict[ExpVec, Fraction]:
        out: dict[ExpVec, Fraction] = {}
        for blk in self.blocks:
            basis = blk.basis
            for a in range(len(basis)):
                for b in range(len(basis)):
                    q = blk.matrix[a][b]
                    if q == 0:
                        continue
                    sig = tuple(x + y for x, y in zip(basis[a], basis[b]))
                    out[sig] = out.get(sig, Fraction(0)) + q
        return {k: v for k, v in out.items() if v != 0}

    def verify(self, p: BoundedPoly) -> bool:
        """PSD plus exact term-by-term equality with p (after substitution).
        PSD is tested first: a uniform Gram matrix that fails, fails there."""
        target = _poly_to_exponents(p, self.var_ids, self.substitution == "square")
        return self.is_psd() and self.expanded() == target

    def is_psd(self) -> bool:
        """Symmetric and PSD; the LDL^T test alone reads a non-symmetric
        matrix as its lower triangle, whose quadratic form differs."""
        return all(
            all(b.matrix[i][j] == b.matrix[j][i] for i in range(len(b.matrix)) for j in range(i))
            and _is_psd_exact([list(row) for row in b.matrix])
            for b in self.blocks
        )


def _is_psd_exact(A: list[list[Fraction]]) -> bool:
    """Pivoted LDL^T over the rationals; exact semidefiniteness test."""
    m = len(A)
    active = list(range(m))
    while active:
        if any(A[i][i] < 0 for i in active):
            return False
        pivots = [i for i in active if A[i][i] > 0]
        if not pivots:
            return all(A[i][j] == 0 for i in active for j in active)
        piv = pivots[0]
        d = A[piv][piv]
        active.remove(piv)
        col = {i: A[i][piv] for i in active if A[i][piv] != 0}
        for i, ci in col.items():
            f = ci / d
            row_p = A[piv]
            row_i = A[i]
            for j in active:
                if row_p[j] != 0:
                    row_i[j] -= f * row_p[j]
    return True


# ---------------------------------------------------------------------------
# basis construction


def _multiaffine_basis(target: dict[ExpVec, Fraction], k: int) -> list[ExpVec]:
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


def _even_basis(target: dict[ExpVec, Fraction], k: int) -> list[list[ExpVec]]:
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


def _signature_groups(blocks: list[list[ExpVec]]):
    """Map each achievable exponent signature to its (block, i, j) entries."""
    groups: dict[ExpVec, list[tuple[int, int, int]]] = {}
    for bi, basis in enumerate(blocks):
        for i, mi in enumerate(basis):
            for j, mj in enumerate(basis):
                sig = tuple(x + y for x, y in zip(mi, mj))
                groups.setdefault(sig, []).append((bi, i, j))
    return groups


def _certify(p: BoundedPoly, square: bool) -> Optional[GramCertificate]:
    """The uniform Gram certificate for p (for p(y^2) when square), or None
    when it does not verify exactly."""
    var_ids = tuple(sorted(p.active_vars()))
    k = len(var_ids)
    if k > 10:
        raise ValueError("SOS search capped at 10 active variables")
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
    groups = _signature_groups(blocks)
    if any(sig not in groups for sig in target):
        return None
    # every signature's coefficient spread evenly over its entries
    mats = [[[Fraction(0)] * len(basis) for _ in basis] for basis in blocks]
    for sig, entries in groups.items():
        val = target.get(sig, Fraction(0)) / len(entries)
        for (bi, i, j) in entries:
            mats[bi][i][j] = val
    cert = GramCertificate(
        var_ids,
        tuple(
            GramBlock(tuple(basis), tuple(tuple(row) for row in m))
            for basis, m in zip(blocks, mats)
        ),
        "square" if square else "none",
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
