"""Sum-of-squares certificates via exact Gram matrices.

A certificate is a PSD rational Gram matrix over an explicit monomial basis
reproducing the target polynomial exactly.  Candidates come from two
stages: the closed-form uniform Gram matrix, which costs no solver, and a
numerical SDP solution (needs the optional cvxpy backend), which is only a
hint.  Candidate matrices are rationalized, projected back onto the affine
coefficient constraints (the projection is exact and entrywise), and then
PSD-tested in rational arithmetic.  Anything that fails the exact test is
discarded.
"""
from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np

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
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + Fraction(c)
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
        """Exact term-by-term equality with p (after substitution) plus PSD."""
        target = _poly_to_exponents(p, self.var_ids, self.substitution == "square")
        return self.expanded() == target and self.is_psd()

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


def _uniform_candidates(blocks, groups, target):
    """The one closed-form candidate: every signature's coefficient spread
    evenly over its entries."""
    mats = [[[Fraction(0)] * len(basis) for _ in basis] for basis in blocks]
    for sig, entries in groups.items():
        val = target.get(sig, Fraction(0)) / len(entries)
        for (bi, i, j) in entries:
            mats[bi][i][j] = val
    return [mats]


def _project_onto_constraints(mats, groups, target):
    for sig, entries in groups.items():
        s = sum(mats[bi][i][j] for (bi, i, j) in entries)
        want = target.get(sig, Fraction(0))
        if s != want:
            adj = (want - s) / len(entries)
            for (bi, i, j) in entries:
                mats[bi][i][j] += adj
    return mats


def _solve_sdp(blocks, groups, target) -> Optional[list[np.ndarray]]:
    """Max-min-eigenvalue feasibility SDP; returns float Gram blocks or None."""
    try:
        import cvxpy as cp
    except ImportError:  # pragma: no cover
        return None
    qvars = [cp.Variable((len(b), len(b)), symmetric=True) for b in blocks]
    t = cp.Variable()
    cons = [Q - t * np.eye(Q.shape[0]) >> 0 for Q in qvars]
    for sig, entries in groups.items():
        expr = sum(qvars[bi][i, j] for (bi, i, j) in entries)
        cons.append(expr == float(target.get(sig, Fraction(0))))
    prob = cp.Problem(cp.Maximize(t), cons)
    for solver in ("CLARABEL", "SCS"):
        try:
            prob.solve(solver=solver)
        except Exception:
            continue
        if prob.status in ("optimal", "optimal_inaccurate") and t.value is not None:
            if t.value > -1e-7 and all(Q.value is not None for Q in qvars):
                return [np.array(Q.value) for Q in qvars]
    return None


_DENOMINATORS = (1, 2, 4, 8, 16, 64, 256, 4096, 10**6, 10**9, 10**12)


def _sdp_candidates(blocks, groups, target):
    """The SDP solution symmetrized and rounded at increasing denominators;
    nothing when no backend is installed."""
    num = _solve_sdp(blocks, groups, target)
    for den in _DENOMINATORS if num is not None else ():
        yield [
            [[Fraction(float(m[i][j] + m[j][i]) / 2).limit_denominator(den) for j in range(len(m))]
             for i in range(len(m))]
            for m in num
        ]


def _certify(p: BoundedPoly, square: bool, candidates) -> Optional[GramCertificate]:
    """The first candidate Gram matrix that, projected onto the coefficient
    constraints of p (of p(y^2) when square), is exactly PSD."""
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
    for mats in candidates(blocks, groups, target):
        mats = _project_onto_constraints(mats, groups, target)
        if not all(_is_psd_exact([row[:] for row in m]) for m in mats):
            continue
        cert = GramCertificate(
            var_ids,
            tuple(
                GramBlock(tuple(basis), tuple(tuple(row) for row in m))
                for basis, m in zip(blocks, mats)
            ),
            "square" if square else "none",
        )
        if cert.expanded() == target:
            return cert
    return None


def sos_certificate(p: BoundedPoly) -> Optional[GramCertificate]:
    """Exact SOS certificate for a per-variable-degree-<=2 polynomial over
    the multi-affine monomial basis, from the closed-form uniform Gram
    matrix; None when that matrix is not PSD, which is not a proof of
    non-SOS (see :func:`sdp_certificate`)."""
    return _certify(p, False, _uniform_candidates)


def sos_certificate_orthant(p: BoundedPoly) -> Optional[GramCertificate]:
    """Uniform-Gram SOS certificate for p(y_1^2, ..., y_k^2), which proves
    p >= 0 on the closed positive orthant."""
    return _certify(p, True, _uniform_candidates)


def sdp_backend() -> bool:
    """Whether the optional SDP backend (cvxpy) is importable."""
    return importlib.util.find_spec("cvxpy") is not None


def sdp_certificate(p: BoundedPoly, square: bool) -> Optional[GramCertificate]:
    """Certificate for p (for p(y^2) when square) from a rounded numerical
    SDP solution: the slower stage after the uniform Gram matrix.  None when
    no rounding is exactly PSD or no SDP backend is installed."""
    return _certify(p, square, _sdp_candidates)
