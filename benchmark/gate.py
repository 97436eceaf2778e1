"""Soundness gate: re-derive what each decided check claims, without the
library's polynomial code.

Rayleigh differences are rebuilt here from the basis masks alone, as
f_i f_j - f_ij f_0 where f_S sums the bases meeting {i, j} in exactly S.
Every Fails witness is re-evaluated exactly on that rebuilt difference (for
HPP on the full ground set, with the pair the witness was lifted to); every
CoefficientNonneg Holds is checked coefficient by coefficient and every
SOSGram Holds with ``cert.verify`` against the rebuilt difference.
Combinatorial outcomes (negative correlation, paving, positroid orders)
are recounted directly.  A check returns ``None`` when the claim
re-verifies and a one-line reason when it does not.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

Masks = Sequence[int]


def _bits(mask: int) -> list[int]:
    return [e for e in range(1, mask.bit_length() + 1) if mask >> (e - 1) & 1]


def _pair_parts(masks: Masks, i: int, j: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Bases split by their meet with {i, j}, with i and j removed:
    (both, i only, j only, neither)."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    parts: tuple[list[int], ...] = ([], [], [], [])
    for B in masks:
        k = (0 if B & bi else 2) + (0 if B & bj else 1)
        parts[k].append(B & ~(bi | bj))
    return parts  # type: ignore[return-value]


def rayleigh_terms(masks: Masks, i: int, j: int) -> dict[tuple[int, int], int]:
    """Expanded f_i f_j - f_ij f_0 as {(linear mask, square mask): coefficient};
    x^A x^B = x^(A xor B) (x^2)^(A and B) for multi-affine monomials."""
    both, only_i, only_j, neither = _pair_parts(masks, i, j)
    out: Counter = Counter()
    for A in only_i:
        for B in only_j:
            out[(A ^ B, A & B)] += 1
    for A in both:
        for B in neither:
            out[(A ^ B, A & B)] -= 1
    return {k: c for k, c in out.items() if c}


def rayleigh_value(masks: Masks, i: int, j: int, point: Sequence[Fraction]) -> Fraction:
    """f_i f_j - f_ij f_0 at a point (1-indexed elements), exactly."""

    def total(part: list[int]) -> Fraction:
        s = Fraction(0)
        for B in part:
            term = Fraction(1)
            for e in _bits(B):
                term *= point[e - 1]
            s += term
        return s

    both, only_i, only_j, neither = (total(p) for p in _pair_parts(masks, i, j))
    return only_i * only_j - both * neither


def restrict(masks: Masks, comp: Sequence[int]) -> list[int]:
    """Bases of the restriction to comp, relabelled 1..len(comp) in order."""
    cmask = sum(1 << (e - 1) for e in comp)
    r = max((B & cmask).bit_count() for B in masks)
    out = set()
    for B in masks:
        if (B & cmask).bit_count() == r:
            out.add(sum(1 << k for k, e in enumerate(comp) if B >> (e - 1) & 1))
    return sorted(out)


def neg_corr_delta(masks: Masks, e: int, f: int) -> int:
    """N_e N_f - N N_ef for the uniform measure on bases."""
    be, bf = 1 << (e - 1), 1 << (f - 1)
    ne = sum(1 for B in masks if B & be)
    nf = sum(1 for B in masks if B & bf)
    nef = sum(1 for B in masks if B & be and B & bf)
    return ne * nf - len(masks) * nef


def is_paving(masks: Masks, n: int) -> bool:
    """Every (r-1)-subset lies in a basis."""
    r = masks[0].bit_count()
    if r == 0:
        return True
    for combo in combinations(range(n), r - 1):
        S = sum(1 << k for k in combo)
        if not any(B & S == S for B in masks):
            return False
    return True


def is_base_sorting(masks: Masks, order: Sequence[int]) -> bool:
    """Merging any two bases in this order and splitting odd/even positions
    gives two bases."""
    pos = {e: k for k, e in enumerate(order)}
    bset = set(masks)
    lists = [sorted(_bits(B), key=pos.__getitem__) for B in masks]
    for a, b in combinations(lists, 2):
        merged = sorted(a + b, key=pos.__getitem__)
        odd = sum(1 << (e - 1) for e in merged[0::2])
        even = sum(1 << (e - 1) for e in merged[1::2])
        if odd not in bset or even not in bset:
            return False
    return True


# ---------------------------------------------------------------------------
# claims of the library's verdict objects


def _diff_poly(n: int, terms):
    from matroidwb.poly import BoundedPoly

    return BoundedPoly(n, terms)


def _certified(kind: str, cert_data, n: int, terms, all_reals: bool) -> Optional[str]:
    from matroidwb.verdicts import COEFF_NONNEG, SOS_GRAM

    if kind == COEFF_NONNEG:
        if any(c < 0 for c in terms.values()):
            return "CoefficientNonneg with a negative coefficient"
        if all_reals and any(lin for lin, _ in terms):
            return "CoefficientNonneg on all reals with an odd-degree term"
        return None
    if kind == SOS_GRAM:
        if not cert_data.verify(_diff_poly(n, terms)):
            return "SOSGram certificate does not verify"
        return None
    return f"unexpected certificate kind {kind}"


def _witness(masks: Masks, pair, witness) -> Optional[str]:
    if witness is None or witness.point is None or pair is None:
        return "Fails without a point witness"
    value = rayleigh_value(masks, pair[0], pair[1], witness.point)
    if value >= 0:
        return f"witness point gives {value} >= 0"
    if value != witness.value:
        return f"witness value {witness.value} != recomputed {value}"
    return None


def check_rayleigh(M, result) -> Optional[str]:
    """The census `rayleigh` check: wagner_pair, then rayleigh_verdict."""
    if result is None:  # no pair lies in a common basis
        return None if all(B.bit_count() <= 1 for B in M.basis_masks) else "pairless Holds with r > 1"
    pair = result.diagnostics.get("pair")
    if result.outcome == "Fails":
        return _witness(M.basis_masks, pair, result.witness)
    if result.outcome == "Holds":
        terms = rayleigh_terms(M.basis_masks, *pair)
        return _certified(result.certificate.kind, result.certificate.data, M.n, terms, False)
    return None


def check_hpp(M, result) -> Optional[str]:
    if result.outcome == "Fails":
        return _witness(M.basis_masks, result.diagnostics.get("pair"), result.witness)
    if result.outcome == "Holds":
        for comp, (a, b), cert in result.certificate.data:
            sub = restrict(M.basis_masks, comp)
            terms = rayleigh_terms(sub, comp.index(a) + 1, comp.index(b) + 1)
            reason = _certified(cert.kind, cert.data, len(comp), terms, True)
            if reason:
                return f"component {comp}: {reason}"
    return None


def check_negcorr(M, result) -> Optional[str]:
    masks = M.basis_masks
    if result.outcome == "Holds":
        for e, f in combinations(range(1, M.n + 1), 2):
            if neg_corr_delta(masks, e, f) < 0:
                return f"negcorr Holds but pair {(e, f)} is positively correlated"
        return None
    e, f = result.diagnostics["pair"]
    delta = neg_corr_delta(masks, e, f)
    if delta >= 0 or delta != result.witness.value:
        return f"negcorr witness {result.witness.value} != recount {delta}"
    return None


def check_balanced(M, result) -> Optional[str]:
    """A balanced Holds is the check itself (every minor); only a Fails is
    re-derived, on the minor its diagnostics name."""
    if result.outcome != "Fails":
        return None
    import matroidwb

    d = result.diagnostics
    minor = M
    if d["contracted"]:
        minor = matroidwb.contract(minor, d["contracted"])
    if d["deleted_after"]:
        minor = matroidwb.delete(minor, d["deleted_after"])
    return check_negcorr(minor, result)


def check_paving(M, result) -> Optional[str]:
    paving, sparse = result
    full = (1 << M.n) - 1
    want = is_paving(M.basis_masks, M.n)
    want_sparse = want and is_paving([full ^ B for B in M.basis_masks], M.n)
    if (paving, sparse) != (want, want_sparse):
        return f"paving {(paving, sparse)} != recount {(want, want_sparse)}"
    return None


def check_positroid(M, order) -> Optional[str]:
    if order is not None and not is_base_sorting(M.basis_masks, order):
        return f"order {order} is not base-sorting"
    return None


GATES = {
    "hpp": check_hpp,
    "rayleigh": check_rayleigh,
    "negcorr": check_negcorr,
    "balanced": check_balanced,
    "paving": check_paving,
    "positroid": check_positroid,
}
