"""Tiered decision procedures for the negative-dependence hierarchy.

Each check returns a Verdict: Holds with a certificate, Fails with an
exactly re-verified witness, or Inconclusive with diagnostics.  A polynomial
nonnegativity question runs through three tiers, cheapest first:
nonnegative coefficients, the closed-form uniform Gram certificate (exactly
verified by :mod:`matroidwb.sos` before it is returned), and the float
counterexample search, which samples at random.  A sum of squares is
nonnegative everywhere, so the Gram tier is the same on all reals and on
the positive orthant.  The uniform Gram precedes the search because it is
cheaper and an exact certificate rules out every witness.  Floats are used
only to hunt for candidates; every candidate is rounded to rationals and
re-evaluated exactly before it is believed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from . import verdicts
from .core import (
    Matroid,
    _minor_masks,
    _pair_degrees,
    _squeeze,
    connected_components,
    mask_of,
    restriction,
)
from .poly import BoundedPoly, basis_poly, rayleigh_diff
from .ratlp import solve_eq_nonneg
from .errors import SizeCapExceeded, WitnessNotVerified
from .sos import MAX_GRAM_VARS, sos_certificate
from .verdicts import (
    COEFF_NONNEG,
    SINGLE_PAIR_WAGNER,
    SOS_GRAM,
    ALL_ONES_EXACT,
    Verdict,
    Witness,
)

POSITIVE_ORTHANT = "PositiveOrthant"
ALL_REALS = "AllReals"

# float-stage acceptance tolerance; exact re-verification makes this a
# search heuristic only, never a soundness parameter
SEARCH_TOL = 1e-9

# rows per _batch_eval call in the random phase: each row is evaluated on
# its own, so the values do not depend on it, while its (rows x terms)
# temporaries stay in cache and off the peak memory
EVAL_ROWS = 256


# ---------------------------------------------------------------------------
# counterexample search


@dataclass
class SearchResult:
    witness: Optional[Witness]
    evals: int
    best: float


def _term_arrays(p: BoundedPoly, var_ids: Sequence[int]):
    """p's float coefficients and its exponents over var_ids, read from the
    (linear, squared) masks of its term keys: one row per term, in order."""
    coeffs = np.array([float(c) for c in p.terms.values()])
    keys = np.array(list(p.terms), dtype=np.int64)
    bits = np.left_shift(1, np.array(var_ids, dtype=np.int64) - 1)
    return coeffs, (keys[:, :1] & bits > 0) + 2 * (keys[:, 1:] & bits > 0)


def _batch_eval(coeffs, exps, X):
    """Evaluate at rows of X (signs handled exactly, magnitudes in logs)."""
    logmag = np.log(np.maximum(np.abs(X), 1e-300))
    mono = np.exp(logmag @ exps.T)
    neg = X < 0
    if neg.any():  # never on the positive orthant
        parity = (neg.astype(np.int64) @ (exps % 2).T) % 2
        mono *= 1 - 2 * parity
    return mono @ coeffs


def _exactify(
    p: BoundedPoly, var_ids: Sequence[int], x: np.ndarray, positive: bool
) -> Optional[Witness]:
    """Round a float candidate to rationals and re-verify exactly."""
    for den in (1, 2, 3, 4, 6, 8, 12, 16, 10**2, 10**4, 10**6, 10**9):
        qs = [Fraction(float(xv)).limit_denominator(den) for xv in x]
        if positive and min(qs) <= 0:
            continue
        point = [Fraction(1)] * p.n
        for v, q in zip(var_ids, qs):
            point[v - 1] = q
        value = p.evaluate(point)
        if value < 0:
            return Witness(value=Fraction(value), point=tuple(point))
    return None


def counterexample_search(
    p: BoundedPoly,
    domain: str = POSITIVE_ORTHANT,
    budget: int = 100_000,
    seed: int = 0,
) -> SearchResult:
    """Random multi-scale sampling for a point with p < 0; returns the first
    witness that survives exact re-verification, plus search diagnostics.

    Batches of 2,048 points x = exp(u), u normal at the scales 0.5, 1, 2, 4
    in turn (random signs on all reals), are drawn until max(budget * 7 //
    10, 2048) points are, the last batch cut at budget: 14,336 points at
    budget 20,000.  Each new best point below -SEARCH_TOL is rounded to
    rationals and evaluated exactly."""
    if domain not in (POSITIVE_ORTHANT, ALL_REALS):
        raise ValueError(f"unknown domain {domain!r}")
    var_ids = tuple(sorted(p.active_vars()))
    if p.is_zero() or not var_ids:
        point = tuple([Fraction(1)] * p.n)
        value = p.evaluate(point)
        witness = Witness(value=Fraction(value), point=point) if value < 0 else None
        return SearchResult(witness, 1, float(value))
    coeffs, exps = _term_arrays(p, var_ids)
    rng = np.random.default_rng(seed)
    k = len(var_ids)
    positive = domain == POSITIVE_ORTHANT

    evals, best = 0, np.inf
    batch, scales = 2048, (0.5, 1.0, 2.0, 4.0)
    draws = min(max(budget * 7 // 10, batch), budget)
    while evals < draws:
        size = min(batch, budget - evals)
        # only a last batch is cut, so evals // batch counts the batches drawn
        X = np.exp(rng.normal(0.0, scales[evals // batch % len(scales)], size=(size, k)))
        if not positive:
            X = X * rng.choice((-1.0, 1.0), size=(size, k))
        vals = np.concatenate(
            [_batch_eval(coeffs, exps, X[i:i + EVAL_ROWS]) for i in range(0, size, EVAL_ROWS)])
        evals += size
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            w = _exactify(p, var_ids, X[i], positive) if best < -SEARCH_TOL else None
            if w is not None:
                return SearchResult(w, evals, best)
    return SearchResult(None, evals, best)


# ---------------------------------------------------------------------------
# negative correlation and balance


def _neg_corr(n: int, masks: Sequence[int], pairs: Optional[Iterable[tuple[int, int]]], **diag):
    """The pair degrees d of the bases masks, and the Fails of the first pair (e, f)
    of pairs (None: all, lexicographically) with N_e * N_f < N * N_ef or None."""
    d, N = _pair_degrees(n, masks), len(masks)
    for e, f in pairs or combinations(range(1, n + 1), 2):
        delta = d[e][e] * d[f][f] - N * d[e][f]
        if delta < 0:
            witness = Witness(value=Fraction(delta), point=tuple([Fraction(1)] * n))
            return d, verdicts.fails(witness, pair=(e, f), **diag)
    return d, None


def neg_corr(M: Matroid, e: int, f: int) -> Verdict:
    """Exact check of N_e * N_f >= N * N_ef (uniform measure on bases)."""
    if not (1 <= e <= M.n and 1 <= f <= M.n) or e == f:
        raise ValueError(f"need two distinct elements of 1..{M.n}, got {e} and {f}")
    d, v = _neg_corr(M.n, M.basis_masks, [(e, f)], property="negcorr")
    counts = {"N": len(M.basis_masks), "Ne": d[e][e], "Nf": d[f][f], "Nef": d[e][f]}
    return v or verdicts.holds(ALL_ONES_EXACT, counts, property="negcorr", pair=(e, f))


def neg_corr_all_pairs(M: Matroid) -> Verdict:
    """Negative correlation of every pair; a Fails names the first failing pair."""
    _, v = _neg_corr(M.n, M.basis_masks, None, property="negcorr")
    return v or verdicts.holds(ALL_ONES_EXACT, property="negcorr")


def _minors(M: Matroid):
    """Each distinct minor with >= 2 elements once, as (n, sorted basis masks, I, D):
    M/I, I independent, then deleted by D in M/I's labels, D coindependent in
    M/I; I, D by size, then lex.  Every minor is such an M/I\\D (Oxley,
    Matroid Theory, Lemma 3.3.2), so the set of minors is that of all D.
    Each M/I\\D is built from its parent M/I\\(D - max D), kept one size of
    D at a time, as the parent's bases avoiding max D (label max D - (|D| - 1)
    there) with that bit squeezed out.  The filter is the coindependence
    test: it keeps no basis exactly when max D is a coloop of a kept parent,
    and then D and every superset of it are skipped.  Extending each kept
    parent, in order, by each last > max D walks the kept D in lex order."""
    seen = set()
    indep = M._indep_table()
    for kc in range(0, M.r + 1):
        for I in combinations(range(1, M.n + 1), kc):
            imask = mask_of(I)
            if not indep[imask]:
                continue
            n1 = M.n - kc
            layer = [((), _minor_masks(M.basis_masks, imask, max))]
            for kd in range(0, n1 - 1):
                if kd:
                    parents, layer = layer, []
                    for D0, parent in parents:
                        for last in range(D0[-1] + 1 if D0 else 1, n1 + 1):
                            bit = 1 << (last - kd)
                            kept = [B for B in parent if not B & bit]
                            if kept:
                                layer.append((D0 + (last,), tuple(_squeeze(kept, bit))))
                for D, masks in layer:
                    minor = (n1 - kd, masks)
                    if minor not in seen:
                        seen.add(minor)
                        yield (*minor, I, D)


def is_balanced(M: Matroid) -> Verdict:
    """Negative correlation for M and each distinct minor, counted on its basis
    masks (isomorphic minors are not merged: the count is cheaper than the
    search); a Holds records in ``minors`` how many minors it checked.  The
    minors come from :func:`_minors`, which deletes one element from a parent
    minor for each D and walks only the D coindependent in M/I.  The Fails
    report (``contracted``, ``deleted_after``, pair, witness) is still the
    first failing (I, D) of the walk over all D: if D is not coindependent,
    some e in D is a coloop of P = M/I\\(D - e), and P has the pair counts of
    M/I\\D plus pairs at e whose N_e * N_f - N * N_ef is 0, so P fails on
    the same two elements and (I, D - e) comes earlier."""
    if M.n > 10:
        raise SizeCapExceeded("balance check capped at n = 10")
    minors = 0
    for minors, (n, masks, I, D) in enumerate(_minors(M), 1):
        _, v = _neg_corr(n, masks, None, property="balanced")
        if v:
            v.diagnostics.update(contracted=list(I), deleted_after=list(D))
            return v
    return verdicts.holds(ALL_ONES_EXACT, property="balanced", minors=minors)


# ---------------------------------------------------------------------------
# Rayleigh tiers


def wagner_pair(M: Matroid) -> Optional[tuple[int, int]]:
    """The lexicographically smallest pair lying together in some basis."""
    for i, j in combinations(range(1, M.n + 1), 2):
        bij = (1 << (i - 1)) | (1 << (j - 1))
        if any(B & bij == bij for B in M.basis_masks):
            return (i, j)
    return None


def _verdict_for_diff(
    diff: BoundedPoly, domain: str, budget: int, seed: int, *, diag: dict
) -> Verdict:
    """Nonnegativity of diff on the domain by the tiers of the module
    docstring: "coeff", "gram", then "search".  ``tiers_run`` lists the
    tiers that ran, in order; an Inconclusive's ``reason`` says why the Gram
    tier gave no proof: "gram_not_psd" (it ran) or "gram_var_cap" (more than
    MAX_GRAM_VARS active variables)."""
    tiers = ["coeff"]
    if all(c >= 0 for c in diff.terms.values()):
        if domain == POSITIVE_ORTHANT or all(lin == 0 for (lin, _) in diff.terms):
            return verdicts.holds(COEFF_NONNEG, tiers_run=tiers, **diag)
    if len(diff.active_vars()) <= MAX_GRAM_VARS:
        tiers.append("gram")
        cert = sos_certificate(diff)
        if cert is not None:
            return verdicts.holds(SOS_GRAM, cert, tiers_run=tiers, **diag)
    tiers.append("search")
    sr = counterexample_search(diff, domain, budget=budget, seed=seed)
    if sr.witness is not None:
        return verdicts.fails(sr.witness, tiers_run=tiers, evals=sr.evals, best=sr.best, **diag)
    return verdicts.inconclusive(
        tiers_run=tiers, best=sr.best, evals=sr.evals,
        reason="gram_not_psd" if "gram" in tiers else "gram_var_cap", **diag,
    )


def _all_pairs(f: BoundedPoly, check, **diag) -> Verdict:
    """check(pair) for every pair: the first verdict that does not hold, or a
    Holds keeping each pair's certificate."""
    per_pair = []
    for pair in combinations(range(1, f.n + 1), 2):
        v = check(pair)
        if not v.holds:
            return v
        per_pair.append((pair, v.certificate))
    kind = COEFF_NONNEG if all(c.kind == COEFF_NONNEG for _, c in per_pair) else SOS_GRAM
    return verdicts.holds(kind, per_pair, pair=None, **diag)


def _rayleigh(
    f: BoundedPoly, c, pair, budget: int, seed: int, diag: dict, domain: str = POSITIVE_ORTHANT
) -> Verdict:
    """The c-weighted Rayleigh inequality on the domain (c = 1: the Rayleigh
    inequality; c = 1 on all reals: the strong Rayleigh inequality), for one
    pair or (when pair is None) for all pairs; diag names the property."""
    if any(cf < 0 for cf in f.terms.values()):
        raise ValueError("f must have nonnegative coefficients")
    def check(pair):
        i, j = pair
        diff = rayleigh_diff(f, i, j, c)
        return _verdict_for_diff(diff, domain, budget, seed, diag={**diag, "pair": (i, j)})
    return _all_pairs(f, check, **diag) if pair is None else check(pair)


def rayleigh_verdict(
    f: BoundedPoly,
    pair: Optional[tuple[int, int]] = None,
    budget: int = 20_000,
    seed: int = 0,
) -> Verdict:
    """Nonnegativity of the Rayleigh difference on the positive orthant,
    for one pair or (when pair is None) for all pairs."""
    return _rayleigh(f, 1, pair, budget, seed, {"property": "rayleigh"})


def strong_rayleigh_verdict(
    f: BoundedPoly,
    pair: Optional[tuple[int, int]] = None,
    budget: int = 20_000,
    seed: int = 0,
) -> Verdict:
    """Nonnegativity of the Rayleigh difference on all of real space, for
    one pair or (when pair is None) for all pairs.  For a multiaffine f, all
    pairs is Brändén's criterion for stability (Adv. Math. 216, 2007)."""
    return _rayleigh(f, 1, pair, budget, seed, {"property": "strong_rayleigh"}, ALL_REALS)


def c_rayleigh_verdict(
    f: BoundedPoly,
    c: Fraction | int,
    pair: Optional[tuple[int, int]] = None,
    budget: int = 20_000,
    seed: int = 0,
) -> Verdict:
    """The c-Rayleigh inequality c * d_i f * d_j f >= f * d_i d_j f on the
    positive orthant (see :func:`matroidwb.poly.rayleigh_diff`), for one
    pair or (when pair is None) for all pairs."""
    if c <= 0:
        raise ValueError("c must be positive")
    return _rayleigh(f, c, pair, budget, seed, {"property": "c_rayleigh", "c": str(Fraction(c))})


# ---------------------------------------------------------------------------
# half-plane property via the single-pair criterion


def hpp_verdict(M: Matroid, budget: int = 100_000, seed: int = 0) -> Verdict:
    """Half-plane property of the basis polynomial.

    Each connected component is tested through one designated pair (the
    lowest-labelled pair lying in a common basis).  A Holds names the
    ``SinglePairWagner`` certificate: the Rayleigh difference of that pair is
    certified nonnegative on all of real space, but the Wagner-Wei criterion
    also asks for stable minors at an element of the pair, and those
    hypotheses are not checked.  Fails witnesses are lifted to the full
    ground set and re-verified exactly.
    """
    comps = connected_components(M)
    inner_certs = []
    tiers = []
    for comp in comps:
        if len(comp) < 2:
            continue
        sub = restriction(M, comp)
        comp_sorted = sorted(comp)
        pair = wagner_pair(sub)
        if pair is None:
            continue
        v = strong_rayleigh_verdict(basis_poly(sub), pair, budget=budget, seed=seed)
        tiers.extend(v.diagnostics.get("tiers_run", []))
        orig_pair = (comp_sorted[pair[0] - 1], comp_sorted[pair[1] - 1])
        search = {k: v.diagnostics[k] for k in ("evals", "best", "reason") if k in v.diagnostics}
        if v.fails:
            lifted = [Fraction(1)] * M.n
            for idx, e in enumerate(comp_sorted):
                lifted[e - 1] = v.witness.point[idx]
            value = rayleigh_diff(basis_poly(M), *orig_pair).evaluate(lifted)
            if not value < 0:
                raise WitnessNotVerified(f"lifted witness for {orig_pair} has value {value}")
            return verdicts.fails(
                Witness(value=Fraction(value), point=tuple(lifted)),
                property="hpp", pair=orig_pair, component=sorted(comp),
                tiers_run=tiers, **search,
            )
        if not v.holds:
            return verdicts.inconclusive(
                property="hpp", pair=orig_pair, component=sorted(comp),
                tiers_run=tiers, **search,
            )
        inner_certs.append((sorted(comp), orig_pair, v.certificate))
    return verdicts.holds(
        SINGLE_PAIR_WAGNER, inner_certs, property="hpp", tiers_run=tiers
    )


# ---------------------------------------------------------------------------
# nice principal-extension weights


def nice_extension_system(M: Matroid, F: Iterable[int]):
    """The equations: for each basis B of the principal truncation by F,
    sum of weights of the F-elements extending B back to a basis equals 1."""
    from .constructions import principal_truncation

    fel = sorted(set(F))
    tr = principal_truncation(M, fel)
    bset = M._basis_set
    rows = []
    for B in tr.basis_masks:
        row = []
        for fe in fel:
            bit = 1 << (fe - 1)
            row.append(Fraction(int(not (B & bit) and (B | bit) in bset)))
        rows.append(row)
    return fel, tr, rows


def nice_extension_report(M: Matroid, F: Iterable[int]) -> dict:
    """Facts about the weight system: whether the uniform choice works and
    whether any nonnegative solution exists (with one solution if so)."""
    fel, tr, rows = nice_extension_system(M, F)
    uniform = Fraction(1, len(fel))
    uniform_ok = all(sum(row) * uniform == 1 for row in rows)
    sol = solve_eq_nonneg(rows, [Fraction(1)] * len(rows))
    sol = None if sol is None else dict(zip(fel, sol))
    verified = sol is not None and all(
        sum(row[k] * sol[fe] for k, fe in enumerate(fel)) == 1 for row in rows
    )
    return {
        "F": fel,
        "truncation_bases": len(tr.basis_masks),
        "uniform_weight": uniform,
        "uniform_satisfies": uniform_ok,
        "feasible": sol is not None,
        "solution": sol,
        "solution_verified": verified,
    }
