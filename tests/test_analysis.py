"""Tiered verdicts: the order of the tiers, one fixture per deciding tier,
the reason an Inconclusive gives,
the pinned sparse-paving census, the balance check against a brute-force
scan of every minor (its minor stream, over the deletions coindependent in
each contraction, also on random transversal matroids and their duals,
reaching every minor of the whole walk, each deletion one element off its
parent), the
known-truth sets, the exact replay of every census Holds from the basis
masks, the float search and the points it
spends, and the nice principal-extension weights of the paper's example."""
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matroidwb
from matroidwb import analysis, census, constructions, core
from matroidwb.census import _instance_seed
from matroidwb.classifiers import bicircular_family, lpm_family, sparse_paving_family
from matroidwb.constructions import (
    SetSystem,
    lattice_path,
    lattice_path_pair_from_endpoints,
    named_atlas,
    principal_extension,
    transversal,
    uniform,
)
from matroidwb.core import Matroid, contract, delete, direct_sum, dual, mask_of, popcount
from matroidwb.errors import SizeCapExceeded, WitnessNotVerified
from matroidwb.io import verdict_to_json
from matroidwb.poly import BoundedPoly, basis_poly, rayleigh_diff
from matroidwb.sos import GramCertificate, sos_certificate
from matroidwb.verdicts import ALL_ONES_EXACT, COEFF_NONNEG, SINGLE_PAIR_WAGNER, SOS_GRAM

BUDGET = 20_000

# x^2 - 4x + 3, minimum -1 at x = 2
QUADRATIC_POLY = BoundedPoly(1, {(0, 1): 1, (1, 0): -4, (0, 0): 3})


@pytest.fixture(scope="module")
def sp73():
    """The 14 classes of sparse_paving_family(7, 3) with their census seeds."""
    return [(M, _instance_seed(0, k)) for k, M in enumerate(sparse_paving_family(7, 3))]


# classes of sp73 by their hpp outcome at BUDGET
HPP_FAILS = 7
HPP_INCONCLUSIVE = 2


class TestTiers:
    def test_coefficient_holds(self):
        v = analysis.rayleigh_verdict(basis_poly(uniform(2, 4)), (1, 2))
        assert v.holds and v.certificate.kind == COEFF_NONNEG
        assert v.diagnostics["tiers_run"] == ["coeff"]

    def test_gram_holds_before_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("search ran although the uniform Gram certifies")

        monkeypatch.setattr(analysis, "counterexample_search", no_search)
        f = basis_poly(uniform(2, 4))
        v = analysis.strong_rayleigh_verdict(f, (1, 2))
        assert v.holds and v.certificate.kind == SOS_GRAM
        assert v.certificate.data.verify(rayleigh_diff(f, 1, 2))
        assert v.diagnostics["tiers_run"] == ["coeff", "gram"]

    def test_the_orthant_gram_tier_is_the_plain_sum_of_squares(self):
        # (x1 - x2)^2 has a negative coefficient, so the coefficient tier
        # passes it on; a sum of squares holds on the orthant too
        p = BoundedPoly(2, {(0, 0b01): 1, (0b11, 0): -2, (0, 0b10): 1})
        v = analysis._verdict_for_diff(p, analysis.POSITIVE_ORTHANT, 500, 0, diag={})
        assert v.holds and v.certificate.kind == SOS_GRAM
        assert v.diagnostics["tiers_run"] == ["coeff", "gram"]
        assert v.certificate.data == sos_certificate(p) and v.certificate.data.verify(p)

    def test_each_gram_holds_verifies_its_certificate_once(self, sp73, monkeypatch):
        calls = []
        verify = GramCertificate.verify

        def counted(cert, p):
            calls.append(p)
            return verify(cert, p)

        monkeypatch.setattr(GramCertificate, "verify", counted)
        held = 0
        for M in [uniform(2, 4)] + [M for M, _ in sp73]:
            f, pair = basis_poly(M), analysis.wagner_pair(M)
            calls.clear()
            v = analysis.strong_rayleigh_verdict(f, pair, budget=2000)
            if v.holds and v.certificate.kind == SOS_GRAM:
                assert calls == [rayleigh_diff(f, *pair)]
                held += 1
        assert held >= 2

    def test_fails_witness_verifies_on_lifted_ground_set(self, sp73):
        M, seed = sp73[HPP_FAILS]
        N = direct_sum(M, uniform(1, 1))  # a coloop: the lift adds a coordinate
        v = analysis.hpp_verdict(N, budget=BUDGET, seed=seed)
        assert v.fails
        assert len(v.witness.point) == N.n
        value = rayleigh_diff(basis_poly(N), *v.diagnostics["pair"]).evaluate(v.witness.point)
        assert value == v.witness.value < 0
        assert v.diagnostics["tiers_run"] == ["coeff", "gram", "search"]

    def test_inconclusive_names_the_tiers_that_ran(self, sp73):
        M, seed = sp73[HPP_INCONCLUSIVE]
        v = analysis.hpp_verdict(M, budget=BUDGET, seed=seed)
        assert v.outcome == "Inconclusive"
        assert v.diagnostics["tiers_run"] == ["coeff", "gram", "search"]

    @pytest.mark.parametrize("index", [HPP_FAILS, HPP_INCONCLUSIVE])
    def test_hpp_keeps_the_search_diagnostics(self, sp73, index):
        M, seed = sp73[index]
        v = analysis.hpp_verdict(M, budget=BUDGET, seed=seed)
        inner = analysis.strong_rayleigh_verdict(
            basis_poly(M), v.diagnostics["pair"], budget=BUDGET, seed=seed)
        assert v.outcome == inner.outcome != "Holds"
        assert v.diagnostics["evals"] == inner.diagnostics["evals"] > 0
        assert v.diagnostics["best"] == inner.diagnostics["best"]
        reason = None if v.fails else "gram_not_psd"
        assert v.diagnostics.get("reason") == inner.diagnostics.get("reason") == reason

    def test_inconclusive_says_the_gram_tier_found_no_certificate(self, sp73):
        v = next(v for M, _ in sp73 if (v := analysis.rayleigh_verdict(
            basis_poly(M), budget=500)).outcome == "Inconclusive")
        assert v.diagnostics["tiers_run"] == ["coeff", "gram", "search"]
        assert v.diagnostics["reason"] == "gram_not_psd"
        assert verdict_to_json(v, "rayleigh", "m")["reason"] == "gram_not_psd"

    def test_inconclusive_says_the_gram_tier_hit_the_variable_cap(self):
        v = analysis.strong_rayleigh_verdict(basis_poly(uniform(2, 13)), (1, 2), budget=500)
        assert v.outcome == "Inconclusive"
        assert v.diagnostics["tiers_run"] == ["coeff", "search"]
        assert v.diagnostics["reason"] == "gram_var_cap"

    def test_unverified_lifted_witness_raises(self, sp73, monkeypatch):
        M, seed = sp73[HPP_FAILS]
        N = direct_sum(M, uniform(1, 1))

        def lifted_value_zero(f, i, j, c=1):
            # only the lift evaluates on the full ground set of N
            return BoundedPoly(f.n) if f.n == N.n else rayleigh_diff(f, i, j, c)

        monkeypatch.setattr(analysis, "rayleigh_diff", lifted_value_zero)
        with pytest.raises(WitnessNotVerified):
            analysis.hpp_verdict(N, budget=BUDGET, seed=seed)


def test_sparse_paving_census_table(sp73):
    hpp = Counter(analysis.hpp_verdict(M, budget=BUDGET, seed=s).outcome for M, s in sp73)
    rayleigh = Counter(
        analysis.rayleigh_verdict(
            basis_poly(M), analysis.wagner_pair(M), budget=BUDGET, seed=s).outcome
        for M, s in sp73
    )
    assert hpp == {"Fails": 5, "Holds": 3, "Inconclusive": 6}
    assert rayleigh == {"Holds": 9, "Inconclusive": 5}


@pytest.mark.parametrize("pair", [(1, 9), (0, 1), (2, 2), (-1, 2), (5, 1)])
def test_neg_corr_refuses_a_pair_outside_the_ground_set(pair):
    with pytest.raises(ValueError, match="two distinct elements of 1..4"):
        analysis.neg_corr(uniform(2, 4), *pair)


def test_hpp_holds_names_single_pair_certificate(sp73):
    M, seed = sp73[0]
    v = analysis.hpp_verdict(M, budget=BUDGET, seed=seed)
    assert v.holds and v.certificate.kind == SINGLE_PAIR_WAGNER


def binary_matroid(columns, r):
    """The GF(2) column matroid; column k is a bitmask over r rows."""

    def independent(S):
        reduced = []
        for x in S:
            for b in reduced:
                x = min(x, x ^ b)
            if not x:
                return False
            reduced.append(x)
        return True

    n = len(columns)
    return Matroid(n, [
        mask_of(S) for S in combinations(range(1, n + 1), r)
        if independent([columns[e - 1] for e in S])
    ])


# binary S8: the identity and the columns 1111, 1101, 1011, 0111
S8 = binary_matroid([0b0001, 0b0010, 0b0100, 0b1000, 0b1111, 0b1101, 0b1011, 0b0111], 4)


def recount(M, e, f):
    """N_e * N_f - N * N_ef over the bases of M."""
    be, bf = 1 << (e - 1), 1 << (f - 1)
    N = len(M.basis_masks)
    Ne = sum(1 for B in M.basis_masks if B & be)
    Nf = sum(1 for B in M.basis_masks if B & bf)
    Nef = sum(1 for B in M.basis_masks if B & be and B & bf)
    return Ne * Nf - N * Nef


def balance_report(v):
    """The outcome and, for a Fails, the minor, pair and witness value."""
    if v.holds:
        return ("Holds",)
    d = v.diagnostics
    return ("Fails", d["contracted"], d["deleted_after"], d["pair"], v.witness.value)


def reference_minor_walk(M):
    """Every (minor, I, D) with I independent and D in M/I's labels, in the
    balance check's order, through the public contract and delete."""
    for kc in range(M.r + 1):
        for I in combinations(range(1, M.n + 1), kc):
            if not M.is_independent(I):
                continue
            M1 = contract(M, I)
            for kd in range(M1.n - 1):
                for D in combinations(range(1, M1.n + 1), kd):
                    yield delete(M1, D), I, D


def first_seen_minors(M):
    """The stream _minors must give: each distinct minor of the reference
    walk with D coindependent in M/I, with the (I, D) that reaches it first.
    D is coindependent when deleting it keeps the rank r(M/I) = r - |I|."""
    first = {}
    for N, I, D in reference_minor_walk(M):
        if N.r == M.r - len(I):
            first.setdefault((N.n, N.basis_masks), (I, D))
    return [(*key, I, D) for key, (I, D) in first.items()]


def distinct_minors(M):
    """The set of distinct (n, masks) of the whole reference walk."""
    return {(N.n, N.basis_masks) for N, _, _ in reference_minor_walk(M)}


@st.composite
def transversal_matroids(draw):
    """A transversal matroid on n <= 7 of a family that may repeat members
    or hold empty ones, or its dual, so that parent minors have loops and
    coloops to delete."""
    n = draw(st.integers(0, 7))
    members = st.frozensets(st.integers(1, n), max_size=n) if n else st.just(frozenset())
    family = draw(st.lists(members, min_size=1, max_size=n + 1))
    M = transversal(SetSystem(n, tuple(family)))
    return dual(M) if draw(st.booleans()) else M


def reference_balance(M):
    """Every minor of the walk, with no class dedup, checked with
    neg_corr_all_pairs up to the first Fails.  The checks are memoised on
    the exact bases, which changes no answer."""
    checked = {}
    for N, I, D in reference_minor_walk(M):
        if N not in checked:
            checked[N] = analysis.neg_corr_all_pairs(N)
        v = checked[N]
        if not v.holds:
            return ("Fails", list(I), list(D), v.diagnostics["pair"], v.witness.value)
    return ("Holds",)


BALANCE_SETS = {
    "bc5": lambda: (M for _, M in bicircular_family(5)),
    "sp7-3": lambda: sparse_paving_family(7, 3),
    "sp8-4": lambda: islice(sparse_paving_family(8, 4), 12),
    "atlas": lambda: (named_atlas(name) for name in ("BK33", "MK4", "TICTACTOE", "U24", "W3")),
    "s8": lambda: (S8, principal_extension(S8, [1, 2])),
}


class TestBalance:
    def test_cap_raises_typed_error(self):
        with pytest.raises(SizeCapExceeded) as info:
            analysis.is_balanced(uniform(1, 11))
        assert isinstance(info.value, ValueError)

    def test_s8_fails_at_the_top(self):
        assert (S8.n, S8.r, len(S8.basis_masks)) == (8, 4, 48)
        v = analysis.is_balanced(S8)
        assert v.outcome == "Fails"
        assert (v.diagnostics["contracted"], v.diagnostics["deleted_after"]) == ([], [])
        assert v.witness.value == recount(S8, *v.diagnostics["pair"]) < 0
        assert analysis.neg_corr_all_pairs(S8).outcome == "Fails"

    def test_fails_on_a_minor_of_a_negatively_correlated_matroid(self):
        M = principal_extension(S8, [1, 2])
        assert M.n == 9
        assert analysis.neg_corr_all_pairs(M).holds
        v = analysis.is_balanced(M)
        d = v.diagnostics
        assert (v.outcome, d["contracted"], d["deleted_after"], d["pair"]) == (
            "Fails", [], [9], (1, 5)
        )
        assert v.witness.value == -16
        minor = delete(contract(M, d["contracted"]), d["deleted_after"])
        assert recount(minor, *d["pair"]) == -16

    @pytest.mark.parametrize("name", BALANCE_SETS)
    def test_matches_the_brute_force_reference(self, name):
        outcomes = Counter()
        for M in BALANCE_SETS[name]():
            got = balance_report(analysis.is_balanced(M))
            assert got == reference_balance(M), M
            outcomes[got[0]] += 1
        assert set(outcomes) == {"Fails" if name == "s8" else "Holds"}

    def test_matches_the_brute_force_reference_on_random_extensions_and_deletions(self):
        """Seeded principal extensions and single deletions of S8 and of the
        first sp(8, 4) classes, half of them dualised, so that a Fails also
        lives on a contraction."""
        rng = random.Random(21)
        sp84 = list(islice(sparse_paving_family(8, 4), 12))
        outcomes = Counter()
        for _ in range(150):
            base = rng.choice([S8, rng.choice(sp84)])
            # an extension of a sparse paving class has n = 9 and holds, the dearest case
            if rng.random() < (0.5 if base is S8 else 0.05):
                M = principal_extension(base, rng.sample(range(1, 9), rng.randint(1, 3)))
            else:
                M = delete(base, [rng.randint(1, 8)])
            if rng.random() < 0.5:
                M = dual(M)
            got = balance_report(analysis.is_balanced(M))
            assert got == reference_balance(M), M
            outcomes["Fails on a contraction" if got[0] == "Fails" and got[1] else got[0]] += 1
        assert set(outcomes) == {"Holds", "Fails", "Fails on a contraction"}

    def test_minors_are_the_distinct_minors_of_the_walk_in_first_seen_order(self):
        matroids = list(BALANCE_SETS["sp8-4"]()) + list(islice(BALANCE_SETS["bc5"](), 60))
        total = 0
        for M in matroids + list(BALANCE_SETS["atlas"]()):
            expected = first_seen_minors(M)
            assert list(analysis._minors(M)) == expected
            total += len(expected)
        assert total > 2_000

    @given(transversal_matroids())
    @settings(max_examples=120, deadline=None, derandomize=True)
    @example(transversal(SetSystem(5, (frozenset(), frozenset({1, 2}), frozenset({1, 2}), frozenset({4})))))
    @example(dual(transversal(SetSystem(6, (frozenset({1, 2, 3}), frozenset({3}), frozenset({3}))))))
    def test_minors_of_random_transversal_matroids_are_the_first_seen_minors(self, M):
        stream = list(analysis._minors(M))
        assert stream == first_seen_minors(M)
        assert {(n, masks) for n, masks, _, _ in stream} == distinct_minors(M)

    @pytest.mark.parametrize("name", BALANCE_SETS)
    def test_coindependent_deletions_reach_every_minor_of_the_walk(self, name):
        """Every minor is M/I\\D with D coindependent in M/I, so skipping the
        other D loses no minor of the whole walk."""
        for M in BALANCE_SETS[name]():
            assert {(n, masks) for n, masks, _, _ in analysis._minors(M)} == distinct_minors(M)

    def test_each_deletion_removes_one_element_from_its_parent(self, monkeypatch):
        """Every deletion the walk makes squeezes out one bit from the
        parent's bases that avoid it, and there is at least one; only the
        contraction by I, once per independent I, removes more."""
        M = dual(principal_extension(S8, [1, 2]))
        expected = list(analysis._minors(M))
        removed, picks = Counter(), Counter()

        def squeeze(masks, smask):
            masks = list(masks)
            assert masks and not any(B & smask for B in masks)
            removed[popcount(smask)] += 1
            return core._squeeze(masks, smask)

        def minor_masks(masks, smask, pick):
            picks[pick.__name__] += 1
            return core._minor_masks(masks, smask, pick)

        monkeypatch.setattr(analysis, "_squeeze", squeeze)
        monkeypatch.setattr(analysis, "_minor_masks", minor_masks)
        assert list(analysis._minors(M)) == expected
        assert set(removed) == {1}
        independent = sum(M.is_independent(I) for k in range(M.r + 1)
                          for I in combinations(range(1, M.n + 1), k))
        assert picks == {"max": independent}

    def test_a_balanced_holds_builds_no_matroid(self, monkeypatch):
        """On a census class, every distinct minor is checked on its masks:
        no Matroid is built, and no minor reaches core._minor, which every
        binding of delete and contract reaches."""
        M = list(islice(sparse_paving_family(8, 4), 6))[-1]
        minors = len(list(analysis._minors(M)))

        def refuse(*args, **kwargs):
            raise AssertionError("a Matroid or a minor built by the balance check")

        monkeypatch.setattr(Matroid, "__init__", refuse)
        monkeypatch.setattr(core, "_minor", refuse)
        v = analysis.is_balanced(M)
        assert v.holds and v.diagnostics["minors"] == minors > 40


def known_truth_sets(sp73):
    """sp(7,3), lpm(5), bc5 and the atlas, each with a search seed."""
    matroids = [M for M, _ in sp73] + [M for _, M in lpm_family(5)]
    matroids += [M for _, M in bicircular_family(5)] + list(BALANCE_SETS["atlas"]())
    return list(enumerate(matroids))


class TestKnownTruths:
    """Sets on which the answer is a theorem, so a Fails is a bug: every
    rank-3 matroid is Rayleigh (Wagner 2005), every matroid of rank r >= 2 is
    c-Rayleigh at c = 2(1 - 1/r) (Brändén-Huh 2020), and every lattice path
    matroid has the half-plane property (the source paper) and so is
    strongly Rayleigh."""

    def test_rank_three_is_never_refuted_as_rayleigh(self, sp73):
        rank3 = [M for M, _ in sp73] + [named_atlas(name) for name in ("MK4", "W3", "TICTACTOE")]
        outcomes = Counter()
        for k, M in enumerate(rank3):
            assert M.r == 3
            outcomes[analysis.rayleigh_verdict(basis_poly(M), None, 2_000, k).outcome] += 1
        assert "Fails" not in outcomes and outcomes["Holds"] >= 7

    def test_lattice_path_matroids_are_never_refuted_for_hpp(self):
        outcomes = Counter(
            analysis.hpp_verdict(M, 2_000, k).outcome for k, (_, M) in enumerate(lpm_family(5)))
        assert "Fails" not in outcomes and outcomes["Holds"] > 0

    def test_c_rayleigh_at_two_minus_two_over_r_is_never_refuted(self, sp73):
        matroids = known_truth_sets(sp73) + list(enumerate(islice(sparse_paving_family(8, 4), 20)))
        outcomes = Counter()
        for k, M in matroids:
            if M.r >= 2:
                c = 2 * (1 - Fraction(1, M.r))
                outcomes[analysis.c_rayleigh_verdict(basis_poly(M), c, None, 500, k).outcome] += 1
        assert "Fails" not in outcomes and outcomes["Holds"] > 300

    def test_lattice_path_matroids_are_never_refuted_as_strongly_rayleigh(self):
        outcomes = Counter(
            analysis.strong_rayleigh_verdict(basis_poly(M), None, 500, k).outcome
            for k, (_, M) in enumerate(lpm_family(5)))
        assert "Fails" not in outcomes and outcomes["Holds"] > 0


def replay_diff(n, masks, i, j, c):
    """c (f_i f_j - f_ij f_0) + (c - 1) f_ij f for the basis polynomial f of
    masks, rebuilt from the masks: x^A x^B = x^(A xor B) (x^2)^(A and B)."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    parts = {(bi, bj): [], (bi, 0): [], (0, bj): [], (0, 0): []}
    for B in masks:
        parts[B & bi, B & bj].append(B & ~(bi | bj))
    f_ij, f_i, f_j, f_0 = parts.values()
    terms = Counter()
    for coeff, left, right in ((c, f_i, f_j), (-c, f_ij, f_0), (c - 1, f_ij, masks)):
        for A in left:
            for B in right:
                terms[A ^ B, A & B] += coeff
    return BoundedPoly(n, terms)


def replays(cert, n, masks, pair, c, all_reals):
    """One pair's certificate against the difference rebuilt from the masks."""
    diff = replay_diff(n, masks, *pair, c)
    if cert.kind == COEFF_NONNEG:
        coeffs_ok = all(v >= 0 for v in diff.terms.values())
        return coeffs_ok and not (all_reals and any(lin for lin, _ in diff.terms))
    return cert.kind == SOS_GRAM and cert.data.verify(diff)


# census check -> (c, on all reals); pair=None asks for all pairs
REPLAYED_CHECKS = {
    "rayleigh": (1, False), "strong_rayleigh": (1, True), "c_rayleigh": (Fraction(8, 7), False),
    "hpp": (1, True), "negcorr": (None, None),
}


@pytest.mark.parametrize("name", REPLAYED_CHECKS)
def test_every_census_holds_replays_from_the_basis_masks(sp73, name):
    """Every Holds of the census check on the known-truth sets at budget 500
    carries a proof that replays exactly from the masks: each pair's
    CoefficientNonneg by its coefficients, SOSGram by verify, AllOnesExact
    by a recount, and hpp's inner certificate per component."""
    c, all_reals = REPLAYED_CHECKS[name]
    replayed = Counter()
    for k, M in known_truth_sets(sp73):
        v = census.CHECKS[name].call(M, None, c, 500, k)
        if not v.holds:
            continue
        cert = v.certificate
        if name == "negcorr":
            assert cert.kind == ALL_ONES_EXACT
            assert all(recount(M, *pair) >= 0 for pair in combinations(range(1, M.n + 1), 2))
            replayed[cert.kind] += 1
        elif name == "hpp":
            assert cert.kind == SINGLE_PAIR_WAGNER
            for comp, (a, b), inner in cert.data:
                out = mask_of(set(range(1, M.n + 1)) - set(comp))
                masks = sorted(set(core._squeeze({B & ~out for B in M.basis_masks}, out)))
                pair = (comp.index(a) + 1, comp.index(b) + 1)
                assert replays(inner, len(comp), masks, pair, c, all_reals), (M, comp)
                replayed[inner.kind] += 1
        else:
            assert [pair for pair, _ in cert.data] == list(combinations(range(1, M.n + 1), 2))
            inner_kinds = {inner.kind for _, inner in cert.data}
            assert cert.kind == (COEFF_NONNEG if inner_kinds <= {COEFF_NONNEG} else SOS_GRAM)
            for pair, inner in cert.data:
                assert replays(inner, M.n, M.basis_masks, pair, c, all_reals), (M, pair)
                replayed[inner.kind] += 1
    assert sum(replayed.values()) > 100
    if all_reals:
        assert replayed[SOS_GRAM] > 0


class TestSearch:
    def test_batch_eval_matches_exact_evaluation(self):
        p = rayleigh_diff(basis_poly(uniform(3, 6)), 1, 2)
        var_ids = tuple(sorted(p.active_vars()))
        coeffs, exps = analysis._term_arrays(p, var_ids)
        rng = np.random.default_rng(1)
        positive = np.exp(rng.normal(size=(50, len(var_ids))))
        signed = positive * rng.choice((-1.0, 1.0), size=positive.shape)
        for X in (positive, signed):
            got = analysis._batch_eval(coeffs, exps, X)
            for x, g in zip(X, got):
                point = [Fraction(1)] * p.n
                for v, xv in zip(var_ids, x):
                    point[v - 1] = Fraction(xv)
                assert g == pytest.approx(float(p.evaluate(point)), rel=1e-9, abs=1e-9)

    def test_batch_eval_rows_do_not_depend_on_the_batch(self):
        p = rayleigh_diff(basis_poly(uniform(3, 6)), 1, 2)
        coeffs, exps = analysis._term_arrays(p, tuple(sorted(p.active_vars())))
        rng = np.random.default_rng(2)
        X = np.exp(rng.normal(size=(2048, exps.shape[1])))
        X *= rng.choice((-1.0, 1.0), size=X.shape)
        whole = analysis._batch_eval(coeffs, exps, X)
        rows = analysis.EVAL_ROWS
        parts = [analysis._batch_eval(coeffs, exps, X[i:i + rows]) for i in range(0, len(X), rows)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_search_witness_reverifies(self):
        p = QUADRATIC_POLY
        sr = analysis.counterexample_search(p, budget=4096, seed=0)
        assert sr.witness is not None
        assert p.evaluate(sr.witness.point) == sr.witness.value < 0

    @pytest.mark.parametrize("budget, evals", [
        (1, 1), (2047, 2047), (2050, 2048), (BUDGET, 14_336)])
    def test_an_inconclusive_search_spends_whole_batches_within_its_budget(self, budget, evals):
        # U(3, 6) is Rayleigh, so no point stops the search early: it draws
        # batches of 2,048 until max(budget * 7 // 10, 2048), cut at budget
        p = rayleigh_diff(basis_poly(uniform(3, 6)), 1, 2)
        sr = analysis.counterexample_search(p, budget=budget, seed=0)
        assert sr.witness is None
        assert sr.evals == evals <= budget


def test_verdicts_do_not_import_scipy(sp73):
    """A check that reaches the float search leaves scipy unimported."""
    index = HPP_INCONCLUSIVE
    code = f"""
import sys
import matroidwb
from matroidwb import analysis, constructions
from matroidwb.census import _instance_seed
calls = []
search = analysis.counterexample_search
analysis.counterexample_search = lambda *a, **k: calls.append(1) or search(*a, **k)
M = list(matroidwb.sparse_paving_family(7, 3))[{index}]
v = matroidwb.hpp_verdict(M, budget={BUDGET}, seed=_instance_seed(0, {index}))
assert v.outcome == "Inconclusive" and calls, (v, calls)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(matroidwb.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# the paper's example M[125, 356]: no nonnegative weights on F = [6] make the
# principal extension nice, while F = {6} has the weight 1


@pytest.fixture(scope="module")
def paper_lpm():
    return lattice_path(lattice_path_pair_from_endpoints([1, 2, 5], [3, 5, 6]))


def test_nice_extension_on_the_whole_ground_set_is_infeasible(paper_lpm):
    fel, tr, rows = analysis.nice_extension_system(paper_lpm, range(1, 7))
    assert fel == [1, 2, 3, 4, 5, 6] and len(rows) == len(tr.basis_masks) == 15
    assert any(sum(row) != 6 for row in rows)
    rep = analysis.nice_extension_report(paper_lpm, range(1, 7))
    assert rep["uniform_weight"] == Fraction(1, 6) and rep["uniform_satisfies"] is False
    assert rep["feasible"] is False and rep["solution"] is None
    assert rep["solution_verified"] is False


def test_nice_extension_on_the_last_element_has_weights_that_satisfy_every_row(paper_lpm):
    fel, tr, rows = analysis.nice_extension_system(paper_lpm, [6])
    rep = analysis.nice_extension_report(paper_lpm, [6])
    assert rep["feasible"] and rep["solution_verified"]
    assert rep["solution"] == {6: 1} and rows == [[1]] * 9
    assert rep["truncation_bases"] == len(tr.basis_masks) == 9


@pytest.mark.parametrize("F", [[7], [0, 6], [-1]])
def test_nice_extension_refuses_an_element_outside_the_ground_set(paper_lpm, F):
    with pytest.raises(ValueError, match="is not in the ground set 1..6"):
        analysis.nice_extension_report(paper_lpm, F)


def test_a_nice_extension_report_builds_one_truncation(paper_lpm, monkeypatch):
    calls = []
    truncation = constructions.principal_truncation
    monkeypatch.setattr(
        constructions, "principal_truncation", lambda M, F: calls.append(F) or truncation(M, F))
    analysis.nice_extension_report(paper_lpm, range(1, 7))
    assert len(calls) == 1
