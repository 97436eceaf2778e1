"""Positroid recognition: the interval search against brute force over
base-sorting orders, pinned atlas results, invariances, the size cap, the
CLI outcome and the census columns; the merge test against a key-sort
reference and at every cyclic shift of an order; the bicircular family
against the filter it replaced."""
import csv
import json
import random
from itertools import combinations_with_replacement, islice, permutations

import pytest

from matroidwb import classifiers
from matroidwb.census import CensusJob, run_census
from matroidwb.classifiers import (
    bicircular_family,
    is_base_sorting_order,
    lpm_family,
    positroid_verdict,
    sparse_paving_family,
)
from matroidwb.cli import main
from matroidwb.constructions import (
    LatticePathPair,
    MultiGraph,
    bicircular,
    lattice_path,
    named_atlas,
    uniform,
)
from matroidwb.core import Matroid, direct_sum, elements, mask_of
from matroidwb.errors import MatroidError, SizeCapExceeded
from matroidwb.io import format_matroid


def first_sorting_order(M):
    """The lexicographically first base-sorting order with element 1 first,
    by brute force over all orders."""
    if M.n == 0:
        return ()
    for rest in permutations(range(2, M.n + 1)):
        if is_base_sorting_order(M, (1,) + rest):
            return (1,) + rest
    return None


def sorts_bases_by_key(M, order):
    """Reference base-sorting test: sort elements with a position key."""
    pos = {e: k for k, e in enumerate(order)}
    bset = set(M.basis_masks)
    lists = [sorted(elements(B), key=pos.__getitem__) for B in M.basis_masks]
    for a in range(len(lists)):
        for b in range(a + 1, len(lists)):
            merged = sorted(lists[a] + lists[b], key=pos.__getitem__)
            if mask_of(merged[0::2]) not in bset or mask_of(merged[1::2]) not in bset:
                return False
    return True


def relabelled(M, perm):
    """M with element e renamed perm[e - 1]."""
    return Matroid(M.n, [mask_of(perm[e - 1] for e in elements(B)) for B in M.basis_masks])


FAMILIES = {
    "lpm5": lambda: [M for _, M in lpm_family(5)],
    "bc5": lambda: [M for _, M in bicircular_family(5)],
    "sp7-3": lambda: list(sparse_paving_family(7, 3)),
    "sp7-4": lambda: list(sparse_paving_family(7, 4)),
}

# K4 with a loop at vertex 1, the verify-paper fixture
K4_LOOP = MultiGraph(v=4, edges=((1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


class TestOrderSearch:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_brute_force(self, family):
        for M in FAMILIES[family]():
            assert positroid_verdict(M) == first_sorting_order(M), M

    @pytest.mark.parametrize("name", ["MK4", "BK33", "TicTacToe"])
    def test_atlas_non_positroids(self, name):
        assert positroid_verdict(named_atlas(name)) is None

    def test_whirl_order(self):
        assert positroid_verdict(named_atlas("W3")) == (1, 4, 3, 6, 2, 5)

    def test_bicircular_k4_with_loop(self):
        M = bicircular(K4_LOOP)
        assert (M.n, M.r, len(M.basis_masks)) == (7, 4, 32)
        assert positroid_verdict(M) is None
        assert first_sorting_order(M) is None

    @pytest.mark.parametrize("M", [uniform(0, 0), uniform(0, 1), uniform(1, 1)])
    def test_tiny_ground_sets(self, M):
        assert positroid_verdict(M) == tuple(range(1, M.n + 1))

    def test_relabelling_keeps_existence(self):
        rng = random.Random(5)
        cases = [M for _, M in lpm_family(5)][::7] + list(sparse_paving_family(7, 4))
        cases += [named_atlas("MK4"), named_atlas("W3")]
        for M in cases:
            perm = list(range(1, M.n + 1))
            rng.shuffle(perm)
            assert (positroid_verdict(relabelled(M, perm)) is None) == (
                positroid_verdict(M) is None
            ), (M, perm)

    def test_reversed_order_sorts_bases(self):
        for M in [M for _, M in bicircular_family(5)] + [named_atlas("W3")]:
            order = positroid_verdict(M)
            assert is_base_sorting_order(M, order[::-1]), M


class TestInterchangeable:
    def test_twins(self):
        assert classifiers._interchangeable(uniform(2, 4)) == [0, 0, 0b1, 0b11, 0b111]
        # MK4 has no transposition automorphism; the three loops are twins
        M = direct_sum(named_atlas("MK4"), uniform(0, 3))
        assert classifiers._interchangeable(M) == [0] * 8 + [1 << 6, 0b11 << 6]

    @pytest.mark.parametrize(
        "M",
        [
            direct_sum(uniform(2, 4), uniform(0, 2)),
            direct_sum(named_atlas("W3"), uniform(1, 2)),
            direct_sum(uniform(1, 2), direct_sum(uniform(1, 2), uniform(1, 2))),
            direct_sum(named_atlas("MK4"), uniform(0, 2)),
        ],
    )
    def test_skipping_keeps_the_first_order(self, M, monkeypatch):
        found = positroid_verdict(M)
        monkeypatch.setattr(classifiers, "_interchangeable", lambda M: [0] * (M.n + 1))
        assert found == positroid_verdict(M) == first_sorting_order(M)

    def test_loops_are_not_interleaved(self, monkeypatch):
        """Without the skip, MK4 plus five loops visits 115,474 prefixes."""
        nodes = []
        step = classifiers._can_be_interval
        monkeypatch.setattr(
            classifiers, "_can_be_interval", lambda *a: nodes.append(1) or step(*a)
        )
        assert positroid_verdict(direct_sum(named_atlas("MK4"), uniform(0, 5))) is None
        assert len(nodes) < 2_000


def test_prefix_pruning_is_exact():
    """A set survives a prefix iff it is a cyclic interval of some order
    that starts with the prefix."""
    import numpy as np

    n = 6
    sets = np.arange(1, (1 << n) - 1, dtype=np.int64)
    for p in range(1, n + 1):
        for prefix in permutations(range(2, n + 1), p - 1):
            prefix = (1,) + prefix
            rest = [e for e in range(1, n + 1) if e not in prefix]
            reachable = set()
            for tail in permutations(rest):
                order = prefix + tail
                for start in range(n):
                    for length in range(1, n):
                        reachable.add(mask_of(order[(start + k) % n] for k in range(length)))
            y = sum(((sets >> (e - 1)) & 1) << k for k, e in enumerate(prefix))
            unplaced = mask_of(rest)
            got = classifiers._can_be_interval(y, sets, p, unplaced)
            assert got.tolist() == [int(m) in reachable for m in sets], prefix


class TestNoBruteForce:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        oracle = classifiers.is_base_sorting_order

        def counted(M, order):
            seen.append(order)
            return oracle(M, order)

        monkeypatch.setattr(classifiers, "is_base_sorting_order", counted)
        return seen

    def test_non_positroid_runs_no_merge_test(self, calls):
        assert positroid_verdict(named_atlas("BK33")) is None
        assert calls == []

    @pytest.mark.parametrize("name", ["W3", "U24"])
    def test_positroid_rechecks_only_the_found_order(self, calls, name):
        order = positroid_verdict(named_atlas(name))
        assert calls == [order]


def alternate_bits(rest):
    """Reference split: the 1st, 3rd, 5th, ... lowest bits of a mask, one
    bit at a time."""
    odd = 0
    while rest:
        low = rest & -rest
        odd |= low
        rest ^= low
        rest ^= rest & -rest
    return odd


def orders_to_try(M, rng, tries):
    """Random orders of M's ground set, and its found order, if any, at a
    random cyclic shift."""
    orders = []
    for _ in range(tries):
        order = list(range(1, M.n + 1))
        rng.shuffle(order)
        orders.append(tuple(order))
    found = positroid_verdict(M)
    if found:
        k = rng.randrange(M.n)
        orders.append(found[k:] + found[:k])
    return orders


class TestBaseSorting:
    def test_matches_key_sort_reference(self):
        rng = random.Random(11)
        cases = list(sparse_paving_family(7, 3)) + [named_atlas("MK4"), named_atlas("W3")]
        cases += [M for _, M in bicircular_family(5)][::3]
        cases += list(islice(sparse_paving_family(8, 4), 0, 270, 10))
        seen = set()
        for M in cases:
            for order in orders_to_try(M, rng, 6):
                sorting = is_base_sorting_order(M, order)
                assert sorting == sorts_bases_by_key(M, order), (M, order)
                seen.add(sorting)
        assert seen == {True, False}

    def test_every_cyclic_shift_gives_the_same_answer(self):
        """Two bases have an even symmetric difference, so a shift of the
        order at most swaps the two halves of every merge."""
        rng = random.Random(17)
        cases = list(sparse_paving_family(7, 3)) + list(islice(sparse_paving_family(8, 4), 40))
        cases += [M for _, M in bicircular_family(5)] + [M for _, M in lpm_family(6)][::5]
        cases += [named_atlas(name) for name in ("U24", "MK4", "W3", "BK33", "TicTacToe")]
        answers = []
        for M in cases:
            for order in orders_to_try(M, rng, 3):
                answers.append(is_base_sorting_order(M, order))
                assert all(
                    is_base_sorting_order(M, order[k:] + order[:k]) == answers[-1]
                    for k in range(1, M.n)
                ), (M, order)
        assert min(answers.count(True), answers.count(False)) > 200

    def test_odd_parts_match_the_bitwise_alternation(self):
        for n in range(13):
            assert classifiers._odd_parts(n) == tuple(map(alternate_bits, range(1 << n)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            is_base_sorting_order(uniform(1, 3), (1, 2, 2))


class TestSizeCap:
    def test_twelve_elements_accepted(self):
        M = lattice_path(LatticePathPair("ENENENENENEN", "NENENENENENE"))
        assert M.n == 12
        assert positroid_verdict(M) == tuple(range(1, 13))
        assert positroid_verdict(uniform(6, 12)) == tuple(range(1, 13))

    def test_thirteen_elements_raise_typed_error(self):
        with pytest.raises(SizeCapExceeded) as info:
            positroid_verdict(uniform(0, 13))
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, MatroidError)

    @pytest.mark.parametrize(
        "family, args, message",
        [
            (lpm_family, (10,), "path census capped"),
            (sparse_paving_family, (11, 3), "sparse paving census capped"),
            (bicircular_family, (10,), "bicircular census capped"),
        ],
        ids=["lpm", "sparse_paving", "bicircular"],
    )
    def test_family_caps_raise_typed_error(self, family, args, message):
        with pytest.raises(SizeCapExceeded, match=message):
            next(family(*args))

    def test_families_at_their_caps_start(self):
        assert next(lpm_family(9)) and next(bicircular_family(9))
        assert next(sparse_paving_family(10, 1)).n == 10

    @pytest.mark.parametrize("n, r", [(5, 0), (5, 5), (4, 6)])
    def test_sparse_paving_rank_outside_0_to_n_is_a_plain_value_error(self, n, r):
        with pytest.raises(ValueError, match="0 < r < n") as info:
            next(sparse_paving_family(n, r))
        assert not isinstance(info.value, SizeCapExceeded)

    def test_census_over_a_family_cap_is_an_error_exit(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["census", "--family", "lpm", "--params", "max_total=10", "--checks", "negcorr",
                "--out", str(out), "--witness-dir", str(tmp_path / "wit")]
        assert main(argv) == 4
        assert "capped at m + r = 9" in capsys.readouterr().err


class TestCli:
    @pytest.mark.parametrize("name, code", [("W3", 0), ("MK4", 1)])
    def test_check_exit_codes(self, tmp_path, capsys, name, code):
        path = tmp_path / f"{name}.txt"
        path.write_text(format_matroid(named_atlas(name)))
        assert main(["check", str(path), "--prop", "positroid"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == ("Holds" if code == 0 else "Fails")

    def test_empty_order_is_holds(self, tmp_path, capsys, monkeypatch):
        from matroidwb import census

        monkeypatch.setattr(census, "positroid_verdict", lambda M: ())
        path = tmp_path / "u12.txt"
        path.write_text(format_matroid(uniform(1, 2)))
        assert main(["check", str(path), "--prop", "positroid"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["outcome"], payload["order"]) == ("Holds", [])

    def test_size_cap_is_an_error_exit(self, tmp_path):
        path = tmp_path / "loops13.txt"
        path.write_text(format_matroid(uniform(1, 13)))
        assert main(["check", str(path), "--prop", "positroid"]) == 4

    def test_verify_paper(self, capsys):
        assert main(["verify-paper"]) == 0
        lines = capsys.readouterr().out.splitlines()
        passed = [line for line in lines if line.startswith("PASS")]
        assert len(passed) == 13
        assert "PASS  bicircular-not-positroid" in passed
        assert "PASS  lpm-stable-branden" in passed


def test_census_negcorr_and_balanced_columns(tmp_path):
    from matroidwb.analysis import is_balanced, neg_corr_all_pairs

    job = CensusJob(
        family="lpm", params={"max_total": 3}, checks=["negcorr", "balanced"],
        out_csv=str(tmp_path / "c.csv"), witness_dir=str(tmp_path / "w"),
    )
    rows = run_census(job)
    with open(job.out_csv, newline="") as fh:
        written = list(csv.DictReader(fh))
    assert len(written) == len(rows) > 0
    for row, (_, M) in zip(written, lpm_family(3)):
        assert row["neg_corr_all_pairs"] == neg_corr_all_pairs(M).outcome
        assert row["balanced"] == is_balanced(M).outcome


# ---------------------------------------------------------------------------
# the bicircular family against the filter the depth-first search replaced


def filtered_multigraphs(v, e):
    """Every e-multiset of slots, kept if it covers and connects 1..v."""
    slots = [(a, b) for a in range(1, v + 1) for b in range(a, v + 1)]
    for combo in combinations_with_replacement(slots, e):
        parent = list(range(v + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in combo:
            parent[find(a)] = find(b)
        covered = {u for edge in combo for u in edge}
        if covered == set(range(1, v + 1)) and len({find(u) for u in covered}) == 1:
            yield combo


def scanning_graph_key(v, edges):
    """The canonical key as it was first written: every refinement round
    scans every edge for every vertex."""
    deg = [0] * (v + 1)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    profile = {u: (deg[u],) for u in range(1, v + 1)}
    for _ in range(2):
        nxt = {}
        for u in range(1, v + 1):
            neigh = sorted(profile[b if a == u else a] for a, b in edges if u in (a, b))
            nxt[u] = (profile[u], tuple(neigh))
        profile = nxt
    order = sorted(range(1, v + 1), key=lambda u: (profile[u], u))
    relabel = {u: k + 1 for k, u in enumerate(order)}
    return (v, tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in edges)))


def reference_bicircular_family(max_edges):
    seen = set()
    for v in range(1, max_edges + 2):
        for e in range(max(1, v - 1), max_edges + 1):
            for combo in filtered_multigraphs(v, e):
                key = scanning_graph_key(v, combo)
                if key not in seen:
                    seen.add(key)
                    G = MultiGraph(v=v, edges=combo)
                    yield G, bicircular(G)


def stream(pairs):
    return [(G.v, G.edges, M.basis_masks) for G, M in pairs]


class TestBicircularEnumeration:
    def test_family_matches_filter(self):
        got = stream(bicircular_family(5))
        assert len(got) == 174
        assert got == stream(reference_bicircular_family(5))

    def test_six_edge_prefix_matches_filter(self):
        got = stream(islice(bicircular_family(6), 200))
        assert got == stream(islice(reference_bicircular_family(6), 200))

    @pytest.mark.parametrize("v", range(1, 7))
    def test_search_matches_filter(self, v):
        for e in range(1, 6):
            assert list(classifiers._connected_multigraphs(v, e)) == list(
                filtered_multigraphs(v, e)
            ), (v, e)

    def test_canonical_key_matches_scanning_formula(self):
        graphs = [
            (v, combo)
            for v in range(1, 7)
            for e in range(1, 6)
            for combo in filtered_multigraphs(v, e)
        ]
        assert any(a == b for _, combo in graphs for a, b in combo)  # loops
        assert any(len(set(combo)) < len(combo) for _, combo in graphs)  # parallels
        for v, combo in graphs:
            assert classifiers._canonical_graph_key(v, combo) == scanning_graph_key(v, combo)
