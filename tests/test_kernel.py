"""The matroid kernel against the implementations it replaced: the parts
that masks join against a union-find on random mask families, components
from the fundamental graph against the circuit union-find and brute-force
1-separations, bit-squeezed minors against relabel-map minors (the mask
kernel also on random families that are not matroids, with one example
per kernel path), the balance stream's minor counts pinned on the
census-structure slice, minors built without re-validation against the
same bases validated, the vectorised 2-separation scan against the scalar
loop, circuits, paving and sparse paving from the subset tables
against the circuit loop, and closure from the rank table against a scan
of the bases."""
import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matroidwb.analysis import _minors, is_balanced
from matroidwb.classifiers import (
    bicircular_family,
    is_paving,
    is_sparse_paving,
    lpm_family,
    sparse_paving_family,
)
from matroidwb.constructions import graphic, k4, named_atlas, uniform, whirl
from matroidwb.core import (
    Matroid,
    _minor_masks,
    circuits,
    closure,
    connected_components,
    contract,
    delete,
    direct_sum,
    dual,
    elements,
    is_connected,
    mask_components,
    mask_of,
    popcount,
    rank_of,
    relabel_map,
    restriction,
    set_of,
    two_separation,
    two_sum,
)

# ---------------------------------------------------------------------------
# reference implementations


def union_find_parts(ground, masks):
    """Union-find over the elements of the ground mask: the elements of each
    mask share a part."""
    parent = {e: e for e in elements(ground)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for m in masks:
        es = elements(m)
        for e in es[1:]:
            parent[find(e)] = find(es[0])
    groups = {}
    for e in elements(ground):
        groups.setdefault(find(e), set()).add(e)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def circuit_components(M):
    """Two elements share a component iff some circuit holds both."""
    return union_find_parts((1 << M.n) - 1, circuits(M))


def loop_circuits(M):
    """Minimal dependent sets by size, each tested against the smaller ones
    found and its one-smaller subsets."""
    found = []
    for k in range(1, M.r + 2):
        for combo in combinations(range(1, M.n + 1), k):
            mask = mask_of(combo)
            if M.is_independent(mask) or any(mask & c == c for c in found):
                continue
            if all(M.is_independent(mask ^ (1 << (e - 1))) for e in combo):
                found.append(mask)
    return tuple(sorted(found))


def loop_is_paving(M):
    return all(popcount(c) >= M.r for c in loop_circuits(M))


def loop_is_sparse_paving(M):
    return loop_is_paving(M) and loop_is_paving(dual(M))


def scan_closure(M, mask):
    """The elements e with rank_of(S + e) == rank_of(S), each rank a scan of
    the bases."""
    r = rank_of(M, mask)
    return frozenset(e for e in range(1, M.n + 1) if rank_of(M, mask | 1 << (e - 1)) == r)


def has_no_1_separation(M):
    """rank(A) + rank(E - A) > r for every proper nonempty A holding element 1."""
    full = (1 << M.n) - 1
    return all(
        rank_of(M, A) + rank_of(M, full ^ A) > M.r for A in range(1, full, 2)
    )


def scalar_two_separation(M):
    if M.n < 4:
        return None
    full = (1 << M.n) - 1
    for A in range(1, full, 2):
        if 2 <= popcount(A) <= M.n - 2:
            if rank_of(M, A) + rank_of(M, full ^ A) - M.r <= 1:
                return (set_of(A), set_of(full ^ A))
    return None


def relabelled(mask, mapping):
    return mask_of(mapping[e] for e in elements(mask) if e in mapping)


def relabel_delete(M, S):
    smask = mask_of(S)
    keep = ((1 << M.n) - 1) & ~smask
    new_r = max(popcount(B & keep) for B in M.basis_masks)
    mapping = relabel_map(M.n, S)
    return Matroid(
        M.n - popcount(smask),
        {relabelled(B, mapping) for B in M.basis_masks if popcount(B & keep) == new_r},
    )


def relabel_contract(M, S):
    smask = mask_of(S)
    rk = max(popcount(B & smask) for B in M.basis_masks)
    mapping = relabel_map(M.n, S)
    return Matroid(
        M.n - popcount(smask),
        {relabelled(B, mapping) for B in M.basis_masks if popcount(B & smask) == rk},
    )


# ---------------------------------------------------------------------------
# fixtures


def _direct_sums(parts, count, seed):
    rng = random.Random(seed)
    small = [M for M in parts if M.n <= 5]
    return [direct_sum(rng.choice(small), rng.choice(small)) for _ in range(count)]


@pytest.fixture(scope="module")
def families():
    fams = {
        "lpm6": [M for _, M in lpm_family(6)],
        "sp7-3": list(sparse_paving_family(7, 3)),
        "bc5": [M for _, M in bicircular_family(5)],
        "sp8-4": list(sparse_paving_family(8, 4, limit=6)),
    }
    fams["sums"] = _direct_sums(fams["lpm6"] + fams["bc5"], 200, seed=5)
    return fams


def _random_minor_sets(M, rng):
    k = rng.randint(1, M.n)
    return sorted(rng.sample(range(1, M.n + 1), k))


# ---------------------------------------------------------------------------
# components and 1-separations


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.integers(0, (1 << n) - 1),
    st.lists(st.integers(0, (1 << n) - 1), max_size=8))))
@settings(max_examples=300, deadline=None, derandomize=True)
@example((0, []))
@example((0b1011, []))
@example((0b1111111, [0b11, 0b1000010, 0]))
@example((0b111111, [0b110000, 0b11000, 0b1100, 0b110, 0b11]))  # one link a pass
def test_mask_components_match_union_find(case):
    ground, masks = case
    masks = [m & ground for m in masks]
    parts = mask_components(ground, masks)
    assert [set_of(p) for p in parts] == union_find_parts(ground, masks)


@pytest.mark.parametrize("name", ["lpm6", "sp7-3", "bc5", "sp8-4", "sums", "edge"])
def test_components_match_circuit_union_find(families, name):
    for M in EDGE_CASES if name == "edge" else families[name]:
        comps = connected_components(M)
        assert comps == circuit_components(M)
        assert is_connected(M) == (len(comps) <= 1)


@pytest.mark.parametrize("name", ["lpm6", "sp7-3", "bc5", "sp8-4", "sums", "edge"])
def test_is_connected_matches_brute_force(families, name):
    for M in EDGE_CASES if name == "edge" else families[name]:
        assert is_connected(M) == (M.n <= 1 or has_no_1_separation(M))


def test_components_of_random_minors(families):
    rng = random.Random(11)
    pool = families["lpm6"] + families["bc5"] + families["sp7-3"]
    for _ in range(800):
        M = rng.choice(pool)
        S = _random_minor_sets(M, rng)
        N = (delete if rng.random() < 0.5 else contract)(M, S)
        assert connected_components(N) == circuit_components(N)


def test_direct_sum_components_are_the_parts_shifted():
    M, N = whirl(3), uniform(2, 4)
    assert connected_components(direct_sum(M, N)) == [
        frozenset(range(1, 7)), frozenset(range(7, 11))
    ]


def test_whirl_7_is_connected_quickly():
    W = whirl(7)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert is_connected(W)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


# ---------------------------------------------------------------------------
# minors


@pytest.mark.parametrize("name", ["lpm6", "sp7-3", "bc5", "sp8-4", "sums"])
def test_minors_match_relabel_map(families, name):
    rng = random.Random(len(name))
    for M in families[name][:300]:
        S = _random_minor_sets(M, rng)
        assert delete(M, S) == relabel_delete(M, S)
        assert contract(M, S) == relabel_contract(M, S)
        rest = [e for e in range(1, M.n + 1) if e not in S]
        assert restriction(M, S) == relabel_delete(M, rest)


def test_empty_minors_are_the_matroid():
    M = whirl(3)
    assert delete(M, []) == M and contract(M, []) == M and restriction(M, range(1, M.n + 1)) == M


# all loops, all coloops, the empty matroid, one coloop, and loops beside coloops
EDGE_CASES = [uniform(0, 3), uniform(3, 3), uniform(0, 0), uniform(1, 1), Matroid(4, [0b0110])]
ATLAS = [named_atlas(name) for name in ("U24", "MK4", "W3", "BK33", "TicTacToe")]
FIXTURES = [
    whirl(3), graphic(k4()), uniform(2, 5), uniform(0, 3), uniform(3, 3),
    direct_sum(uniform(1, 2), whirl(3)), direct_sum(uniform(2, 4), uniform(0, 1)),
    two_sum(graphic(k4()), 6, uniform(2, 3), 1),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_minors_of_random_fixtures_equal_the_reference(data):
    M = data.draw(st.sampled_from(FIXTURES))
    S = data.draw(st.sets(st.integers(1, M.n), max_size=M.n))
    T = data.draw(st.sets(st.integers(1, M.n), max_size=M.n).map(lambda t: t - S))
    assert delete(M, S) == relabel_delete(M, S)
    assert contract(M, S) == relabel_contract(M, S)
    # a contraction after a deletion, labels as the reference chains them
    N = delete(M, S)
    later = [relabel_map(M.n, S)[e] for e in T]
    assert contract(N, later) == relabel_contract(relabel_delete(M, S), later)


@st.composite
def mask_families(draw):
    """A sorted, distinct family of equal-size masks on n <= 8 (a matroid's
    bases or not), a mask S of removed elements and the pick."""
    n = draw(st.integers(0, 8))
    r = draw(st.integers(0, n))
    sized = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    masks = sorted(draw(st.sets(st.sampled_from(sized), min_size=1)))
    S = draw(st.one_of(st.just(0), st.just((1 << n) - 1), st.integers(0, (1 << n) - 1)))
    return n, masks, S, draw(st.sampled_from([min, max]))


@given(mask_families())
@settings(max_examples=400, deadline=None, derandomize=True)
@example((3, [0b011, 0b101, 0b110], 0b001, max))  # kept masks agree on S
@example((3, [0b011, 0b101, 0b110], 0b011, min))  # they disagree: 0b101 and 0b110 collide
@example((3, [0b011, 0b101, 0b110], 0b001, min))  # a deletion that 0b110 avoids: the filter
@example((4, [0b0011, 0b0101, 0b0110, 0b1001], 0b0011, max))  # a contraction 0b0011 holds: the filter
@example((3, [0b011, 0b101], 0b001, min))  # every mask holds S: the count keeps the order
@example((4, [0b0101, 0b0110, 0b1001, 0b1010], 0b0011, max))  # none holds S: dedup and sort
@example((3, [0b011, 0b101, 0b110], 0, min))  # S = 0: the masks themselves
def test_minor_masks_match_the_reference(case):
    n, masks, S, pick = case
    k = pick(popcount(B & S) for B in masks)
    mapping = relabel_map(n, elements(S))
    reference = tuple(sorted({relabelled(B, mapping) for B in masks if popcount(B & S) == k}))
    got = _minor_masks(masks, S, pick)
    assert got == reference
    assert all(a < b for a, b in zip(got, got[1:]))


def test_balance_stream_of_the_structure_census_is_pinned():
    """The minors is_balanced counts over the census-structure slice."""
    for stream, total in (
        ((M for _, M in bicircular_family(5)), 1305),
        (sparse_paving_family(8, 4, limit=6), 335),
    ):
        vs = [is_balanced(M) for M in stream]
        assert {v.outcome for v in vs} == {"Holds"}
        assert sum(v.diagnostics["minors"] for v in vs) == total


TRUSTED_MINOR_STREAMS = {
    "sp6-3": lambda: sparse_paving_family(6, 3),
    "lpm5": lambda: (M for _, M in lpm_family(5)),
    "bc4": lambda: (M for _, M in bicircular_family(4)),
    "atlas": lambda: ATLAS,
}


def _revalidated(N):
    """N rebuilt with the basis exchange check; raises if N is no matroid."""
    return Matroid(N.n, N.basis_masks)


@pytest.mark.parametrize("name", TRUSTED_MINOR_STREAMS)
def test_trusted_minors_pass_validation(name):
    for M in TRUSTED_MINOR_STREAMS[name]():
        for e in range(1, M.n + 1):
            for N in (delete(M, [e]), contract(M, [e])):
                assert _revalidated(N) == N
        for n, masks, _, _ in _minors(M):
            assert Matroid(n, masks).basis_masks == masks


def test_minors_skip_the_exchange_check(monkeypatch):
    M = graphic(k4())

    def refuse(self):
        raise AssertionError("minor re-validated")

    monkeypatch.setattr(Matroid, "_check_exchange", refuse)
    assert delete(M, [1]).r == 3 and contract(M, [1]).r == 2
    assert restriction(M, [1, 2, 3]).n == 3


# ---------------------------------------------------------------------------
# 2-separations


@pytest.mark.parametrize(
    "stream",
    [
        lambda: (M for _, M in lpm_family(5)),
        lambda: (M for _, M in bicircular_family(5)),
        lambda: iter([
            two_sum(uniform(2, 3), 3, uniform(2, 3), 3),
            two_sum(graphic(k4()), 6, uniform(2, 3), 1),
            two_sum(whirl(3), 1, graphic(k4()), 2),
        ]),
    ],
    ids=["lpm5", "bc5", "two_sum"],
)
def test_two_separation_matches_scalar_loop(stream):
    for M in stream():
        assert two_separation(M) == scalar_two_separation(M)


def test_two_sums_separate_and_whirls_do_not():
    T = two_sum(graphic(k4()), 6, uniform(2, 3), 1)
    assert two_separation(T) is not None
    assert two_separation(whirl(4)) is None


def test_whirl_7_two_separation_quickly():
    start = time.perf_counter()
    assert two_separation(whirl(7)) is None
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# circuits, paving and sparse paving


@pytest.mark.parametrize("name", ["lpm6", "sp7-3", "bc5", "sp8-4", "sums", "atlas", "edge"])
def test_circuits_and_paving_match_the_circuit_loop(families, name):
    stream = {"atlas": ATLAS, "edge": EDGE_CASES}.get(name) or families[name]
    for M in stream:
        assert circuits(M) == loop_circuits(M)
        assert is_paving(M) == loop_is_paving(M)
        assert is_sparse_paving(M) == loop_is_sparse_paving(M)


@pytest.mark.parametrize("stream", [
    lambda: (M for _, M in lpm_family(5)), lambda: sparse_paving_family(7, 3), lambda: ATLAS,
], ids=["lpm5", "sp7-3", "atlas"])
def test_closure_matches_the_rank_scan_on_every_subset(stream):
    for M in stream():
        for mask in range(1 << M.n):
            assert closure(M, mask) == scan_closure(M, mask), (M, mask)


@pytest.mark.parametrize("n,r,limit", [(6, 3, 1000), (7, 3, 1000), (8, 4, 6)])
def test_streamed_sparse_paving_matroids_pass_the_oracle(n, r, limit):
    streamed = list(sparse_paving_family(n, r, limit=limit))
    assert streamed and all(loop_is_sparse_paving(M) for M in streamed)


def test_circuits_of_u_8_16_quickly():
    start = time.perf_counter()
    assert len(circuits(uniform(8, 16))) == 11440
    assert time.perf_counter() - start < 0.5
