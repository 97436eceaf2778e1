"""Matroid representation, minors, duality, sums, isomorphism."""
import random

import pytest

from matroidwb.core import (
    Matroid,
    circuits,
    closure,
    connected_components,
    contract,
    delete,
    direct_sum,
    dual,
    from_bases,
    is_connected,
    isomorphism,
    mask_of,
    popcount,
    rank_of,
    relax,
    restriction,
    set_of,
    two_separation,
    two_sum,
)
from matroidwb.constructions import graphic, k4, named_atlas, uniform, whirl
from matroidwb.errors import (
    BasepointIsSeparator,
    EmptyBases,
    ExchangeViolation,
    MixedCardinality,
    NotCircuitHyperplane,
)


def exchange_holds(M):
    """Independent brute-force check of the basis exchange axiom."""
    bset = set(M.basis_masks)
    for I in M.basis_masks:
        for J in M.basis_masks:
            for a in set_of(I & ~J):
                abit = 1 << (a - 1)
                if not any(
                    (I ^ abit) | (1 << (b - 1)) in bset for b in set_of(J & ~I)
                ):
                    return False
    return True


def random_small_matroid(rng):
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(1, 7)
        return uniform(rng.randint(0, n), n)
    if kind == 1:
        return graphic(k4())
    if kind == 2:
        return whirl(rng.randint(2, 3))
    n = rng.randint(2, 6)
    r = rng.randint(1, n)
    # random subset of the k-sets that happens to satisfy exchange, else retry
    from itertools import combinations

    allsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    for _ in range(50):
        chosen = [m for m in allsets if rng.random() < 0.7]
        if not chosen:
            continue
        try:
            return Matroid(n, chosen)
        except ExchangeViolation:
            continue
    return uniform(r, n)


class TestFromBases:
    def test_uniform_24(self):
        M = from_bases(4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
        assert M == uniform(2, 4)
        assert M.r == 2

    def test_exchange_violation(self):
        with pytest.raises(ExchangeViolation) as exc:
            from_bases(4, [[1, 2], [3, 4]])
        assert exc.value.a in exc.value.I

    def test_paper_example_bases(self):
        triples = [
            [1, 2, 5], [1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6],
            [1, 5, 6], [2, 3, 5], [2, 3, 6], [2, 4, 5], [2, 4, 6], [2, 5, 6],
            [3, 4, 5], [3, 4, 6], [3, 5, 6],
        ]
        M = from_bases(6, triples)
        assert M.r == 3
        assert len(M.basis_masks) == 15

    def test_mixed_cardinality(self):
        with pytest.raises(MixedCardinality):
            from_bases(3, [[1, 2], [3]])

    def test_empty(self):
        with pytest.raises(EmptyBases):
            from_bases(3, [])

    def test_dedup_and_canonical_order(self):
        M = from_bases(3, [[2, 3], [1, 2], [2, 3], [1, 3]])
        assert M.basis_masks == tuple(sorted(set(M.basis_masks)))
        assert len(M.basis_masks) == 3

    def test_validation_agrees_with_bruteforce(self):
        rng = random.Random(5)
        from itertools import combinations

        for _ in range(200):
            n = rng.randint(2, 5)
            r = rng.randint(1, n)
            allsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
            chosen = [m for m in allsets if rng.random() < 0.6]
            if not chosen:
                continue
            try:
                M = Matroid(n, chosen)
                ok = True
            except ExchangeViolation:
                ok = False
            probe = Matroid(n, chosen, validate=False)
            assert ok == exchange_holds(probe)


class TestRank:
    def test_empty_set(self):
        assert rank_of(uniform(2, 4), []) == 0

    def test_rank_cap(self):
        assert rank_of(uniform(2, 4), [1, 2, 3]) == 2

    def test_triangle_in_k4(self):
        M = graphic(k4())
        # rim elements 4,5,6 form a triangle: rank 2
        assert rank_of(M, [4, 5, 6]) == 2

    def test_closure(self):
        M = graphic(k4())
        assert closure(M, [4, 5]) == frozenset({4, 5, 6})


class TestCircuits:
    def test_u23(self):
        assert [set_of(m) for m in circuits(uniform(2, 3))] == [{1, 2, 3}]

    def test_u34(self):
        assert [set_of(m) for m in circuits(uniform(3, 4))] == [{1, 2, 3, 4}]

    def test_antichain_and_cover(self):
        rng = random.Random(1)
        for _ in range(20):
            M = random_small_matroid(rng)
            cs = circuits(M)
            for a in cs:
                for b in cs:
                    assert a == b or (a & b) != a
            # every (r+1)-subset contains a circuit
            from itertools import combinations

            for S in combinations(range(1, M.n + 1), M.r + 1):
                smask = mask_of(S)
                assert any(c & smask == c for c in cs)

    def test_bicircular_doubled_triangle(self):
        from matroidwb.constructions import MultiGraph, bicircular

        G = MultiGraph(v=3, edges=((1, 2), (1, 2), (2, 3), (3, 1)))
        M = bicircular(G)
        assert all(popcount(c) == 4 for c in circuits(M))


class TestDual:
    def test_u24_self_dual(self):
        assert dual(uniform(2, 4)) == uniform(2, 4)

    def test_involution_and_rank(self):
        rng = random.Random(2)
        for _ in range(50):
            M = random_small_matroid(rng)
            D = dual(M)
            assert M.r + D.r == M.n
            assert dual(D) == M

    def test_tictactoe(self):
        T = named_atlas("TicTacToe")
        assert (T.n, T.r) == (9, 3)


class TestMinors:
    def test_delete_u24(self):
        assert delete(uniform(2, 4), [4]) == uniform(2, 3)

    def test_contract_u24(self):
        assert contract(uniform(2, 4), [4]) == uniform(1, 3)

    def test_contract_k4_edge(self):
        M = contract(graphic(k4()), [1])
        assert (M.n, M.r) == (5, 2)
        # two parallel pairs appear as 2-element circuits
        pairs = [set_of(c) for c in circuits(M) if popcount(c) == 2]
        assert len(pairs) == 2

    def test_minor_dual_commute(self):
        rng = random.Random(3)
        for _ in range(30):
            M = random_small_matroid(rng)
            if M.n < 2:
                continue
            e = rng.randint(1, M.n)
            assert dual(delete(M, [e])) == contract(dual(M), [e])

    @pytest.mark.parametrize("minor", [delete, contract, restriction])
    @pytest.mark.parametrize("S", [[4], [1, 4], [0], [-1]])
    def test_an_element_outside_the_ground_set_is_refused(self, minor, S):
        bad = S[-1]
        with pytest.raises(ValueError, match=rf"element {bad} is not in the ground set 1\.\.3"):
            minor(uniform(2, 3), S)

    def test_delete_everything_is_rank_zero(self):
        M = delete(uniform(2, 3), [1, 2])
        assert M.r == 0 or M.r == 1  # deleting two elements of U(2,3) leaves U(1,1)
        M2 = delete(uniform(0, 2), [1])
        assert M2.r == 0 and M2.basis_masks == (0,)


class TestSums:
    def test_direct_sum_counts(self):
        S = direct_sum(uniform(2, 3), uniform(1, 2))
        assert (S.n, S.r, len(S.basis_masks)) == (5, 3, 6)

    def test_direct_sum_u11(self):
        assert direct_sum(uniform(1, 1), uniform(1, 1)) == uniform(2, 2)

    def test_direct_sum_with_loops(self):
        S = direct_sum(uniform(2, 3), uniform(0, 2))
        assert S.r == 2 and S.n == 5

    def test_two_sum_u23(self):
        T = two_sum(uniform(2, 3), 3, uniform(2, 3), 3)
        assert T == uniform(3, 4)
        assert [set_of(m) for m in circuits(T)] == [{1, 2, 3, 4}]

    def test_two_sum_has_two_separation(self):
        T = two_sum(uniform(2, 3), 3, uniform(2, 3), 3)
        sep = two_separation(T)
        assert sep is not None
        A, B = sep
        assert len(A) >= 2 and len(B) >= 2

    def test_two_sum_coloop_rejected(self):
        # element 1 of U(2,2) is a coloop
        with pytest.raises(BasepointIsSeparator):
            two_sum(uniform(2, 2), 1, uniform(2, 3), 1)

    @pytest.mark.parametrize("p, q, bad, n", [
        (0, 1, 0, 3), (-1, 1, -1, 3), (4, 1, 4, 3), (1, 0, 0, 4), (1, -1, -1, 4), (1, 5, 5, 4)])
    def test_two_sum_basepoint_outside_the_ground_set_is_refused(self, p, q, bad, n):
        with pytest.raises(ValueError, match=rf"^element {bad} is not in the ground set 1\.\.{n}$"):
            two_sum(uniform(2, 3), p, uniform(2, 4), q)

    def test_two_sum_circuits_roundtrip(self):
        # rebuild circuits of the 2-sum and compare with the gluing formula
        M = graphic(k4())
        N = uniform(2, 3)
        T = two_sum(M, 6, N, 1)
        assert T.n == M.n + N.n - 2
        assert T.r == M.r + N.r - 1
        assert exchange_holds(T)


class TestIsomorphism:
    def test_relabelled_uniform(self):
        M = uniform(2, 4)
        N = from_bases(4, [[3, 4], [2, 4], [1, 4], [2, 3], [1, 3], [1, 2]])
        assert isomorphism(M, N) is not None

    def test_distinguishes_counts(self):
        from matroidwb.constructions import MultiGraph

        cycle4 = graphic(MultiGraph(v=4, edges=((1, 2), (2, 3), (3, 4), (4, 1))))
        assert isomorphism(uniform(2, 4), cycle4) is None

    def test_whirl_vs_mk4(self):
        assert isomorphism(whirl(3), graphic(k4())) is None
        assert len(whirl(3).basis_masks) == 17
        assert len(graphic(k4()).basis_masks) == 16

    def test_witness_is_valid_map(self):
        rng = random.Random(4)
        for _ in range(20):
            M = random_small_matroid(rng)
            perm = list(range(1, M.n + 1))
            rng.shuffle(perm)
            relabeled = Matroid(
                M.n,
                [
                    mask_of(perm[e - 1] for e in set_of(B))
                    for B in M.basis_masks
                ],
            )
            phi = isomorphism(M, relabeled)
            assert phi is not None
            mapped = {
                mask_of(phi[e] for e in set_of(B)) for B in M.basis_masks
            }
            assert mapped == set(relabeled.basis_masks)


class TestConnectivity:
    def test_u24_connected_no_2sep(self):
        assert is_connected(uniform(2, 4))
        assert two_separation(uniform(2, 4)) is None

    def test_direct_sum_disconnected(self):
        assert not is_connected(direct_sum(uniform(1, 2), uniform(1, 2)))

    def test_components(self):
        S = direct_sum(uniform(1, 2), uniform(2, 3))
        assert connected_components(S) == [
            frozenset({1, 2}),
            frozenset({3, 4, 5}),
        ]


@pytest.mark.parametrize("op", [rank_of, closure, relax])
@pytest.mark.parametrize(
    "S, bad", [([1, 9], 9), ([9], 9), ([0], 0), (0b1_0000_0011, 9), (0b1000, 4)])
def test_a_set_with_an_element_outside_the_ground_set_is_refused(op, S, bad):
    with pytest.raises(ValueError, match=rf"element {bad} is not in the ground set 1\.\.3"):
        op(uniform(2, 3), S)


@pytest.mark.parametrize("op", [rank_of, closure, relax])
def test_a_negative_mask_is_refused(op):
    with pytest.raises(ValueError, match="cannot be negative"):
        op(uniform(2, 3), -1)


class TestRelax:
    def test_k4_rim_gives_whirl(self):
        W = relax(graphic(k4()), [4, 5, 6])
        assert isomorphism(W, whirl(3)) is not None

    def test_relax_to_uniform(self):
        # remove one basis from U(2,4), relax it back
        allb = list(uniform(2, 4).basis_masks)
        M = Matroid(4, allb[:-1])
        assert relax(M, set_of(allb[-1])) == uniform(2, 4)

    def test_basis_rejected(self):
        with pytest.raises(NotCircuitHyperplane):
            relax(uniform(2, 4), [1, 2])

    def test_wrong_size_rejected(self):
        with pytest.raises(NotCircuitHyperplane):
            relax(graphic(k4()), [1, 2])


class TestOpOutputsSatisfyExchange:
    """The exchange axiom holds for the output of every operation."""

    def test_sweep(self):
        rng = random.Random(9)
        for _ in range(15):
            M = random_small_matroid(rng)
            assert exchange_holds(M)
            assert exchange_holds(dual(M))
            if M.n >= 2:
                e = rng.randint(1, M.n)
                assert exchange_holds(delete(M, [e]))
                assert exchange_holds(contract(M, [e]))
            N = uniform(1, 2)
            assert exchange_holds(direct_sum(M, N))
