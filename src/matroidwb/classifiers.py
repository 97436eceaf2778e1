"""Class-membership tests and deterministic family generators."""
from __future__ import annotations

import functools
from itertools import combinations, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    FamilyClasses,
    Matroid,
    mask_components,
    mask_of,
    popcount,
    subset_sizes,
)
from .constructions import (
    LatticePathPair,
    MultiGraph,
    bicircular,
    lattice_path,
)
from .errors import SizeCapExceeded

# largest ground set the positroid order search accepts
MAX_POSITROID_N = 12

# ---------------------------------------------------------------------------
# paving


def is_paving(M: Matroid) -> bool:
    """No circuit smaller than the rank: every (r-1)-set is independent."""
    return M.r == 0 or bool(M._indep_table()[subset_sizes(M.n) == M.r - 1].all())


def is_sparse_paving(M: Matroid) -> bool:
    """M and its dual are paving: also every (r+1)-set spans."""
    return is_paving(M) and bool(M._spanning_table()[subset_sizes(M.n) == M.r + 1].all())


# ---------------------------------------------------------------------------
# base-sorting orders / positroids


@functools.cache
def _odd_parts(n: int) -> tuple[int, ...]:
    """odd[m] for every n-bit mask m (n <= 16): the 1st, 3rd, 5th, ... lowest
    bits of m, the bits with an odd number of bits of m at or below them."""
    m = np.arange(1 << n, dtype=np.int64)
    parity = m.copy()  # bit b: the parity of the bits of m at or below b
    for shift in (1, 2, 4, 8):
        parity ^= parity << shift
    return tuple((m & parity).tolist())


def is_base_sorting_order(M: Matroid, order: Sequence[int]) -> bool:
    """Whether merging any two bases in this order and splitting the merged
    multiset into odd and even positions always yields two bases.

    In the sorted merge of bases A and C an element of A & C fills two
    adjacent places, one odd and one even, and the elements of A ^ C take
    turns, lowest position first: the halves are (A & C) plus the 1st, 3rd,
    ... and the 2nd, 4th, ... elements of A ^ C, read off a lookup table.
    """
    if sorted(order) != list(range(1, M.n + 1)):
        raise ValueError("order must be a permutation of the ground set")
    # each basis as the mask of its elements' positions in the order
    bits = [(1 << k, 1 << (e - 1)) for k, e in enumerate(order)]
    pmasks = [sum(pb for pb, eb in bits if B & eb) for B in M.basis_masks]
    bset = set(pmasks)
    odd_part = _odd_parts(M.n)
    for a, A in enumerate(pmasks):
        for C in pmasks[a + 1:]:
            rest = A ^ C
            odd = (A & C) | odd_part[rest]
            if odd not in bset or odd ^ rest not in bset:
                return False
    return True


def _violations(M: Matroid) -> tuple[int, np.ndarray, np.ndarray]:
    """The non-bases among the r-sets and the sets that rule each one out.

    Returns ``(count, s, I)``: pair k says that non-basis number ``s[k]``, S,
    has |S & I[k]| > rank(I[k]).  Only dependent sets can violate, and S
    itself always does, so every non-basis has a pair; ``s`` is sorted.
    """
    sizes = subset_sizes(M.n)
    dep = np.flatnonzero(M._indep_table() == 0)
    nonbases = dep[sizes[dep] == M.r]
    if not nonbases.size:
        return 0, nonbases, nonbases
    rank = M._rank_table()
    # masks fit 16 bits; the pairwise intersections are the largest array
    S, D = nonbases.astype(np.uint16), dep.astype(np.uint16)
    s, i = np.nonzero(sizes[S[:, None] & D[None, :]] > rank[dep][None, :])
    return nonbases.size, s, dep[i]


# Where the prefix positions y of a set I may lie if I is to be a cyclic
# interval of an order that starts with the prefix.
ANYWHERE, NOTHING_UNPLACED, ALL_UNPLACED, NEVER = range(4)


@functools.cache
def _prefix_shapes(p: int) -> np.ndarray:
    """shape[y] for every mask y of positions in a p-element prefix:
    ANYWHERE if y is empty or a block touching an end of the prefix;
    NOTHING_UNPLACED if y is an inner block (I must lie in the prefix);
    ALL_UNPLACED if y is the two ends around one inner gap (I must hold
    every unplaced element, to wrap round); NEVER otherwise.  Read-only."""
    y = np.arange(1 << p, dtype=np.int64)
    block = (y & (y + (y & -y))) == 0
    gap = ((1 << p) - 1) ^ y
    gap_block = (gap & (gap + (gap & -gap))) == 0
    ends = (y & (1 | 1 << (p - 1))) != 0
    shape = np.full(1 << p, NEVER, dtype=np.uint8)
    shape[gap_block & ~block] = ALL_UNPLACED
    shape[block] = NOTHING_UNPLACED
    shape[(y == 0) | (block & ends)] = ANYWHERE
    shape.flags.writeable = False
    return shape


def _can_be_interval(y: np.ndarray, I: np.ndarray, p: int, unplaced: int) -> np.ndarray:
    """Whether each set I[k] is a cyclic interval of some order that starts
    with a given p-element prefix.  y[k] marks the prefix positions that
    hold elements of I[k]; ``unplaced`` is the mask of the other elements.
    With nothing unplaced this is exactly "I is a cyclic interval of the
    order"."""
    shape = _prefix_shapes(p)[y]
    outside = I & unplaced
    return (
        (shape == ANYWHERE)
        | ((shape == NOTHING_UNPLACED) & (outside == 0))
        | ((shape == ALL_UNPLACED) & (outside == unplaced))
    )


def _interchangeable(M: Matroid) -> list[int]:
    """twins[e]: the mask of the elements e' < e whose transposition with e
    maps the set of bases onto itself."""
    B = np.array(M.basis_masks, dtype=np.int64)  # sorted
    twins = [0] * (M.n + 1)
    for d, e in combinations(range(1, M.n + 1), 2):
        flip = ((B >> (d - 1)) ^ (B >> (e - 1))) & 1
        if np.array_equal(np.sort(B ^ flip * ((1 << (d - 1)) | (1 << (e - 1)))), B):
            twins[e] |= 1 << (d - 1)
    return twins


def _interval_order(M: Matroid) -> Optional[tuple[int, ...]]:
    """The lexicographically first order, with element 1 first, in which
    every non-basis r-set breaks a cyclic-interval rank bound; None if no
    order does."""
    n = M.n
    identity = tuple(range(1, n + 1))
    count, s, I = _violations(M)
    if not count:
        return identity
    # The identity is the first order the search reaches; in it the
    # positions of I are I itself.
    if np.bincount(s[_can_be_interval(I, I, n, 0)], minlength=count).all():
        return identity
    twins = _interchangeable(M)

    def extend(prefix: list[int], unplaced: int, s, I, y):
        # drop the pairs whose set can no longer become a cyclic interval
        p = len(prefix)
        keep = _can_be_interval(y, I, p, unplaced)
        s, I, y = s[keep], I[keep], y[keep]
        if not np.bincount(s, minlength=count).all():
            return None
        if not unplaced:
            return tuple(prefix)
        for e in range(2, n + 1):
            bit = 1 << (e - 1)
            # with a smaller interchangeable element e' unplaced, e's subtree
            # is the image of the subtree of the smallest such e', which has
            # already failed
            if unplaced & bit and not twins[e] & unplaced:
                found = extend(
                    prefix + [e], unplaced ^ bit, s, I, y | ((I >> (e - 1)) & 1) << p
                )
                if found is not None:
                    return found
        return None

    return extend([1], ((1 << n) - 1) ^ 1, s, I, I & 1)


def positroid_verdict(M: Matroid) -> Optional[tuple[int, ...]]:
    """A base-sorting order for M, or None if none exists.

    M is a positroid in a cyclic order iff every non-basis r-set S breaks a
    cyclic-interval rank bound: |S & I| > rank(I) for some cyclic interval I
    of the order.  This is Oh's theorem (JCTA 118, 2011), that a positroid is
    the intersection of the shifted Schubert matroids of its Grassmann
    necklace: S lies in the shifted Schubert matroid of necklace member i
    iff |S & J| <= rank(J) for every initial interval J of the order
    started at i.

    A depth-first search over orders with element 1 first, smallest unused
    element next, drops a prefix as soon as some S has no violating set that
    can still become a cyclic interval.  Pinning element 1 is exact because
    an order and its cyclic shifts have the same cyclic intervals.  A child
    e is skipped while a smaller unplaced e' is interchangeable with it (the
    transposition of e and e' maps the bases onto themselves): that
    automorphism carries the subtree of e' onto the subtree of e.  The
    search visits orders lexicographically and prunes only orders that
    cannot work, so the result is the first such order.

    Positroids are exactly the base-sorting matroids (Lam–Postnikov), so
    the order found is re-checked once with :func:`is_base_sorting_order`,
    and a disagreement raises.  Once is enough: every cyclic shift of the
    order gives the same answer.  Two bases A and C have the same size, so
    |A ^ C| is even, and reading the positions cyclically from any start
    splits A ^ C into the same two alternating halves, at most swapped;
    the test asks that both halves, each joined with A & C, are bases.
    """
    if M.n > MAX_POSITROID_N:
        raise SizeCapExceeded(f"positroid search capped at n = {MAX_POSITROID_N}")
    order = _interval_order(M)
    if order is not None and not is_base_sorting_order(M, order):
        raise RuntimeError(f"order {order} passes the interval test but is not base-sorting")
    return order


# ---------------------------------------------------------------------------
# sparse paving family (stream of isomorphism-class representatives)


def sparse_paving_family(n: int, r: int, limit: Optional[int] = None) -> Iterator[Matroid]:
    """Sparse paving matroids on [n] of rank r, one per isomorphism class;
    the first ``limit`` classes, or every class when it is None.

    Non-basis families H (r-sets, pairwise symmetric difference >= 4) are
    grown breadth-first by size.  A permutation of [n] fixes the set of
    r-sets, so it carries bases onto bases exactly when it carries H onto the
    other non-basis family: each new H is compared with the earlier ones by
    :class:`FamilyClasses`, and each new class representative is
    validated and streamed.  Deterministic enumeration order.
    """
    if not 0 < r < n:
        raise ValueError("need 0 < r < n")
    if n > 10:
        raise SizeCapExceeded("sparse paving census capped at n = 10")
    rsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    nr = len(rsets)
    conflict = [0] * nr
    for i in range(nr):
        for j in range(nr):
            if i != j and popcount(rsets[i] ^ rsets[j]) == 2:
                conflict[i] |= 1 << j

    def nonbases() -> Iterator[tuple[int, ...]]:
        """One H per class as sorted index tuples, the empty H (the uniform
        matroid) first."""
        yield ()
        reps: list[tuple[int, ...]] = [()]
        classes = FamilyClasses()  # of the non-basis families
        while reps:
            next_reps: list[tuple[int, ...]] = []
            for H in reps:
                forbidden = 0
                for i in H:
                    forbidden |= conflict[i] | (1 << i)
                for v in range(nr):
                    if forbidden & (1 << v):
                        continue
                    H2 = tuple(sorted(H + (v,)))
                    if not classes.is_new(n, tuple(rsets[i] for i in H2)):
                        continue
                    next_reps.append(H2)
                    yield H2
            reps = next_reps

    for H in islice(nonbases(), limit):
        # r-sets pairwise at symmetric difference >= 4 always leave a
        # sparse paving matroid; the constructor still validates it
        gone = {rsets[i] for i in H}
        yield Matroid(n, [m for m in rsets if m not in gone])


# ---------------------------------------------------------------------------
# lattice path family


def lpm_family(max_total: int) -> Iterator[tuple[LatticePathPair, Matroid]]:
    """All lattice path presentations with m + r <= max_total, streamed with
    their matroids in a fixed enumeration order."""
    if max_total > 9:
        raise SizeCapExceeded("path census capped at m + r = 9")
    for total in range(1, max_total + 1):
        for r in range(0, total + 1):
            pos = list(combinations(range(1, total + 1), r))
            for q_n in pos:  # upper path: N steps as early as the lower's
                for p_n in pos:
                    if any(l > u for l, u in zip(q_n, p_n)):
                        continue
                    p = "".join(
                        "N" if i in set(p_n) else "E" for i in range(1, total + 1)
                    )
                    q = "".join(
                        "N" if i in set(q_n) else "E" for i in range(1, total + 1)
                    )
                    L = LatticePathPair(p, q)
                    yield (L, lattice_path(L))


# ---------------------------------------------------------------------------
# bicircular family


def _canonical_graph_key(v: int, edges: tuple[tuple[int, int], ...]):
    """Degree-refinement relabelling key; collapses most isomorphic copies."""
    deg = [0] * (v + 1)
    # the other end of each edge at u; a loop counts once
    inc: list[list[int]] = [[] for _ in range(v + 1)]
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
        inc[a].append(b)
        if a != b:
            inc[b].append(a)
    profile = [(d,) for d in deg]
    for _ in range(2):
        profile = [(profile[u], tuple(sorted(profile[w] for w in inc[u]))) for u in range(v + 1)]
    relabel = [0] * (v + 1)
    for k, u in enumerate(sorted(range(1, v + 1), key=lambda u: (profile[u], u))):
        relabel[u] = k + 1
    canon = tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in edges))
    return (v, canon)


def _connected_multigraphs(v: int, e: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The connected multigraphs on vertices 1..v with e edges and no
    isolated vertex, as e-multisets of the slots (a, b), a <= b, in the
    order of ``combinations_with_replacement`` over the sorted slots.

    A depth-first search over slot indices drops a prefix once its
    uncovered vertices outnumber the edges still to place (rooted at a
    covered vertex, a spanning tree gives each uncovered vertex an edge of
    its own, and none is placed yet), or once its lowest uncovered vertex
    lies below every slot still allowed.  A leaf must cover every vertex,
    and the part of vertex 1 that its edges join must be every vertex."""
    slots = [(a, b) for a in range(1, v + 1) for b in range(a, v + 1)]
    low = [1 << (a - 1) for a, _ in slots]
    span = [1 << (a - 1) | 1 << (b - 1) for a, b in slots]
    slot_of = dict(zip(span, slots))
    full = (1 << v) - 1
    chosen: list[int] = []  # the spans of the slots chosen so far

    def walk(start: int, left: int, covered: int):
        lowest_uncovered = (covered + 1) & ~covered
        for i in range(start, len(slots)):
            # the slots are sorted, so no later slot touches a lower vertex
            if low[i] > lowest_uncovered:
                break
            c = covered | span[i]
            if v - popcount(c) > left - 1:
                continue
            chosen.append(span[i])
            if left > 1:
                yield from walk(i, left - 1, c)
            elif c == full and mask_components(full, chosen)[0] == full:
                yield tuple(slot_of[s] for s in chosen)
            chosen.pop()

    yield from walk(0, e, 0)


def bicircular_family(max_edges: int) -> Iterator[tuple[MultiGraph, Matroid]]:
    """Connected multigraphs (loops and parallels allowed) up to the edge
    bound, streamed with their bicircular matroids.  The stream is of graphs,
    not of matroid classes: cheap canonical keys suppress most isomorphic
    graphs, and non-isomorphic graphs can have isomorphic matroids."""
    if max_edges > 9:
        raise SizeCapExceeded("bicircular census capped at 9 edges")
    seen = set()
    for v in range(1, max_edges + 2):
        for e in range(max(1, v - 1), max_edges + 1):
            for combo in _connected_multigraphs(v, e):
                key = _canonical_graph_key(v, combo)
                if key in seen:
                    continue
                seen.add(key)
                G = MultiGraph(v=v, edges=combo)
                yield (G, bicircular(G))
