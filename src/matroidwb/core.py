"""Exact matroids on small ground sets, represented by their bases as bit-sets.

Elements are 1-indexed (1..n, n <= 16); a subset of the ground set is an
n-bit integer mask with bit i-1 standing for element i.  All operations are
pure: a Matroid is immutable after construction.
"""
from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BasepointIsSeparator,
    EmptyBases,
    ExchangeViolation,
    MixedCardinality,
    NotCircuitHyperplane,
)

MAX_ELEMENTS = 16


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(elements(mask))


def elements(mask: int) -> list[int]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


popcount = int.bit_count


@functools.cache
def subset_sizes(n: int) -> np.ndarray:
    """sizes[S] == |S| for every subset S of an n-element ground set
    (read-only; one array per n is kept)."""
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        sizes.reshape(-1, 2, 1 << i)[:, 1, :] += 1
    sizes.flags.writeable = False
    return sizes


class Matroid:
    """A matroid given by its set of bases.

    The constructor checks the basis exchange axiom unless ``validate`` is
    false; :func:`from_bases` also checks the labels of the given sets.
    Minors are built with ``validate=False``: a minor of a matroid is one.
    The balance check builds no minor: it counts on mask tuples (a contraction
    by :func:`_minor_masks`, each deletion by a filter and :func:`_squeeze`).
    """

    __slots__ = (
        "n", "r", "basis_masks", "_basis_set",
        "_indep", "_spanning", "_rank",
    )

    def __init__(self, n: int, basis_masks: Iterable[int], validate: bool = True):
        masks = tuple(sorted(set(basis_masks)))
        if not masks:
            raise EmptyBases("a matroid needs at least one basis")
        if n < 0 or n > MAX_ELEMENTS:
            raise ValueError(f"ground set size must be in 0..{MAX_ELEMENTS}, got {n}")
        full = (1 << n) - 1
        r = popcount(masks[0])
        for m in masks:
            if m & ~full:
                raise ValueError("basis uses elements outside the ground set")
            if popcount(m) != r:
                raise MixedCardinality("bases must all have the same size")
        self.n = n
        self.r = r
        self.basis_masks = masks
        self._basis_set = frozenset(masks)
        self._indep = None
        self._spanning = None
        self._rank = None
        if validate:
            self._check_exchange()

    # -- validation -----------------------------------------------------

    def _check_exchange(self) -> None:
        masks = self.basis_masks
        if len(masks) == 1:
            return
        # All r-subsets present => uniform, exchange holds trivially.
        import math

        if len(masks) == math.comb(self.n, self.r):
            return
        spanning = self._spanning_table()
        bset = self._basis_set
        full = (1 << self.n) - 1
        for I in masks:
            for a in elements(I):
                abit = 1 << (a - 1)
                # neighbours: b outside I with I - a + b a basis
                nb = 0
                swapped = I ^ abit
                rest = full & ~I
                b = rest
                while b:
                    bbit = b & -b
                    if (swapped | bbit) in bset:
                        nb |= bbit
                    b ^= bbit
                # a violating J is any basis avoiding both a and nb
                allowed = (full & ~nb & ~abit) | (I & ~abit)
                if spanning[allowed]:
                    J = next(m for m in masks if m & ~allowed == 0)
                    raise ExchangeViolation(set_of(I), set_of(J), a)

    # -- cached subset tables -------------------------------------------

    def _indep_table(self) -> np.ndarray:
        """indep[S] == 1 iff S is contained in some basis."""
        if self._indep is None:
            arr = np.zeros(1 << self.n, dtype=np.uint8)
            arr[list(self.basis_masks)] = 1
            for i in range(self.n):
                half = arr.reshape(-1, 2, 1 << i)
                half[:, 0, :] |= half[:, 1, :]
            self._indep = arr
        return self._indep

    def _spanning_table(self) -> np.ndarray:
        """spanning[S] == 1 iff S contains some basis."""
        if self._spanning is None:
            arr = np.zeros(1 << self.n, dtype=np.uint8)
            arr[list(self.basis_masks)] = 1
            for i in range(self.n):
                half = arr.reshape(-1, 2, 1 << i)
                half[:, 1, :] |= half[:, 0, :]
            self._spanning = arr
        return self._spanning

    def _rank_table(self) -> np.ndarray:
        """rank[S] == the size of a largest independent subset of S: the
        subset-max of indep[T] * |T| over T contained in S."""
        if self._rank is None:
            arr = self._indep_table() * subset_sizes(self.n)
            for i in range(self.n):
                half = arr.reshape(-1, 2, 1 << i)
                np.maximum(half[:, 1, :], half[:, 0, :], out=half[:, 1, :])
            self._rank = arr
        return self._rank

    def is_independent(self, S: int | Iterable[int]) -> bool:
        mask = S if isinstance(S, int) else mask_of(S)
        return bool(self._indep_table()[mask])

    # -- conveniences ----------------------------------------------------

    @property
    def bases(self) -> tuple[frozenset[int], ...]:
        return tuple(set_of(m) for m in self.basis_masks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.basis_masks == other.basis_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.basis_masks))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, r={self.r}, bases={len(self.basis_masks)})"


# ---------------------------------------------------------------------------
# construction / rank / circuits


def from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Build a validated matroid from explicit bases on ground set 1..n."""
    masks = []
    for b in bases:
        b = set(b)
        if any(e < 1 or e > n for e in b):
            raise ValueError(f"element outside 1..{n} in basis {sorted(b)}")
        masks.append(mask_of(b))
    return Matroid(n, masks)


def rank_of(M: Matroid, S: Iterable[int] | int) -> int:
    """Rank of a subset: the largest intersection with a basis."""
    mask = _ground_mask(M, S)
    return max(popcount(B & mask) for B in M.basis_masks)


def closure(M: Matroid, S: Iterable[int] | int) -> frozenset[int]:
    """The elements e with rank(S + e) == rank(S), S's own among them, read
    off the rank table."""
    mask = _ground_mask(M, S)
    rank = M._rank_table()
    return frozenset(e for e in range(1, M.n + 1) if rank[mask | 1 << (e - 1)] == rank[mask])


def circuits(M: Matroid) -> tuple[int, ...]:
    """The masks of all minimal dependent subsets, ascending (sizes are at
    most r+1): the dependent sets S with S - e independent for every e in S."""
    indep = M._indep_table()
    minimal = indep == 0
    for i in range(M.n):
        # the sets containing element i+1 against the same sets without it
        minimal.reshape(-1, 2, 1 << i)[:, 1, :] &= indep.reshape(-1, 2, 1 << i)[:, 0, :] == 1
    return tuple(np.flatnonzero(minimal).tolist())


# ---------------------------------------------------------------------------
# duality, minors, sums


def dual(M: Matroid) -> Matroid:
    full = (1 << M.n) - 1
    return Matroid(M.n, (full ^ B for B in M.basis_masks))


def relabel_map(n: int, removed: Iterable[int]) -> dict[int, int]:
    """Old-label -> new-label map after removing elements (survivors keep order)."""
    gone = set(removed)
    out = {}
    new = 1
    for e in range(1, n + 1):
        if e not in gone:
            out[e] = new
            new += 1
    return out


def _squeeze(masks: Iterable[int], smask: int) -> list[int]:
    """Drop the bits of smask from every mask, in order, shifting the bits
    above each dropped one down, highest first, so labels follow
    :func:`relabel_map`."""
    masks = list(masks)
    while smask:
        low = (1 << (smask.bit_length() - 1)) - 1
        masks = [(B & low) | ((B >> 1) & ~low) for B in masks]
        smask &= low
    return masks


def _ground_mask(M: Matroid, S: Iterable[int] | int) -> int:
    """The mask of S, given as elements or as a mask, refusing an element
    outside M's ground set 1..n."""
    if isinstance(S, int):
        if S < 0:
            raise ValueError(f"a set mask cannot be negative, got {S}")
        if not S >> M.n:
            return S
        S = elements(S)
    smask = 0
    for e in S:
        if not 1 <= e <= M.n:
            raise ValueError(f"element {e} is not in the ground set 1..{M.n}")
        smask |= 1 << (e - 1)
    return smask


def _minor_masks(masks: Sequence[int], smask: int, pick) -> tuple[int, ...]:
    """The sorted masks B whose |B & smask| is the pick (min: deletion, max:
    contraction) over all masks, with smask squeezed out: a minor's bases.
    ``masks`` must be sorted and distinct.  If some mask avoids smask (min)
    or holds it (max), one filter finds the kept masks; otherwise sizes are
    counted.  When the picked size is 0 or |smask|, the kept masks agree on
    smask, so squeezing keeps them sorted and distinct; only other sizes
    dedup and sort.  Deletions compose only on a matroid's bases, where
    M\\S = (M\\(S - s))\\s: on {{1}, {2, 3}}, deleting {1} and then {2}
    keeps only {2, 3}, but deleting {1, 2} at once keeps both sets."""
    extreme = pick(0, smask)  # B & smask of a mask at the extreme size
    kept = [B for B in masks if B & smask == extreme]
    if kept:
        return tuple(_squeeze(kept, smask))
    sizes = [popcount(B & smask) for B in masks]
    k = pick(sizes)
    kept = _squeeze([B for B, size in zip(masks, sizes) if size == k], smask)
    return tuple(kept) if k in (0, popcount(smask)) else tuple(sorted(set(kept)))


def _minor(M: Matroid, smask: int, pick) -> Matroid:
    """The minor of :func:`_minor_masks` as a matroid; not re-validated."""
    return Matroid(M.n - popcount(smask), _minor_masks(M.basis_masks, smask, pick), validate=False)


def delete(M: Matroid, S: Iterable[int] | int) -> Matroid:
    """Deletion M\\S: the bases meeting S least; new labels follow
    :func:`relabel_map`.  Not re-validated: the minor of an unvalidated
    non-matroid can itself be invalid."""
    smask = _ground_mask(M, S)
    return _minor(M, smask, min) if smask else M


def contract(M: Matroid, S: Iterable[int] | int) -> Matroid:
    """Contraction M/S: the bases meeting S most; new labels follow
    :func:`relabel_map`.  Not re-validated, as for :func:`delete`."""
    smask = _ground_mask(M, S)
    return _minor(M, smask, max) if smask else M


def direct_sum(M: Matroid, N: Matroid) -> Matroid:
    """Direct sum; N's elements are shifted up by M.n."""
    if M.n + N.n > MAX_ELEMENTS:
        raise ValueError("direct sum exceeds the ground set cap")
    masks = [B | (C << M.n) for B in M.basis_masks for C in N.basis_masks]
    return Matroid(M.n + N.n, masks)


def two_sum(M: Matroid, p: int, N: Matroid, q: int) -> Matroid:
    """2-sum of M and N glued along basepoints p and q: the bases of
    M/p (+) N\\q together with those of M\\p (+) N/q.

    Ground set: elements of M except p (relabelled 1..M.n-1), then elements
    of N except q.
    """
    if M.n < 2 or N.n < 2:
        raise BasepointIsSeparator("both parts need at least two elements")
    for (mat, e) in ((M, p), (N, q)):
        bit = _ground_mask(mat, [e])
        # a loop lies in no basis, a coloop in every one
        if not 0 < sum(1 for B in mat.basis_masks if B & bit) < len(mat.basis_masks):
            raise BasepointIsSeparator(f"basepoint {e} is a loop or coloop")
    masks = direct_sum(contract(M, [p]), delete(N, [q])).basis_masks
    masks += direct_sum(delete(M, [p]), contract(N, [q])).basis_masks
    return Matroid(M.n + N.n - 2, masks)


# ---------------------------------------------------------------------------
# isomorphism


def _pair_degrees(n: int, masks: Iterable[int]) -> list[list[int]]:
    """The pair degrees d[e][f], the number of members holding both e and f
    (d[e][e]: holding e), for elements 1..n (row and column 0 stay 0)."""
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for A in masks:
        es = elements(A)
        for e in es:
            row = d[e]
            for f in es:
                row[f] += 1
    return d


def family_fingerprint(n: int, masks: Iterable[int]) -> tuple:
    """A cheap isomorphism invariant of a family of subsets of [n]: its size
    and its sorted element degrees.  The pair degrees are left to
    :func:`family_isomorphism`, since most families bucketed by this
    invariant are never compared."""
    deg = [0] * (n + 1)
    count = 0
    for A in masks:
        count += 1
        for e in elements(A):
            deg[e] += 1
    return (n, count, tuple(sorted(deg[1:])))


def family_isomorphism(
    n: int, A: Iterable[int], B: Iterable[int]
) -> Optional[dict[int, int]]:
    """A bijection of [n] carrying the family of masks A onto B, or None.

    Backtracking over elements, rarest profile first, with each element's
    candidates restricted to its profile and pruned by pair degrees against
    the elements already placed; a full assignment must carry every member
    of A into B.
    """
    A, B = tuple(A), frozenset(B)
    if len(A) != len(B):
        return None
    dA, dB = _pair_degrees(n, A), _pair_degrees(n, B)
    prof_A, prof_B = ([(d[e][e], tuple(sorted(d[e]))) for e in range(n + 1)] for d in (dA, dB))
    if sorted(prof_A[1:]) != sorted(prof_B[1:]):
        return None
    freq: dict = {}
    for p in prof_A[1:]:
        freq[p] = freq.get(p, 0) + 1
    order = sorted(range(1, n + 1), key=lambda e: (freq[prof_A[e]], e))
    candidates = {
        e: [f for f in range(1, n + 1) if prof_B[f] == prof_A[e]] for e in order
    }
    assign: dict[int, int] = {}
    used = [False] * (n + 1)

    def extend(idx: int) -> bool:
        if idx == n:
            for S in A:
                img = 0
                for e in elements(S):
                    img |= 1 << (assign[e] - 1)
                if img not in B:
                    return False
            return True
        e = order[idx]
        for f in candidates[e]:
            if used[f]:
                continue
            if not all(dA[e][e2] == dB[f][f2] for e2, f2 in assign.items()):
                continue
            assign[e] = f
            used[f] = True
            if extend(idx + 1):
                return True
            del assign[e]
            used[f] = False
        return False

    return dict(assign) if extend(0) else None


def isomorphism(M: Matroid, N: Matroid) -> Optional[dict[int, int]]:
    """A ground-set bijection carrying bases onto bases, or None."""
    if (M.n, M.r, len(M.basis_masks)) != (N.n, N.r, len(N.basis_masks)):
        return None
    return family_isomorphism(M.n, M.basis_masks, N.basis_masks)


class FamilyClasses:
    """The isomorphism classes of the families of subsets met so far: a set of
    exact repeats, then buckets by :func:`family_fingerprint` searched with
    :func:`family_isomorphism`."""

    def __init__(self):
        self._seen: set[tuple[int, tuple[int, ...]]] = set()
        self._buckets: dict[tuple, list[tuple[int, ...]]] = {}

    def is_new(self, n: int, masks: tuple[int, ...]) -> bool:
        """Whether the family of masks on [n] opens a class, which it then
        represents."""
        key = (n, masks)
        if key in self._seen:
            return False
        self._seen.add(key)
        bucket = self._buckets.setdefault(family_fingerprint(n, masks), [])
        if any(family_isomorphism(n, masks, other) is not None for other in bucket):
            return False
        bucket.append(masks)
        return True


# ---------------------------------------------------------------------------
# connectivity


def is_connected(M: Matroid) -> bool:
    """No 1-separation: at most one connected component."""
    return len(connected_components(M)) <= 1


def two_separation(M: Matroid) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A partition (A, B), both sides >= 2, with rank(A)+rank(B)-r <= 1, or None.

    A is the lowest mask that contains element 1 and qualifies."""
    if M.n < 4:
        return None
    full = (1 << M.n) - 1
    rank = M._rank_table()
    sizes = subset_sizes(M.n)[1::2]  # the odd masks A, i.e. those holding element 1
    ok = (rank[1::2] + rank[::-1][1::2] <= M.r + 1) & (sizes >= 2) & (sizes <= M.n - 2)
    hits = np.flatnonzero(ok)
    if not len(hits):
        return None
    A = 2 * int(hits[0]) + 1
    return (set_of(A), set_of(full ^ A))


def mask_components(ground: int, masks: Sequence[int]) -> list[int]:
    """The parts of the ground mask that the masks join, lowest element
    first: two elements share a part when a chain of masks, each meeting
    the next, links them, and an element in no mask is a part of its own.
    Each mask is a subset of ground."""
    parts = []
    while ground:
        part, grown = ground & -ground, 0
        while part != grown:
            grown = part
            for m in masks:
                if m & part:
                    part |= m
        parts.append(part)
        ground &= ~part
    return parts


def connected_components(M: Matroid) -> list[frozenset[int]]:
    """Finest direct-sum decomposition of the ground set, lowest element
    first.

    The components of the fundamental graph of one basis B: each e outside
    B is joined to every b in B with B - b + e a basis (Krogdahl, Discrete
    Math. 19, 1977), so a loop, joined to nothing, and a coloop, in no
    exchange, are parts of their own.
    """
    B, bset = M.basis_masks[0], M._basis_set
    in_B = [1 << i for i in range(M.n) if B >> i & 1]
    stars = []
    for i in range(M.n):
        ebit = 1 << i
        if B & ebit:
            continue
        star = ebit
        for bbit in in_B:
            if (B ^ bbit | ebit) in bset:
                star |= bbit
        stars.append(star)
    return [set_of(part) for part in mask_components((1 << M.n) - 1, stars)]


def restriction(M: Matroid, S: Iterable[int]) -> Matroid:
    """M restricted to S (deletion of everything else)."""
    return delete(M, ((1 << M.n) - 1) & ~_ground_mask(M, S))


# ---------------------------------------------------------------------------
# relaxation


def relax(M: Matroid, H: Iterable[int]) -> Matroid:
    """Promote a circuit-hyperplane H to a basis."""
    hmask = _ground_mask(M, H)
    if popcount(hmask) != M.r:
        raise NotCircuitHyperplane(f"|H| = {popcount(hmask)} != rank {M.r}")
    if hmask in M._basis_set:
        raise NotCircuitHyperplane("H is already a basis")
    if rank_of(M, hmask) != M.r - 1:
        raise NotCircuitHyperplane("H does not have rank r-1")
    indep = M._indep_table()
    for e in elements(hmask):
        if not indep[hmask ^ (1 << (e - 1))]:
            raise NotCircuitHyperplane("H is not a circuit")
    if closure(M, hmask) != set_of(hmask):
        raise NotCircuitHyperplane("H is not closed")
    return Matroid(M.n, M.basis_masks + (hmask,))
