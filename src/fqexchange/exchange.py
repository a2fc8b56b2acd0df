"""Basis-level exchange relations over GF(q).

Ordered bases are indexed families of column vectors (one n x n full-rank
matrix), and every replacement is positional: column j of the target is
overwritten by a designated source column.  With positional semantics a
repeated vector simply produces a rank-deficient family, so no set
bookkeeping is needed.  Every full-coordinate question is which swaps of
positions of B1 with positions of B2 give bases, both ways: _swap_maps
maps a stack of swaps to columns of [B1 | B2], _swap_bases tests the
gathered families in one stacked matfq._nonsingular call, and _first_hit
scans candidates for the first whose swaps all pass (set exchange, and
with one swap per prefix, serial_check and the crosscheck oracle).

The serial questions run in reduced coordinates: row-reducing one basis
to the identity turns every "is this replacement still a basis" question
into whether a small square submatrix is nonsingular, which is also how
the correctness of the reduction is argued (row operations preserve
independence of column subsets).  They read those answers from a prefix
table: for each pair of swapped sets, whether both minors are
nonsingular, computed for a whole stack of candidates by stacked
matfq._nonsingular calls.  For k <= 3 the table holds every pair, and a
candidate is serial exactly when the full pair can be reached through
valid pairs, one swap per step (_reach), which scores a whole stack at
once.  The backtracking search, which also yields the certificate, is
seeded by the table and extends it, one stacked call per state, where it
goes deeper; for k >= 4 it also gives the serial bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, prod

import numpy as np

from .gf import FieldSpec
from .matfq import IndexSet, MatFq, SingularBasis, _check_index_set, _nonsingular, _rank_of, _solve, rank
from .matfq import reduce_against  # no caller here; perfbench/tracing.py PATCHES wraps this binding

SUBSET_GATE = 10**6  # default largest C(n, k) an all-subsets search scans
_SLICE_ENTRIES = 1 << 16  # gathered matrix entries in _first_hit's largest slice


class DimensionMismatch(ValueError):
    """A vector family does not consist of exactly n vectors of length n."""


class SizeMismatch(ValueError):
    """The two exchange sets differ in size."""


class ExhaustedWithoutWitness(RuntimeError):
    """A search guaranteed to succeed found nothing; implementation bug."""


class OrderedBasis:
    """n vectors of F_q^n with full rank, indexed by column position."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: MatFq, *, validate: bool = True):
        if matrix.rows != matrix.cols:
            raise DimensionMismatch(f"need n vectors of length n, got shape {matrix.shape}")
        if validate and rank(matrix) != matrix.rows:
            raise DimensionMismatch(f"columns have rank below {matrix.rows}")
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def field(self) -> FieldSpec:
        return self.matrix.field

    def __eq__(self, other):
        return isinstance(other, OrderedBasis) and other.matrix == self.matrix

    def __hash__(self):
        return hash(("OrderedBasis", self.matrix))

    def __repr__(self):
        return f"OrderedBasis({self.matrix!r})"


@dataclass(frozen=True)
class ExchangeInstance:
    """A basis pair with one exchange set marked in each basis."""

    b1: OrderedBasis
    b2: OrderedBasis
    x1: tuple[int, ...]
    x2: tuple[int, ...]

    def __post_init__(self):
        if self.b1.n != self.b2.n or self.b1.field != self.b2.field:
            raise DimensionMismatch("bases must share dimension and field")
        object.__setattr__(self, "x1", _check_index_set(self.x1, self.b1.n, "x1"))
        object.__setattr__(self, "x2", _check_index_set(self.x2, self.b2.n, "x2"))
        if len(self.x1) != len(self.x2):
            raise SizeMismatch(f"|x1| = {len(self.x1)} but |x2| = {len(self.x2)}")

    @property
    def k(self) -> int:
        return len(self.x1)


@dataclass(frozen=True)
class SerialCertificate:
    """Orderings of the two exchange sets whose prefixes all swap to bases.

    sigma lists positions of the first basis, tau positions of the second;
    step i swaps the first i entries of sigma against the first i of tau,
    in both directions.
    """

    sigma: tuple[int, ...]
    tau: tuple[int, ...]

    def to_text(self) -> str:
        s = " ".join(str(i) for i in self.sigma)
        t = " ".join(str(j) for j in self.tau)
        return f"sigma: {s} / tau: {t}"

    @classmethod
    def from_text(cls, text: str) -> SerialCertificate:
        left, _, right = text.partition("/")
        if not left.strip().startswith("sigma:") or not right.strip().startswith("tau:"):
            raise ValueError(f"malformed certificate text: {text!r}")
        sigma = tuple(int(x) for x in left.split(":", 1)[1].split())
        tau = tuple(int(x) for x in right.split(":", 1)[1].split())
        return cls(sigma, tau)


def _swap_maps(n: int, x1, x2) -> np.ndarray:
    """Column maps into [B1 | B2] of swapping x1 of B1 with x2 of B2, both ways.

    x1 and x2 broadcast to (..., s) position arrays.  [..., 0, :] lists B1's
    columns with x1 replaced by B2's x2 and [..., 1, :] B2's with x2
    replaced by B1's x1; B2's column j is column n + j.  A position listed
    twice with the same partner is swapped once, so prefix i of an ordering
    is the ordering with entry i repeated past i (_prefixes).
    """
    x1, x2 = np.asarray(x1, dtype=np.intp), np.asarray(x2, dtype=np.intp)
    lead = np.broadcast_shapes(x1.shape, x2.shape)[:-1]
    maps = np.broadcast_to(np.arange(2 * n).reshape(2, n), (*lead, 2, n)).copy()
    row = np.arange(prod(lead)).reshape(*lead, 1)
    flat = maps.reshape(-1, 2, n)
    flat[row, 0, x1] = n + x2
    flat[row, 1, x2] = x1
    return maps


def _swap_bases(b1: OrderedBasis, b2: OrderedBasis, x1, x2) -> np.ndarray:
    """Which swaps of _swap_maps are bases, as a (..., 2) bool array.

    Families are gathered as rows of [B1 | B2]^T: transposing keeps nonsingularity.
    """
    n = b1.n
    maps = _swap_maps(n, x1, x2)
    both = np.hstack([b1.matrix.entries, b2.matrix.entries]).T
    return _nonsingular(both[maps].reshape(-1, n, n), b1.field).reshape(maps.shape[:-1])


def _prefixes(k: int) -> np.ndarray:
    """_first_hit's steps for an ordering pair: row i is its prefix i (see _swap_maps)."""
    return np.minimum.outer(np.arange(k), np.arange(k))


def _first_hit(b1: OrderedBasis, b2: OrderedBasis, pairs, steps) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first (x1, x2) of pairs whose swap at every step is a basis both ways, or None.

    pairs yields equal-length position tuples; each row of the index array
    steps picks one swap out of them (the whole sets, or a prefix).  Pairs
    go in stacked slices of gathered entries, the first an eighth of
    _SLICE_ENTRIES and each next twice the last, up to it: an early witness
    costs one small call, and a list without one few calls.
    """
    pairs = iter(pairs)
    per_pair = 2 * len(steps) * b1.n**2
    budget = _SLICE_ENTRIES >> 3
    while chunk := list(islice(pairs, max(1, budget // max(per_pair, 1)))):
        x = np.array(chunk, dtype=np.intp)  # (len(chunk), 2, s)
        ok = _swap_bases(b1, b2, x[:, 0, steps], x[:, 1, steps]).reshape(len(chunk), -1).all(axis=1)
        if ok.any():
            return chunk[int(ok.argmax())]
        budget = min(2 * budget, _SLICE_ENTRIES)
    return None


def arrow(bfrom: OrderedBasis, xfrom: IndexSet, bto: OrderedBasis, xto: IndexSet) -> bool:
    """Does replacing bto's columns at xto by bfrom's columns at xfrom give a basis?"""
    xfrom = _check_index_set(xfrom, bfrom.n, "source")
    xto = _check_index_set(xto, bto.n, "target")
    if len(xfrom) != len(xto):
        raise SizeMismatch(f"|xfrom| = {len(xfrom)} but |xto| = {len(xto)}")
    cols = _swap_maps(bto.n, xto, xfrom)[0]
    return _rank_of(np.hstack([bto.matrix.entries, bfrom.matrix.entries])[:, cols], bto.field) == bto.n


def symmetric_partners(b1: OrderedBasis, x: int, b2: OrderedBasis) -> tuple[int, ...]:
    """All positions y of b2 such that x and y exchange symmetrically.

    Guaranteed nonempty; an empty result would indicate a bug.
    """
    _check_index_set((x,), b1.n, "x")
    both = _swap_bases(b1, b2, [x], np.arange(b2.n)[:, None]).all(axis=-1)
    return tuple(int(y) for y in np.flatnonzero(both))


def greene_woodall(b1: OrderedBasis, x1: IndexSet, b2: OrderedBasis) -> tuple[int, ...]:
    """Lexicographically least x2 with the two-way arrow relation to x1.

    Set exchange guarantees a witness exists for every nonempty x1.
    """
    x1 = _check_index_set(x1, b1.n, "x1")
    if not x1:
        raise ValueError("x1 must be nonempty")
    k = len(x1)
    hit = _first_hit(b1, b2, ((x1, cand) for cand in combinations(range(b2.n), k)), np.arange(k)[None])
    if hit is None:
        raise ExhaustedWithoutWitness(
            f"no {k}-subset of the second basis exchanges with {x1}; this should be impossible"
        )
    return hit[1]


def serial_check(inst: ExchangeInstance, cert: SerialCertificate) -> bool:
    """Verify a certificate by testing all 2k prefix replacements directly, in one stacked call."""
    if sorted(cert.sigma) != sorted(inst.x1) or sorted(cert.tau) != sorted(inst.x2):
        raise ValueError("certificate orderings do not range over the instance sets")
    return _first_hit(inst.b1, inst.b2, [(cert.sigma, cert.tau)], _prefixes(inst.k)) is not None


def _reduced_pair(b1: OrderedBasis, b2: OrderedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Each basis expressed in the other's coordinates: (B1^-1 B2, B2^-1 B1), from one _solve."""
    if b1.n != b2.n or b1.field != b2.field:
        raise DimensionMismatch("bases must share dimension and field")
    both = np.stack([b1.matrix.entries, b2.matrix.entries])
    found, (vp, up) = _solve(both, both[::-1], b1.field)
    if (found < b1.n).any():
        raise SingularBasis(f"basis has rank {found.min()} < {b1.n}")
    return vp, up


def _prefix_table(a: np.ndarray, b: np.ndarray, field: FieldSpec, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Nonsingularity of the named prefix minors of a stack of candidate blocks.

    a[c] = vp[x1, x2_c] and b[c] = up[x2_c, x1] are (C, k, k) stacks.
    Entry [0, c, p] tells whether a[c][S, T] is nonsingular and [1, c, p]
    whether b[c][T, S] is, for (S, T) = pairs[p].  Row and column order
    inside a minor only flips its sign, so the sets decide every prefix.
    Each minor is padded with an identity block to the largest size in
    pairs, by indexing the block embedded in diag(block, I).
    """
    k = a.shape[-1]
    width = max(s.bit_count() for s, _ in pairs)
    ext = np.broadcast_to(np.eye(k + width, dtype=np.uint8), (2, len(a), k + width, k + width)).copy()
    ext[0, :, :k, :k], ext[1, :, :k, :k] = a, b
    rows, cols = (
        np.array([[i for i in range(k) if m >> i & 1] + list(range(k + m.bit_count(), k + width)) for m in masks])
        for masks in zip(*pairs)
    )
    minors = np.stack([ext[0][:, rows[:, :, None], cols[:, None, :]], ext[1][:, cols[:, :, None], rows[:, None, :]]])
    return _nonsingular(minors.reshape(-1, width, width), field).reshape(minors.shape[:3])


def _certificate(
    a: np.ndarray, b: np.ndarray, known: dict, ones: tuple[int, ...], twos: tuple[int, ...], field: FieldSpec
) -> SerialCertificate | None:
    """The first serial ordering in lexicographic position order, or None.

    a and b are one candidate's blocks as in _prefix_table, and known maps
    prefix pairs to their validity on both sides; a _scan_pairs table seeds
    it.  A state is the pair of sets swapped so far: the other steps out of
    a state are tested in one stacked call when the search first stands
    there, and a state that failed once is not searched again, since
    whether it completes depends on nothing else.
    """
    k = len(ones)
    full = (1 << k) - 1
    sigma: list[int] = []
    tau: list[int] = []
    failed = set()

    def dfs(s: int, t: int) -> bool:
        if s == full:
            return True
        if (s, t) in failed:
            return False
        steps = [(i, j) for i in range(k) if not s >> i & 1 for j in range(k) if not t >> j & 1]
        kids = [(s | 1 << i, t | 1 << j) for i, j in steps]
        todo = [kid for kid in kids if kid not in known]
        if todo:
            known.update(zip(todo, _prefix_table(a[None], b[None], field, todo).all(axis=0)[0]))
        for (i, j), kid in zip(steps, kids):
            if known[kid]:
                sigma.append(ones[i])
                tau.append(twos[j])
                if dfs(*kid):
                    return True
                sigma.pop()
                tau.pop()
        failed.add((s, t))
        return False

    if dfs(0, 0):
        return SerialCertificate(tuple(sigma), tuple(tau))
    return None


def _scan_pairs(k: int) -> list[tuple[int, int]]:
    """The prefix pairs _scan tabulates, by size, the full exchange last.

    Pairs (S, T) of swapped-position bitmasks of sizes 1, k - 1 and k:
    every pair for k <= 3; the search tests the middle sizes only where it
    reaches them.
    """
    full = (1 << k) - 1
    masks = {1 << i for i in range(k)} | {full ^ 1 << i for i in range(k)}
    rims = sorted(masks - {0, full}, key=lambda m: (m.bit_count(), m))
    return [(s, t) for s in rims for t in rims if s.bit_count() == t.bit_count()] + [(full, full)]


def _reach(both: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Which candidates reach (full, full) from (0, 0) through pairs valid on both sides.

    both[c, p] is the validity of pairs[p], which must hold every prefix
    pair, by size.  A serial ordering is such a path, one swap per step,
    so this is the serial bit.
    """
    reach = {(0, 0): np.ones(len(both), dtype=bool)}
    for p, (s, t) in enumerate(pairs):
        before = [reach[s ^ 1 << i, t ^ 1 << j] for i in range(s.bit_length()) if s >> i & 1
                  for j in range(t.bit_length()) if t >> j & 1]
        reach[s, t] = both[:, p] & np.logical_or.reduce(before)
    return reach[pairs[-1]]


def _scan(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The y bits, the x bits and the serial bits of a stack of candidates.

    a[c] = vp[ones, cand] and b[c] = up[cand, ones] are (C, k, k) stacks.
    One prefix table of the _scan_pairs holds the full exchange last: its
    two sides are the y and x bits.  It is built in slices of at most
    _SLICE_ENTRIES gathered entries, which bounds the memory of a large
    stack.  For k <= 3 it holds every prefix pair and _reach gives the
    serial bits; for larger k the serial search runs on each candidate
    where both sides hold, seeded by the table.
    """
    k = a.shape[-1]
    pairs = _scan_pairs(k)
    step = max(1, _SLICE_ENTRIES // (2 * len(pairs) * k * k))
    table = np.concatenate(
        [_prefix_table(a[i:i + step], b[i:i + step], field, pairs) for i in range(0, len(a), step)], axis=1
    )
    both = table.all(axis=0)
    if k <= 3:
        serial = _reach(both, pairs)
    else:
        ones = tuple(range(k))
        serial = np.array([
            bool(both[c, -1]) and _certificate(a[c], b[c], dict(zip(pairs, both[c])), ones, ones, field) is not None
            for c in range(len(a))
        ], dtype=bool)
    return table[0, :, -1], table[1, :, -1], serial


def _search_reduced(
    vp: np.ndarray,
    up: np.ndarray,
    x1: tuple[int, ...],
    x2: tuple[int, ...],
    field: FieldSpec,
) -> SerialCertificate | None:
    """Backtracking search for serial orderings, in reduced coordinates.

    A prefix (sigma, tau) of length i keeps both replacements bases iff
    vp[sigma, tau] and up[tau, sigma] are nonsingular i x i submatrices.
    Pairs are tried in lexicographic position order, so the first
    certificate found is deterministic; the _scan_pairs table seeds the
    search.
    """
    if not x1:
        return SerialCertificate((), ())
    ones, twos = tuple(sorted(x1)), tuple(sorted(x2))
    a, b = vp[np.ix_(ones, twos)], up[np.ix_(twos, ones)]
    pairs = _scan_pairs(len(ones))
    both = _prefix_table(a[None], b[None], field, pairs).all(axis=0)[0]
    return _certificate(a, b, dict(zip(pairs, both)), ones, twos, field) if both[-1] else None


def serial_search(inst: ExchangeInstance) -> SerialCertificate | None:
    """Find serial orderings for the instance, or None when none exist.

    Sound and complete: any returned certificate passes serial_check, and
    a None return means the full (k!)^2 space contains no valid pair.
    """
    vp, up = _reduced_pair(inst.b1, inst.b2)
    return _search_reduced(vp, up, inst.x1, inst.x2, inst.b1.field)


def find_serial_partner(
    b1: OrderedBasis,
    x1: IndexSet,
    b2: OrderedBasis,
    mode: str = "blocks",
    gate: int = SUBSET_GATE,
) -> tuple[tuple[int, ...], SerialCertificate] | None:
    """Search b2 for a k-subset serially exchangeable with x1.

    blocks mode scans the floor(n/k) disjoint aligned blocks of b2 in
    order; all_subsets mode scans every k-subset lexicographically (gated
    by C(n, k) <= gate).  A blocks-mode hit is always an all_subsets hit.
    """
    x1 = _check_index_set(x1, b1.n, "x1")
    k = len(x1)
    if k < 1:
        raise ValueError("x1 must be nonempty")
    n = b2.n
    if mode == "blocks":
        if k > n:
            raise SizeMismatch(f"blocks mode needs k <= n, got k={k}, n={n}")
        candidates = (tuple(range(i * k, (i + 1) * k)) for i in range(n // k))
    elif mode == "all_subsets":
        if comb(n, k) > gate:
            raise ValueError(f"C({n},{k}) = {comb(n, k)} exceeds the subset gate {gate}")
        candidates = combinations(range(n), k)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    vp, up = _reduced_pair(b1, b2)
    field = b1.field
    for cand in candidates:
        cert = _search_reduced(vp, up, x1, tuple(cand), field)
        if cert is not None:
            return tuple(cand), cert
    return None
