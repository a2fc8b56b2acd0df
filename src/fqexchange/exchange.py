"""Basis-level exchange relations over GF(q).

Ordered bases are indexed families of column vectors (one n x n full-rank
matrix), and every replacement is positional: column j of the target is
overwritten by a designated source column.  With positional semantics a
repeated vector simply produces a rank-deficient family, so no set
bookkeeping is needed.  Every full-coordinate question is which swaps of
positions of B1 with positions of B2 give bases, both ways: _swap_maps
maps a stack of swaps to columns of [B1 | B2], _swap_bases tests the
gathered families of a stack of basis pairs in one stacked
matfq._nonsingular call (also the crosscheck oracle's prefix states), and
_first_hit scans candidates for each pair's first whose swaps all pass
(set exchange, and with one swap per prefix, serial_check and the
crosscheck's certificate checks).  It scans a whole stack of pairs at
once; a single pair is a stack of one.

The serial questions run in reduced coordinates: row-reducing one basis
to the identity turns every "is this replacement still a basis" question
into whether a small square submatrix is nonsingular, which is also how
the correctness of the reduction is argued (row operations preserve
independence of column subsets).  A serial ordering is then a path of
prefix states, one swap per step, whose two minors are nonsingular;
_levels lists the states by size and _minors_ok tests a stack of them.
For k <= _SCAN_MAX_K a stack of candidates is decided size by size
(_reachable); above it, and for every certificate, a backtracking search
tests each state's children where it stands (_certificate).
_search_stack finds the certificates of a stack of instances: one
stacked test of their full blocks, then the search where both pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from math import comb, prod

import numpy as np

from .gf import FieldSpec
from .matfq import IndexSet, MatFq, SingularBasis, _check_index_set, _nonsingular, _rank_of, _solve, rank
from .matfq import reduce_against  # no caller here; perfbench/tracing.py PATCHES wraps this binding

SUBSET_GATE = 10**6  # default largest C(n, k) an all-subsets search scans
_SLICE_ENTRIES = 1 << 16  # gathered matrix entries in one stacked test: _first_hit's largest slice, _minors_ok's
_SCAN_MAX_K = 5  # _scan's largest k decided by _reachable; the serial search is faster above (ROADMAP item 5)


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


def _columns(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The rows of [B1 | B2]^T for bases B1 = m1 and B2 = m2, or for stacks of them.

    Families are gathered as rows: transposing keeps nonsingularity.
    """
    return np.concatenate([m1, m2], axis=-1).swapaxes(-1, -2)


def _swap_bases(cols: np.ndarray, pair: np.ndarray, x1, x2, field: FieldSpec) -> np.ndarray:
    """Which swaps of _swap_maps are bases, as a (..., 2) bool array.

    cols is a (B, 2n, n) stack of _columns, and the index array pair,
    shaped like x1 and x2 without their last axis, names the basis pair
    each swap is made in.
    """
    n = cols.shape[-1]
    maps = _swap_maps(n, x1, x2)
    fams = cols.reshape(-1, n)[maps + (2 * n * pair)[..., None, None]]
    return _nonsingular(fams.reshape(-1, n, n), field).reshape(maps.shape[:-1])


def _prefixes(k: int) -> np.ndarray:
    """_first_hit's steps for an ordering pair: row i is its prefix i (see _swap_maps)."""
    return np.minimum.outer(np.arange(k), np.arange(k))


def _first_hit(
    cols: np.ndarray, ones: np.ndarray, twos: np.ndarray, pairs, steps: np.ndarray, field: FieldSpec
) -> list[tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Each basis pair's first candidate whose swap at every step is a basis both ways, or None.

    cols is a (B, 2n, n) stack of _columns and ones and twos are (B, a)
    and (B, b) position arrays.  pairs yields candidates (u, v), index
    tuples of one length s: in basis pair i the candidate swaps positions
    ones[i, u] of B1 with twos[i, v] of B2.  Each row of the index array
    steps picks one swap out of them (the whole sets, or a prefix).

    Candidates go in lexicographic slices, one slice for every pair still
    without a hit, and a pair leaves the stack at its first hit.  A slice
    holds as many candidates as fit a budget of gathered entries per pair
    left, the first budget an eighth of _SLICE_ENTRIES and each next twice
    the last, up to it: an early witness costs one small call, and a list
    without one few calls.  Each slice is tested in stacked calls of at
    most _SLICE_ENTRIES gathered entries.  Returns each pair's hit as the
    position tuples (ones[i, u], twos[i, v]).
    """
    pairs = iter(pairs)
    per_pair = max(2 * len(steps) * cols.shape[-1] ** 2, 1)
    hits = [None] * len(cols)
    live = np.arange(len(cols))
    budget = _SLICE_ENTRIES >> 3
    while live.size and (chunk := list(islice(pairs, max(1, budget // (per_pair * live.size))))):
        u = np.array([cand[0] for cand in chunk], dtype=np.intp)
        v = np.array([cand[1] for cand in chunk], dtype=np.intp)
        at = live[:, None, None]
        x1, x2 = ones[at, u], twos[at, v]  # (live, len(chunk), s)
        s1, s2 = x1[:, :, steps], x2[:, :, steps]
        group = max(1, _SLICE_ENTRIES // (per_pair * len(chunk)))  # pairs per stacked call
        ok = np.concatenate([
            _swap_bases(cols, at[lo:lo + group], s1[lo:lo + group], s2[lo:lo + group], field)
            for lo in range(0, live.size, group)
        ]).all(axis=(2, 3))
        found = ok.any(axis=1)
        for i in np.flatnonzero(found):
            c = int(ok[i].argmax())
            hits[live[i]] = (tuple(x1[i, c].tolist()), tuple(x2[i, c].tolist()))
        live = live[~found]
        budget = min(2 * budget, _SLICE_ENTRIES)
    return hits


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
    cols = _columns(b1.matrix.entries, b2.matrix.entries)[None]
    both = _swap_bases(cols, np.zeros(b2.n, dtype=np.intp), [x], np.arange(b2.n)[:, None], b1.field).all(axis=-1)
    return tuple(int(y) for y in np.flatnonzero(both))


def greene_woodall(b1: OrderedBasis, x1: IndexSet, b2: OrderedBasis) -> tuple[int, ...]:
    """Lexicographically least x2 with the two-way arrow relation to x1.

    Set exchange guarantees a witness exists for every nonempty x1.
    """
    x1 = _check_index_set(x1, b1.n, "x1")
    if not x1:
        raise ValueError("x1 must be nonempty")
    k = len(x1)
    cols = _columns(b1.matrix.entries, b2.matrix.entries)[None]
    cands = ((range(k), cand) for cand in combinations(range(b2.n), k))
    hit = _first_hit(cols, np.array([x1]), np.arange(b2.n)[None], cands, np.arange(k)[None], b1.field)[0]
    if hit is None:
        raise ExhaustedWithoutWitness(
            f"no {k}-subset of the second basis exchanges with {x1}; this should be impossible"
        )
    return hit[1]


def serial_check(inst: ExchangeInstance, cert: SerialCertificate) -> bool:
    """Verify a certificate by testing all 2k prefix replacements directly, in one stacked call."""
    if sorted(cert.sigma) != sorted(inst.x1) or sorted(cert.tau) != sorted(inst.x2):
        raise ValueError("certificate orderings do not range over the instance sets")
    cols = _columns(inst.b1.matrix.entries, inst.b2.matrix.entries)[None]
    sigma, tau = (np.array([order], dtype=np.intp) for order in (cert.sigma, cert.tau))
    whole = [(range(inst.k), range(inst.k))]
    return _first_hit(cols, sigma, tau, whole, _prefixes(inst.k), inst.b1.field)[0] is not None


def _reduced_pairs(m1: np.ndarray, m2: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each basis in the other's coordinates, (B1^-1 B2, B2^-1 B1), for (B, n, n) stacks, from one _solve."""
    found, x = _solve(np.concatenate([m1, m2]), np.concatenate([m2, m1]), field)
    if (found < m1.shape[-1]).any():
        raise SingularBasis(f"basis has rank {found.min()} < {m1.shape[-1]}")
    return x[:len(m1)], x[len(m1):]


def _reduced_pair(b1: OrderedBasis, b2: OrderedBasis) -> tuple[np.ndarray, np.ndarray]:
    """_reduced_pairs of one basis pair."""
    if b1.n != b2.n or b1.field != b2.field:
        raise DimensionMismatch("bases must share dimension and field")
    vp, up = _reduced_pairs(b1.matrix.entries[None], b2.matrix.entries[None], b1.field)
    return vp[0], up[0]


@cache
def _levels(k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every prefix state of a k-block below the full one, by size: entry s is (rows, cols, pred).

    A state of size s is the pair (S, T) of s positions swapped so far on
    each side, as sorted tuples; rows[p] and cols[p] are the p-th state's S
    and T, states in lexicographic order.  pred[p] lists the indices in
    entry s - 1 of the s * s states one swap below it.
    """
    levels = []
    index = {((), ()): 0}
    for s in range(k):
        sets = list(combinations(range(k), s))
        states = [(u, v) for u in sets for v in sets]
        pred = [[index[u[:i] + u[i + 1:], v[:j] + v[j + 1:]] for i in range(s) for j in range(s)] for u, v in states]
        index = {state: p for p, state in enumerate(states)}
        rows, cols = (np.array(side, dtype=np.intp).reshape(len(states), s) for side in zip(*states))
        levels.append((rows, cols, np.array(pred, dtype=np.intp).reshape(len(states), s * s)))
    return tuple(levels)


def _minors_ok(a: np.ndarray, b: np.ndarray, c: np.ndarray, rows: np.ndarray, cols: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Whether a[c_i][S_i, T_i] and b[c_i][T_i, S_i] are both nonsingular, for each i.

    a and b are (C, k, k) stacks of blocks as in _scan, c indexes them and
    rows and cols are (N, s) position arrays, S_i = rows[i] and T_i =
    cols[i].  Row and column order inside a minor only flips its sign, so
    the sets decide every prefix.  The 2N minors are gathered as they are
    and tested in slices of at most _SLICE_ENTRIES entries.
    """
    s = rows.shape[-1]
    step = max(1, _SLICE_ENTRIES // (2 * s * s))
    ok = np.empty(len(c), dtype=bool)
    for lo in range(0, len(c), step):
        ci, r, t = c[lo:lo + step, None, None], rows[lo:lo + step], cols[lo:lo + step]
        minors = np.concatenate([a[ci, r[:, :, None], t[:, None, :]], b[ci, t[:, :, None], r[:, None, :]]])
        ok[lo:lo + step] = _nonsingular(minors, field).reshape(2, -1).all(axis=0)
    return ok


def _reachable(a: np.ndarray, b: np.ndarray, full: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Which candidates reach their full exchange through states valid both ways.

    full tells whose full exchange is valid; only those can be serial.  A
    serial ordering is a path from the empty state, one swap per step, so
    sizes 1 .. k - 1 are walked in turn, testing only the states one swap
    above a reached state; every state of size k - 1 is one swap below the
    full one.  Candidates go in slices of at most _SLICE_ENTRIES states of
    the largest size.
    """
    k = a.shape[-1]
    levels = _levels(k)
    step = max(1, _SLICE_ENTRIES // max(len(rows) for rows, _, _ in levels))
    serial = np.zeros(len(a), dtype=bool)
    live = np.flatnonzero(full)
    for lo in range(0, len(live), step):
        cand = live[lo:lo + step]
        reached = np.ones((len(cand), 1), dtype=bool)
        for rows, cols, pred in levels[1:]:
            c, p = np.nonzero(reached[:, pred].any(axis=2))
            reached = np.zeros((len(cand), len(rows)), dtype=bool)
            reached[c, p] = _minors_ok(a, b, cand[c], rows[p], cols[p], field)
        serial[cand] = reached.any(axis=1)
    return serial


def _certificate(
    a: np.ndarray, b: np.ndarray, ones: tuple[int, ...], twos: tuple[int, ...], field: FieldSpec
) -> SerialCertificate | None:
    """The first serial ordering in lexicographic position order, or None.

    a and b are one candidate's blocks as in _scan, whose full exchange is
    valid both ways.  A state is the pair of position sets swapped so far:
    its children, one swap above it and all of one size, are tested in one
    _minors_ok call when the search first stands there, and a state that
    failed once is not searched again, since whether it completes depends
    on nothing else.
    """
    k = len(ones)
    sigma, tau, failed = [], [], set()

    def dfs(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
        if len(s) == k:
            return True
        if (s, t) in failed:
            return False
        steps = [(i, j) for i in range(k) if i not in s for j in range(k) if j not in t]
        kids = [(tuple(sorted((*s, i))), tuple(sorted((*t, j)))) for i, j in steps]
        rows, cols = (np.array(side, dtype=np.intp) for side in zip(*kids))
        ok = _minors_ok(a[None], b[None], np.zeros(len(kids), dtype=np.intp), rows, cols, field)
        for (i, j), kid, good in zip(steps, kids, ok):
            if good:
                sigma.append(ones[i])
                tau.append(twos[j])
                if dfs(*kid):
                    return True
                sigma.pop()
                tau.pop()
        failed.add((s, t))
        return False

    return SerialCertificate(tuple(sigma), tuple(tau)) if dfs((), ()) else None


def _scan(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The y bits, the x bits and the serial bits of a stack of candidates.

    a[c] = vp[ones, cand] and b[c] = up[cand, ones] are (C, k, k) stacks.
    The y and x bits are the nonsingularity of the full blocks.  For
    k <= _SCAN_MAX_K the size-by-size _reachable gives the serial bits of
    the whole stack; for larger k the serial search runs on each candidate
    whose full exchange is valid both ways.
    """
    k = a.shape[-1]
    y, x = _nonsingular(a, field), _nonsingular(b, field)
    full = x & y
    if k <= _SCAN_MAX_K:
        serial = _reachable(a, b, full, field)
    else:
        ones = tuple(range(k))
        serial = np.array([bool(full[c]) and _certificate(a[c], b[c], ones, ones, field) is not None
                           for c in range(len(a))], dtype=bool)
    return y, x, serial


def _search_stack(
    vp: np.ndarray, up: np.ndarray, x1: np.ndarray, x2: np.ndarray, field: FieldSpec
) -> list[SerialCertificate | None]:
    """Backtracking search for serial orderings, in reduced coordinates, for a stack of instances.

    vp and up are (B, n, n) stacks and x1 and x2 (B, k) arrays of sorted
    positions.  A prefix (sigma, tau) of length i keeps both replacements
    bases iff vp[sigma, tau] and up[tau, sigma] are nonsingular i x i
    submatrices.  Both full blocks of every instance are tested in one
    stacked call, and the search runs where both pass.  Pairs are tried
    in lexicographic position order, so the first certificate found is
    deterministic.
    """
    i = np.arange(len(vp))[:, None, None]
    a, b = vp[i, x1[:, :, None], x2[:, None, :]], up[i, x2[:, :, None], x1[:, None, :]]
    full = _nonsingular(np.concatenate([a, b]), field).reshape(2, -1).all(axis=0)
    return [_certificate(a[t], b[t], tuple(x1[t].tolist()), tuple(x2[t].tolist()), field) if full[t] else None
            for t in range(len(vp))]


def _search_reduced(
    vp: np.ndarray,
    up: np.ndarray,
    x1: tuple[int, ...],
    x2: tuple[int, ...],
    field: FieldSpec,
) -> SerialCertificate | None:
    """_search_stack of one instance, whose position tuples need not be sorted."""
    ones, twos = (np.array([sorted(x)], dtype=np.intp) for x in (x1, x2))
    return _search_stack(vp[None], up[None], ones, twos, field)[0]


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
