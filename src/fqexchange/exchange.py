"""Basis-level exchange relations over GF(q).

Ordered bases are indexed families of column vectors (one n x n full-rank
matrix), and every replacement is positional: column j of the target is
overwritten by a designated source column.  With positional semantics a
repeated vector simply produces a rank-deficient family, so no set
bookkeeping is needed.

Every search runs in reduced coordinates.  Writing each basis in the
other's coordinates, vp = B1^-1 B2 and up = B2^-1 B1 (_reduced_pairs, one
solve), swapping positions x1 of B1 with x2 of B2 gives a basis iff the
minor vp[x1, x2] is nonsingular, and the reverse swap iff up[x2, x1] is
(row operations preserve independence of column subsets).  So symmetric
exchange reads single entries, set exchange tests full blocks
(_two_way), and a serial ordering is a path of prefix states, one swap
per step, whose two minors are nonsingular; _minors_ok tests the children
of a stack of states.  _lockstep is the one serial search: a depth-first
search with a memo of failed states in which every candidate of a stack
advances together, one _minors_ok call per state size a round.  It gives
_scan's serial bits for the trial blocks, in rounds of two-way blocks
that a trial leaves at its first serial block, and _search_stack's
certificates for a stack of instances.  _first_partner is the one
candidate scan: it runs a decision, _search_stack or _two_way, on slices
of candidate partner sets, every instance stopping at its first hit
(find_serial_partner, greene_woodall, the all-subsets trial search and
the exhaustive check).

Full coordinates are kept only to verify: _swap_maps maps a stack of
swaps to columns of [B1 | B2], _swap_bases tests the gathered families
in stacked matfq._nonsingular calls, and _serial_ok checks every prefix
of a stack of certificates that way (serial_check and the crosscheck),
as arrow checks one swap.
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
_SLICE_ENTRIES = 1 << 16  # gathered matrix entries in one stacked test: _first_partner's largest slice, _minors_ok's, _serial_ok's
_SEARCH_MAX_K = 16  # largest k _lockstep searches: its tables hold 2^k masks and its memo C(2k, k) states a candidate


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

    Families are gathered as rows: transposing keeps nonsingularity.  The
    result is C-contiguous, so _swap_bases reshapes it without a copy.
    """
    return np.ascontiguousarray(np.concatenate([m1, m2], axis=-1).swapaxes(-1, -2))


def _swap_bases(cols: np.ndarray, pair: np.ndarray, x1, x2, field: FieldSpec) -> np.ndarray:
    """Which swaps of _swap_maps are bases, as a (..., 2) bool array.

    cols is a (B, 2n, n) stack of _columns, and the index array pair,
    shaped like x1 and x2 without their last axis, names the basis pair
    each swap is made in.
    """
    n = cols.shape[-1]
    maps = _swap_maps(n, x1, x2)
    fams = cols.reshape(-1, n).take(maps + (2 * n * pair)[..., None, None], axis=0)
    return _nonsingular(fams.reshape(-1, n, n), field).reshape(maps.shape[:-1])


def _prefixes(k: int) -> np.ndarray:
    """The steps of an ordering pair: row i is its prefix i (see _swap_maps)."""
    return np.minimum.outer(np.arange(k), np.arange(k))


def _serial_ok(cols: np.ndarray, sigma: np.ndarray, tau: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Whether every prefix swap of each ordering pair (sigma[i], tau[i]) gives bases both ways.

    cols is a (B, 2n, n) stack of _columns and sigma and tau are (B, k)
    position arrays, one ordering pair a basis pair.  Every prefix is
    swapped in full coordinates, in stacked _swap_bases calls of at most
    _SLICE_ENTRIES gathered entries, or one basis pair.
    """
    k, n = sigma.shape[-1], cols.shape[-1]
    steps = _prefixes(k)
    ok = np.empty(len(cols), dtype=bool)
    group = max(1, _SLICE_ENTRIES // max(2 * k * n * n, 1))
    for lo in range(0, len(cols), group):
        at = np.arange(lo, min(lo + group, len(cols)))
        ok[lo:lo + group] = _swap_bases(cols, at[:, None], sigma[at[:, None, None], steps],
                                        tau[at[:, None, None], steps], field).all(axis=(1, 2))
    return ok


def arrow(bfrom: OrderedBasis, xfrom: IndexSet, bto: OrderedBasis, xto: IndexSet) -> bool:
    """Does replacing bto's columns at xto by bfrom's columns at xfrom give a basis?"""
    xfrom = _check_index_set(xfrom, bfrom.n, "source")
    xto = _check_index_set(xto, bto.n, "target")
    if len(xfrom) != len(xto):
        raise SizeMismatch(f"|xfrom| = {len(xfrom)} but |xto| = {len(xto)}")
    cols = _swap_maps(bto.n, xto, xfrom)[0]
    return _rank_of(np.hstack([bto.matrix.entries, bfrom.matrix.entries])[:, cols], bto.field) == bto.n


def serial_check(inst: ExchangeInstance, cert: SerialCertificate) -> bool:
    """Verify a certificate by testing all 2k prefix replacements directly, in one stacked call."""
    if sorted(cert.sigma) != sorted(inst.x1) or sorted(cert.tau) != sorted(inst.x2):
        raise ValueError("certificate orderings do not range over the instance sets")
    cols = _columns(inst.b1.matrix.entries, inst.b2.matrix.entries)[None]
    sigma, tau = (np.array([order], dtype=np.intp).reshape(1, inst.k) for order in (cert.sigma, cert.tau))
    return bool(_serial_ok(cols, sigma, tau, inst.b1.field)[0])


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
def _state_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables over bitmasks m of k positions: (base, rank, pos, free, kid).

    A prefix state is the pair (S, T) of position sets swapped so far, as
    bitmasks of one size s; its index among the C(2k, k) states is base[S]
    + rank[T], where rank[m] is m's place among the masks of its size and
    base[S] = sum_{t < s} C(k, t)^2 + rank[S] * C(k, s).  pos[m] lists m's
    positions in ascending order and free[m] the others; kid[m, u] is m
    with free[m, u] added.  Rows are padded with zeros to length k.
    """
    size = np.array([bin(m).count("1") for m in range(1 << k)], dtype=np.intp)
    rank = np.zeros(1 << k, dtype=np.intp)
    for s in range(k + 1):
        rank[size == s] = np.arange(comb(k, s))
    first = np.cumsum([0] + [comb(k, s) ** 2 for s in range(k)])
    base = first[size] + rank * np.array([comb(k, s) for s in range(k + 1)])[size]
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    pos = np.zeros((1 << k, k), dtype=np.intp)
    row, col = np.nonzero(bits)
    pos[row, np.cumsum(bits, axis=1)[row, col] - 1] = col
    free = pos[(1 << k) - 1 ^ np.arange(1 << k)]
    kid = np.arange(1 << k)[:, None] | 1 << free
    return base, rank, pos, free, kid


def _minors_ok(a: np.ndarray, b: np.ndarray, c: np.ndarray, rows: np.ndarray, cols: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Whether a[c_g][S, T] and b[c_g][T, S] are both nonsingular, for each S in rows[g] and T in cols[g].

    a and b are (C, k, k) stacks of blocks as in _scan, c indexes them and
    rows and cols are (G, w, s) position arrays; entry [g, u, v] of the
    (G, w, w) result is for S = rows[g, u] and T = cols[g, v].  Row and
    column order inside a minor only flips its sign, so the sets decide
    every prefix.  The minors are gathered as they are, with one take at
    the flat indices c * k^2 + i * k + j from each of a and b, flattened
    once a call, and tested in slices of at most _SLICE_ENTRIES entries.
    """
    g, w, s = rows.shape
    k = a.shape[-1]
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    step = max(1, _SLICE_ENTRIES // (2 * w * w * s * s))
    ok = np.empty((g, w, w), dtype=bool)
    for lo in range(0, g, step):
        ci = (c[lo:lo + step] * (k * k)).repeat(w * w)[:, None, None]  # one entry a pair (S, T), S-major
        r = rows[lo:lo + step, :, None].repeat(w, axis=2).reshape(-1, s)
        t = cols[lo:lo + step, None].repeat(w, axis=1).reshape(-1, s)
        minors = np.concatenate([flat_a.take(ci + r[:, :, None] * k + t[:, None, :]),
                                 flat_b.take(ci + t[:, :, None] * k + r[:, None, :])])
        ok[lo:lo + step] = _nonsingular(minors, field).reshape(2, -1, w, w).all(axis=0)
    return ok


def _lockstep(a: np.ndarray, b: np.ndarray, cand: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The first serial ordering of each candidate a[c], b[c] for c in cand, searched all at once.

    Every candidate's full exchange must be valid both ways.  Returns
    whether each has a serial ordering and a (len(cand), k) array of its
    steps, i * k + j for the swap of row i with column j of its block (junk
    where it has none).  The search is a depth-first search over prefix
    states in which every candidate of a slice advances together; a
    state's children are the swaps (i, j) of a free row and a free column,
    in ascending order, i-major, so each candidate finds the first
    ordering in lexicographic position order.  Each round tests the
    children of every candidate that just entered a state, in one
    _minors_ok call per size.  Then every candidate takes its first valid
    child not yet tried and not known to fail, or marks its state failed
    and pops a level, which runs no test, until each stands in a new state
    or is done.  A state of size k - 1 completes: its one child is the full
    block.  The failed memo is one bool per prefix state, so no state is
    expanded twice; candidates go in slices whose memo and frames hold at
    most 16 * _SLICE_ENTRIES entries, or one candidate.
    """
    k = a.shape[-1]
    if k > _SEARCH_MAX_K:
        raise ValueError(f"the serial search takes k <= {_SEARCH_MAX_K}, got k = {k}")
    base, rank, pos, free, kid = _state_tables(k)
    found = np.zeros(len(cand), dtype=bool)
    steps = np.zeros((len(cand), k), dtype=np.intp)
    width = max(1, (_SLICE_ENTRIES << 4) // (comb(2 * k, k) + k ** 3))
    for lo in range(0, len(cand), width):
        c = cand[lo:lo + width]
        m = len(c)
        depth, held, took = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.intp), np.zeros(m, dtype=np.intp)
        path = steps[lo:lo + m]
        kids = np.zeros((m, k, k * k), dtype=bool)  # each depth's frame: the children left to try, u * w + v
        failed = np.zeros((m, comb(2 * k, k)), dtype=bool)
        found[lo:lo + m] = k <= 1  # a root of size k - 1 completes
        entering = np.arange(m if k > 1 else 0)
        while entering.size:
            for s in np.flatnonzero(np.bincount(depth[entering])):
                g, w = entering[depth[entering] == s], k - s
                si, tj = kid[held[g], :w], kid[took[g], :w]  # the children's masks
                ok = _minors_ok(a, b, c[g], pos[si, :s + 1], pos[tj, :s + 1], field)
                if s:  # no state has failed before the root's children are tested
                    ok &= ~failed[g[:, None, None], base[si][:, :, None] + rank[tj][:, None, :]]
                kids[g, s, :w * w] = ok.reshape(len(g), w * w)
            moving, entered = entering, [entering[:0]]
            while moving.size:
                slot = kids[moving, depth[moving]].argmax(axis=1)
                has = kids[moving, depth[moving], slot]
                go, slot, d = moving[has], slot[has], depth[moving[has]]
                kids[go, d, slot] = False
                i, j = free[held[go], slot // (k - d)], free[took[go], slot % (k - d)]
                path[go, d] = i * k + j
                held[go] |= 1 << i
                took[go] |= 1 << j
                depth[go] += 1
                done = depth[go] == k - 1
                found[lo + go[done]] = True
                entered.append(go[~done])
                back = moving[~has]
                back = back[depth[back] > 0]  # a candidate out of children at the root has no ordering
                failed[back, base[held[back]] + rank[took[back]]] = True
                depth[back] -= 1
                slot = path[back, depth[back]]
                held[back] ^= 1 << slot // k
                took[back] ^= 1 << slot % k
                moving = back
            entering = np.concatenate(entered)
        if k:  # the last swap is of the one free row with the one free column
            path[:, k - 1] = free[held, 0] * k + free[took, 0]
    return found, steps


def _scan(
    a: np.ndarray, b: np.ndarray, field: FieldSpec, ell: int = 1, width: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The y bits, the x bits and the serial bits of a stack of candidates.

    a[c] = vp[ones, cand] and b[c] = up[cand, ones] are (C, k, k) stacks,
    in groups of ell consecutive candidates (the aligned blocks of one
    trial).  The y and x bits are the nonsingularity of every full block.
    The serial bits come from _lockstep searches of the candidates whose
    full exchange is valid both ways, in block order: each round searches
    the next width two-way blocks of every group with no serial block yet,
    in one _lockstep call, and the next round takes twice as many.  So a
    group leaves at the round of its first serial block, and its later
    blocks read 0.  width = ell searches every two-way block in one round,
    and width = 0 searches none.  Every width takes the search's k <=
    _SEARCH_MAX_K.
    """
    if a.shape[-1] > _SEARCH_MAX_K:
        raise ValueError(f"the serial search takes k <= {_SEARCH_MAX_K}, got k = {a.shape[-1]}")
    y, x = _nonsingular(a, field), _nonsingular(b, field)
    serial = np.zeros(len(a), dtype=bool)
    two_way, hit = (x & y).reshape(-1, ell), serial.reshape(-1, ell)
    rank = np.cumsum(two_way, axis=1)  # a two-way block's place among its group's, from 1
    live, done = np.flatnonzero(rank[:, -1]), 0
    while width and live.size:
        ranks = rank[live]
        t, i = np.nonzero(two_way[live] & (ranks > done) & (ranks <= done + width))
        cand = live[t] * ell + i
        serial[cand] = _lockstep(a, b, cand, field)[0]
        live = live[~hit[live].any(axis=1) & (ranks[:, -1] > done + width)]
        done, width = done + width, 2 * width
    return y, x, serial


def _blocks(vp: np.ndarray, up: np.ndarray, x1: np.ndarray, x2: np.ndarray, at: np.ndarray | None = None):
    """The full blocks vp[x1, x2] and up[x2, x1] of a stack of instances, instance i in pair at[i] (default i)."""
    i = (np.arange(len(x1)) if at is None else at)[:, None, None]
    return vp[i, x1[:, :, None], x2[:, None, :]], up[i, x2[:, :, None], x1[:, None, :]]


def _two_way(
    vp: np.ndarray, up: np.ndarray, x1: np.ndarray, x2: np.ndarray, field: FieldSpec, at: np.ndarray | None = None
) -> np.ndarray:
    """Whether each instance's whole sets swap to bases both ways, in one _nonsingular call.

    The arguments are _search_stack's: the swaps are bases iff both full
    blocks vp[x1, x2] and up[x2, x1] are nonsingular.
    """
    return _nonsingular(np.concatenate(_blocks(vp, up, x1, x2, at)), field).reshape(2, -1).all(axis=0)


def _search_stack(
    vp: np.ndarray, up: np.ndarray, x1: np.ndarray, x2: np.ndarray, field: FieldSpec, at: np.ndarray | None = None
) -> list[SerialCertificate | None]:
    """The first serial orderings of a stack of instances, in reduced coordinates, or None.

    vp and up are stacks of reduced pairs and x1 and x2 (B, k) arrays of
    sorted positions; instance i is in pair at[i] (default i).  A prefix
    (sigma, tau) of length i keeps both replacements bases iff vp[sigma,
    tau] and up[tau, sigma] are nonsingular i x i submatrices.  Both full
    blocks of every instance are tested in one stacked call, and one
    _lockstep search runs on the instances where both pass, so each
    certificate is the first in lexicographic position order.
    """
    a, b = _blocks(vp, up, x1, x2, at)
    live = np.flatnonzero(_nonsingular(np.concatenate([a, b]), field).reshape(2, -1).all(axis=0))
    found, steps = _lockstep(a, b, live, field)
    live, (row, col) = live[found], np.divmod(steps[found], max(x1.shape[-1], 1))
    sigma, tau = np.take_along_axis(x1[live], row, axis=1).tolist(), np.take_along_axis(x2[live], col, axis=1).tolist()
    certs = [None] * len(x1)
    for t, s, u in zip(live.tolist(), sigma, tau):
        certs[t] = SerialCertificate(tuple(s), tuple(u))
    return certs


def _first_partner(vp: np.ndarray, up: np.ndarray, x1: np.ndarray, cands, field: FieldSpec, decide) -> list:
    """Each instance's first candidate partner set that decide accepts, and decide's answer for it, or None.

    vp and up are stacks of reduced pairs as in _search_stack, x1 a (B, k)
    array of sorted positions, and cands yields sorted k-tuples of
    positions, the same for every instance.  decide takes _search_stack's
    arguments and gives every instance of a stack an answer, falsy where
    it misses: _search_stack a certificate, _two_way a bool.  Candidates
    go in lexicographic slices: every instance still without a hit
    decides the next slice in one decide call, and leaves the stack at its
    first hit.  A slice gathers at most a budget of block entries, the
    first an eighth of _SLICE_ENTRIES and each next twice the last, up to
    it: an early witness costs one small call, and a list without one few
    calls.  Returns each instance's hit as (candidate, answer).
    """
    cands = iter(cands)
    k = x1.shape[-1]
    hits = [None] * len(x1)
    live = np.arange(len(x1))
    budget = _SLICE_ENTRIES >> 3
    while live.size and (chunk := list(islice(cands, max(1, budget // (max(2 * k * k, 1) * live.size))))):
        at = np.repeat(live, len(chunk))
        twos = np.tile(np.array(chunk, dtype=np.intp).reshape(len(chunk), k), (live.size, 1))
        answers = decide(vp, up, x1[at], twos, field, at)
        ok = np.fromiter(map(bool, answers), dtype=bool, count=len(at)).reshape(live.size, len(chunk))
        found = ok.any(axis=1)
        for t in np.flatnonzero(found):
            c = int(ok[t].argmax())
            hits[live[t]] = (tuple(chunk[c]), answers[t * len(chunk) + c])
        live = live[~found]
        budget = min(2 * budget, _SLICE_ENTRIES)
    return hits


def symmetric_partners(b1: OrderedBasis, x: int, b2: OrderedBasis) -> tuple[int, ...]:
    """All positions y of b2 such that x and y exchange symmetrically.

    A single swap is a basis both ways iff its two 1 x 1 minors, vp[x, y]
    and up[y, x], are nonzero.  Guaranteed nonempty; an empty result would
    indicate a bug.
    """
    _check_index_set((x,), b1.n, "x")
    vp, up = _reduced_pair(b1, b2)
    return tuple(np.flatnonzero((vp[x] != 0) & (up[:, x] != 0)).tolist())


def greene_woodall(b1: OrderedBasis, x1: IndexSet, b2: OrderedBasis) -> tuple[int, ...]:
    """Lexicographically least x2 with the two-way arrow relation to x1.

    Set exchange guarantees a witness exists for every nonempty x1.
    """
    x1 = _check_index_set(x1, b1.n, "x1")
    if not x1:
        raise ValueError("x1 must be nonempty")
    k = len(x1)
    vp, up = _reduced_pair(b1, b2)
    ones = np.array([sorted(x1)], dtype=np.intp)
    hit = _first_partner(vp[None], up[None], ones, combinations(range(b2.n), k), b1.field, _two_way)[0]
    if hit is None:
        raise ExhaustedWithoutWitness(
            f"no {k}-subset of the second basis exchanges with {x1}; this should be impossible"
        )
    return hit[0]


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
    ones = np.array([sorted(x1)], dtype=np.intp)
    return _first_partner(vp[None], up[None], ones, candidates, b1.field, _search_stack)[0]
