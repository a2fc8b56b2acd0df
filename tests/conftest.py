"""Shared reference oracles, deliberately independent of the library kernels.

The determinant here is Laplace expansion over verified scalar field ops,
so rank and independence answers do not reuse the vectorized elimination
they are checking.  ref_row_rank is a plain one-matrix row reduction,
kept beside the library's stacked kernel as a fast rank reference for
matrices too large for minor expansion.  The scalar field ops on raw
indices live here too: the library itself only reads the op tables.
ref_brute_force_serial is the crosscheck oracle the library replaced, a
scan of every ordering pair that tests each of its prefixes anew.
ref_full_ranks is the stacked rejection sampler as a plain loop over
candidates, and ref_crosscheck_instance replays the crosscheck's draw of
one instance through it.  ref_sample_reduced is the trial sampler the
library replaced, which solves every round's draws, rejected ones too.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations

import numpy as np

from fqexchange import experiments
from fqexchange.exchange import ExchangeInstance, OrderedBasis, SerialCertificate, _prefixes, _swap_bases
from fqexchange.gf import FieldSpec, make_field
from fqexchange.matfq import MatFq, _matmul, _solve
from fqexchange.randmodel import derive_rng


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of the zero element."""


# scalar ops on raw indices; prime fields skip the tables
def add_idx(field: FieldSpec, a: int, b: int) -> int:
    if field.e == 1:
        return (a + b) % field.q
    return int(field._add[a, b])


def mul_idx(field: FieldSpec, a: int, b: int) -> int:
    if field.e == 1:
        return (a * b) % field.q
    return int(field._mul[a, b])


def neg_idx(field: FieldSpec, a: int) -> int:
    if field.e == 1:
        return (-a) % field.q
    return int(field._neg[a])


def inv_idx(field: FieldSpec, a: int) -> int:
    if a == 0:
        raise DivisionByZero(f"inverse of zero in GF({field.q})")
    if field.e == 1:
        return pow(a, -1, field.q)
    return int(field._inv[a])


def accepted_q() -> list[int]:
    """Every q <= 256 that make_field accepts."""
    out = []
    for q in range(2, 257):
        try:
            make_field(q)
        except ValueError:
            continue
        out.append(q)
    return out


def ref_det(entries, field: FieldSpec) -> int:
    """Determinant by cofactor expansion; entries is a list of row lists."""
    n = len(entries)
    if n == 0:
        return 1
    if n == 1:
        return entries[0][0] % field.q if field.e == 1 else entries[0][0]
    total = 0
    sign_flip = False
    for j in range(n):
        a = entries[0][j]
        if a:
            minor = [[row[c] for c in range(n) if c != j] for row in entries[1:]]
            term = mul_idx(field, a, ref_det(minor, field))
            if sign_flip:
                term = neg_idx(field, term)
            total = add_idx(field, total, term)
        sign_flip = not sign_flip
    return total


def ref_rank(entries, field: FieldSpec) -> int:
    """Largest r with a nonsingular r x r submatrix; fine for tiny matrices."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    for r in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), r):
            for csel in combinations(range(cols), r):
                sub = [[entries[i][j] for j in csel] for i in rsel]
                if ref_det(sub, field) != 0:
                    return r
    return 0


def ref_row_rank(entries, field: FieldSpec) -> int:
    """Rank by row reduction of one matrix, through the field tables.

    Each column pivots on its first nonzero entry at or below the current
    row; that row is scaled to 1 and cleared from the rows beneath.
    """
    a = np.array(entries, dtype=np.uint8)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        a[[r, p]] = a[[p, r]]
        a[r] = field._mul[field._inv[a[r, c]], a[r]]
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        a[below] = field._add[a[below], field._mul[field._neg[a[below, c]][:, None], a[r][None, :]]]
        r += 1
    return r


def ref_full_ranks(rng, count: int, n: int, field: FieldSpec) -> np.ndarray:
    """matfq.random_full_ranks as a loop: (count, n, n) draws, each rejected one drawn again.

    Every rejection round is one integers call over the slots rejected so
    far, in index order, and each candidate is tested alone with
    ref_row_rank.
    """
    out = np.empty((count, n, n), dtype=np.uint8)
    todo = list(range(count))
    while todo:
        draws = rng.integers(0, field.q, size=(len(todo), n, n), dtype=np.uint8)
        out[todo] = draws
        todo = [slot for slot, m in zip(todo, draws) if ref_row_rank(m, field) < n]
    return out


def ref_sample_reduced(rng, trials: int, n: int, k: int, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """randmodel.sample_reduced as it was: every round solves all its draws.

    Each round draws the slots rejected so far, in index order, as one
    (2k, n) block [R; C0^T] a slot, solves (R C0)^T C^T = C0^T for every
    draw of the round with one stacked matfq._solve, and keeps the slots
    whose R C0 has full rank.  Returns the (trials, k, n) R and (trials,
    n, k) C stacks.
    """
    d = np.empty((trials, 2 * k, n), dtype=np.uint8)
    c = np.empty((trials, n, k), dtype=np.uint8)
    todo = np.arange(trials)
    while todo.size:
        d[todo] = rng.integers(0, field.q, size=(todo.size, 2 * k, n), dtype=np.uint8)
        r, c0t = d[todo, :k], d[todo, k:]
        found, ct = _solve(_matmul(c0t, r.transpose(0, 2, 1), field), c0t, field)
        ok = found == k
        c[todo[ok]] = ct.transpose(0, 2, 1)[ok]
        todo = todo[~ok]
    return d[:, :k], c


@cache
def _ref_crosscheck_chunk(seed: int, q: int, k: int, n: int, lo: int, step: int):
    rng = derive_rng(seed, 0, lo)
    bases = ref_full_ranks(rng, 2 * step, n, make_field(q))
    sets = np.sort(rng.permuted(np.tile(np.arange(n), (2 * step, 1)), axis=1)[:, :k], axis=1)
    return bases, sets


def ref_crosscheck_instance(config, t: int) -> ExchangeInstance:
    """Instance t of experiments.crosscheck_serial, replayed from its chunk.

    The chunk holds step = max(1, min(_CROSSCHECK_CHUNK, _MAX_DRAW_BYTES //
    (8 n^2))) instances and starts at lo = step * (t // step).  It is drawn
    whole from derive_rng(seed, 0, lo): 2 step bases by ref_full_ranks,
    the B1s first, then the first k entries of each row of one permuted
    (2 step, n) stack of 0..n-1, the x1 rows first, sorted.
    """
    k, n = config.k, config.n_values[0]
    step = max(1, min(experiments._CROSSCHECK_CHUNK, experiments._MAX_DRAW_BYTES // (8 * n * n)))
    lo, i = divmod(t, step)
    bases, sets = _ref_crosscheck_chunk(config.seed, config.q, k, n, lo * step, step)
    field = make_field(config.q)
    b1, b2 = (OrderedBasis(MatFq(field, bases[j]), validate=False) for j in (i, step + i))
    return ExchangeInstance(b1, b2, tuple(sets[i].tolist()), tuple(sets[step + i].tolist()))


def ref_is_basis(columns, field: FieldSpec) -> bool:
    """columns: list of column tuples; True iff they form a square nonsingular matrix."""
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    return ref_det(rows, field) != 0


def ref_matmul(a, b, field: FieldSpec):
    """Matrix product over verified scalar field ops; a and b are nonempty lists of row lists."""
    inner = len(b)
    cols = len(b[0])
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = add_idx(field, acc, mul_idx(field, row[t], b[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def ref_completion(r, c, field: FieldSpec):
    """An n x n matrix M with M[:k] = r and M^-1[:, :k] = c, given r c = I.

    The rows below r are a basis of the left null space of c, found by
    scalar Gauss-Jordan elimination of c^T: then M c = [I; 0], so the
    first k columns of M^-1 are c.
    """
    n = len(c)
    k = len(c[0]) if n else 0
    work = [[c[i][j] for i in range(n)] for j in range(k)]  # c^T, k x n
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, k) if work[i][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        scale = inv_idx(field, work[row][col])
        work[row] = [mul_idx(field, scale, v) for v in work[row]]
        for i in range(k):
            f = work[i][col]
            if i != row and f:
                work[i] = [add_idx(field, v, neg_idx(field, mul_idx(field, f, w))) for v, w in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
    null_rows = []
    for free in (j for j in range(n) if j not in pivots):
        vec = [0] * n
        vec[free] = 1
        for i, p in enumerate(pivots):
            vec[p] = neg_idx(field, work[i][free])
        null_rows.append(vec)
    return [list(rr) for rr in r] + null_rows


def ref_search_reduced(vp, up, x1, x2, field: FieldSpec):
    """First serial ordering pair (sigma, tau) in lexicographic position order, or None.

    The backtracking search over orderings in reduced coordinates: a
    prefix is valid iff the minors vp[sigma, tau] and up[tau, sigma] have
    nonzero ref_det.  vp and up are lists of row lists.
    """
    k = len(x1)

    def valid(rows, cols):
        return ref_det([[vp[i][j] for j in cols] for i in rows], field) != 0 and ref_det(
            [[up[j][i] for i in rows] for j in cols], field
        ) != 0

    if not valid(x1, x2):
        return None
    ones, twos = sorted(x1), sorted(x2)
    sigma, tau = [], []

    def dfs():
        if len(sigma) == k:
            return True
        for i in ones:
            if i in sigma:
                continue
            for j in twos:
                if j in tau:
                    continue
                sigma.append(i)
                tau.append(j)
                if valid(sigma, tau) and dfs():
                    return True
                sigma.pop()
                tau.pop()
        return False

    return (tuple(sigma), tuple(tau)) if dfs() else None


def ref_brute_force_serial(cols: np.ndarray, x1: np.ndarray, x2: np.ndarray, field: FieldSpec):
    """Each instance's first serial ordering pair, by testing all (k!)^2 pairs one by one.

    cols is a (B, 2n, n) stack of exchange._columns and x1 and x2 (B, k)
    position arrays.  Ordering pairs go in permutations order, one
    instance and one sigma at a time: the k! pairs of a sigma are one
    direct exchange._swap_bases call over every prefix of every pair, so a
    prefix family is tested again for each pair that reaches it.
    """
    k = x1.shape[-1]
    orders = np.array(list(permutations(range(k))), dtype=np.intp).reshape(-1, k)
    steps = _prefixes(k)
    certs = []
    for i in range(len(cols)):
        taus = x2[i, orders]
        cert = None
        for sigma in x1[i, orders]:
            ones = np.broadcast_to(sigma[steps], (len(taus), k, k))
            ok = _swap_bases(cols, np.full((len(taus), 1), i), ones, taus[:, steps], field).all(axis=(1, 2))
            if ok.any():
                cert = SerialCertificate(tuple(sigma.tolist()), tuple(taus[ok.argmax()].tolist()))
                break
        certs.append(cert)
    return certs


def layouts(stack: np.ndarray) -> dict[str, np.ndarray]:
    """A (B, r, c) stack in the memory layouts a kernel may be handed.

    The kernels read tables and stacks at flat indices through reshaped
    views, so each layout is a case the flat form could get wrong:
    contiguous, every other matrix of a larger stack, a window of larger
    matrices, a transposed view, a zero-stride broadcast of the last
    matrix, no matrices and one.
    """
    count, r, c = stack.shape
    every_other = np.zeros((2 * count, r, c), dtype=stack.dtype)
    every_other[::2] = stack
    window = np.zeros((count, r + 1, c + 2), dtype=stack.dtype)
    window[:, 1:, 2:] = stack
    out = {
        "contiguous": stack,
        "every other": every_other[::2],
        "window": window[:, 1:, 2:],
        "transposed": np.ascontiguousarray(stack.swapaxes(1, 2)).swapaxes(1, 2),
        "broadcast": np.broadcast_to(stack[-1:], (4, r, c)),
        "empty": stack[:0],
        "one": stack[:1],
    }
    if r > 1 and c > 1:
        assert not any(out[name].flags.c_contiguous for name in ("every other", "window", "transposed", "broadcast"))
    return out
