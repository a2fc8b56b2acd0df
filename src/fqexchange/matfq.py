"""Dense matrices over GF(q): rank, reduction, random generation, counting.

Entries are stored as a read-only uint8 array of element indices; all row
operations go through the field's lookup tables, read flat at uint16
indices x * q + y, so the same kernel serves prime and extension fields.
The kernels take whole stacks: _pivot_rows eliminates a (B, rows, cols)
stack at once, and rank, solves, products and rejection sampling
(random_full_ranks, one generator per stack) are stacks through it; a
single matrix is a stack of one.  Tables and stacks are read with
ndarray.take at flat indices, never with a fancy index: numpy's fancy
index at a uint16 array is 2.7-3x slower than take on the same
indices.  Matrices are immutable values and every operation returns a
fresh matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

from .gf import FieldSpec, make_field

IndexSet = Sequence[int]


class IndexOutOfRange(ValueError):
    """An index set addresses a row or column that does not exist."""


class NotSquare(ValueError):
    """Operation defined only for square matrices."""


class SingularBasis(ValueError):
    """The matrix expected to be invertible has rank below its size."""


class MatFq:
    """An immutable rows x cols matrix over a fixed GF(q)."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldSpec, entries: np.ndarray):
        entries = np.ascontiguousarray(entries, dtype=np.uint8)
        if entries.ndim != 2:
            raise ValueError(f"entries must be 2-dimensional, got shape {entries.shape}")
        if entries.size and int(entries.max()) >= field.q:
            raise ValueError(f"entry index {int(entries.max())} outside GF({field.q})")
        entries.setflags(write=False)
        self.field = field
        self.entries = entries

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable[int]]) -> MatFq:
        data = [[int(v) for v in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("rows have unequal lengths")
        arr = np.array(data, dtype=np.uint8) if data else np.zeros((0, 0), dtype=np.uint8)
        if arr.ndim == 1:  # empty rows
            arr = arr.reshape(len(data), 0)
        return cls(field, arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def __eq__(self, other):
        return (
            isinstance(other, MatFq)
            and other.field == self.field
            and other.entries.shape == self.entries.shape
            and bool(np.array_equal(other.entries, self.entries))
        )

    def __hash__(self):
        return hash((self.field.q, self.entries.shape, self.entries.tobytes()))

    def __repr__(self):
        body = "; ".join(" ".join(str(int(v)) for v in row) for row in self.entries)
        return f"MatFq({self.field!r}, [{body}])"


def _check_index_set(idx: IndexSet, bound: int, what: str) -> tuple[int, ...]:
    out = tuple(int(i) for i in idx)
    for i in out:
        if not 0 <= i < bound:
            raise IndexOutOfRange(f"{what} index {i} outside [0, {bound})")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate {what} index in {out}")
    return out


def _pivot_rows(
    stack: np.ndarray, field: FieldSpec, size: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination on a whole (B, rows, cols) stack at once.

    The leading size x size block A of each matrix (all of a square stack
    by default) is reduced: in each of its columns every matrix pivots on
    its own first row of A that is nonzero there, and that row is
    eliminated from all rows, itself included: used rows turn to zero and
    are never chosen again.  A column with no pivot leaves the matrix as
    it is (its pivot entry is 0 and field._inv[0] == 0, so every factor
    is 0), so the pivot count of each matrix is the rank of its A.
    Every field operation is one take from a flat table at the uint16
    index x * q + y, whose scaled operand x * q the tables give (see
    gf.FieldSpec): cheaper than a 2-D lookup at (x, y), and take is
    2.7-3x faster than a fancy index at the same uint16 array.  The pivot
    rows are one take from the (B * rows, cols) view of the stack at the
    flat row indices b * rows + r.  Returns the pivot counts, the (B, size)
    pivot row of every column, and what the other rows and columns are
    left holding: the Schur complement D - C A^-1 B of the stack
    [[A, B], [C, D]] where A is nonsingular.
    """
    a = np.asarray(stack, dtype=np.uint8)
    size = a.shape[-1] if size is None else size
    # the narrowest type that holds size: adding to it per column costs less than to intp
    found = np.zeros(a.shape[0], dtype=np.min_scalar_type(size))
    rows = np.zeros((a.shape[0], size), dtype=np.intp)
    starts = np.arange(a.shape[0]) * a.shape[1]  # each matrix's first row in the (B * rows, cols) view
    add_f, mul_q, neg_inv_q = field._add_flat, field._mul_q, field._neg_inv_q
    for c in range(size):
        rows[:, c] = r = (a[:, :size, 0] != 0).argmax(axis=1)
        piv = a.reshape(-1, a.shape[-1]).take(starts + r, axis=0)
        found += piv[:, 0] != 0
        if a.shape[-1] == 1:  # the last column and nothing carried: nothing left to eliminate
            return found, rows, a[:, size:, 1:]
        factors_q = mul_q.take(neg_inv_q.take(piv[:, 0])[:, None] + a[:, :, 0])  # each row's factor, times q
        a = add_f.take(mul_q.take(factors_q[:, :, None] + piv[:, None, 1:]) + a[:, :, 1:])
    return found, rows, a[:, size:]


def _nonsingular(stack: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Which matrices of a (B, k, k) stack are nonsingular, as a bool array."""
    return _pivot_rows(stack, field)[0] == stack.shape[-1]


def _solve(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """A^-1 B for a (B, m, m) stack a and a (B, m, p) stack b.

    Returns the pivot count (the rank) of each A and the (B, m, p) stack
    of A^-1 B, junk where A is singular: the Schur complement of A in
    [[A, B], [-I, 0]], which one stacked elimination leaves.
    """
    m = a.shape[-1]
    aug = np.zeros((len(a), 2 * m, m + b.shape[-1]), dtype=np.uint8)
    aug[:, :m, :m] = a
    aug[:, :m, m:] = b
    aug[:, m:, :m] = field._neg[1] * np.eye(m, dtype=np.uint8)
    found, _, x = _pivot_rows(aug, field, m)
    return found, x


def _rank_of(entries: np.ndarray, field: FieldSpec) -> int:
    """Rank of one matrix: the pivot count of it zero-padded to a square."""
    side = max(entries.shape)
    square = np.zeros((1, side, side), dtype=np.uint8)
    square[0, :entries.shape[0], :entries.shape[1]] = entries
    return int(_pivot_rows(square, field)[0][0])


def rank(m: MatFq) -> int:
    """Rank via Gaussian elimination; the input is not modified."""
    return _rank_of(m.entries, m.field)


def _sequential(stack: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Which matrices of a (B, k, k) stack have every leading block nonsingular.

    With rows 0..c-1 used by the first c columns, row r still has a nonzero
    entry in column c exactly when A[{0..c-1, r}, 0..c] is nonsingular.  So
    every leading block is nonsingular exactly when the matrix is and
    column c pivots on row c.
    """
    found, rows, _ = _pivot_rows(stack, field)
    k = stack.shape[-1]
    return (found == k) & (rows == np.arange(k)).all(axis=1)


def sequential_full_rank(a: MatFq) -> bool:
    """True iff every leading principal submatrix is nonsingular."""
    if a.rows != a.cols:
        raise NotSquare(f"sequential full rank needs a square matrix, got {a.rows}x{a.cols}")
    return bool(_sequential(a.entries[None], a.field)[0])


def nonsingular_count(k: int, q: int) -> int:
    """Number of nonsingular k x k matrices over GF(q), exactly."""
    if k < 0 or q < 2:
        raise ValueError("need k >= 0 and q >= 2")
    out = 1
    for i in range(1, k + 1):
        out *= q**k - q ** (i - 1)
    return out


def alpha(k: int, q: int) -> Fraction:
    """Probability that a uniform random k x k matrix over GF(q) is nonsingular."""
    if k < 0 or q < 2:
        raise ValueError("need k >= 0 and q >= 2")
    out = Fraction(1)
    for i in range(1, k + 1):
        out *= 1 - Fraction(1, q**i)
    return out


def beta(k: int, q: int) -> Fraction:
    """Probability that a uniform random k x k matrix has sequential full rank."""
    if k < 0 or q < 2:
        raise ValueError("need k >= 0 and q >= 2")
    return (1 - Fraction(1, q)) ** k


def random_full_ranks(rng: np.random.Generator, count: int, n: int, field: FieldSpec) -> np.ndarray:
    """count uniform draws from the nonsingular n x n matrices, as a (count, n, n) stack from one generator.

    Rejection sampling on whole matrices: a uniform matrix conditioned on
    full rank is uniform on the full-rank set.  Each round draws the slots
    rejected so far, in index order, as one integers call and tests them
    in one stacked call, so a stack of one draws exactly what an (n, n)
    draw would.  The acceptance probability is at least 0.288 for every
    q >= 2, so the expected number of rounds per slot is below 3.5.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = np.empty((count, n, n), dtype=np.uint8)
    todo = np.arange(count)
    while todo.size:
        out[todo] = draws = rng.integers(0, field.q, size=(todo.size, n, n), dtype=np.uint8)
        todo = todo[~_nonsingular(draws, field)]
    return out


def random_full_rank(rng: np.random.Generator, n: int, field: FieldSpec) -> MatFq:
    """Uniform draw from the nonsingular n x n matrices over GF(q): random_full_ranks of one."""
    return MatFq(field, random_full_ranks(rng, 1, n, field)[0])


def reduce_against(v: MatFq, u: MatFq) -> MatFq:
    """Row-reduce the concatenation [V | U] until V becomes the identity.

    Returns the transformed right block U' = V^-1 U, from one _solve.  Row
    operations act on whole rows of the concatenation, so a set of columns
    of [V | U] is independent exactly when the same columns of [I | U'] are.
    """
    if v.rows != v.cols:
        raise NotSquare(f"left block must be square, got {v.rows}x{v.cols}")
    if u.rows != v.rows:
        raise ValueError(f"row counts differ: {v.rows} vs {u.rows}")
    if v.field != u.field:
        raise ValueError("blocks live over different fields")
    found, x = _solve(v.entries[None], u.entries[None], v.field)
    if found[0] < v.rows:
        raise SingularBasis(f"left block has rank {found[0]} < {v.rows}")
    return MatFq(v.field, x[0])


def _matmul(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Product of two index arrays over GF(q), through the field tables.

    a and b may be stacks with matching leading axes, and the inner size
    is at least 1.  Every term a[..., i, l] * b[..., l, j] is read at once
    from the flat table with take at the uint16 index x * q + y (as in
    _pivot_rows), and the terms are summed by halving along l, an odd
    leftover term folded into term 0 at each step, so the table additions
    take about log2(inner) vectorized steps and no step adds padding
    zeros.
    """
    q, add = field.q, field._add_flat
    terms = field._mul.take(np.multiply(a[..., :, :, None], q, dtype=np.uint16) + b[..., None, :, :])
    while (width := terms.shape[-2]) > 1:
        half = width // 2
        summed = add.take(np.multiply(terms[..., :half, :], q, dtype=np.uint16) + terms[..., half:2 * half, :])
        if width % 2:
            summed[..., 0, :] = add.take(np.multiply(summed[..., 0, :], q, dtype=np.uint16) + terms[..., -1, :])
        terms = summed
    return terms[..., 0, :]


# --- text format: first line "q m n", then m rows of element indices ---

def read_matrix_text(fh: IO[str]) -> MatFq:
    header = fh.readline().split()
    if len(header) != 3:
        raise ValueError(f"matrix header must be 'q m n', got {header!r}")
    q, m, n = (int(x) for x in header)
    if m < 0 or n < 0:
        raise ValueError(f"matrix shape {m} x {n} is negative")
    field = make_field(q)
    rows = []
    for i in range(m):
        line = fh.readline()
        if not line:
            raise ValueError(f"matrix file ends after {i} of {m} rows")
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        row = [int(x) for x in parts]
        for v in row:
            if not 0 <= v < q:
                raise ValueError(f"matrix entry {v} outside GF({q})")
        rows.append(row)
    if fh.read().strip():
        raise ValueError(f"matrix file has content after its {m} rows")
    arr = np.array(rows, dtype=np.uint8) if rows else np.zeros((0, n), dtype=np.uint8)
    return MatFq(field, arr.reshape(m, n))
