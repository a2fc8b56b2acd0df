"""Dense matrices over GF(q): rank, reduction, random generation, counting.

Entries are stored as a read-only uint8 array of element indices; all row
operations go through the field's lookup tables, so the same kernel serves
prime and extension fields.  Matrices are immutable values and every
operation returns a fresh matrix.
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
    Returns that count, the (B, size) pivot row of every column, and what
    the other rows and columns are left holding: the Schur complement
    D - C A^-1 B of the stack [[A, B], [C, D]] where A is nonsingular.
    """
    a = np.asarray(stack, dtype=np.uint8)
    size = a.shape[-1] if size is None else size
    # the narrowest type that holds size: adding to it per column costs less than to intp
    found = np.zeros(a.shape[0], dtype=np.min_scalar_type(size))
    rows = np.zeros((a.shape[0], size), dtype=np.intp)
    every = np.arange(a.shape[0])
    add_t, mul_t = field._add, field._mul
    neg_t, inv_t = field._neg, field._inv
    for c in range(size):
        rows[:, c] = (a[:, :size, 0] != 0).argmax(axis=1)
        piv = a[every, rows[:, c]]
        found += piv[:, 0] != 0
        if a.shape[-1] == 1:  # the last column and nothing carried: nothing left to eliminate
            return found, rows, a[:, size:, 1:]
        factors = mul_t[a[:, :, 0], neg_t[inv_t[piv[:, 0]]][:, None]]
        a = add_t[a[:, :, 1:], mul_t[factors[:, :, None], piv[:, None, 1:]]]
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


def random_full_rank(rng: np.random.Generator, n: int, field: FieldSpec) -> MatFq:
    """Uniform draw from the nonsingular n x n matrices over GF(q).

    Rejection sampling on whole matrices: a uniform matrix conditioned on
    full rank is uniform on the full-rank set.  The acceptance probability
    is at least 0.288 for every q >= 2, so the expected number of draws is
    below 3.5.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    while True:
        ent = rng.integers(0, field.q, size=(n, n), dtype=np.uint8)
        if _rank_of(ent, field) == n:
            return MatFq(field, ent)


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

    a and b may be stacks with matching leading axes.  Every term
    a[..., i, l] * b[..., l, j] is looked up at once, zero-padded along l
    to a power of two, and summed by halving, so the table additions take
    log2(inner) vectorized steps.
    """
    inner = a.shape[-1]
    width = 1 << max(inner - 1, 0).bit_length()
    terms = np.zeros((*a.shape[:-1], width, b.shape[-1]), dtype=np.uint8)
    terms[..., :inner, :] = field._mul[a[..., :, :, None], b[..., None, :, :]]
    while width > 1:
        width //= 2
        terms = field._add[terms[..., :width, :], terms[..., width:, :]]
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
    arr = np.array(rows, dtype=np.uint8) if rows else np.zeros((0, n), dtype=np.uint8)
    return MatFq(field, arr.reshape(m, n))
