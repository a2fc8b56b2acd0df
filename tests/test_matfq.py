"""Matrix operations over GF(q), cross-checked against minor-expansion oracles."""

import io
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accepted_q, ref_det, ref_matmul, ref_rank, ref_row_rank
from fqexchange.gf import SUPPORTED_EXTENSIONS, make_field
from fqexchange.matfq import (
    IndexOutOfRange,
    MatFq,
    NotSquare,
    SingularBasis,
    _check_index_set,
    _matmul,
    _nonsingular,
    _sequential,
    alpha,
    beta,
    nonsingular_count,
    random_full_rank,
    rank,
    read_matrix_text,
    reduce_against,
    sequential_full_rank,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(4)


def mat(field, rows):
    return MatFq.from_rows(field, rows)


# --- rank ---


def test_rank_identity():
    for n in (1, 3, 6, 300):
        assert rank(MatFq(F3, np.eye(n, dtype=np.uint8))) == n


def test_rank_zero_matrix():
    assert rank(MatFq(F3, np.zeros((3, 5), dtype=np.uint8))) == 0


def test_rank_dependent_rows_f3():
    # second row is twice the first modulo 3
    assert rank(mat(F3, [[1, 2], [2, 1]])) == 1


def test_rank_empty():
    assert rank(MatFq(F3, np.zeros((0, 0), dtype=np.uint8))) == 0
    assert rank(MatFq(F3, np.zeros((0, 4), dtype=np.uint8))) == 0


@pytest.mark.parametrize("field", [F2, F3])
def test_rank_exhaustive_2x2_vs_minor_oracle(field):
    q = field.q
    for entries in product(range(q), repeat=4):
        rows = [list(entries[:2]), list(entries[2:])]
        assert rank(mat(field, rows)) == ref_rank(rows, field)


@settings(max_examples=60)
@given(data=st.data())
def test_rank_random_vs_minor_oracle(data):
    field = make_field(data.draw(st.sampled_from([2, 3, 4, 5])))
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, field.q - 1)) for _ in range(n)] for _ in range(m)]
    assert rank(mat(field, rows)) == ref_rank(rows, field)


@settings(max_examples=60)
@given(data=st.data())
def test_rank_large_fields_vs_minor_oracle(data):
    # the last row is a random combination of the others half the time, so
    # rank-deficient matrices are drawn even where q is large
    field = make_field(data.draw(st.sampled_from([251, *SUPPORTED_EXTENSIONS])))
    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 4))
    elem = st.integers(0, field.q - 1)
    rows = [[data.draw(elem) for _ in range(n)] for _ in range(m - 1)]
    if data.draw(st.booleans()):
        coefs = [data.draw(elem) for _ in rows]
        last = [0] * n
        for c, row in zip(coefs, rows):
            last = [field.add_idx(v, field.mul_idx(c, w)) for v, w in zip(last, row)]
    else:
        last = [data.draw(elem) for _ in range(n)]
    rows.append(last)
    assert rank(mat(field, rows)) == ref_rank(rows, field)


def test_rank_q251_near_wraparound():
    # det = -1, at the largest prime q that make_field accepts
    f = make_field(251)
    rows = [[1, 1, 0, 0], [250, 249, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert rank(mat(f, rows)) == ref_rank(rows, f) == 4


@settings(max_examples=80)
@given(data=st.data())
def test_matmul_vs_scalar_oracle(data):
    field = make_field(data.draw(st.sampled_from([2, 3, 5, 251, *SUPPORTED_EXTENSIONS])))
    m, inner, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4))
    elem = st.integers(0, field.q - 1)
    a = [[data.draw(elem) for _ in range(inner)] for _ in range(m)]
    b = [[data.draw(elem) for _ in range(n)] for _ in range(inner)]
    got = _matmul(np.array(a, dtype=np.uint8), np.array(b, dtype=np.uint8), field)
    assert got.dtype == np.uint8
    assert got.tolist() == ref_matmul(a, b, field)


def test_rank_input_unmodified():
    m = mat(F3, [[1, 2], [2, 1]])
    before = m.entries.copy()
    rank(m)
    assert np.array_equal(m.entries, before)


# --- submatrices ---


def test_submatrix_errors():
    # an index set naming rows or columns of a 3 x 3 matrix
    with pytest.raises(IndexOutOfRange):
        _check_index_set((0, 3), 3, "row")
    with pytest.raises(ValueError):
        _check_index_set((0, 0), 3, "row")


@settings(max_examples=40)
@given(data=st.data())
def test_submatrix_rank_bounded(data):
    field = make_field(data.draw(st.sampled_from([2, 3])))
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, field.q - 1)) for _ in range(n)] for _ in range(m)]
    a = mat(field, rows)
    s = tuple(sorted(data.draw(st.sets(st.integers(0, m - 1)))))
    t = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    minor = a.entries[np.ix_(np.array(s, dtype=int), np.array(t, dtype=int))]
    assert rank(MatFq(field, minor)) <= min(len(s), len(t))


# --- stacked nonsingularity ---


def _mixed_rank_stack(rng, field, k, count):
    """count k x k matrices; every third has its last row a combination of the others."""
    stack = rng.integers(0, field.q, size=(count, k, k), dtype=np.uint8)
    for m in stack[::3]:
        if k == 0:
            continue
        row = [0] * k
        for src in m[:-1]:
            c = int(rng.integers(0, field.q))
            row = [field.add_idx(v, field.mul_idx(c, int(w))) for v, w in zip(row, src)]
        m[-1] = row
    return stack


@pytest.mark.parametrize("q", [2, 3, 5, 251, *SUPPORTED_EXTENSIONS])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_nonsingular_vs_ref_det_mixed_ranks(q, k):
    field = make_field(q)
    stack = _mixed_rank_stack(np.random.default_rng(q * 10 + k), field, k, 30)
    want = [ref_det(m.tolist(), field) != 0 for m in stack]
    got = _nonsingular(stack, field)
    assert got.dtype == bool and got.tolist() == want
    if k:
        assert not any(want[::3])
    assert _nonsingular(stack[:0], field).shape == (0,)


@pytest.mark.parametrize("q", accepted_q())
def test_nonsingular_vs_rank_of_up_to_12(q):
    # the crosscheck oracle stacks n x n prefix families: n = 6 in the
    # benchmark, 10 at k = 5
    field = make_field(q)
    rng = np.random.default_rng(q)
    for k in range(1, 13):
        stack = _mixed_rank_stack(rng, field, k, 30)
        want = [ref_row_rank(m, field) == k for m in stack]
        assert _nonsingular(stack, field).tolist() == want
        assert not any(want[::3])


def test_sequential_stack_k24():
    # A = L M U with L unit lower and U unit upper triangular has the
    # leading minors of M; for M a permutation scaled by d, A is nonsingular
    # iff d has no zero, and sequential iff also the permutation is the
    # identity
    rng = np.random.default_rng(5)
    k, count = 24, 400
    stack = np.empty((count, k, k), dtype=np.uint8)
    nonsingular, want = [], []
    for m in range(count):
        lower = np.tril(rng.integers(0, 3, size=(k, k), dtype=np.uint8), -1) + np.eye(k, dtype=np.uint8)
        upper = np.triu(rng.integers(0, 3, size=(k, k), dtype=np.uint8), 1) + np.eye(k, dtype=np.uint8)
        scale = rng.integers(1, 3, size=k, dtype=np.uint8) * (rng.random(k) > 0.01)
        perm = np.arange(k) if m % 2 else rng.permutation(k)
        middle = np.zeros((k, k), dtype=np.uint8)
        middle[np.arange(k), perm] = scale
        stack[m] = _matmul(_matmul(lower, middle, F3), upper, F3)
        nonsingular.append(bool(scale.all()))
        want.append(nonsingular[-1] and bool((perm == np.arange(k)).all()))
    assert _nonsingular(stack, F3).tolist() == nonsingular
    assert _sequential(stack, F3).tolist() == want
    assert 0 < sum(want) < sum(nonsingular) < count


# --- sequential full rank ---


def test_sequential_identity():
    assert sequential_full_rank(MatFq(F2, np.eye(4, dtype=np.uint8)))


def test_sequential_antidiagonal_false():
    assert not sequential_full_rank(mat(F2, [[0, 1], [1, 0]]))


def test_sequential_requires_square():
    with pytest.raises(NotSquare):
        sequential_full_rank(MatFq(F2, np.zeros((2, 3), dtype=np.uint8)))


def test_sequential_k0():
    assert sequential_full_rank(MatFq(F2, np.zeros((0, 0), dtype=np.uint8)))


def _seq_by_definition(rows, field):
    k = len(rows)
    for i in range(1, k + 1):
        lead = [r[:i] for r in rows[:i]]
        if ref_det(lead, field) == 0:
            return False
    return True


@pytest.mark.parametrize("field,k", [(F2, 1), (F2, 2), (F2, 3), (F3, 2)])
def test_sequential_exhaustive_vs_definition(field, k):
    q = field.q
    count = 0
    for entries in product(range(q), repeat=k * k):
        rows = [list(entries[i * k : (i + 1) * k]) for i in range(k)]
        got = sequential_full_rank(mat(field, rows))
        assert got == _seq_by_definition(rows, field)
        count += got
    assert count == (q - 1) ** k * q ** (k * k - k)


def test_sequential_f2_2x2_count_is_4():
    count = sum(
        sequential_full_rank(mat(F2, [list(e[:2]), list(e[2:])]))
        for e in product(range(2), repeat=4)
    )
    assert count == 4


@settings(max_examples=40)
@given(data=st.data())
def test_sequential_implies_nonsingular(data):
    field = make_field(data.draw(st.sampled_from([2, 3, 4])))
    k = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, field.q - 1)) for _ in range(k)] for _ in range(k)]
    m = mat(field, rows)
    if sequential_full_rank(m):
        assert rank(m) == k


# --- counting formulas ---


def test_nonsingular_count_examples():
    assert nonsingular_count(1, 2) == 1
    assert nonsingular_count(2, 2) == 6
    assert nonsingular_count(2, 3) == 48
    assert nonsingular_count(0, 5) == 1


def test_alpha_examples():
    assert alpha(0, 7) == 1
    assert alpha(1, 2) == Fraction(1, 2)
    assert alpha(2, 3) == Fraction(16, 27)


def test_beta_examples():
    assert beta(0, 3) == 1
    assert beta(2, 2) == Fraction(1, 4)
    assert beta(3, 3) == Fraction(8, 27)


def test_alpha_2_3_by_enumeration():
    nonsing = sum(
        rank(mat(F3, [list(e[:2]), list(e[2:])])) == 2 for e in product(range(3), repeat=4)
    )
    assert nonsing == 48
    assert Fraction(nonsing, 81) == alpha(2, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
def test_alpha_equals_count_ratio(q, k):
    assert alpha(k, q) == Fraction(nonsingular_count(k, q), q ** (k * k))


# --- random generation ---


def test_random_full_rank_n1_f2():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert random_full_rank(rng, 1, F2) == mat(F2, [[1]])


def test_random_full_rank_always_full():
    rng = np.random.default_rng(11)
    for _ in range(300):
        assert rank(random_full_rank(rng, 8, F3)) == 8


def test_random_full_rank_uniform_f2_n2():
    # 6 nonsingular 2x2 matrices over GF(2); each should appear ~1/6 of the time
    rng = np.random.default_rng(19)
    draws = 60_000
    counts: dict[bytes, int] = {}
    for _ in range(draws):
        m = random_full_rank(rng, 2, F2)
        key = m.entries.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / draws - 1 / 6) < 0.02


# --- reduce_against ---


def test_reduce_against_identity_left():
    u = mat(F3, [[1, 2], [0, 1]])
    assert reduce_against(MatFq(F3, np.eye(2, dtype=np.uint8)), u) == u


def test_reduce_against_scaling():
    v = mat(F3, [[2, 0], [0, 1]])
    u = mat(F3, [[1], [1]])
    assert reduce_against(v, u) == mat(F3, [[2], [1]])


def test_reduce_against_singular():
    # the last row of v is a combination of the others, in every field
    rng = np.random.default_rng(19)
    for q in accepted_q():
        field = make_field(q)
        v = rng.integers(0, q, size=(3, 3), dtype=np.uint8)
        c0, c1 = (int(x) for x in rng.integers(0, q, size=2))
        v[2] = [field.add_idx(field.mul_idx(c0, int(x)), field.mul_idx(c1, int(y))) for x, y in zip(v[0], v[1])]
        with pytest.raises(SingularBasis):
            reduce_against(MatFq(field, v), MatFq(field, np.eye(3, dtype=np.uint8)))


def test_reduce_against_inverse_property():
    # multiplying back: v @ up == u, in every field and for n up to 12
    rng = np.random.default_rng(23)
    for q in accepted_q():
        field = make_field(q)
        for n in (1, 4, 12):
            v = random_full_rank(rng, n, field)
            u = MatFq(field, rng.integers(0, q, size=(n, 3), dtype=np.uint8))
            up = reduce_against(v, u)
            assert ref_matmul(v.entries.tolist(), up.entries.tolist(), field) == u.entries.tolist(), (q, n)


def test_reduce_against_preserves_independence():
    # every 4-subset of the 8 concatenated columns keeps its status
    rng = np.random.default_rng(29)
    v = random_full_rank(rng, 4, F3)
    u = MatFq(F3, rng.integers(0, 3, size=(4, 4), dtype=np.uint8))
    up = reduce_against(v, u)
    before = np.hstack([v.entries, u.entries]).astype(int)
    after = np.hstack([np.eye(4, dtype=int), up.entries.astype(int)])
    for cols in combinations(range(8), 4):
        det_before = ref_det([[before[i][j] for j in cols] for i in range(4)], F3)
        det_after = ref_det([[after[i][j] for j in cols] for i in range(4)], F3)
        assert (det_before != 0) == (det_after != 0)


# --- entries validation and text format ---


def test_entries_validated():
    with pytest.raises(ValueError):
        mat(F2, [[0, 2]])


def test_entries_immutable():
    m = MatFq(F3, np.eye(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2


def test_matrix_text_roundtrip(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("4 2 3\n0 1 2\n3 2 1\n")
    with open(path) as fh:
        again = read_matrix_text(fh)
    assert again == mat(F4, [[0, 1, 2], [3, 2, 1]])


def test_matrix_text_bad_header(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("3 2\n0 1\n")
    with open(path) as fh:
        with pytest.raises(ValueError):
            read_matrix_text(fh)


def test_matrix_text_entry_out_of_field(tmp_path):
    path = tmp_path / "bad2.mat"
    path.write_text("2 1 2\n0 5\n")
    with open(path) as fh:
        with pytest.raises(ValueError):
            read_matrix_text(fh)


class _EndOnce(io.StringIO):
    """A stream that fails the test when readline is called after it returned ''."""

    ended = False

    def readline(self, *args):
        assert not self.ended, "readline called again after end of file"
        line = super().readline(*args)
        self.ended = line == ""
        return line


@pytest.mark.parametrize("text", ["3 1000000 0", "3 1000000000 0\n", "3 3 2\n0 1\n", "3 2 2\n0 1"])
def test_matrix_text_stops_at_end_of_file(text):
    with pytest.raises(ValueError, match="ends after"):
        read_matrix_text(_EndOnce(text))


def test_matrix_text_reads_last_row_without_newline():
    assert read_matrix_text(_EndOnce("3 2 2\n0 1\n1 0")) == mat(F3, [[0, 1], [1, 0]])
    assert read_matrix_text(_EndOnce("3 0 0\n")).shape == (0, 0)


@pytest.mark.parametrize("header", ["3 -5 3", "3 2 -1", "3 -1 -1"])
def test_matrix_text_rejects_negative_shape(header):
    with pytest.raises(ValueError, match="negative"):
        read_matrix_text(_EndOnce(header + "\n"))
