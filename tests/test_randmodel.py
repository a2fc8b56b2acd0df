"""Random model: block partitions, trials, analytic bound evaluators."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ref_completion,
    ref_det,
    ref_full_ranks,
    ref_matmul,
    ref_rank,
    ref_row_rank,
    ref_sample_reduced,
    ref_search_reduced,
)
from fqexchange.exchange import ExchangeInstance, OrderedBasis, arrow, serial_check, serial_search
from fqexchange.gf import make_field
from fqexchange.matfq import MatFq, alpha, nonsingular_count, random_full_ranks, rank
from fqexchange.randmodel import (
    DomainError,
    KTooLarge,
    TrialOutcome,
    alpha_lower,
    block_partition,
    derive_rng,
    run_trial,
    sample_instances,
    sample_ordered_basis,
    sample_reduced,
    theorem_tail,
    zprime_zero_bound,
)

F2 = make_field(2)
F3 = make_field(3)


# --- block partition ---


def test_block_partition_basic():
    bp = block_partition(7, 2)
    assert bp.ell == 3
    assert bp.blocks == ((0, 1), (2, 3), (4, 5))


def test_block_partition_k_equals_n():
    bp = block_partition(3, 3)
    assert bp.ell == 1 and bp.blocks == ((0, 1, 2),)


def test_block_partition_rejects_large_k():
    with pytest.raises(KTooLarge):
        block_partition(3, 4)


@settings(max_examples=50)
@given(n=st.integers(1, 40), data=st.data())
def test_block_partition_invariants(n, data):
    k = data.draw(st.integers(1, n))
    bp = block_partition(n, k)
    flat = [i for b in bp.blocks for i in b]
    assert flat == list(range(bp.ell * k))
    assert all(len(b) == k for b in bp.blocks)
    assert bp.ell == n // k


# --- sampling ---


def test_sample_ordered_basis_n1_f2():
    rng = derive_rng(1, 0, 0)
    for _ in range(10):
        b = sample_ordered_basis(rng, 1, F2)
        assert b.matrix == MatFq.from_rows(F2, [[1]])


def _ref_full_rank(rng, n, field):
    """One generator's rejection loop: (the first full-rank n x n draw, the number of draws)."""
    draws = 0
    while True:
        m = rng.integers(0, field.q, size=(n, n), dtype=np.uint8)
        draws += 1
        if ref_row_rank(m, field) == n:
            return m.tolist(), draws


@pytest.mark.parametrize("q, n", [(2, 1), (2, 4), (3, 6), (9, 5)])
def test_stacked_sampler_matches_the_plain_loop(q, n):
    # one stacked draw of 80 matrices gives what the loop over candidates
    # gives, and leaves the generator in the same state
    field = make_field(q)
    stacked, looped = derive_rng(5, q, 0), derive_rng(5, q, 0)
    got = random_full_ranks(stacked, 80, n, field)
    assert got.tolist() == ref_full_ranks(looped, 80, n, field).tolist()
    assert stacked.bit_generator.state == looped.bit_generator.state
    if q == 2 and n > 1:  # some slot was redrawn
        assert (got != derive_rng(5, q, 0).integers(0, q, size=(80, n, n), dtype=np.uint8)).any()


class _EveryCandidateFirst:
    """A generator whose first integers call returns every q-ary array of one shape once; later calls go to rng."""

    def __init__(self, q, shape, rng):
        self.q = q
        size = int(np.prod(shape))
        digits = np.arange(q**size)[:, None] // q ** np.arange(size - 1, -1, -1) % q
        self.every = digits.astype(np.uint8).reshape(-1, *shape)
        self.first = True
        self.rng = rng

    def integers(self, low, high, size, dtype):
        if not self.first:
            return self.rng.integers(low, high, size=size, dtype=dtype)
        assert (low, high, size, dtype) == (0, self.q, self.every.shape, np.uint8)
        self.first = False
        return self.every


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2)])
def test_stacked_sampler_law_is_uniform_on_gl(q, n):
    # exact: fed every candidate once, the stacked draw keeps each
    # nonsingular one in its slot, each element of GL_n(q) exactly once, and
    # draws every other slot again until it is nonsingular; so a uniform
    # candidate gives a uniform element of GL_n(q)
    field = make_field(q)
    fake = _EveryCandidateFirst(q, (n, n), derive_rng(6, q, 0))
    got = random_full_ranks(fake, q ** (n * n), n, field)
    kept = np.array([ref_det(m.tolist(), field) != 0 for m in fake.every])
    assert (got[kept] == fake.every[kept]).all()
    assert kept.sum() == nonsingular_count(n, q) == {2: 6, 3: 48}[q]
    assert all(ref_det(m.tolist(), field) != 0 for m in got[~kept])


class _EveryPermutation:
    """A generator whose permuted returns every permutation of a row once; integers go to rng."""

    def __init__(self, rng):
        self.integers = rng.integers

    def permuted(self, a, axis):
        n = a.shape[1]
        assert axis == 1 and (a == np.arange(n)).all()
        orders = np.array(list(permutations(range(n))))
        assert len(orders) == len(a)
        return orders


def test_sampled_position_sets_are_uniform():
    # exact: when the rows of the permuted stack are every permutation of
    # 0..3 once, the 24 x1 and x2 sets are each 2-subset of 0..3 four times,
    # sorted, so a uniform permutation gives a uniform 2-set
    m1, m2, x1, x2 = sample_instances(_EveryPermutation(derive_rng(7, 0, 0)), 12, 4, 2, F3)
    assert m1.shape == m2.shape == (12, 4, 4) and x1.shape == x2.shape == (12, 2)
    sets = Counter(tuple(row) for row in np.concatenate([x1, x2]).tolist())
    assert sets == Counter({c: 4 for c in combinations(range(4), 2)})


@pytest.mark.parametrize("q", [2, 3, 4, 9, 251])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_sample_ordered_basis_is_a_stack_of_one(q, n):
    # sample_ordered_basis draws what one generator's (n, n) rejection loop
    # draws, and leaves the generator where that loop does
    field = make_field(q)
    alone, looped = derive_rng(5, q, n), derive_rng(5, q, n)
    got = [sample_ordered_basis(alone, n, field).matrix.entries.tolist() for _ in range(3)]
    assert got == [_ref_full_rank(looped, n, field)[0] for _ in range(3)]
    assert alone.bit_generator.state == looped.bit_generator.state


def test_sample_ordered_basis_is_basis():
    for t in range(30):
        b = sample_ordered_basis(derive_rng(2, 0, t), 6, F3)
        assert rank(b.matrix) == 6


def _det_mod(a, q):
    """Determinants of a stack of square integer matrices mod prime q (Leibniz)."""
    n = a.shape[-1]
    total = np.zeros(a.shape[:-2], dtype=np.int64)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = np.ones(a.shape[:-2], dtype=np.int64)
        for i, j in enumerate(perm):
            term = term * a[..., i, j]
        total += -term if inversions % 2 else term
    return total % q


def _gl_law(q, n, k):
    """Counts of (M[:k], M^-1[:, :k]) over all of GL_n(q), by mod-q integer arithmetic."""
    mats = np.array(list(product(range(q), repeat=n * n)), dtype=np.int64).reshape(-1, n, n)
    det = _det_mod(mats, q)
    mats, det = mats[det != 0], det[det != 0]
    det_inv = np.array([0] + [pow(v, -1, q) for v in range(1, q)])[det]
    # M^-1[i, j] = (-1)^(i+j) det(M without row j and column i) / det M
    cols = np.empty((len(mats), n, k), dtype=np.int64)
    for i in range(n):
        for j in range(k):
            minor = np.delete(np.delete(mats, j, axis=1), i, axis=2)
            cof = _det_mod(minor, q) if n > 1 else np.ones(len(mats), dtype=np.int64)
            cols[:, i, j] = (-1) ** (i + j) * cof * det_inv % q
    law = Counter(
        (m[:k].astype(np.uint8).tobytes(), c.astype(np.uint8).tobytes()) for m, c in zip(mats, cols)
    )
    return law, len(mats)


@pytest.mark.parametrize("q, n, k", [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1), (3, 3, 2)])
def test_right_inverse_law_matches_gl(q, n, k):
    # exact: fed every [R; C0^T] block once, sample_reduced keeps each block
    # whose R C0 is nonsingular in its slot, draws every other slot again,
    # and solves the accepted stack; over every R, rank-deficient ones
    # included, and every C0 the kept (R, C) have the law of
    # (M[:k], M^-1[:, :k]) for M uniform on GL_n(q)
    field = make_field(q)
    gl, gl_size = _gl_law(q, n, k)
    fake = _EveryCandidateFirst(q, (2 * k, n), derive_rng(8, q, 10 * n + k))
    rs, cs = sample_reduced(fake, len(fake.every), n, k, field)
    assert ((rs.astype(np.int64) @ cs.astype(np.int64)) % q == np.eye(k, dtype=np.int64)).all()
    cand = fake.every.astype(np.int64)
    ok = _det_mod(cand[:, :k] @ cand[:, k:].transpose(0, 2, 1) % q, q) != 0  # R C0 nonsingular, mod-q integers
    assert (rs[ok] == fake.every[ok, :k]).all()
    sampled = Counter((r.tobytes(), c.tobytes()) for r, c in zip(rs[ok], cs[ok]))
    kept_r = {rb for rb, _ in sampled}
    assert all(ref_rank(np.frombuffer(rb, dtype=np.uint8).reshape(k, n).tolist(), field) == k for rb in kept_r)
    assert set(sampled) == set(gl)
    total = sum(sampled.values())
    for key, count in gl.items():
        assert Fraction(sampled[key], total) == Fraction(count, gl_size)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 251])
@pytest.mark.parametrize("n, k", [(6, 1), (6, 6), (6, 4), (1, 1)])
def test_sample_reduced_matches_the_per_round_solve(q, n, k):
    # solving only the accepted stack draws what solving every round did:
    # the same R and C bytes, and the generator left in the same state
    field = make_field(q)
    for trials in (1, 50):
        new, old = derive_rng(31, q, 10 * n + k), derive_rng(31, q, 10 * n + k)
        got, want = sample_reduced(new, trials, n, k, field), ref_sample_reduced(old, trials, n, k, field)
        for g, w in zip(got, want):
            assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes())
        assert new.bit_generator.state == old.bit_generator.state


def test_sample_reduced_shapes_and_identity():
    for q in (2, 4, 5):
        field = make_field(q)
        rs, cs = sample_reduced(derive_rng(3, q, 0), 5, 7, 3, field)
        assert rs.shape == (5, 3, 7) and cs.shape == (5, 7, 3)
        for r, c in zip(rs, cs):
            assert ref_matmul(r.tolist(), c.tolist(), field) == np.eye(3, dtype=int).tolist()


def test_derive_rng_reproducible():
    a = derive_rng(9, 3, 14).integers(0, 1000, size=8)
    b = derive_rng(9, 3, 14).integers(0, 1000, size=8)
    c = derive_rng(9, 3, 15).integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- trials ---


def test_run_trial_deterministic():
    a = run_trial(derive_rng(5, 2, 7), 12, 3, F3)
    b = run_trial(derive_rng(5, 2, 7), 12, 3, F3)
    assert a == b


def test_run_trial_k_too_large():
    with pytest.raises(KTooLarge):
        run_trial(derive_rng(0, 0, 0), 3, 4, F3)


def test_run_trial_k_equals_n_single_block():
    out = run_trial(derive_rng(8, 0, 3), 4, 4, F3)
    assert len(out.x_bits) == 1
    assert out.block_success == (out.zprime_bits[0] == 1)


def test_run_trial_invariants_hold():
    for t in range(40):
        out = run_trial(derive_rng(13, 0, t), 10, 2, F3)
        out.validate()
        for zp, z in zip(out.zprime_bits, out.z_bits):
            assert zp <= z
        for x, y, z in zip(out.x_bits, out.y_bits, out.z_bits):
            assert z == (x & y)
        assert out.Z >= out.X + out.Y - len(out.x_bits)


def test_trial_outcome_validate_rejects_bad_bits():
    TrialOutcome((1, 0), (1, 1), (1, 0), None, None, None).validate()
    with pytest.raises(ValueError, match="unequal lengths"):
        TrialOutcome((1, 0), (1,), (0, 0), None, None, None).validate()
    # block 1 is serial but only one-way
    with pytest.raises(ValueError, match="must be two-way"):
        TrialOutcome((1, 0), (1, 1), (0, 1), None, None, None).validate()


def replay_bases(seed, row, t, n, k, field):
    """b1 = I and b2 = M for the (R, C) the trial (seed, row, t) samples.

    M stacks R on a basis of the left null space of C, so the rows u1 of
    B1^-1 B2 are R and the columns u1 of B2^-1 B1 are C: every bit of the
    trial is a property of this basis pair.
    """
    (r,), (c,) = sample_reduced(derive_rng(seed, row, t), 1, n, k, field)
    m = ref_completion(r.tolist(), c.tolist(), field)
    return OrderedBasis(MatFq(field, np.eye(n, dtype=np.uint8))), OrderedBasis(MatFq.from_rows(field, m))


def test_run_trial_bits_match_public_operations():
    # the reduced-coordinate fast path must agree with arrow/serial_search
    for t in range(25):
        out = run_trial(derive_rng(15, 0, t), 8, 2, F3)
        b1, b2 = replay_bases(15, 0, t, 8, 2, F3)
        u1 = (0, 1)
        for i, block in enumerate([(0, 1), (2, 3), (4, 5), (6, 7)]):
            assert out.x_bits[i] == int(arrow(b1, u1, b2, block))
            assert out.y_bits[i] == int(arrow(b2, block, b1, u1))
            cert = serial_search(ExchangeInstance(b1, b2, u1, block))
            assert out.zprime_bits[i] == int(cert is not None)


def test_run_trial_certificate_verifies():
    for t in range(40):
        out = run_trial(derive_rng(21, 0, t), 9, 3, F3)
        if out.certificate is None:
            continue
        b1, b2 = replay_bases(21, 0, t, 9, 3, F3)
        block = tuple(range(out.cert_block * 3, out.cert_block * 3 + 3))
        inst = ExchangeInstance(b1, b2, (0, 1, 2), block)
        assert serial_check(inst, out.certificate)


def test_run_trial_exhaustive_subset_flag():
    out = run_trial(derive_rng(23, 0, 1), 6, 2, F3, exhaustive=True)
    assert out.subset_success is not None
    assert not out.block_success or out.subset_success
    # gate too small: the subset search is skipped
    out2 = run_trial(derive_rng(23, 0, 1), 6, 2, F3, exhaustive=True, gate=3)
    assert out2.subset_success is None
    assert out2.x_bits == out.x_bits


@pytest.mark.parametrize("q, n, k", [(2, 6, 2), (3, 8, 2), (3, 9, 3), (4, 7, 3), (3, 8, 4), (5, 5, 1)])
def test_run_trial_matches_reference_dfs(q, n, k):
    # replay (R, C) from the trial's stream and score it with ref_det minors
    field = make_field(q)
    u1 = tuple(range(k))
    for t in range(10):
        out = run_trial(derive_rng(29, q, t), n, k, field, exhaustive=True)
        (r,), (c,) = sample_reduced(derive_rng(29, q, t), 1, n, k, field)
        vp, up = r.tolist(), c.tolist()
        first = None
        for i, block in enumerate(block_partition(n, k).blocks):
            y = ref_det([[vp[a][b] for b in block] for a in u1], field) != 0
            x = ref_det([[up[b][a] for a in u1] for b in block], field) != 0
            assert (out.x_bits[i], out.y_bits[i]) == (int(x), int(y))
            cert = ref_search_reduced(vp, up, u1, block, field)
            assert out.zprime_bits[i] == int(cert is not None)
            if first is None and cert is not None:
                first = (i, cert)
        got = None if out.certificate is None else (out.cert_block, (out.certificate.sigma, out.certificate.tau))
        assert got == first
        subset = any(ref_search_reduced(vp, up, u1, cand, field) for cand in combinations(range(n), k))
        assert out.subset_success == subset


# --- analytic evaluators ---


def test_alpha_lower_values():
    assert alpha_lower(3) == Fraction(5, 9)
    assert alpha_lower(2) == Fraction(1, 4)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_alpha_partial_product_exceeds_lower_bound(q):
    assert alpha(30, q) > alpha_lower(q)


def test_zprime_zero_bound_values():
    assert zprime_zero_bound(0, 2, 3) == 1.0
    assert zprime_zero_bound(4, 2, 3) == pytest.approx(625 / 6561, rel=1e-12)


def test_zprime_zero_bound_decreasing():
    vals = [zprime_zero_bound(s, 2, 3) for s in range(8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theorem_tail_decreasing_in_n():
    vals = [theorem_tail(n, 2, 3, Fraction(1, 20), Fraction(1, 20)) for n in (100, 1000, 10000)]
    assert vals[0] > vals[1] > vals[2]


def test_theorem_tail_c_boundary_q3():
    # with epsilon = 1/20 the largest admissible c is exactly 1/18
    theorem_tail(100, 2, 3, Fraction(1, 18), Fraction(1, 20))
    with pytest.raises(DomainError):
        theorem_tail(100, 2, 3, Fraction(1, 18) + Fraction(1, 1000), Fraction(1, 20))


def test_theorem_tail_q2_always_domain_error():
    for c in (Fraction(1, 100), Fraction(1, 20), Fraction(1, 2), 1):
        for eps in (Fraction(1, 100), Fraction(1, 20), Fraction(9, 10)):
            with pytest.raises(DomainError):
                theorem_tail(1000, 2, 2, c, eps)


def test_theorem_tail_rejects_bad_epsilon_and_k():
    with pytest.raises(DomainError):
        theorem_tail(10, 2, 3, Fraction(1, 20), 0)
    with pytest.raises(DomainError):
        theorem_tail(10, 2, 3, Fraction(1, 20), 1)
    with pytest.raises(DomainError):
        theorem_tail(3, 4, 3, Fraction(1, 20), Fraction(1, 20))


# --- empirical floor, small scale smoke (the full runs live in acceptance) ---


def test_block_exchange_rate_respects_alpha_floor():
    trials = 1500
    ell = 4
    x_succ = np.zeros(ell)
    y_succ = np.zeros(ell)
    for t in range(trials):
        out = run_trial(derive_rng(27, 0, t), 8, 2, F3)
        x_succ += np.asarray(out.x_bits)
        y_succ += np.asarray(out.y_bits)
    bound = float(alpha(2, 3))
    sigma = math.sqrt(bound * (1 - bound) / trials)
    for i in range(ell):
        assert x_succ[i] / trials >= bound - 4 * sigma
        assert y_succ[i] / trials >= bound - 4 * sigma
