"""Exchange relations: arrows, set exchange, serial search and its oracles."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import accepted_q, ref_is_basis, ref_matmul, ref_search_reduced
from fqexchange import exchange
from fqexchange.exchange import (
    DimensionMismatch,
    ExchangeInstance,
    OrderedBasis,
    SerialCertificate,
    SizeMismatch,
    _reduced_pair,
    _search_reduced,
    arrow,
    find_serial_partner,
    greene_woodall,
    serial_check,
    serial_search,
    symmetric_partners,
)
from fqexchange.gf import make_field
from fqexchange.matfq import MatFq, SingularBasis, rank, reduce_against
from fqexchange.randmodel import derive_rng, sample_ordered_basis

F2 = make_field(2)
F3 = make_field(3)


def basis(field, rows):
    return OrderedBasis(MatFq(field, np.array(rows, dtype=np.uint8)))


def std(field, n):
    return OrderedBasis(MatFq(field, np.eye(n, dtype=np.uint8)))


def random_instance(seed, trial, n, k, field):
    rng = derive_rng(seed, 0, trial)
    b1 = sample_ordered_basis(rng, n, field)
    b2 = sample_ordered_basis(rng, n, field)
    x1 = tuple(sorted(int(v) for v in rng.choice(n, k, replace=False)))
    x2 = tuple(sorted(int(v) for v in rng.choice(n, k, replace=False)))
    return ExchangeInstance(b1, b2, x1, x2)


def brute_force_serial(inst):
    for sigma in permutations(inst.x1):
        for tau in permutations(inst.x2):
            if serial_check(inst, SerialCertificate(sigma, tau)):
                return SerialCertificate(sigma, tau)
    return None


# --- is a basis: OrderedBasis accepts n independent vectors of length n only ---


def test_is_basis_standard():
    assert std(F3, 4).n == 4


def test_is_basis_repeated_vector():
    with pytest.raises(DimensionMismatch):
        basis(F3, [[1, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_is_basis_rank_two_family():
    # columns e1, e1+e2, e2 span only a plane in F3^3
    with pytest.raises(DimensionMismatch):
        basis(F3, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])


def test_is_basis_requires_square():
    with pytest.raises(DimensionMismatch):
        basis(F3, [[1, 0], [0, 1], [0, 0]])


def test_ordered_basis_validates():
    with pytest.raises(DimensionMismatch):
        basis(F3, [[1, 1], [1, 1]])


# --- arrow ---


def test_arrow_empty_sets():
    b = std(F3, 3)
    assert arrow(b, (), b, ())


def test_arrow_identity_swap():
    b = std(F3, 4)
    assert arrow(b, (0,), b, (0,))


def test_arrow_size_mismatch():
    b = std(F3, 3)
    with pytest.raises(SizeMismatch):
        arrow(b, (0,), b, (0, 1))


def test_arrow_singular_block_fails():
    # first two source columns live entirely below the replaced positions,
    # so the swapped family repeats the last two target columns
    b2 = std(F3, 4)
    b1 = basis(F3, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert not arrow(b1, (0, 1), b2, (0, 1))
    # the top-left 2x2 block of b1's matrix is zero, hence singular
    assert rank(MatFq(F3, b1.matrix.entries[:2, :2])) == 0


def test_arrow_matches_direct_construction():
    for t in range(40):
        inst = random_instance(202, t, 5, 2, F3)
        got = arrow(inst.b1, inst.x1, inst.b2, inst.x2)
        cols = inst.b2.matrix.entries.T.tolist()
        for pos, src in zip(inst.x2, inst.x1):
            cols[pos] = inst.b1.matrix.entries[:, src].tolist()
        assert got == ref_is_basis(cols, F3)


# --- symmetric partners ---


def test_symmetric_partners_standard():
    b = std(F3, 3)
    assert symmetric_partners(b, 0, b) == (0,)


def test_symmetric_partners_contains_identical_vector():
    b1 = std(F3, 3)
    b2 = basis(F3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # e2, e1, e3
    assert 1 in symmetric_partners(b1, 0, b2)


def test_symmetric_partners_n2_example():
    b1 = std(F3, 2)
    b2 = basis(F3, [[1, 0], [1, 1]])  # columns e1+e2, e2
    assert symmetric_partners(b1, 0, b2) == (0,)


def test_symmetric_partners_never_empty_random():
    for t in range(60):
        inst = random_instance(17, t, 5, 1, F3)
        for x in range(5):
            assert symmetric_partners(inst.b1, x, inst.b2)


# --- set exchange ---


def test_greene_woodall_same_basis_lex_least():
    b = std(F3, 4)
    for x1 in [(0,), (1, 3), (0, 1, 2, 3)]:
        assert greene_woodall(b, x1, b) <= tuple(sorted(x1))


def test_greene_woodall_singleton_matches_symmetric():
    for t in range(30):
        inst = random_instance(23, t, 4, 1, F3)
        x = inst.x1[0]
        assert greene_woodall(inst.b1, (x,), inst.b2) == (min(symmetric_partners(inst.b1, x, inst.b2)),)


def test_greene_woodall_random_pairs_all_sizes():
    for t in range(100):
        rng = derive_rng(31, 0, t)
        b1 = sample_ordered_basis(rng, 4, F3)
        b2 = sample_ordered_basis(rng, 4, F3)
        k = 1 + t % 4
        x1 = tuple(sorted(int(v) for v in rng.choice(4, k, replace=False)))
        x2 = greene_woodall(b1, x1, b2)
        assert arrow(b1, x1, b2, x2) and arrow(b2, x2, b1, x1)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("one_pair_slices", [False, True])
def test_set_and_symmetric_exchange_match_plain_column_lists(monkeypatch, q, one_pair_slices):
    # greene_woodall must give the lexicographically least x2 whose set
    # swap with x1 is a basis both ways, and symmetric_partners exactly the
    # y whose single swap is; both checked on plain column lists with
    # ref_is_basis, once with every scanner slice holding one candidate
    if one_pair_slices:
        monkeypatch.setattr(exchange, "_SLICE_ENTRIES", 1)
    field = make_field(q)
    rng = np.random.default_rng(q)
    later = 0
    for n in range(1, 6):
        for _ in range(2):
            b1, b2 = sample_ordered_basis(rng, n, field), sample_ordered_basis(rng, n, field)
            cols1, cols2 = ([tuple(c) for c in b.matrix.entries.T.tolist()] for b in (b1, b2))
            memo = {}

            def two_way(x1, x2):
                fam1, fam2 = list(cols1), list(cols2)
                for s, t in zip(x1, x2):
                    fam1[s], fam2[t] = cols2[t], cols1[s]
                keys = tuple(sorted(fam1)), tuple(sorted(fam2))  # column order keeps the answer
                for key in keys:
                    if key not in memo:
                        memo[key] = ref_is_basis(list(key), field)
                return all(memo[key] for key in keys)

            for x in range(n):
                assert symmetric_partners(b1, x, b2) == tuple(y for y in range(n) if two_way((x,), (y,)))
            for size in range(1, n + 1):
                for x1 in combinations(range(n), size):
                    want = next(x2 for x2 in combinations(range(n), size) if two_way(x1, x2))
                    assert greene_woodall(b1, x1, b2) == want, (b1, b2, x1)
                    later += want != tuple(range(size))
    assert later > 0


def test_greene_woodall_rejects_empty():
    b = std(F3, 3)
    with pytest.raises(ValueError):
        greene_woodall(b, (), b)


# --- serial check ---


def test_serial_check_k0():
    b = std(F3, 3)
    inst = ExchangeInstance(b, b, (), ())
    assert serial_check(inst, SerialCertificate((), ()))


def test_serial_check_identity():
    b = std(F3, 4)
    inst = ExchangeInstance(b, b, (0, 1), (0, 1))
    assert serial_check(inst, SerialCertificate((0, 1), (0, 1)))


def test_serial_check_rejects_wrong_support():
    b = std(F3, 4)
    inst = ExchangeInstance(b, b, (0, 1), (0, 1))
    with pytest.raises(ValueError):
        serial_check(inst, SerialCertificate((0, 2), (0, 1)))


# Frozen by searching random instances: exactly one of the four ordering
# pairs verifies, so validity depends on the pairing, not just the sets.
UNIQUE_PAIR_B1 = [[1, 0, 0, 1], [1, 2, 1, 2], [2, 0, 2, 0], [0, 0, 1, 1]]
UNIQUE_PAIR_B2 = [[0, 1, 2, 0], [1, 0, 2, 2], [1, 1, 1, 1], [0, 1, 1, 1]]


def test_serial_check_depends_on_ordering_pair():
    inst = ExchangeInstance(
        basis(F3, UNIQUE_PAIR_B1), basis(F3, UNIQUE_PAIR_B2), (0, 3), (1, 2)
    )
    valid = [
        (sigma, tau)
        for sigma in permutations(inst.x1)
        for tau in permutations(inst.x2)
        if serial_check(inst, SerialCertificate(sigma, tau))
    ]
    assert valid == [((0, 3), (1, 2))]
    # in particular reversing tau alone breaks it
    assert not serial_check(inst, SerialCertificate((0, 3), (2, 1)))


# --- serial search ---


def test_serial_search_k0():
    b = std(F3, 3)
    cert = serial_search(ExchangeInstance(b, b, (), ()))
    assert cert == SerialCertificate((), ())


def test_serial_search_k1_is_symmetric_exchange():
    for t in range(50):
        inst = random_instance(37, t, 4, 1, F3)
        cert = serial_search(inst)
        both = arrow(inst.b1, inst.x1, inst.b2, inst.x2) and arrow(
            inst.b2, inst.x2, inst.b1, inst.x1
        )
        assert (cert is not None) == both


def test_serial_search_agrees_with_brute_force():
    some = none = 0
    for t in range(150):
        inst = random_instance(41, t, 6, 3, F3)
        cert = serial_search(inst)
        oracle = brute_force_serial(inst)
        assert (cert is None) == (oracle is None)
        if cert is None:
            none += 1
        else:
            some += 1
            assert serial_check(inst, cert)
    assert some and none, "sample should exercise both verdicts"


def test_serial_search_sound_on_returned_certificates():
    for t in range(80):
        inst = random_instance(43, t, 5, 2, F3)
        cert = serial_search(inst)
        if cert is not None:
            assert serial_check(inst, cert)


def test_serial_search_agrees_with_brute_force_k4():
    # completeness oracle at the largest supported brute-force size
    for t in range(25):
        inst = random_instance(67, t, 6, 4, F3)
        cert = serial_search(inst)
        oracle = brute_force_serial(inst)
        assert (cert is None) == (oracle is None)
        if cert is not None:
            assert serial_check(inst, cert)


def test_serial_search_implies_both_arrows():
    for t in range(60):
        inst = random_instance(47, t, 6, 2, F3)
        if serial_search(inst) is not None:
            assert arrow(inst.b1, inst.x1, inst.b2, inst.x2)
            assert arrow(inst.b2, inst.x2, inst.b1, inst.x1)


# Frozen counterexample: both arrows hold for these 2-sets, yet no ordering
# pair verifies, so a two-way set exchange does not imply serial
# exchangeability even at k = 2.  Some partner subset still exists.
TWO_SERIAL_GAP_B1 = [[0, 0, 1], [0, 1, 1], [1, 1, 1]]
TWO_SERIAL_GAP_B2 = [[1, 0, 1], [0, 1, 1], [1, 0, 0]]


def test_two_way_exchange_does_not_imply_serial_at_k2():
    b1 = basis(F2, TWO_SERIAL_GAP_B1)
    b2 = basis(F2, TWO_SERIAL_GAP_B2)
    x1, x2 = (1, 2), (1, 2)
    assert arrow(b1, x1, b2, x2)
    assert arrow(b2, x2, b1, x1)
    inst = ExchangeInstance(b1, b2, x1, x2)
    assert serial_search(inst) is None
    assert brute_force_serial(inst) is None
    # the existential statement still holds: some 2-subset of b2 works
    assert find_serial_partner(b1, x1, b2, mode="all_subsets") is not None


# --- partner search ---


def test_find_serial_partner_same_basis():
    b = std(F3, 4)
    for x1 in [(0, 1), (1, 3), (0, 2, 3)]:
        found = find_serial_partner(b, x1, b, mode="all_subsets")
        assert found is not None
        partner, cert = found
        assert partner == tuple(sorted(x1))
        assert cert.sigma == cert.tau == tuple(sorted(x1))


def test_find_serial_partner_k_equals_n():
    b = std(F3, 3)
    found = find_serial_partner(b, (0, 1, 2), b, mode="blocks")
    assert found is not None
    assert found[0] == (0, 1, 2)


# Frozen by search: the two aligned blocks fail but a straddling subset works.
BLOCK_GAP_B1 = [[2, 0, 1, 2], [2, 1, 1, 1], [1, 0, 1, 1], [1, 0, 1, 2]]
BLOCK_GAP_B2 = [[1, 0, 0, 2], [1, 2, 0, 1], [1, 2, 2, 0], [2, 2, 0, 2]]


def test_find_serial_partner_blocks_can_miss():
    b1 = basis(F3, BLOCK_GAP_B1)
    b2 = basis(F3, BLOCK_GAP_B2)
    x1 = (0, 3)
    assert find_serial_partner(b1, x1, b2, mode="blocks") is None
    found = find_serial_partner(b1, x1, b2, mode="all_subsets")
    assert found is not None
    assert found[0] == (0, 2)


def test_find_serial_partner_blocks_implies_all_subsets():
    for t in range(40):
        rng = derive_rng(59, 0, t)
        b1 = sample_ordered_basis(rng, 4, F3)
        b2 = sample_ordered_basis(rng, 4, F3)
        x1 = tuple(sorted(int(v) for v in rng.choice(4, 2, replace=False)))
        blocks = find_serial_partner(b1, x1, b2, mode="blocks")
        if blocks is not None:
            alls = find_serial_partner(b1, x1, b2, mode="all_subsets")
            assert alls is not None


def test_find_serial_partner_gate():
    b = std(F3, 4)
    with pytest.raises(ValueError):
        find_serial_partner(b, (0, 1), b, mode="all_subsets", gate=2)


def test_find_serial_partner_certificates_verify():
    for t in range(40):
        rng = derive_rng(61, 0, t)
        b1 = sample_ordered_basis(rng, 6, F3)
        b2 = sample_ordered_basis(rng, 6, F3)
        x1 = tuple(sorted(int(v) for v in rng.choice(6, 2, replace=False)))
        found = find_serial_partner(b1, x1, b2, mode="blocks")
        if found is not None:
            partner, cert = found
            assert serial_check(ExchangeInstance(b1, b2, x1, partner), cert)


def _reduced_lists(b1, b2):
    vp = reduce_against(b1.matrix, b2.matrix).entries.tolist()
    up = reduce_against(b2.matrix, b1.matrix).entries.tolist()
    return vp, up


def test_reduced_pair_halves_are_inverses():
    # B1^-1 B2 and B2^-1 B1 multiply to the identity, in every field and for n up to 12
    rng = np.random.default_rng(71)
    for q in accepted_q():
        field = make_field(q)
        for n in range(1, 13):
            vp, up = (m.tolist() for m in _reduced_pair(*(sample_ordered_basis(rng, n, field) for _ in range(2))))
            assert ref_matmul(vp, up, field) == np.eye(n, dtype=int).tolist(), (q, n)


def test_reduced_pair_checks_its_bases():
    with pytest.raises(DimensionMismatch):
        _reduced_pair(std(F2, 3), std(F3, 3))
    with pytest.raises(DimensionMismatch):
        _reduced_pair(std(F3, 3), std(F3, 2))
    singular = OrderedBasis(MatFq(F3, np.array([[1, 2], [2, 1]], dtype=np.uint8)), validate=False)
    with pytest.raises(SingularBasis):
        _reduced_pair(std(F3, 2), singular)


def _cert_pair(cert):
    return None if cert is None else (cert.sigma, cert.tau)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_serial_search_certificates_match_reference_dfs(q, k):
    field = make_field(q)
    found = 0
    for t in range(25):
        inst = random_instance(67 + q, t, k + 2, k, field)
        vp, up = _reduced_lists(inst.b1, inst.b2)
        want = ref_search_reduced(vp, up, inst.x1, inst.x2, field)
        assert _cert_pair(serial_search(inst)) == want
        # the search orders each set itself, whatever order it is given in
        got = _search_reduced(np.array(vp, dtype=np.uint8), np.array(up, dtype=np.uint8), inst.x1[::-1], inst.x2, field)
        assert _cert_pair(got) == want
        found += want is not None
    assert found > 0


@pytest.mark.parametrize("q, n, k", [(2, 6, 2), (3, 6, 3), (3, 8, 4), (4, 5, 2)])
def test_find_serial_partner_matches_reference_dfs(q, n, k):
    field = make_field(q)
    for t in range(8):
        rng = derive_rng(71, q, t)
        b1 = sample_ordered_basis(rng, n, field)
        b2 = sample_ordered_basis(rng, n, field)
        x1 = tuple(sorted(int(v) for v in rng.choice(n, k, replace=False)))
        vp, up = _reduced_lists(b1, b2)
        for mode, cands in (
            ("blocks", [tuple(range(i * k, (i + 1) * k)) for i in range(n // k)]),
            ("all_subsets", list(combinations(range(n), k))),
        ):
            want = None
            for cand in cands:
                cert = ref_search_reduced(vp, up, x1, cand, field)
                if cert is not None:
                    want = (cand, cert)
                    break
            got = find_serial_partner(b1, x1, b2, mode=mode)
            assert (None if got is None else (got[0], _cert_pair(got[1]))) == want


# --- certificate text format ---


def test_certificate_text_roundtrip():
    cert = SerialCertificate((2, 0, 1), (4, 3, 5))
    assert cert.to_text() == "sigma: 2 0 1 / tau: 4 3 5"
    assert SerialCertificate.from_text(cert.to_text()) == cert


def test_certificate_text_rejects_garbage():
    with pytest.raises(ValueError):
        SerialCertificate.from_text("nonsense")


@settings(max_examples=30)
@given(data=st.data())
def test_exchange_instance_validation(data):
    n = data.draw(st.integers(2, 5))
    b = std(F3, n)
    k = data.draw(st.integers(0, n))
    x1 = tuple(sorted(data.draw(st.permutations(range(n)))[:k]))
    inst = ExchangeInstance(b, b, x1, x1)
    assert inst.k == k
