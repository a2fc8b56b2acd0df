"""Field construction and arithmetic, checked against independent references."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DivisionByZero, add_idx, inv_idx, mul_idx, neg_idx
from fqexchange.gf import (
    FieldTooLarge,
    NotPrimePower,
    SUPPORTED_EXTENSIONS,
    UnsupportedExtension,
    make_field,
)

PRIMES = (2, 3, 5, 7, 11, 13, 23)
SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)  # exhaustive-law territory
ALL_Q = tuple(sorted(set(PRIMES) | set(SUPPORTED_EXTENSIONS)))


def test_make_field_prime():
    f = make_field(3)
    assert (f.q, f.p, f.e) == (3, 3, 1)
    assert f.reduction is None


def test_make_field_rejects_composite():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(12)
    with pytest.raises(NotPrimePower):
        make_field(100)


def test_make_field_rejects_q_above_256():
    # the op tables and matrix entries are uint8; GF(257) would wrap
    for q in (257, 263, 512, 10**18 + 3):
        with pytest.raises(FieldTooLarge):
            make_field(q)


def test_make_field_rejects_untabled_extension():
    with pytest.raises(UnsupportedExtension):
        make_field(128)
    with pytest.raises(UnsupportedExtension):
        make_field(243)


def test_make_field_q4_reduction():
    f = make_field(4)
    assert (f.q, f.p, f.e) == (4, 2, 2)
    assert f.reduction == (1, 1, 1)  # x^2 + x + 1


# --- reduction polynomials: exhaustive irreducibility by trial division ---


def _poly_divmod(num, den, p):
    """Polynomial division over GF(p); coefficients low degree first."""
    num = list(num)
    dlead = den[-1]
    dinv = pow(dlead, -1, p)
    for shift in range(len(num) - len(den), -1, -1):
        coef = (num[shift + len(den) - 1] * dinv) % p
        if coef:
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - coef * d) % p
    return num  # remainder in low positions


def _monic_polys(p, deg):
    from itertools import product

    for lower in product(range(p), repeat=deg):
        yield tuple(lower) + (1,)


@pytest.mark.parametrize("q", SUPPORTED_EXTENSIONS)
def test_reduction_polynomial_irreducible(q):
    f = make_field(q)
    red = f.reduction
    assert len(red) == f.e + 1 and red[-1] == 1
    for d in range(1, f.e // 2 + 1):
        for den in _monic_polys(f.p, d):
            rem = _poly_divmod(red, den, f.p)
            assert any(c % f.p for c in rem[:d]), f"{den} divides the reduction polynomial"


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 121, 125])
def test_reduction_polynomial_has_no_roots_small_degree(q):
    f = make_field(q)
    if f.e not in (2, 3):
        pytest.skip("root check only meaningful for degree 2 and 3")
    for x in range(f.p):
        val = sum(c * x**i for i, c in enumerate(f.reduction)) % f.p
        assert val != 0


# --- tables vs independent scalar reference ---


def _ref_scalar_ops(f):
    """Test-local add and mul on indices via digit polynomials."""

    def digits(v):
        out = []
        for _ in range(f.e):
            out.append(v % f.p)
            v //= f.p
        return out

    def undigits(ds):
        v = 0
        for d in reversed(ds):
            v = v * f.p + d
        return v

    def radd(a, b):
        return undigits([(x + y) % f.p for x, y in zip(digits(a), digits(b))])

    def rmul(a, b):
        da, db = digits(a), digits(b)
        prod = [0] * (2 * f.e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % f.p
        red = f.reduction
        for d in range(len(prod) - 1, f.e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(f.e):
                    prod[d - f.e + j] = (prod[d - f.e + j] - c * red[j]) % f.p
        return undigits(prod[: f.e])

    return radd, rmul


@pytest.mark.parametrize("q", ALL_Q + (251,))
def test_tables_match_reference(q):
    f = make_field(q)
    if f.e == 1:
        add = [[(a + b) % q for b in range(q)] for a in range(q)]
        mul = [[a * b % q for b in range(q)] for a in range(q)]
        neg = [-a % q for a in range(q)]
        inv = [0] + [pow(a, q - 2, q) for a in range(1, q)]
    else:
        radd, rmul = _ref_scalar_ops(f)
        add = [[radd(a, b) for b in range(q)] for a in range(q)]
        mul = [[rmul(a, b) for b in range(q)] for a in range(q)]
        neg = [row.index(0) for row in add]
        inv = [0] + [row.index(1) for row in mul[1:]]
    assert f._add.tolist() == add
    assert f._mul.tolist() == mul
    assert f._neg.tolist() == neg
    assert f._inv.tolist() == inv
    # the flat forms: x + y is _add_flat[x * q + y]; _mul_q[x * q + y] is q * (x * y) and _neg_inv_q[x] is q * (-1/x)
    assert f._add_flat.dtype == np.uint8 and f._add_flat.tolist() == sum(add, [])
    assert f._mul_q.dtype == np.uint16 and f._mul_q.tolist() == [q * v for row in mul for v in row]
    assert f._neg_inv_q.dtype == np.uint16 and f._neg_inv_q.tolist() == [q * neg[v] for v in inv]


@pytest.mark.parametrize("q", (2, 3, 4, 125, 251))
def test_every_table_is_read_only(q):
    # the fields are cached and shared: a write to any table, a view included, would change GF(q) for every caller
    f = make_field(q)
    tables = {name: t for name, t in vars(f).items() if isinstance(t, np.ndarray)}
    assert {"_add", "_add_flat", "_mul", "_neg", "_inv", "_mul_q", "_neg_inv_q"} <= set(tables)
    for name, t in tables.items():
        assert not t.flags.writeable, name
        with pytest.raises(ValueError):
            t.reshape(-1)[1] = 0


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_laws_exhaustive(q):
    f = make_field(q)
    add, mul = f._add.astype(int), f._mul.astype(int)
    idx = np.arange(q)
    assert np.array_equal(add, add.T), "addition not commutative"
    assert np.array_equal(mul, mul.T), "multiplication not commutative"
    # associativity and distributivity over the full q^3 cube
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    # identities and inverses
    assert np.array_equal(add[0, idx], idx)
    assert np.array_equal(mul[1, idx], idx)
    neg = f._neg.astype(int)
    assert np.array_equal(add[idx, neg[idx]], np.zeros(q, dtype=int))
    inv = f._inv.astype(int)
    assert np.array_equal(mul[idx[1:], inv[idx[1:]]], np.ones(q - 1, dtype=int))


@pytest.mark.parametrize("q", SMALL_Q)
def test_nonzero_power_order(q):
    f = make_field(q)
    for a in range(1, q):
        acc = 1
        for _ in range(q - 1):
            acc = mul_idx(f, acc, a)
        assert acc == 1, f"{a}^(q-1) != 1 in GF({q})"


@pytest.mark.parametrize("q", ALL_Q)
def test_inv_involution(q):
    f = make_field(q)
    for a in range(1, q):
        assert inv_idx(f, inv_idx(f, a)) == a


def test_f3_examples():
    f = make_field(3)
    assert add_idx(f, 2, 2) == 1
    assert inv_idx(f, 2) == 2


def test_f4_multiplication_example():
    # x * x reduces to x + 1 modulo x^2 + x + 1; x has index 2, x + 1 index 3
    f = make_field(4)
    assert mul_idx(f, 2, 2) == 3


def test_division_by_zero():
    f = make_field(5)
    with pytest.raises(DivisionByZero):
        inv_idx(f, 0)


@settings(max_examples=120)
@given(
    q=st.sampled_from(ALL_Q),
    data=st.data(),
)
def test_laws_random(q, data):
    f = make_field(q)
    a, b, c = (data.draw(st.integers(0, q - 1)) for _ in range(3))
    add, mul = partial(add_idx, f), partial(mul_idx, f)
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, neg_idx(f, a)) == 0
    if a:
        assert mul(a, inv_idx(f, a)) == 1
