"""Exact arithmetic in GF(q) for prime powers q.

Elements are canonical integer indices in [0, q): the base-p encoding of
the coefficient vector (low degree first) of a polynomial of degree < e,
reduced modulo a fixed monic irreducible polynomial.  GF(p) is the case
e = 1 modulo x, where the index is the residue itself, and one array
program builds the tables of every field.  Extension fields are only
available for the q listed in the built-in polynomial table.
"""

from __future__ import annotations

import functools

import numpy as np


class NotPrimePower(ValueError):
    """q has at least two distinct prime factors."""


class UnsupportedExtension(ValueError):
    """q = p^e with e > 1 but no reduction polynomial is on file."""


class FieldTooLarge(ValueError):
    """q exceeds 256, the number of element indices a uint8 entry holds."""


# Monic irreducible polynomials over GF(p), coefficients low degree first,
# one per supported extension field.  Each is checked exhaustively in the
# test suite (no monic factor of degree 1 .. e-1).
_REDUCTION_TABLE: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),             # x^2 + x + 1          over GF(2)
    8: (1, 1, 0, 1),          # x^3 + x + 1          over GF(2)
    9: (1, 0, 1),             # x^2 + 1              over GF(3)
    16: (1, 1, 0, 0, 1),      # x^4 + x + 1          over GF(2)
    25: (2, 0, 1),            # x^2 + 2              over GF(5)
    27: (1, 2, 0, 1),         # x^3 + 2x + 1         over GF(3)
    32: (1, 0, 1, 0, 0, 1),   # x^5 + x^2 + 1        over GF(2)
    49: (1, 0, 1),            # x^2 + 1              over GF(7)
    64: (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1        over GF(2)
    81: (2, 1, 0, 0, 1),      # x^4 + x + 2          over GF(3)
    121: (1, 0, 1),           # x^2 + 1              over GF(11)
    125: (3, 3, 0, 1),        # x^3 + 3x + 3         over GF(5)
}

SUPPORTED_EXTENSIONS = tuple(sorted(_REDUCTION_TABLE))


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^e, raising NotPrimePower otherwise."""
    if q < 2:
        raise NotPrimePower(f"q must be at least 2, got {q}")
    p = None
    d = 2
    m = q
    while d * d <= m:
        if m % d == 0:
            p = d
            break
        d += 1
    if p is None:
        return q, 1
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrimePower(f"NotPrimePower: {q} is not a prime power")
    return p, e


class FieldSpec:
    """GF(q): cardinality, characteristic, extension degree, and op tables.

    Immutable after construction: every table, the flat views included,
    is read-only, and instances are shared via make_field's cache and safe
    to use concurrently.  The dense uint8 tables back the vectorized matrix
    kernels; one construction serves every field, with GF(p) as e = 1
    modulo x.
    """

    def __init__(self, q: int, p: int, e: int, reduction: tuple[int, ...] | None):
        self.q = q
        self.p = p
        self.e = e
        self.reduction = reduction
        self._build_tables()

    def _build_tables(self) -> None:
        """Every table from the (q, e) base-p digits of the indices, low degree first.

        Products sum e shifted outer products, then fold degrees 2e - 2 .. e
        down with x^e = -(red[0] + ... + red[e-1] x^(e-1)).
        """
        q, p, e = self.q, self.p, self.e
        red = np.array(self.reduction or (0, 1), dtype=np.int64)
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p
        prod = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
        for i in range(e):
            prod[..., i:i + e] += digits[:, None, i, None] * digits
        for d in range(2 * e - 2, e - 1, -1):
            prod[..., d - e:d] -= prod[..., d, None] * red[:e]
        mul = prod[..., :e] % p @ place
        self._add = ((digits[:, None] + digits) % p @ place).astype(np.uint8)
        self._mul = mul.astype(np.uint8)
        self._neg = (-digits % p @ place).astype(np.uint8)
        self._inv = (mul == 1).argmax(axis=1).astype(np.uint8)  # row 0 holds no 1: inv[0] = 0
        # flat forms read with take at uint16 indices x * q + y (below 2^16 for
        # q <= 251), 2.7-3x faster than a fancy index at the same array: x + y is
        # _add_flat.take(x * q + y), and _mul_q.take(x * q + y) and _neg_inv_q.take(x)
        # are x * y and -1/x already scaled by q, the way an index needs them
        self._add_flat = self._add.reshape(-1)
        self._mul_q = self._mul.reshape(-1).astype(np.uint16) * np.uint16(q)
        self._neg_inv_q = self._neg[self._inv].astype(np.uint16) * np.uint16(q)
        for t in (self._add, self._add_flat, self._mul, self._neg, self._inv, self._mul_q, self._neg_inv_q):
            t.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.q == self.q

    def __hash__(self):
        return hash(("FieldSpec", self.q))

    def __repr__(self):
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build (or fetch the cached) GF(q).

    Raises FieldTooLarge when q > 256 (the op tables and matrix entries
    are uint8), NotPrimePower when q is not a prime power, and
    UnsupportedExtension when q = p^e with e > 1 is absent from the
    reduction-polynomial table.
    """
    if q > 256:
        raise FieldTooLarge(f"FieldTooLarge: q = {q} exceeds 256, the number of values a uint8 entry holds")
    p, e = _prime_power(q)
    if e == 1:
        return FieldSpec(q, p, 1, None)
    if q not in _REDUCTION_TABLE:
        raise UnsupportedExtension(
            f"UnsupportedExtension: GF({q}) = GF({p}^{e}) has no reduction polynomial on file; "
            f"supported extensions: {SUPPORTED_EXTENSIONS}"
        )
    return FieldSpec(q, p, e, _REDUCTION_TABLE[q])

