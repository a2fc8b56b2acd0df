"""Exact arithmetic in GF(q) for prime powers q.

Elements are canonical integer indices in [0, q).  For a prime field the
index is the residue itself; for GF(p^e) it is the base-p encoding of the
coefficient vector (low degree first) of a polynomial of degree < e,
reduced modulo a fixed monic irreducible polynomial.  Extension fields are
only available for the q listed in the built-in polynomial table.
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


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], red: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product of two coefficient vectors modulo the reduction polynomial."""
    e = len(red) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^e = -(red[0] + red[1] x + ... + red[e-1] x^{e-1})
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(e):
                prod[d - e + j] = (prod[d - e + j] - c * red[j]) % p
    return tuple(prod[:e])


class FieldSpec:
    """GF(q): cardinality, characteristic, extension degree, and op tables.

    Immutable after construction; instances are shared via make_field's
    cache and safe to use concurrently.  The dense uint8 tables back the
    vectorized matrix kernels.
    """

    def __init__(self, q: int, p: int, e: int, reduction: tuple[int, ...] | None):
        self.q = q
        self.p = p
        self.e = e
        self.reduction = reduction
        self._build_tables()

    def _digits(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _undigits(self, digits) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        idx = np.arange(q)
        if self.e == 1:
            add = (idx[:, None] + idx[None, :]) % q
            mul = (idx[:, None] * idx[None, :]) % q
            neg = (-idx) % q
        else:
            digs = [self._digits(v) for v in range(q)]
            add = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(q):
                    add[a, b] = self._undigits(
                        tuple((x + y) % p for x, y in zip(digs[a], digs[b]))
                    )
            mul = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(q):
                    mul[a, b] = self._undigits(_poly_mul_mod(digs[a], digs[b], self.reduction, p))
            neg = np.array(
                [self._undigits(tuple((-x) % p for x in digs[a])) for a in range(q)]
            )
        inv = np.zeros(q, dtype=np.int64)
        mul_rows = {a: list(mul[a]) for a in range(1, q)}
        for a in range(1, q):
            inv[a] = mul_rows[a].index(1)
        self._add = add.astype(np.uint8)
        self._mul = mul.astype(np.uint8)
        self._neg = neg.astype(np.uint8)
        self._inv = inv.astype(np.uint8)
        # flat forms read with take at uint16 indices x * q + y (below 2^16 for
        # q <= 251), 2.7-3x faster than a fancy index at the same array: x + y is
        # _add_flat.take(x * q + y), and _mul_q.take(x * q + y) and _neg_inv_q.take(x)
        # are x * y and -1/x already scaled by q, the way an index needs them
        self._add_flat = self._add.reshape(-1)
        self._mul_q = self._mul.reshape(-1).astype(np.uint16) * np.uint16(q)
        self._neg_inv_q = self._neg[self._inv].astype(np.uint16) * np.uint16(q)
        for t in (self._add, self._mul, self._neg, self._inv, self._mul_q, self._neg_inv_q):
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

