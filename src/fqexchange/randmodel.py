"""Random model: uniform ordered bases, block trials, analytic bounds.

A trial models two independent uniform ordered bases B1 and B2, marks the
first k positions of B1, and tests each aligned k-block of B2 for one-way,
two-way, and serial exchangeability.  Every test reads only R, the first k
rows of M = B1^-1 B2, and C, the first k columns of M^-1, so a trial draws
that pair directly (see sample_reduced) instead of two n x n bases.
Trials are pure functions of their generator, and generators are derived
from (seed, row, trial) so any execution order reproduces the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from .exchange import OrderedBasis, SerialCertificate, _certificate, _outer_pairs, _prefix_table, _search_reduced
from .gf import FieldSpec
from .matfq import _eliminate, _matmul, _rank_of, beta, random_full_rank


class KTooLarge(ValueError):
    """Block size k exceeds the basis rank n."""


class DomainError(ValueError):
    """Arguments outside the region where the bound is valid."""


@dataclass(frozen=True)
class BlockPartition:
    """The first floor(n/k) aligned k-blocks of positions 0..n-1."""

    n: int
    k: int
    ell: int
    blocks: tuple[tuple[int, ...], ...]


def block_partition(n: int, k: int) -> BlockPartition:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k = {k} exceeds n = {n}")
    ell = n // k
    blocks = tuple(tuple(range(i * k, (i + 1) * k)) for i in range(ell))
    return BlockPartition(n, k, ell, blocks)


@dataclass(frozen=True)
class TrialOutcome:
    """Per-block indicators of one trial plus their sums.

    x_bits: one-way exchange into each block, y_bits: the reverse
    direction, z_bits: both, zprime_bits: serial exchangeability.
    subset_success is None unless the all-subsets search ran.
    """

    x_bits: tuple[int, ...]
    y_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    zprime_bits: tuple[int, ...]
    X: int
    Y: int
    Z: int
    Zprime: int
    block_success: bool
    subset_success: Optional[bool]
    certificate: Optional[SerialCertificate]
    cert_block: Optional[int]

    def validate(self) -> None:
        ell = len(self.x_bits)
        if not (len(self.y_bits) == len(self.z_bits) == len(self.zprime_bits) == ell):
            raise ValueError("bit vectors have unequal lengths")
        for i in range(ell):
            if self.z_bits[i] != (self.x_bits[i] & self.y_bits[i]):
                raise ValueError(f"z_bits[{i}] != x_bits[{i}] AND y_bits[{i}]")
            if self.zprime_bits[i] > self.z_bits[i]:
                raise ValueError(f"zprime_bits[{i}] > z_bits[{i}]")
        if (self.X, self.Y, self.Z, self.Zprime) != (
            sum(self.x_bits),
            sum(self.y_bits),
            sum(self.z_bits),
            sum(self.zprime_bits),
        ):
            raise ValueError("sums inconsistent with bit vectors")
        if self.Z < self.X + self.Y - ell:
            raise ValueError("Z < X + Y - ell")
        if self.block_success != (self.Zprime > 0):
            raise ValueError("block_success inconsistent with Zprime")


def derive_rng(seed: int, row: int, trial: int) -> np.random.Generator:
    """The fixed seed-splitting rule: one independent stream per (row, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(row, trial))
    return np.random.Generator(np.random.PCG64(ss))


def sample_ordered_basis(rng: np.random.Generator, n: int, field: FieldSpec) -> OrderedBasis:
    """Uniform over ordered bases of F_q^n."""
    return OrderedBasis(random_full_rank(rng, n, field), validate=False)


def right_inverse(r: np.ndarray, c0: np.ndarray, field: FieldSpec) -> Optional[np.ndarray]:
    """The map (R, C0) -> C0 (R C0)^-1, or None when R C0 is singular.

    The result C satisfies R C = I.  Each such C is the image of exactly
    the |GL_k| matrices C A with A in GL_k, so a uniform C0 conditioned on
    R C0 nonsingular gives a uniform C.  Reducing [(R C0)^T | C0^T] until
    its left block is the identity leaves C^T on the right.
    """
    k = r.shape[0]
    aug = np.hstack([_matmul(r, c0, field).T, c0.T])
    if _eliminate(aug, field, reduced=True, stop_col=k) < k:
        return None
    return aug[:, k:].T


def sample_reduced(rng: np.random.Generator, n: int, k: int, field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(R, C) with the joint law of (M[:k, :], M^-1[:, :k]), M uniform on GL_n(q).

    R is uniform over full-rank k x n matrices.  Given R, C is uniform on
    {C : R C = I}: C0 is redrawn until R C0 is nonsingular, and
    right_inverse maps the uniform C0 evenly onto that set.
    """
    while True:
        r = rng.integers(0, field.q, size=(k, n), dtype=np.uint8)
        if _rank_of(r, field) == k:
            break
    while True:
        c = right_inverse(r, rng.integers(0, field.q, size=(n, k), dtype=np.uint8), field)
        if c is not None:
            return r, c


def run_trial(
    rng: np.random.Generator,
    n: int,
    k: int,
    field: FieldSpec,
    *,
    exhaustive: bool = False,
    gate: int = 10**6,
) -> TrialOutcome:
    """One trial: sample (R, C) and score every aligned block.

    With M = B1^-1 B2 for the modelled bases, vp = R holds the rows of M
    at the marked positions u1 and up = C the columns of M^-1 there; the
    block tests and the serial search index nothing else.  One prefix
    table covers every block: its full-size entries are the y and x bits,
    and the serial search for a block where both hold starts from its
    row.  With exhaustive set (and the subset count within gate) the
    all-subsets search also runs.
    """
    bp = block_partition(n, k)
    vp, up = sample_reduced(rng, n, k, field)
    u1 = tuple(range(k))
    width = bp.ell * k
    # block i is vp[:, block] on the one side and up[block, :] on the other
    a = vp[:, :width].reshape(k, bp.ell, k).transpose(1, 0, 2)
    b = up[:width].reshape(bp.ell, k, k)
    pairs = _outer_pairs(k)
    table = _prefix_table(a, b, field, pairs)
    y_bits = [int(v) for v in table[0, :, -1]]
    x_bits = [int(v) for v in table[1, :, -1]]
    z_bits = [x & y for x, y in zip(x_bits, y_bits)]
    zprime_bits = [0] * bp.ell
    certificate = None
    cert_block = None
    both = table.all(axis=0)
    for i, block in enumerate(bp.blocks):
        if not z_bits[i]:
            continue
        cert = _certificate(a[i], b[i], dict(zip(pairs, both[i])), u1, block, field)
        if cert is not None:
            zprime_bits[i] = 1
            if certificate is None:
                certificate = cert
                cert_block = i
    subset_success = None
    if exhaustive and comb(n, k) <= gate:
        found = None
        for cand in combinations(range(n), k):
            found = _search_reduced(vp, up, u1, tuple(cand), field)
            if found is not None:
                break
        subset_success = found is not None
    outcome = TrialOutcome(
        x_bits=tuple(x_bits),
        y_bits=tuple(y_bits),
        z_bits=tuple(z_bits),
        zprime_bits=tuple(zprime_bits),
        X=sum(x_bits),
        Y=sum(y_bits),
        Z=sum(z_bits),
        Zprime=sum(zprime_bits),
        block_success=sum(zprime_bits) > 0,
        subset_success=subset_success,
        certificate=certificate,
        cert_block=cert_block,
    )
    outcome.validate()
    return outcome


def alpha_lower(q: int) -> Fraction:
    """Closed-form lower bound on the infinite nonsingularity product."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return 1 - Fraction(1, q) - Fraction(1, q * q)


def zprime_zero_bound(s: int, k: int, q: int) -> float:
    """Bound on the chance that s two-way blocks all fail the serial search."""
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    return float((1 - beta(k, q)) ** s)


def theorem_tail(n: int, k: int, q: int, c, epsilon) -> float:
    """Analytic upper envelope on the no-serial-block event.

    Evaluates 4 exp(-eps^2 * ell * a / 3) + (1 - beta_k)^(c * ell) with
    ell = floor(n/k) and a = alpha_lower(q).  Valid only when
    c <= 2 (1 - eps) a - 1; in particular no positive c qualifies at
    q = 2, where a = 1/4.
    """
    c = Fraction(c)
    epsilon = Fraction(epsilon)
    if k < 1 or k > n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 < epsilon < 1:
        raise DomainError(f"need 0 < epsilon < 1, got {epsilon}")
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    a = alpha_lower(q)
    c_max = 2 * (1 - epsilon) * a - 1
    if c > c_max:
        raise DomainError(
            f"c = {c} exceeds 2(1-epsilon)*alpha_lower - 1 = {c_max}; bound not valid there"
        )
    ell = n // k
    term_z = 4.0 * math.exp(-float(epsilon * epsilon * a) * ell / 3.0)
    term_serial = float(1 - beta(k, q)) ** (float(c) * ell)
    return term_z + term_serial
