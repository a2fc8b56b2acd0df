"""Random model: uniform ordered bases, block trials, analytic bounds.

A trial models two independent uniform ordered bases B1 and B2, marks the
first k positions of B1, and tests each aligned k-block of B2 for one-way,
two-way, and serial exchangeability.  Every test reads only R, the first k
rows of M = B1^-1 B2, and C, the first k columns of M^-1, so a trial draws
that pair directly instead of two n x n bases.  Trials go in stacks:
sample_reduced draws a whole stack from one generator, solving only the
accepted draws, and score_reduced tests every block of it at once and
searches as many two-way blocks as its caller reads (all of them, each
trial's blocks up to its first serial one, or none), so a stack is a
pure function of its generator and its size; run_trial is a stack of
one.  The experiments derive one generator per chunk of trials from
(seed, row, chunk start), so any execution order reproduces the same
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from .exchange import SUBSET_GATE, OrderedBasis, SerialCertificate, _first_partner, _scan, _search_reduced, _search_stack
from .gf import FieldSpec
from .matfq import _matmul, _nonsingular, _solve, beta, random_full_rank, random_full_ranks
from .matfq import _rank_of  # no caller here; perfbench/tracing.py PATCHES wraps this binding


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
    """Per-block indicators of one trial.

    x_bits: one-way exchange into each block, y_bits: the reverse
    direction, zprime_bits: serial exchangeability.  z_bits (both
    directions), the sums X, Y, Z, Zprime and block_success (Zprime > 0)
    are derived from them.  certificate is the first serial block's, at
    index cert_block.  subset_success is None unless the all-subsets
    search ran.
    """

    x_bits: tuple[int, ...]
    y_bits: tuple[int, ...]
    zprime_bits: tuple[int, ...]
    subset_success: Optional[bool]
    certificate: Optional[SerialCertificate]
    cert_block: Optional[int]

    z_bits = property(lambda self: tuple(x & y for x, y in zip(self.x_bits, self.y_bits)))
    X = property(lambda self: sum(self.x_bits))
    Y = property(lambda self: sum(self.y_bits))
    Z = property(lambda self: sum(self.z_bits))
    Zprime = property(lambda self: sum(self.zprime_bits))
    block_success = property(lambda self: any(self.zprime_bits))

    def validate(self) -> None:
        if not len(self.x_bits) == len(self.y_bits) == len(self.zprime_bits):
            raise ValueError("bit vectors have unequal lengths")
        for i, (zp, z) in enumerate(zip(self.zprime_bits, self.z_bits)):
            if zp > z:
                raise ValueError(f"zprime_bits[{i}] > z_bits[{i}]: a serial block must be two-way")


def derive_rng(seed: int, row: int, trial: int) -> np.random.Generator:
    """The fixed seed-splitting rule: one independent stream per (row, trial).

    A chunk of trials takes the stream of its first trial.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(row, trial))
    return np.random.Generator(np.random.PCG64(ss))


def sample_ordered_basis(rng: np.random.Generator, n: int, field: FieldSpec) -> OrderedBasis:
    """Uniform over ordered bases of F_q^n."""
    return OrderedBasis(random_full_rank(rng, n, field), validate=False)


def sample_instances(rng: np.random.Generator, count: int, n: int, k: int, field: FieldSpec) -> tuple[np.ndarray, ...]:
    """count pairs of uniform ordered bases, (count, n, n) stacks m1 and m2, with uniform k-sets x1 and x2 in them.

    The bases are one random_full_ranks stack, the B1s first.  Then each
    sorted (count, k) set stack is the first k entries of rows of one
    rng.permuted (2 count, n) stack of 0..n-1, the x1 rows first: exactly
    uniform, where an argsort of float keys could tie.
    """
    m1, m2 = np.split(random_full_ranks(rng, 2 * count, n, field), 2)
    sets = np.sort(rng.permuted(np.tile(np.arange(n), (2 * count, 1)), axis=1)[:, :k], axis=1)
    return m1, m2, sets[:count], sets[count:]


def sample_reduced(
    rng: np.random.Generator, trials: int, n: int, k: int, field: FieldSpec
) -> tuple[np.ndarray, np.ndarray]:
    """trials draws of (R, C) with the joint law of (M[:k, :], M^-1[:, :k]), M uniform on GL_n(q).

    Returns a (trials, k, n) stack of R and a (trials, n, k) stack of C.
    Each slice draws R and C0 together, uniform, as one (2k, n) block
    [R; C0^T], and the slices whose S = R C0 is singular are redrawn, in
    index order as one stack, until none is: a stack of one draws exactly
    what a (2k, n) draw would.  A round computes only S, one k x k
    product a slice, and tests it; the accepted stack then takes one
    stacked matfq._solve of S^T C^T = C0^T, so no rejected draw is
    solved.  A rank-deficient R makes S singular, so it is never
    accepted.  For a full-rank R the map C0 -> R C0 is onto the k x k
    matrices and hits each one q^(k(n-k)) times, so every full-rank R is
    accepted with the same chance alpha_k: the accepted R is uniform over
    full-rank k x n matrices.  Given R, the accepted C0 is uniform on
    {R C0 nonsingular}, and C = C0 S^-1 satisfies R C = I; each such C is
    the image of exactly the |GL_k| matrices C A with A in GL_k, so C is
    uniform on {C : R C = I}.
    """
    if k > n:
        raise KTooLarge(f"k = {k} exceeds n = {n}")
    d = np.empty((trials, 2 * k, n), dtype=np.uint8)
    st = np.empty((trials, k, k), dtype=np.uint8)  # S^T = C0^T R^T of each slice
    todo = np.arange(trials)
    while todo.size:
        d[todo] = draws = rng.integers(0, field.q, size=(todo.size, 2 * k, n), dtype=np.uint8)
        st[todo] = prod = _matmul(draws[:, k:], draws[:, :k].transpose(0, 2, 1), field)
        todo = todo[~_nonsingular(prod, field)]
    ct = _solve(st, d[:, k:], field)[1]
    return d[:, :k], ct.transpose(0, 2, 1)


def score_reduced(
    r: np.ndarray,
    c: np.ndarray,
    field: FieldSpec,
    *,
    search: str = "all",
    exhaustive: bool = False,
    gate: int = SUBSET_GATE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The x, y and serial bits of every aligned block of every (R, C) of a stack.

    r and c are as sample_reduced returns them: with M = B1^-1 B2 for the
    modelled bases, R holds the rows of M at the marked positions u1 and C
    the columns of M^-1 there, and the block tests and the serial search
    index nothing else.  Every full block of every trial is tested both
    ways, and the two-way blocks are searched in one exchange._scan loop
    whose first round's width search sets: "all" searches every two-way
    block in one round, so every serial bit is exact; "first" searches
    each trial's two-way blocks in block order, 1, then 2, then 4 a
    round, until its first serial one, so the hit serial.any(axis=1) and
    the first serial block are exact and later blocks may read 0; "none"
    searches nothing.  The bits come back as (trials, ell) bool arrays.
    With exhaustive set (and the subset count within gate) the
    all-subsets search also runs, every trial at once, each stopping at
    its first serial k-subset (exchange._first_partner with
    exchange._search_stack), giving a (trials,) bool array; otherwise that
    entry is None.
    """
    trials, k, n = r.shape
    ell = block_partition(n, k).ell
    width = ell * k
    # block i of a trial is r[:, block] on the one side and c[block, :] on the other
    a = r[:, :, :width].reshape(trials, k, ell, k).transpose(0, 2, 1, 3).reshape(-1, k, k)
    b = c[:, :width].reshape(-1, k, k)
    first = {"all": ell, "first": 1, "none": 0}[search]  # the first round's two-way blocks a trial
    y, x, serial = (v.reshape(trials, ell) for v in _scan(a, b, field, ell, first))
    subset = None
    if exhaustive and comb(n, k) <= gate:
        u1 = np.broadcast_to(np.arange(k), (trials, k))
        hits = _first_partner(r, c, u1, combinations(range(n), k), field, _search_stack)
        subset = np.array([hit is not None for hit in hits], dtype=bool)
    return x, y, serial, subset


def run_trial(
    rng: np.random.Generator,
    n: int,
    k: int,
    field: FieldSpec,
    *,
    exhaustive: bool = False,
    gate: int = SUBSET_GATE,
) -> TrialOutcome:
    """One trial: a stack of one through sample_reduced and score_reduced.

    The certificate, which the stacked scoring does not compute, comes from
    one serial search on the first serial block.
    """
    bp = block_partition(n, k)
    r, c = sample_reduced(rng, 1, n, k, field)
    x_bits, y_bits, serial, subset = score_reduced(r, c, field, exhaustive=exhaustive, gate=gate)
    cert_block = int(serial[0].argmax()) if serial[0].any() else None
    cert = None if cert_block is None else _search_reduced(r[0], c[0], tuple(range(k)), bp.blocks[cert_block], field)
    outcome = TrialOutcome(
        x_bits=tuple(map(int, x_bits[0])),
        y_bits=tuple(map(int, y_bits[0])),
        zprime_bits=tuple(map(int, serial[0])),
        subset_success=None if subset is None else bool(subset[0]),
        certificate=cert,
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
