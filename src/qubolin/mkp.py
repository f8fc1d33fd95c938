"""Multi-dimensional knapsack instances and their QUBO encodings.

Covers the OR-Library text format, seeded instance generation, the
binary-slack penalty encoding of the capacity constraints, the dominance
order over items (an optimum-preserving order that the generic pairwise
score cannot certify because of the constraints), the linearized encoding,
decoding of solver output, and two exact baselines.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import LimitError, ParseError
from .linearize import linearize
from .ordering import OrderDag
from .qubo import QuboMatrix, _as_assignment
from .solver import _bit_rows, _index_bits

__all__ = [
    "MkpInstance",
    "SlackBlock",
    "QuboEncoding",
    "DecodedSolution",
    "parse_orlib",
    "serialize_orlib",
    "generate_mkp",
    "slack_layout",
    "slack_blocks",
    "encode_qubo",
    "extract_mkp_order",
    "encode_linearized",
    "decode",
    "optimality_gap",
    "dp_knapsack_oracle",
    "mkp_exact_oracle",
    "save_layout",
]

DP_CELL_LIMIT = 200_000_000
EXACT_ORACLE_MAX_N = 24


@dataclass(frozen=True)
class MkpInstance:
    """Items with positive integer values, weights and capacities.

    ``weights[k][i]`` is the weight of item ``i`` under constraint ``k``.
    ``best_known`` is an externally supplied reference score, if any.
    """

    values: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    best_known: int | None = None

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("instance needs at least one item")
        if len(self.weights) < 1 or len(self.weights) != len(self.capacities):
            raise ValueError("need one weight row per capacity")
        for row in self.weights:
            if len(row) != len(self.values):
                raise ValueError("weight rows must have one entry per item")
        if any(v < 1 for v in self.values):
            raise ValueError("values must be >= 1")
        if any(w < 1 for row in self.weights for w in row):
            raise ValueError("weights must be >= 1")
        if any(c < 1 for c in self.capacities):
            raise ValueError("capacities must be >= 1")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.capacities)

    @cached_property
    def _w(self) -> np.ndarray:
        return np.array(self.weights, dtype=np.int64)

    @cached_property
    def _v(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int64)


@dataclass(frozen=True)
class SlackBlock:
    """Binary slack bits of one capacity constraint.

    ``weights`` are the bit loads ``(1, 2, ..., 2**(bits-2), residual)``;
    their subset sums cover exactly ``0..capacity``.
    """

    constraint: int
    offset: int
    weights: tuple[int, ...]

    @property
    def bits(self) -> int:
        return len(self.weights)

    @property
    def residual(self) -> int:
        return self.weights[-1]


@dataclass(frozen=True)
class QuboEncoding:
    """A QUBO over decision bits 0..n-1 followed by one slack block per constraint."""

    qubo: QuboMatrix
    layout: tuple[SlackBlock, ...]
    lam: float
    linearized: bool
    order: OrderDag | None
    n_decision: int

    def layout_json_dict(self) -> dict:
        return {
            "n_decision": self.n_decision,
            "slack_blocks": [
                {"constraint": b.constraint, "offset": b.offset, "weights": list(b.weights)}
                for b in self.layout
            ],
            "lambda": self.lam,
        }


@dataclass(frozen=True)
class DecodedSolution:
    """Projection of a solver assignment back onto the item selection."""

    selection: tuple[int, ...]
    objective: int
    feasible: bool
    excess: tuple[int, ...]


# ----------------------------------------------------------------------
# OR-Library text format


def parse_orlib(text: str | bytes) -> list[MkpInstance]:
    """Parse instances in the classic whitespace-separated layout.

    Stream: instance count; then per instance ``n m best`` (best 0 when
    unknown), ``n`` values, ``m`` rows of ``n`` weights, ``m`` capacities.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    pos = 0

    def next_int(what: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"stream truncated: expected {what} at token {pos}")
        tok, off = tokens[pos]
        pos += 1
        try:
            return int(tok)
        except ValueError:
            raise ParseError(
                f"expected integer {what} at token {pos - 1} (offset {off}), got {tok!r}"
            ) from None

    count = next_int("instance count")
    if count < 0:
        raise ParseError(f"instance count must be >= 0, got {count}")
    out = []
    for idx in range(count):
        n = next_int(f"item count of instance {idx}")
        m = next_int(f"constraint count of instance {idx}")
        if n < 1 or m < 1:
            raise ParseError(f"instance {idx} has non-positive shape n={n}, m={m}")
        best = next_int(f"best-known score of instance {idx}")
        values = tuple(next_int(f"value {i} of instance {idx}") for i in range(n))
        weights = tuple(
            tuple(next_int(f"weight ({k}, {i}) of instance {idx}") for i in range(n))
            for k in range(m)
        )
        caps = tuple(next_int(f"capacity {k} of instance {idx}") for k in range(m))
        out.append(MkpInstance(values, weights, caps, best if best > 0 else None))
    if pos != len(tokens):
        tok, off = tokens[pos]
        raise ParseError(f"trailing data at token {pos} (offset {off}): {tok!r}")
    return out


def serialize_orlib(instances: Sequence[MkpInstance]) -> str:
    """Render instances in the same layout; unknown best-known scores become 0."""

    def wrap(nums: Iterable[int]) -> str:
        nums = list(nums)
        lines = []
        for start in range(0, len(nums), 15):
            lines.append(" ".join(str(v) for v in nums[start : start + 15]))
        return "\n".join(lines)

    parts = [str(len(instances))]
    for inst in instances:
        parts.append(f"{inst.n} {inst.m} {inst.best_known or 0}")
        parts.append(wrap(inst.values))
        for row in inst.weights:
            parts.append(wrap(row))
        parts.append(wrap(inst.capacities))
    return "\n".join(parts) + "\n"


def generate_mkp(n: int, m: int, alpha: float, seed: int) -> MkpInstance:
    """Random instance in the style of the classic benchmark sets.

    Weights are uniform integers in [1, 1000]; capacity k is
    ``floor(alpha * sum_i w_ki)``; item values correlate with weights via
    ``v_i = floor(mean_k w_ki + 500 * q_i)`` with one uniform ``q_i`` per
    item, clamped to >= 1.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"tightness must lie in (0, 1), got alpha={alpha}")
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 1000, size=(m, n), endpoint=True)
    caps = [math.floor(alpha * int(w[k].sum())) for k in range(m)]
    if any(c < 1 for c in caps):
        raise ValueError(f"alpha={alpha} yields an empty knapsack for n={n}")
    q = rng.random(n)
    values = [max(1, math.floor(int(w[:, i].sum()) / m + 500.0 * q[i])) for i in range(n)]
    return MkpInstance(
        tuple(values),
        tuple(tuple(int(x) for x in w[k]) for k in range(m)),
        tuple(caps),
    )


# ----------------------------------------------------------------------
# slack layout and QUBO encodings


def slack_layout(capacity: int) -> tuple[int, ...]:
    """Bit loads ``(1, 2, ..., 2**(bits-2), residual)`` covering ``0..capacity``.

    Uses ``bits = floor(log2 C) + 1`` and ``residual = C + 1 - 2**(bits-1)``,
    so the subset sums of the loads are exactly the integers up to ``C``.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    bits = capacity.bit_length()
    residual = capacity + 1 - 2 ** (bits - 1)
    return tuple(2**t for t in range(bits - 1)) + (residual,)


def slack_blocks(inst: MkpInstance) -> tuple[SlackBlock, ...]:
    blocks = []
    offset = inst.n
    for k, cap in enumerate(inst.capacities):
        weights = slack_layout(cap)
        blocks.append(SlackBlock(k, offset, weights))
        offset += len(weights)
    return blocks


def encode_qubo(inst: MkpInstance, lam: float) -> QuboEncoding:
    """Penalty encoding ``-sum v_i x_i + lam * sum_k (w_k . x - slack_k)**2``.

    Decision bits come first in item order, then one slack block per
    constraint.  Decision pairs i < j carry coefficient
    ``2 * lam * sum_k w_ki * w_kj``.
    """
    if lam <= 0:
        raise ValueError(f"penalty coefficient must be positive, got {lam}")
    blocks = slack_blocks(inst)
    n_total = blocks[-1].offset + blocks[-1].bits
    terms: dict[tuple[int, int], float] = {}
    w = inst._w
    for i in range(inst.n):
        terms[(i, i)] = float(-inst.values[i] + lam * int((w[:, i] ** 2).sum()))
    for block in blocks:
        k = block.constraint
        for t, st in enumerate(block.weights):
            yt = block.offset + t
            terms[(yt, yt)] = float(lam * st * st)
            for u in range(t + 1, block.bits):
                terms[(yt, block.offset + u)] = float(2.0 * lam * st * block.weights[u])
            for i in range(inst.n):
                terms[(i, yt)] = float(-2.0 * lam * int(w[k, i]) * st)
    cross = 2.0 * lam * (w.T.astype(np.float64) @ w.astype(np.float64))
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            terms[(i, j)] = float(cross[i, j])
    terms = {k: v for k, v in terms.items() if v != 0.0}
    return QuboEncoding(
        qubo=QuboMatrix(n_total, terms),
        layout=blocks,
        lam=float(lam),
        linearized=False,
        order=None,
        n_decision=inst.n,
    )


def extract_mkp_order(inst: MkpInstance) -> OrderDag:
    """Dominance order over items: edge (i, j) when j is at least as valuable
    and at most as heavy under every constraint.

    Fully tied items are ordered from lower to higher index only, which
    breaks the two-cycles that mutual dominance would otherwise create.
    Runs in O(n^2 m).
    """
    v = inst._v
    w = inst._w
    value_le = v[:, None] <= v[None, :]
    weight_ge = np.all(w[:, :, None] >= w[:, None, :], axis=0)
    dominated = value_le & weight_ge
    tied = dominated & dominated.T
    lower = np.tril(np.ones_like(dominated, dtype=bool))
    keep = dominated & ~(tied & lower)
    np.fill_diagonal(keep, False)
    rows, cols = np.nonzero(keep)
    edges = tuple((int(i), int(j)) for i, j in zip(rows, cols))
    return OrderDag(inst.n, edges)


def encode_linearized(inst: MkpInstance, lam: float) -> QuboEncoding:
    """:func:`encode_qubo` followed by :func:`qubolin.linearize.linearize`
    along the dominance order of :func:`extract_mkp_order`.

    Each dominance edge (i, j) moves the decision-decision coefficient
    ``2 * lam * sum_k w_ki * w_kj`` onto the diagonal of ``x_i``; slack terms
    are untouched.  The order is kept on the encoding, over all variables.
    """
    enc = encode_qubo(inst, lam)
    order = OrderDag(enc.qubo.n, extract_mkp_order(inst).edges)
    q_lin, _ = linearize(enc.qubo, order)
    return replace(enc, qubo=q_lin, linearized=True, order=order)


def decode(enc: QuboEncoding, x: Sequence[int], inst: MkpInstance) -> DecodedSolution:
    """Project an assignment onto the item selection and score it.

    Feasibility only looks at the decision bits: a selection within all
    capacities is feasible even if the slack bits fail to balance their
    penalty term.
    """
    arr = _as_assignment(enc.qubo.n, x)
    selection = tuple(int(b) for b in arr[: enc.n_decision])
    sel = np.array(selection, dtype=np.int64)
    objective = int(inst._v @ sel)
    loads = inst._w @ sel
    excess = tuple(int(loads[k] - inst.capacities[k]) for k in range(inst.m))
    return DecodedSolution(selection, objective, all(e <= 0 for e in excess), excess)


def optimality_gap(best_known: float, achieved: float) -> float:
    """Relative shortfall ``(best - achieved) / best * 100``."""
    if best_known <= 0:
        raise ValueError(f"reference score must be positive, got {best_known}")
    return (best_known - achieved) / best_known * 100.0


# ----------------------------------------------------------------------
# exact baselines


def dp_knapsack_oracle(inst: MkpInstance) -> tuple[int, tuple[int, ...]]:
    """Exact optimum of a single-constraint instance by capacity-indexed DP."""
    if inst.m != 1:
        raise ValueError(f"DP oracle handles exactly one constraint, got m={inst.m}")
    cap = inst.capacities[0]
    if inst.n * (cap + 1) > DP_CELL_LIMIT:
        raise LimitError(
            f"DP table of {inst.n} x {cap + 1} cells exceeds the {DP_CELL_LIMIT} budget"
        )
    dp = np.zeros(cap + 1, dtype=np.int64)
    take = np.zeros((inst.n, cap + 1), dtype=bool)
    weights = inst.weights[0]
    for i, (v, w) in enumerate(zip(inst.values, weights)):
        if w > cap:
            continue
        shifted = dp[: cap + 1 - w] + v
        better = shifted > dp[w:]
        take[i, w:] = better
        dp[w:][better] = shifted[better]
    selection = [0] * inst.n
    c = cap
    for i in range(inst.n - 1, -1, -1):
        if take[i, c]:
            selection[i] = 1
            c -= weights[i]
    return int(dp[cap]), tuple(selection)


def mkp_exact_oracle(inst: MkpInstance) -> tuple[int, tuple[int, ...]]:
    """Exact optimum by exhaustive enumeration of all selections (n <= 24)."""
    if inst.n > EXACT_ORACLE_MAX_N:
        raise LimitError(
            f"exhaustive oracle is limited to n <= {EXACT_ORACLE_MAX_N}, got n={inst.n}"
        )
    n = inst.n
    w = inst._w.astype(np.float64)
    v = inst._v.astype(np.float64)
    caps = np.array(inst.capacities, dtype=np.float64)
    best = 0
    best_index = 0
    block_bits = min(n, 18)
    for h in range(2 ** (n - block_bits)):
        lo = h << block_bits
        x = _bit_rows(lo, 2**block_bits, n)
        feasible = np.all(x @ w.T <= caps[None, :], axis=1)
        obj = x @ v
        obj[~feasible] = -1.0
        k = int(np.argmax(obj))
        if obj[k] > best:
            best = int(obj[k])
            best_index = lo + k
    return best, _index_bits(best_index, n)


def save_layout(enc: QuboEncoding, path: str | Path) -> None:
    Path(path).write_text(json.dumps(enc.layout_json_dict()) + "\n")
