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
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LimitError, ParseError
from .linearize import linearize
from .ordering import OrderDag
from .qubo import QuboMatrix, _as_assignment, _check_bytes, _integral, _typed_column
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
# values and weights stay below ITEM_LIMIT and capacities below CAPACITY_LIMIT,
# so squared weights, loads, objectives and excesses all fit in int64
ITEM_LIMIT = 1 << 31
CAPACITY_LIMIT = 1 << 62


# per field: the name of its entry and the upper end of its range
_FIELDS = (("values", "value of item {}", ITEM_LIMIT), ("weights", "weight ({}, {})", ITEM_LIMIT),
           ("capacities", "capacity {}", CAPACITY_LIMIT))


@dataclass(frozen=True, eq=False)
class MkpInstance:
    """Items with positive integer values, weights and capacities.

    ``values`` (n,), ``weights`` (m, n) and ``capacities`` (m,) are read-only
    int64 arrays, built from integer arrays or from (nested) sequences of
    Python ints; other entries, such as floats, bools and strings, are
    rejected.  ``weights[k, i]`` is the weight of item ``i`` under
    constraint ``k``.  ``best_known`` is an externally supplied reference
    score, if any.  Equality is identity: compare fields with ``np.array_equal``.
    """

    values: np.ndarray
    weights: np.ndarray
    capacities: np.ndarray
    best_known: int | None = None

    def __post_init__(self):
        given = [getattr(self, name) for name, _, _ in _FIELDS]
        v, w, c = (a if isinstance(a, np.ndarray) else np.array(a, dtype=object) for a in given)
        if v.ndim != 1 or c.ndim != 1:
            raise ValueError(f"values and capacities must be 1-D, got shapes {v.shape} and {c.shape}")
        if v.size < 1:
            raise ValueError("instance needs at least one item")
        if w.ndim < 1 or len(w) < 1 or len(w) != c.size:
            raise ValueError("need one weight row per capacity")
        if w.shape != (c.size, v.size):
            raise ValueError("weight rows must have one entry per item")
        for (name, entry, limit), arr in zip(_FIELDS, (v, w, c)):
            # exact types: np.array(..., dtype=object) keeps a bool or a float as given
            if not _integral(arr.ravel().tolist() if arr.dtype == object else arr):
                t = next(i for i, x in enumerate(arr.flat) if type(x) is not int)
                raise ValueError(f"{entry.format(*np.unravel_index(t, arr.shape))} is {arr.item(t)!r}, not an integer")
            try:
                arr = _typed_column(arr, np.int64)
            except OverflowError:
                arr = arr.astype(object)
            bad = np.flatnonzero((arr < 1) | (arr >= limit))
            if bad.size:
                where = np.unravel_index(bad[0], arr.shape)
                raise ValueError(f"{entry.format(*where)} is {arr.item(bad[0])}, outside 1..{limit - 1}")
            # the instance owns a copy
            arr = arr.astype(np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def m(self) -> int:
        return self.capacities.size


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

    def wrap(nums: list[int]) -> str:
        lines = []
        for start in range(0, len(nums), 15):
            lines.append(" ".join(str(v) for v in nums[start : start + 15]))
        return "\n".join(lines)

    parts = [str(len(instances))]
    for inst in instances:
        parts.append(f"{inst.n} {inst.m} {inst.best_known or 0}")
        parts += map(wrap, (inst.values.tolist(), *inst.weights.tolist(), inst.capacities.tolist()))
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
    # the peak holds the weights twice (drawn, then the instance's copy) and three arrays of n
    _check_bytes(f"weights of m={m} constraints", n, 8 * (2 * m + 3) * n)
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 1000, size=(m, n), endpoint=True)
    caps = np.floor(alpha * w.sum(axis=1))
    if (caps < 1).any():
        raise ValueError(f"alpha={alpha} yields an empty knapsack for n={n}")
    values = np.floor(w.sum(axis=0) / m + 500.0 * rng.random(n))
    return MkpInstance(np.maximum(values, 1).astype(np.int64), w, caps.astype(np.int64))


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
    for k, cap in enumerate(inst.capacities.tolist()):
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
    if not 0 < lam < math.inf:
        raise ValueError(f"penalty coefficient lambda must be positive and finite, got {lam}")
    blocks = slack_blocks(inst)
    n = inst.n
    # the entries before folding; the encoding peaks at 123 bytes per entry
    entries = n * (n + 1) // 2 + sum(b.bits * (b.bits + 1) // 2 + n * b.bits for b in blocks)
    _check_bytes(f"encoding of m={inst.m} constraints", n, 128 * entries)
    w = inst.weights
    dec = np.arange(n)
    # the decision and slack diagonals take Python arithmetic, exact on an integer lam;
    # a sum of m squared weights may pass 2**63
    sq = [sum(x * x for x in col) for col in w.T.tolist()]
    rows, cols = [dec], [dec]
    vals = [np.array([float(-v + lam * s) for v, s in zip(inst.values.tolist(), sq)])]
    for block in blocks:
        st = np.array(block.weights, dtype=np.float64)
        y = block.offset + np.arange(block.bits)
        t, u = np.triu_indices(block.bits, 1)
        rows += [y, y[t], np.repeat(dec, block.bits)]
        cols += [y, y[u], np.tile(y, n)]
        vals += [np.array([float(lam * s * s) for s in block.weights]), 2.0 * lam * st[t] * st[u],
                 np.outer(-2.0 * lam * w[block.constraint], st).ravel()]
    i, j = np.triu_indices(n, 1)
    rows.append(i)
    cols.append(j)
    vals.append((2.0 * lam * (w.T.astype(np.float64) @ w.astype(np.float64)))[i, j])
    qubo = QuboMatrix.from_arrays(blocks[-1].offset + blocks[-1].bits, *map(np.concatenate, (rows, cols, vals)))
    return QuboEncoding(
        qubo=qubo,
        layout=blocks,
        lam=float(lam),
        linearized=False,
        order=None,
        n_decision=n,
    )


def extract_mkp_order(inst: MkpInstance) -> OrderDag:
    """Dominance order over items: edge (i, j) when j is at least as valuable
    and at most as heavy under every constraint.

    Fully tied items are ordered from lower to higher index only, which
    breaks the two-cycles that mutual dominance would otherwise create.
    Runs in O(n^2 m).
    """
    return OrderDag(inst.n, _dominance_edges(inst))


def _dominance_edges(inst: MkpInstance) -> np.ndarray:
    """The row-major ``(m, 2)`` edges of :func:`extract_mkp_order`."""
    n, m = inst.n, inst.m
    # the m x n x n weight comparison, then the n x n masks and the edges: at
    # most 34 n^2 bytes (measured), reached when every pair of items is an edge
    _check_bytes(f"dominance order of m={m} constraints", n, (m + 34) * n * n)
    v, w = inst.values, inst.weights
    value_le = v[:, None] <= v[None, :]
    weight_ge = np.all(w[:, :, None] >= w[:, None, :], axis=0)
    dominated = value_le & weight_ge
    tied = dominated & dominated.T
    lower = np.tril(np.ones_like(dominated, dtype=bool))
    keep = dominated & ~(tied & lower)
    np.fill_diagonal(keep, False)
    return np.argwhere(keep)


def encode_linearized(inst: MkpInstance, lam: float) -> QuboEncoding:
    """:func:`encode_qubo` followed by :func:`qubolin.linearize.linearize`
    along the dominance order of :func:`extract_mkp_order`.

    Each dominance edge (i, j) moves the decision-decision coefficient
    ``2 * lam * sum_k w_ki * w_kj`` onto the diagonal of ``x_i``; slack terms
    are untouched.  The order is kept on the encoding, over all variables.
    """
    enc = encode_qubo(inst, lam)
    order = OrderDag(enc.qubo.n, _dominance_edges(inst))
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
    objective = int(inst.values @ sel)
    excess = tuple((inst.weights @ sel - inst.capacities).tolist())
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
    cap = int(inst.capacities[0])
    if inst.n * (cap + 1) > DP_CELL_LIMIT:
        raise LimitError(
            f"DP table of {inst.n} x {cap + 1} cells exceeds the {DP_CELL_LIMIT} budget"
        )
    dp = np.zeros(cap + 1, dtype=np.int64)
    take = np.zeros((inst.n, cap + 1), dtype=bool)
    weights = inst.weights[0].tolist()
    for i, (v, w) in enumerate(zip(inst.values.tolist(), weights)):
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
    w, v, caps = (a.astype(np.float64) for a in (inst.weights, inst.values, inst.capacities))
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
