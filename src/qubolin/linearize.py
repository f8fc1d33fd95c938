"""Rewriting positive quadratic terms of ordered pairs into linear terms.

Given an optimum-preserving order, every quadratic term ``c * x_i * x_j``
with ``c > 0`` on an edge ``(i, j)`` can be replaced by the linear term
``c * x_i``: the difference ``c * (x_i - x_i * x_j)`` is a penalty that
vanishes on every assignment respecting the order, so the rewritten matrix
keeps the original minimum while shedding one off-diagonal per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ordering import OrderDag, extract_order_dense
from .qubo import QuboMatrix, _as_assignment, _pair_runs, _save_rows, _table

__all__ = [
    "LinearizationReport",
    "linearize",
    "extract_and_linearize",
    "penalty_value",
    "undo_linearization",
    "save_report",
]

_REMOVED = (
    "report",
    "report entry must be (src, dst, coef), got {!r}",
    "report entry {!r}: indices must be integers",
    "report entry {!r}: coef must be a number",
)


@dataclass(frozen=True, eq=False)
class LinearizationReport:
    """What a linearization pass moved around.

    ``src``, ``dst`` (int64) and ``coef`` (float64) are read-only arrays in
    edge order, one entry per rewritten term: coefficient ``coef[t]`` left
    the off-diagonal cell of the unordered pair ``{src[t], dst[t]}`` and was
    added to the diagonal of ``src[t]``.
    """

    src: np.ndarray
    dst: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        columns = _table(_REMOVED, columns=(self.src, self.dst, self.coef))
        src, dst, coef = columns
        if src.dtype == object:
            t = int(np.argmax((src < -(2**63)) | (src >= 2**63) | (dst < -(2**63)) | (dst >= 2**63)))
            raise ValueError(f"report entry {(src[t], dst[t], float(coef[t]))!r}: index beyond int64")
        for name, arr, dtype in zip(("src", "dst", "coef"), columns, (np.int64, np.int64, np.float64)):
            # the report owns a copy
            arr = np.array(arr, dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def removed_count(self) -> int:
        return self.src.size


def _edge_coefficients(q: QuboMatrix, g: OrderDag) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, c)``: the position in ``q`` of each edge's coupling (-1 if
    uncoupled) and its penalty coefficient, the coupling where it is
    positive and 0 elsewhere."""
    if q.n != g.n:
        raise ValueError(f"order over {g.n} variables does not match QUBO with n={q.n}")
    pos = q._find_pairs(g.edges[:, 0], g.edges[:, 1])
    c = np.zeros(pos.size)
    hit = pos >= 0
    c[hit] = np.maximum(q.vals[pos[hit]], 0.0)
    return pos, c


def linearize(q: QuboMatrix, g: OrderDag) -> tuple[QuboMatrix, LinearizationReport]:
    """Rewrite every positive quadratic term sitting on an order edge.

    The caller asserts that the order preserves the optimum (either through
    :func:`qubolin.ordering.verify_order` or a problem-specific certificate
    such as the knapsack dominance order); this function does not re-check.
    An order holds each unordered pair at most once, so every edge moves
    the coupling it finds in ``q``; the moved coefficients are added to the
    diagonals in edge order.
    """
    pos, c = _edge_coefficients(q, g)
    moved = np.flatnonzero(c)
    report = LinearizationReport(g.edges[moved, 0], g.edges[moved, 1], c[moved])
    if not moved.size:
        return q, report
    diag = q._diag.copy()
    with np.errstate(over="ignore"):
        np.add.at(diag, report.src, report.coef)
    over = np.flatnonzero(np.isinf(diag))
    if over.size:
        k = over[0]
        raise ValueError(f"linearized diagonal at ({k}, {k}) is not finite: {float(diag[k])!r}")
    keep = q.rows != q.cols
    keep[pos[moved]] = False
    rows, cols, vals = q.rows[keep], q.cols[keep], q.vals[keep]
    on = np.flatnonzero(diag)
    # a diagonal key (i, i) sorts first among the keys of row i
    at = np.searchsorted(rows, on)
    q_lin = QuboMatrix._of(q.n, np.insert(rows, at, on), np.insert(cols, at, on), np.insert(vals, at, diag[on]))
    return q_lin, report


def extract_and_linearize(q: QuboMatrix) -> tuple[QuboMatrix, OrderDag, LinearizationReport]:
    """:func:`extract_order_dense` followed by :func:`linearize`."""
    order = extract_order_dense(q)
    q_lin, report = linearize(q, order)
    return q_lin, order, report


def penalty_value(q: QuboMatrix, g: OrderDag, x: Sequence[int]) -> float:
    """Total auxiliary penalty ``sum(c_e * (x_i - x_i * x_j))`` at ``x``.

    Equals ``energy(linearized, x) - energy(q, x)`` exactly; in particular
    it vanishes on every assignment inside the ordered subspace.
    """
    _, c = _edge_coefficients(q, g)
    arr = _as_assignment(q.n, x)
    return float(c @ (arr[g.edges[:, 0]] * (1.0 - arr[g.edges[:, 1]])))


def undo_linearization(q_lin: QuboMatrix, report: LinearizationReport) -> QuboMatrix:
    """Reconstruct the original matrix from a linearized one and its report."""
    if not report.removed_count:
        return q_lin
    i, j, c = report.src, report.dst, report.coef
    bad = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= q_lin.n) | (i == j))
    if bad.size:
        t = bad[0]
        raise ValueError(f"report entry {(int(i[t]), int(j[t]), float(c[t]))!r} names no coupling of n={q_lin.n}")
    # a cell is occupied if it is stored or an earlier removal restores it
    occupied = q_lin._find_pairs(i, j) >= 0
    order, key = _pair_runs(i, j)
    start = np.flatnonzero(np.diff(key >> 1, prepend=-1))
    occupied[order] |= order != np.repeat(np.minimum.reduceat(order, start), np.diff(start, append=order.size))
    if occupied.any():
        t = int(np.argmax(occupied))
        raise ValueError(f"cannot restore ({i[t]}, {j[t]}): cell already occupied")
    diag = q_lin._diag.copy()
    np.subtract.at(diag, i, c)
    on = np.flatnonzero(diag)
    off = q_lin.rows != q_lin.cols
    return QuboMatrix.from_arrays(
        q_lin.n,
        np.concatenate([q_lin.rows[off], i, on]),
        np.concatenate([q_lin.cols[off], j, on]),
        np.concatenate([q_lin.vals[off], c, diag[on]]),
    )


def save_report(report: LinearizationReport, path: str | Path) -> None:
    _save_rows(path, {"removed_count": report.removed_count}, "removed", report.src, report.dst, report.coef)
