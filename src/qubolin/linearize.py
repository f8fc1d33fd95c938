"""Rewriting positive quadratic terms of ordered pairs into linear terms.

Given an optimum-preserving order, every quadratic term ``c * x_i * x_j``
with ``c > 0`` on an edge ``(i, j)`` can be replaced by the linear term
``c * x_i``: the difference ``c * (x_i - x_i * x_j)`` is a penalty that
vanishes on every assignment respecting the order, so the rewritten matrix
keeps the original minimum while shedding one off-diagonal per edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .ordering import OrderDag, extract_order_dense
from .qubo import QuboMatrix, _as_assignment

__all__ = [
    "LinearizationReport",
    "linearize",
    "extract_and_linearize",
    "penalty_value",
    "undo_linearization",
    "save_report",
]


@dataclass(frozen=True)
class LinearizationReport:
    """What a linearization pass moved around.

    ``removed`` lists ``(i, j, c)`` per rewritten term, oriented along the
    edge: coefficient ``c`` left the off-diagonal cell of the unordered pair
    ``{i, j}`` and was added to the diagonal of ``i``.  ``edge_coefficients``
    records the penalty coefficient of every edge, zero for edges whose
    quadratic term was absent or not positive.
    """

    removed: tuple[tuple[int, int, float], ...]
    edge_coefficients: dict[tuple[int, int], float]

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    def to_json_dict(self) -> dict:
        return {
            "removed_count": self.removed_count,
            "removed": [[i, j, c] for i, j, c in self.removed],
        }


def _edge_coefficient(terms: dict[tuple[int, int], float], i: int, j: int) -> float:
    key = (i, j) if i < j else (j, i)
    return terms.get(key, 0.0)


def _apply_edge(terms: dict[tuple[int, int], float], i: int, j: int) -> float:
    """Rewrite one edge in place; returns the moved coefficient (0 if none)."""
    key = (i, j) if i < j else (j, i)
    c = terms.get(key, 0.0)
    if c <= 0.0:
        return 0.0
    del terms[key]
    d = terms.get((i, i), 0.0) + c
    if d == 0.0:
        terms.pop((i, i), None)
    else:
        terms[(i, i)] = d
    return c


def linearize(q: QuboMatrix, g: OrderDag) -> tuple[QuboMatrix, LinearizationReport]:
    """Rewrite every positive quadratic term sitting on an order edge.

    The caller asserts that the order preserves the optimum (either through
    :func:`qubolin.ordering.verify_order` or a problem-specific certificate
    such as the knapsack dominance order); this function does not re-check.
    """
    if q.n != g.n:
        raise ValueError(f"order over {g.n} variables does not match QUBO with n={q.n}")
    terms = dict(q.terms)
    removed: list[tuple[int, int, float]] = []
    coeffs: dict[tuple[int, int], float] = {}
    for i, j in g.edges:
        c = _apply_edge(terms, i, j)
        coeffs[(i, j)] = c
        if c > 0.0:
            removed.append((i, j, c))
    return QuboMatrix(q.n, terms), LinearizationReport(tuple(removed), coeffs)


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
    if q.n != g.n:
        raise ValueError(f"order over {g.n} variables does not match QUBO with n={q.n}")
    arr = _as_assignment(q.n, x)
    total = 0.0
    for i, j in g.edges:
        c = _edge_coefficient(q.terms, i, j)
        if c > 0.0:
            total += c * arr[i] * (1.0 - arr[j])
    return total


def undo_linearization(q_lin: QuboMatrix, report: LinearizationReport) -> QuboMatrix:
    """Reconstruct the original matrix from a linearized one and its report."""
    terms = dict(q_lin.terms)
    for i, j, c in report.removed:
        key = (i, j) if i < j else (j, i)
        if key in terms:
            raise ValueError(f"cannot restore ({i}, {j}): cell already occupied")
        terms[key] = c
        d = terms.get((i, i), 0.0) - c
        if d == 0.0:
            terms.pop((i, i), None)
        else:
            terms[(i, i)] = d
    return QuboMatrix(q_lin.n, terms)


def save_report(report: LinearizationReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_dict()) + "\n")
