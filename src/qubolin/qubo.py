"""Sparse upper-triangular QUBO matrices and energy arithmetic.

A problem over ``n`` binary variables is stored as a map from index pairs
``(i, j)`` with ``i <= j`` to real coefficients.  The objective (energy) of
an assignment ``x`` is ``sum(Q[i, j] * x[i] * x[j])`` over stored terms, so
diagonal keys carry the linear part.  All bundled generators emit integer
coefficients, which keeps float64 arithmetic exact.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "QuboMatrix",
    "energy",
    "od_count",
    "flip_delta",
    "symmetric_coefficient",
    "load_qubo",
    "save_qubo",
]


@dataclass(frozen=True)
class QuboMatrix:
    """Immutable QUBO matrix in canonical upper-triangular form.

    Invariants: every key satisfies ``0 <= i <= j < n``, no stored
    coefficient is zero, and all coefficients are finite.  Instances are
    safe to share across threads; all operations on them are pure.
    """

    n: int
    terms: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"variable count must be a nonnegative integer, got {self.n!r}")
        for (i, j), v in self.terms.items():
            if not (0 <= i <= j < self.n):
                raise ValueError(f"term key ({i}, {j}) outside canonical upper triangle for n={self.n}")
            if not math.isfinite(v):
                raise ValueError(f"coefficient at ({i}, {j}) is not finite: {v!r}")
            if v == 0:
                raise ValueError(f"explicit zero stored at ({i}, {j}); zeros must be dropped")

    @staticmethod
    def from_entries(n: int, entries: Iterable[tuple[int, int, float]]) -> "QuboMatrix":
        """Build a matrix from raw ``(i, j, value)`` entries.

        Lower-triangular entries fold into their upper mirror by addition.
        The same literal key appearing twice is rejected rather than summed
        (it almost always indicates a generator bug), and entries that fold
        to exactly zero are dropped.
        """
        seen: set[tuple[int, int]] = set()
        acc: dict[tuple[int, int], float] = {}
        for i, j, v in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index pair ({i}, {j}) out of range for n={n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry for key ({i}, {j})")
            seen.add((i, j))
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"coefficient at ({i}, {j}) is not finite: {v!r}")
            key = (i, j) if i <= j else (j, i)
            acc[key] = acc.get(key, 0.0) + v
        return QuboMatrix(n, {k: v for k, v in acc.items() if v != 0.0})

    # ------------------------------------------------------------------
    # cached array views (instances are immutable, so caching is safe)

    @cached_property
    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = list(self.terms)
        rows = np.fromiter((k[0] for k in keys), dtype=np.intp, count=len(keys))
        cols = np.fromiter((k[1] for k in keys), dtype=np.intp, count=len(keys))
        vals = np.fromiter((self.terms[k] for k in keys), dtype=np.float64, count=len(keys))
        return rows, cols, vals

    @cached_property
    def _diag(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.float64)
        for (i, j), v in self.terms.items():
            if i == j:
                d[i] = v
        return d

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)``: the neighbours ``j`` of ``i``, ascending,
        and their couplings ``a_ij`` at ``indptr[i]:indptr[i + 1]``."""
        rows, cols, vals = self._coo
        off = rows != cols
        r = np.concatenate([rows[off], cols[off]])
        c = np.concatenate([cols[off], rows[off]])
        v = np.concatenate([vals[off], vals[off]])
        perm = np.lexsort((c, r))
        return np.searchsorted(r[perm], np.arange(self.n + 1)), c[perm], v[perm]

    def dense_symmetric(self) -> np.ndarray:
        """Dense symmetric coefficient matrix: ``a_ij`` off-diagonal, ``Q_ii`` on it."""
        a = np.zeros((self.n, self.n), dtype=np.float64)
        rows, cols, vals = self._coo
        a[rows, cols] = vals
        a[cols, rows] = vals
        return a

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        return {"n": self.n, "terms": [[i, j, v] for (i, j), v in sorted(self.terms.items())]}

    @staticmethod
    def from_json_dict(data: dict) -> "QuboMatrix":
        try:
            n = data["n"]
            raw = data["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"QUBO JSON must contain 'n' and 'terms': {exc}") from exc
        # exact type tests: isinstance would take JSON booleans for integers
        if type(n) is not int:
            raise ValueError(f"'n' must be an integer, got {n!r}")
        if type(raw) is not list:
            raise ValueError(f"'terms' must be a list of [i, j, value] entries, got {raw!r}")
        entries = []
        for item in raw:
            if type(item) is not list or len(item) != 3:
                raise ValueError(f"term entry must be [i, j, value], got {item!r}")
            i, j, v = item
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"term {item!r}: indices must be integers")
            if type(v) is not float and (type(v) is not int or abs(v) > sys.float_info.max):
                raise ValueError(f"term {item!r}: coefficient must be a finite number")
            entries.append((i, j, v))
        return QuboMatrix.from_entries(n, entries)


def _as_assignment(n: int, x: Sequence[int]) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"assignment length {arr.shape} does not match n={n}")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError("assignment entries must be 0 or 1")
    return arr


def energy(q: QuboMatrix, x: Sequence[int]) -> float:
    """Objective value ``sum(Q[i, j] * x[i] * x[j])`` of an assignment."""
    arr = _as_assignment(q.n, x)
    rows, cols, vals = q._coo
    if len(vals) == 0:
        return 0.0
    return float(vals @ (arr[rows] * arr[cols]))


def od_count(q: QuboMatrix) -> int:
    """Number of stored off-diagonal terms (the quadratic density)."""
    return sum(1 for i, j in q.terms if i < j)


def flip_delta(q: QuboMatrix, x: Sequence[int], i: int) -> float:
    """Energy change from flipping bit ``i``, computed in O(degree(i))."""
    arr = _as_assignment(q.n, x)
    if not 0 <= i < q.n:
        raise ValueError(f"bit index {i} out of range for n={q.n}")
    indptr, indices, data = q._csr
    lo, hi = indptr[i], indptr[i + 1]
    fld = q._diag[i] + float(data[lo:hi] @ arr[indices[lo:hi]])
    return (1.0 - 2.0 * arr[i]) * fld


def symmetric_coefficient(q: QuboMatrix, i: int, j: int) -> float:
    """Coefficient ``a_ij`` of ``x_i * x_j`` in the objective (``Q_ii`` if i == j)."""
    if not (0 <= i < q.n and 0 <= j < q.n):
        raise ValueError(f"index pair ({i}, {j}) out of range for n={q.n}")
    if i == j:
        return q.terms.get((i, i), 0.0)
    key = (i, j) if i < j else (j, i)
    return q.terms.get(key, 0.0)


def save_qubo(q: QuboMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(q.to_json_dict()) + "\n")


def load_qubo(path: str | Path) -> QuboMatrix:
    return QuboMatrix.from_json_dict(json.loads(Path(path).read_text()))
