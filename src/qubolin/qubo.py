"""Sparse upper-triangular QUBO matrices and energy arithmetic.

A problem over ``n`` binary variables is stored as three arrays sorted by
the key ``(i, j)``: the row indices ``rows``, the column indices ``cols``
with ``i <= j``, and the real coefficients ``vals``.  The objective
(energy) of an assignment ``x`` is ``sum(Q[i, j] * x[i] * x[j])`` over
stored terms, so diagonal keys carry the linear part.  All bundled
generators emit integer coefficients, which keeps float64 arithmetic exact.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import LimitError

__all__ = [
    "QuboMatrix",
    "energy",
    "od_count",
    "flip_delta",
    "symmetric_coefficient",
    "load_qubo",
    "save_qubo",
]

# Largest dense coefficient matrix that dense_symmetric allocates (n = 11585),
# and largest O(n) array that any other view allocates.
DENSE_MAX_BYTES = 1 << 30

# Term and edge indices stay below this, so that the pair keys
# ``i * INDEX_LIMIT + j`` fit in int64.
INDEX_LIMIT = 1 << 31

_FLOAT_MAX = sys.float_info.max


def _check_bytes(what: str, n: int, size: int) -> None:
    """Raise :class:`LimitError` if an array of ``size`` bytes is over ``DENSE_MAX_BYTES``."""
    if size > DENSE_MAX_BYTES:
        raise LimitError(f"{what} of n={n} needs {size} bytes, over the limit of {DENSE_MAX_BYTES}")


def _pair_keys(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Keys ``i * INDEX_LIMIT + j``, ordered like the pairs ``(i, j)``."""
    return i * INDEX_LIMIT + j


def _column(col, dtype) -> np.ndarray:
    if isinstance(col, np.ndarray):
        return col.astype(dtype, copy=False)
    return np.fromiter(col, dtype, len(col))


def _index_column(col) -> np.ndarray:
    try:
        return _column(col, np.int64)
    except OverflowError:
        # an index beyond int64 is out of range or over the limit; clipped, it stays so
        return np.array([min(max(v, -1), INDEX_LIMIT) for v in col], dtype=np.int64)


def _canonical(n: int, i, j, v, strict: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted ``(rows, cols, vals)`` of the entries ``(i[t], j[t], v[t])``.

    Lower-triangular entries fold into their upper mirror by addition, and
    entries that fold to exactly zero are dropped.  The same literal key
    given twice is rejected.  With ``strict`` the entries must already be
    canonical: a lower-triangular key or a zero is rejected too.  A failure
    names the first offending entry.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"variable count must be a nonnegative integer, got {n!r}")
    rows, cols = _index_column(i), _index_column(j)
    vals = _column(v, np.float64)
    span = min(n, INDEX_LIMIT)
    outside = (rows < 0) | (cols < 0) | (rows >= span) | (cols >= span)
    lit = _pair_keys(np.where(outside, 0, rows), np.where(outside, 0, cols))
    order = np.argsort(lit, kind="stable")
    repeat = np.zeros(lit.size, dtype=bool)
    repeat[order[1:]] = lit[order[1:]] == lit[order[:-1]]
    bad = outside | repeat | ~np.isfinite(vals)
    if strict:
        bad |= (rows > cols) | (vals == 0.0)
    if bad.any():
        t = int(np.argmax(bad))
        a, b, c = i[t], j[t], v[t]
        if strict and not (0 <= a <= b < n):
            raise ValueError(f"term key ({a}, {b}) outside canonical upper triangle for n={n}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"index pair ({a}, {b}) out of range for n={n}")
        if outside[t]:
            raise LimitError(f"index pair ({a}, {b}) reaches the index limit of {INDEX_LIMIT}")
        if repeat[t]:
            raise ValueError(f"duplicate entry for key ({a}, {b})")
        if not np.isfinite(vals[t]):
            raise ValueError(f"coefficient at ({a}, {b}) is not finite: {float(c)!r}")
        raise ValueError(f"explicit zero stored at ({a}, {b}); zeros must be dropped")
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    key = _pair_keys(lo, hi)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if key.size:
        # a key holds at most one entry and its mirror; their sum commutes
        vals = np.add.reduceat(vals[order], first)
    keep = vals != 0.0
    return lo[order][first][keep], hi[order][first][keep], vals[keep]


class QuboMatrix:
    """Immutable QUBO matrix in canonical upper-triangular form.

    ``rows``, ``cols`` (int64) and ``vals`` (float64) are read-only arrays
    sorted by ``(i, j)``.  Invariants: every key satisfies
    ``0 <= i <= j < n`` and ``i, j < INDEX_LIMIT``, appears once, and holds
    a finite nonzero coefficient.  ``QuboMatrix(n, terms)`` takes a mapping
    of such keys to coefficients.  Instances are safe to share across
    threads; all operations on them are pure.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(self, n: int, terms: Mapping[tuple[int, int], float] | None = None):
        keys = list(terms or ())
        arrays = _canonical(
            n, [k[0] for k in keys], [k[1] for k in keys], [terms[k] for k in keys], strict=True
        )
        self._set(n, *arrays)

    def _set(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n", n)

    @classmethod
    def _of(cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "QuboMatrix":
        """Wrap arrays that already satisfy the invariants, without checks."""
        q = object.__new__(cls)
        q._set(n, rows, cols, vals)
        return q

    @staticmethod
    def from_arrays(n: int, rows, cols, vals) -> "QuboMatrix":
        """Build a matrix from parallel arrays of raw ``(i, j, value)`` entries,
        under the rules of :meth:`from_entries`."""
        return QuboMatrix._of(n, *_canonical(n, rows, cols, vals))

    @staticmethod
    def from_entries(n: int, entries: Iterable[tuple[int, int, float]]) -> "QuboMatrix":
        """Build a matrix from raw ``(i, j, value)`` entries.

        Lower-triangular entries fold into their upper mirror by addition.
        The same literal key appearing twice is rejected rather than summed
        (it almost always indicates a generator bug), and entries that fold
        to exactly zero are dropped.
        """
        columns = tuple(zip(*entries)) or ((), (), ())
        return QuboMatrix.from_arrays(n, *columns)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuboMatrix is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, QuboMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )

    def __hash__(self):
        return hash((self.n, self.rows.tobytes(), self.cols.tobytes(), self.vals.tobytes()))

    def __repr__(self):
        return f"QuboMatrix(n={self.n}, terms={dict(self.terms)!r})"

    # ------------------------------------------------------------------
    # derived views (instances are immutable, so caching is safe)

    @cached_property
    def terms(self) -> Mapping[tuple[int, int], float]:
        """Read-only ``{(i, j): value}`` mapping in sorted key order, built on first use."""
        keys = zip(self.rows.tolist(), self.cols.tolist())
        return MappingProxyType(dict(zip(keys, self.vals.tolist())))

    @cached_property
    def _diag(self) -> np.ndarray:
        _check_bytes("diagonal", self.n, 8 * self.n)
        d = np.zeros(self.n, dtype=np.float64)
        on = self.rows == self.cols
        d[self.rows[on]] = self.vals[on]
        return d

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)``: the neighbours ``j`` of ``i``, ascending,
        and their couplings ``a_ij`` at ``indptr[i]:indptr[i + 1]``."""
        n = self.n
        _check_bytes("row pointers", n, 8 * (n + 1))
        off = self.rows != self.cols
        i, j = self.rows[off], self.cols[off]
        # pair keys of both orientations of each coupling, all distinct
        key = np.concatenate([_pair_keys(i, j), _pair_keys(j, i)])
        perm = np.argsort(key)
        key = key[perm]
        data = np.concatenate([self.vals[off], self.vals[off]])[perm]
        return np.searchsorted(key, _pair_keys(np.arange(n + 1), 0)), key % INDEX_LIMIT, data

    def dense_symmetric(self) -> np.ndarray:
        """Dense symmetric coefficient matrix: ``a_ij`` off-diagonal, ``Q_ii`` on it.

        Raises :class:`LimitError` before allocating more than ``DENSE_MAX_BYTES``.
        """
        _check_bytes("dense matrix", self.n, self.n * self.n * np.dtype(np.float64).itemsize)
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    @cached_property
    def _keys(self) -> np.ndarray:
        """Ascending pair keys of the stored terms."""
        return _pair_keys(self.rows, self.cols)

    def _find_pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Position in the arrays of the key of each unordered pair
        ``{i[t], j[t]}``, or -1 where nothing is stored."""
        keys = self._keys
        want = _pair_keys(np.minimum(i, j), np.maximum(i, j))
        pos = np.searchsorted(keys, want)
        found = pos < keys.size
        found[found] = keys[pos[found]] == want[found]
        return np.where(found, pos, -1)

    # ------------------------------------------------------------------
    # serialization

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
        # column-wise type tests; on a failure, name the first faulty term
        i = j = v = []
        ok = set(map(type, raw)) <= {list} and set(map(len, raw)) <= {3}
        if ok and raw:
            i, j, v = (list(map(itemgetter(k), raw)) for k in range(3))
            value_types = set(map(type, v))
            ok = (
                set(map(type, chain(i, j))) == {int}
                and value_types <= {int, float}
                and (int not in value_types or all(abs(c) <= _FLOAT_MAX for c in v if type(c) is int))
            )
        if not ok:
            for item in raw:
                if type(item) is not list or len(item) != 3:
                    raise ValueError(f"term entry must be [i, j, value], got {item!r}")
                a, b, c = item
                if type(a) is not int or type(b) is not int:
                    raise ValueError(f"term {item!r}: indices must be integers")
                if type(c) is not float and (type(c) is not int or abs(c) > _FLOAT_MAX):
                    raise ValueError(f"term {item!r}: coefficient must be a finite number")
        return QuboMatrix.from_arrays(n, i, j, v)


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
    if q.vals.size == 0:
        return 0.0
    return float(q.vals @ (arr[q.rows] * arr[q.cols]))


def od_count(q: QuboMatrix) -> int:
    """Number of stored off-diagonal terms (the quadratic density)."""
    return int(np.count_nonzero(q.rows != q.cols))


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
    if max(i, j) >= INDEX_LIMIT:
        return 0.0
    t = int(q._find_pairs(np.array([i]), np.array([j]))[0])
    return float(q.vals[t]) if t >= 0 else 0.0


def _json_rows(*columns: np.ndarray) -> str:
    """The text ``json.dumps`` writes for the rows ``[[c0[t], c1[t], ...], ...]``
    of equal-length 1-D arrays.

    Each distinct value of a column is formatted once, by ``json.dumps`` on
    the list of distinct values, and the rows are joined once.  Floats are
    told apart by bit pattern, so ``-0.0`` keeps its sign.
    """
    m = columns[0].size
    if not m:
        return "[]"
    cells = np.empty((m, len(columns)), dtype=object)
    for k, col in enumerate(columns):
        bits = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
        distinct, inverse = np.unique(bits, return_inverse=True)
        sep = "], [" if k == len(columns) - 1 else ", "
        text = json.dumps(distinct.view(col.dtype).tolist())[1:-1].split(", ")
        cells[:, k] = np.array([t + sep for t in text], dtype=object)[inverse]
    cells[-1, -1] = cells[-1, -1][: -len("], [")]
    return "[[" + "".join(cells.ravel().tolist()) + "]]"


def _save_rows(path: str | Path, head: dict, key: str, *columns: np.ndarray) -> None:
    """Write the text ``json.dumps({**head, key: rows}) + "\\n"``, with the rows
    of :func:`_json_rows`; ``head`` is not empty."""
    Path(path).write_text(f"{json.dumps(head)[:-1]}, {json.dumps(key)}: {_json_rows(*columns)}}}\n")


def save_qubo(q: QuboMatrix, path: str | Path) -> None:
    _save_rows(path, {"n": q.n}, "terms", q.rows, q.cols, q.vals)


def load_qubo(path: str | Path) -> QuboMatrix:
    return QuboMatrix.from_json_dict(json.loads(Path(path).read_text()))
