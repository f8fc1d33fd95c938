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

# Bytes that loading a QUBO or order file may take per byte of the file;
# see the measured peaks in the README.
LOAD_FACTOR = 16

_FLOAT_MAX = sys.float_info.max


def _check_bytes(what: str, n: int, size: int) -> None:
    """Raise :class:`LimitError` if an array of ``size`` bytes is over ``DENSE_MAX_BYTES``."""
    if size > DENSE_MAX_BYTES:
        raise LimitError(f"{what} of n={n} needs {size} bytes, over the limit of {DENSE_MAX_BYTES}")


def _pair_keys(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Keys ``i * INDEX_LIMIT + j``, ordered like the pairs ``(i, j)``."""
    return i * INDEX_LIMIT + j


def _pair_runs(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of the pairs ``(i[t], j[t])``, indices in ``[0, INDEX_LIMIT)``,
    and their sorted keys ``2 * _pair_keys(min, max) + (i > j)``.  Equal keys are
    one literal pair; equal ``key >> 1`` one unordered pair, its ``i <= j`` entries first."""
    key = _pair_keys(np.minimum(i, j), np.maximum(i, j)) * 2 + (i > j)
    order = np.argsort(key, kind="stable")
    return order, key[order]


_TERMS = (
    "term",
    "term entry must be [i, j, value], got {!r}",
    "term {!r}: indices must be integers",
    "term {!r}: coefficient must be a finite number",
)


def _table(form: tuple, entries=None, columns=None, n=None) -> list[np.ndarray]:
    """The int64 index columns ``i``, ``j`` and, if the table has values, the
    float64 value column of ``entries`` (rows, or an array of rows) or of
    parallel ``columns`` (arrays or sequences); arrays may come back as given.

    Rows and sequences need exact Python ``int`` indices and ``int`` or
    ``float`` values, arrays an integer dtype for indices and an integer or
    float one for values.  Types are tested column-wise; on a failure, a scan
    names the first faulty entry with ``form``: the table's name and its
    messages for an entry that is not a row, has a non-integer index, or has
    a value that is not a number (None: no values).  ``n``, if given, must be
    an ``int >= 0``.  An index beyond int64 comes back as a Python int in an
    object column, for the range checks to reject and quote.
    """
    name, shape, index, value = form
    if n is not None and (type(n) is not int or n < 0):
        raise ValueError(f"variable count must be a nonnegative integer, got {n!r}")
    width = 2 if value is None else 3
    if columns is None and not isinstance(entries, np.ndarray):
        rows = entries if type(entries) in (list, tuple) else list(entries)
        ok = set(map(type, rows)) <= {tuple, list} and set(map(len, rows)) <= {width}
        columns = [list(map(itemgetter(k), rows)) if ok else () for k in range(width)]
        entry, m = rows.__getitem__, len(rows)
    else:
        if columns is None:
            if entries.ndim != 2 or entries.shape[1] != width:
                raise ValueError(f"{name} array must have shape (m, {width}), got {entries.shape}")
            columns = list(entries.T)
        shapes = [c.shape if isinstance(c, np.ndarray) else (len(c),) for c in columns]
        if len(shapes[0]) != 1 or len(set(shapes)) != 1:
            raise ValueError(f"{name} columns must be 1-D of one length, got shapes {shapes}")
        ok, m = True, shapes[0][0]

        def entry(t):
            return tuple(c[t].item() if isinstance(c[t], np.generic) else c[t] for c in columns)

    for k, col in enumerate(columns):
        if isinstance(col, np.ndarray):
            if col.size and col.dtype.kind not in ("iu" if k < 2 else "iuf"):
                what = "integers" if k < 2 else "numbers"
                raise ValueError(f"{name} array must hold {what}, got dtype {col.dtype} in entry {entry(0)!r}")
        elif ok and k < 2:
            ok = _integral(col)
        elif ok:
            types = set(map(type, col))
            # an int too large for a float fails; an infinite float only costs the scan
            ok = types <= {int, float} and (int not in types or max(map(abs, col)) <= _FLOAT_MAX)
    for t in range(0 if ok else m):
        e = entry(t)
        if type(e) not in (tuple, list) or len(e) != width:
            raise ValueError(shape.format(e))
        if type(e[0]) is not int or type(e[1]) is not int:
            raise ValueError(index.format(e))
        if width == 3 and type(e[2]) is not float and (type(e[2]) is not int or abs(e[2]) > _FLOAT_MAX):
            raise ValueError(value.format(e))
    typed = list(zip(columns, (np.int64, np.int64, np.float64)))
    try:
        return [_typed_column(c, d) for c, d in typed]
    except OverflowError:
        return [np.array(c, dtype=object if d is np.int64 else d) for c, d in typed]


def _integral(col) -> bool:
    """The exact-type rule for integer entries: ``col`` is an array of an
    integer dtype, or a sequence of Python ints and nothing else (no bool,
    float, string or numpy scalar)."""
    if isinstance(col, np.ndarray):
        return not col.size or col.dtype.kind in "iu"
    return set(map(type, col)) <= {int}


def _typed_column(col, dtype) -> np.ndarray:
    """``col`` as a ``dtype`` array; OverflowError for an index beyond int64."""
    if not isinstance(col, np.ndarray):
        return np.fromiter(col, dtype, len(col))
    # astype would wrap a uint64 index of 2**63 or more to a negative one
    if dtype is np.int64 and col.dtype.kind == "u" and col.size and col.max() > np.iinfo(np.int64).max:
        raise OverflowError(f"index {col.max()} beyond int64")
    return col.astype(dtype, copy=False)


def _canonical(n: int, entries=None, columns=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted ``(rows, cols, vals)`` of the QUBO table ``entries`` or
    ``columns``, which :func:`_table` checks.

    Lower-triangular entries fold into their upper mirror by addition, and
    entries that fold to exactly zero are dropped.  The same literal key
    given twice is rejected, and so is a value that is not finite, as given
    or once folded.  A failure names the first offending entry, or the
    folded key.
    """
    rows, cols, vals = _table(_TERMS, entries, columns, n)
    span = min(n, INDEX_LIMIT)
    outside = (rows < 0) | (cols < 0) | (rows >= span) | (cols >= span)
    inside = (np.where(outside, 0, rows), np.where(outside, 0, cols)) if outside.any() else (rows, cols)
    order, key = _pair_runs(*inside)
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:]] = key[1:] == key[:-1]
    bad = outside | repeat | ~np.isfinite(vals)
    if bad.any():
        t = int(np.argmax(bad))
        a, b = int(rows[t]), int(cols[t])
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"index pair ({a}, {b}) out of range for n={n}")
        if outside[t]:
            raise LimitError(f"index pair ({a}, {b}) reaches the index limit of {INDEX_LIMIT}")
        if repeat[t]:
            raise ValueError(f"duplicate entry for key ({a}, {b})")
        raise ValueError(f"coefficient at ({a}, {b}) is not finite: {float(vals[t])!r}")
    key >>= 1
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if key.size:
        # a key holds at most one entry and its mirror; their sum commutes
        with np.errstate(over="ignore"):
            vals = np.add.reduceat(vals[order], first)
    lo, hi = np.divmod(key[first], INDEX_LIMIT)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        t = bad[0]
        raise ValueError(f"coefficient at ({lo[t]}, {hi[t]}) is not finite once folded: {float(vals[t])!r}")
    keep = vals != 0.0
    return lo[keep], hi[keep], vals[keep]


class QuboMatrix:
    """Immutable QUBO matrix in canonical upper-triangular form.

    ``rows``, ``cols`` (int64) and ``vals`` (float64) are read-only arrays
    sorted by ``(i, j)``.  Invariants: every key satisfies
    ``0 <= i <= j < n`` and ``i, j < INDEX_LIMIT``, appears once, and holds
    a finite nonzero coefficient.  Build one with :meth:`from_entries` or
    :meth:`from_arrays`.  Instances are safe to share across threads; all
    operations on them are pure.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def _of(cls, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "QuboMatrix":
        """Wrap arrays that already satisfy the invariants, without checks."""
        q = object.__new__(cls)
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.flags.writeable = False
            object.__setattr__(q, name, arr)
        object.__setattr__(q, "n", n)
        return q

    @staticmethod
    def from_arrays(n: int, rows, cols, vals) -> "QuboMatrix":
        """Build a matrix from parallel arrays or sequences of raw
        ``(i, j, value)`` entries, under the rules of :meth:`from_entries`."""
        return QuboMatrix._of(n, *_canonical(n, columns=(rows, cols, vals)))

    @staticmethod
    def from_entries(n: int, entries: Iterable[tuple[int, int, float]]) -> "QuboMatrix":
        """Build a matrix from raw ``(i, j, value)`` entries.

        Lower-triangular entries fold into their upper mirror by addition.
        The same literal key appearing twice is rejected rather than summed
        (it almost always indicates a generator bug), and entries that fold
        to exactly zero are dropped.  Entries of other types are rejected.
        """
        return QuboMatrix._of(n, *_canonical(n, entries))

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
        return f"QuboMatrix(n={self.n}, rows={self.rows!r}, cols={self.cols!r}, vals={self.vals!r})"

    # ------------------------------------------------------------------
    # derived views (instances are immutable, so caching is safe)

    @cached_property
    def terms(self) -> Mapping[tuple[int, int], float]:
        """Read-only ``{(i, j): value}`` mapping in sorted key order, built on first use."""
        # no command reads this; it stays while the benchmark's tracer counts
        # load_qubo work as len(res.terms)
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


def _load_rows(path: str | Path, key: str, width: int) -> tuple[object, list | None, list[np.ndarray] | None]:
    """``(n, rows, None)`` or ``(n, None, columns)`` of a file in the layout
    of :func:`_save_rows`: a JSON object with ``n`` and a list of rows of
    ``width`` entries under ``key``, the first two of them indices.

    A file that is exactly what :func:`_save_rows` writes is read as int64
    index and float64 value columns (``_rows.parse_rows``); any other file
    goes through ``json.loads``.  Both give the caller's table check
    (:func:`_table`) the same numbers, which checks ``n`` and the rows.
    Raises :class:`LimitError` before reading a file of more than
    ``DENSE_MAX_BYTES / LOAD_FACTOR`` bytes.
    """
    size = Path(path).stat().st_size
    if LOAD_FACTOR * size > DENSE_MAX_BYTES:
        raise LimitError(
            f"loading {path} of {size} bytes needs {LOAD_FACTOR * size} bytes, over the limit of {DENSE_MAX_BYTES}"
        )
    # imported on first use: where no bytecode cache is written, every
    # `import qubolin` would compile the reader, also for commands that read no file
    from ._rows import parse_rows

    parsed = parse_rows(Path(path).read_bytes(), key, width)
    if parsed is not None:
        return parsed[0], None, parsed[1]
    data = json.loads(Path(path).read_text())
    try:
        n, rows = data["n"], data[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"JSON must be an object with 'n' and {key!r}: {exc}") from exc
    # exact type test: a JSON object or string under the key is not a list of rows
    if type(rows) is not list:
        raise ValueError(f"{key!r} must be a list of rows, got {rows!r}")
    return n, rows, None


def save_qubo(q: QuboMatrix, path: str | Path) -> None:
    _save_rows(path, {"n": q.n}, "terms", q.rows, q.cols, q.vals)


def load_qubo(path: str | Path) -> QuboMatrix:
    n, rows, columns = _load_rows(path, "terms", 3)
    return QuboMatrix._of(n, *_canonical(n, rows, columns))
