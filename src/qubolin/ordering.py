"""Extraction and verification of optimum-preserving precedence orders.

An order is a DAG whose directed edge ``(i, j)`` asserts that restricting
the search to assignments with ``x_i = 1 => x_j = 1`` cannot change the
minimum of the objective.  Edges are admitted through a conservative
pairwise score: ``score_pair(q, i, j) <= 0`` certifies that exchanging a
selected ``i`` for an unselected ``j`` never increases the energy, whatever
the other bits are.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import LimitError
from .qubo import INDEX_LIMIT, QuboMatrix, _as_assignment, _check_bytes, _pair_keys, _save_rows, _table

__all__ = [
    "OrderDag",
    "score_pair",
    "extract_order_dense",
    "extract_order_sparse",
    "verify_order",
    "find_order_violation",
    "topological_order",
    "in_ordered_subspace",
    "load_order",
    "save_order",
]

# k-loop block widths for the vectorized score accumulation: a small first
# block lets instances with mostly positive scores prune almost immediately,
# doubling keeps the call count logarithmic for rows that survive, and small
# remainders are finished in one go.  Block sizes never change the edge set,
# only the pruning granularity.  The lower bound of sparse extraction reads
# the same first block of columns.
_FIRST_CHUNK = 32
_MAX_CHUNK = 512
_TAIL_BUDGET = 32768

# Element budget of one block of the pair scorer (pairs x n values); 2**20
# verifies dense n = 150 orders a little faster but with 13 MiB more memory.
_SCORE_BLOCK = 1 << 16

_EDGE_ENTRY = "edge entry must be a pair of integers (i, j), got {!r}"
_EDGES = ("edge", _EDGE_ENTRY, _EDGE_ENTRY, None)


@dataclass(frozen=True, eq=False)
class OrderDag:
    """Directed precedence graph over ``n`` variables.

    Edge ``(i, j)`` means "x_i = 1 implies x_j = 1"; ``edges`` is a read-only
    ``(m, 2)`` int64 array, built from pairs of Python ints or an integer
    ``(m, 2)`` array.  Construction rejects other entries and shapes, a
    variable count not an ``int >= 0``, self-loops, out-of-range indices,
    duplicates and two-cycles; acyclicity beyond that is checked by
    :func:`verify_order`, not here, so orders read from untrusted files stay
    representable.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        arr = np.stack(_table(_EDGES, self.edges, n=self.n), axis=1)
        bad = np.flatnonzero(arr[:, 0] == arr[:, 1])
        if bad.size:
            raise ValueError(f"self-loop edge {tuple(arr[bad[0]].tolist())}")
        bad = np.flatnonzero(((arr < 0) | (arr >= self.n)).any(axis=1))
        if bad.size:
            raise ValueError(f"edge {tuple(arr[bad[0]].tolist())} out of range for n={self.n}")
        bad = np.flatnonzero((arr >= INDEX_LIMIT).any(axis=1))
        if bad.size:
            raise LimitError(f"edge {tuple(arr[bad[0]].tolist())} reaches the index limit of {INDEX_LIMIT}")
        arr = arr.astype(np.int64, copy=False)
        src, dst = arr[:, 0], arr[:, 1]
        ids = _pair_keys(src, dst)
        srt = np.argsort(ids, kind="stable")
        bad = srt[1:][ids[srt[1:]] == ids[srt[:-1]]]
        if bad.size:
            raise ValueError(f"duplicate edge {tuple(arr[bad.min()].tolist())}")
        bad = _reversed_pairs(src, dst)
        if bad.size:
            raise ValueError(f"edge {tuple(arr[bad.min()].tolist())} present together with its reverse")
        arr.flags.writeable = False
        object.__setattr__(self, "edges", arr)

    def __len__(self) -> int:
        return len(self.edges)


def _reversed_pairs(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Positions t of the distinct pairs ``(src[t], dst[t])`` whose reverse
    ``(dst[t], src[t])`` is among them too."""
    # np.isin would import numpy.ma (about 2 MiB) through a plain np.unique
    return np.intersect1d(_pair_keys(src, dst), _pair_keys(dst, src), assume_unique=True, return_indices=True)[1]


def _scan_order(n: int, src: np.ndarray, dst: np.ndarray) -> OrderDag:
    """The order of the admitted pairs ``(src[t], dst[t])``, given row-major,
    after the scan's reverse-edge rule: ``(i, j)`` with ``j < i`` goes when
    ``(j, i)`` is admitted too.  No score depends on another edge, so the
    rule can follow the scoring."""
    rev = _reversed_pairs(src, dst)
    keep = np.ones(src.size, dtype=bool)
    keep[rev[dst[rev] < src[rev]]] = False
    return OrderDag(n, np.stack([src[keep], dst[keep]], axis=1))


def _coupling_rows(q: QuboMatrix, nodes: np.ndarray) -> np.ndarray:
    """Dense coupling rows of ``nodes``: ``a_vk`` at k != v, zero at k = v."""
    n = q.n
    indptr, indices, data = q._csr
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    rows = np.zeros((nodes.size, n))
    rows.reshape(-1)[np.repeat(np.arange(0, nodes.size * n, n), lens) + indices[pos]] = data[pos]
    return rows


def _node_groups(q: QuboMatrix, nodes: np.ndarray, pairs: np.ndarray, step: int):
    """Split ``pairs`` by their variable ``nodes[pairs]`` into groups of at
    most ``step`` variables, in ascending order of the variable.

    Yields ``(group, rows, loc)``: the group's pairs, the dense coupling rows
    of its variables and the row of each pair in ``rows``.
    """
    distinct, rank = np.unique(nodes[pairs], return_inverse=True)
    order = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank[order] // step, np.arange((distinct.size + step - 1) // step + 1))
    for g, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        group = order[lo:hi]
        yield pairs[group], _coupling_rows(q, distinct[g * step : (g + 1) * step]), rank[group] - g * step


def _pair_scores(q: QuboMatrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Exact admission scores of the directed pairs ``(src[t], dst[t])``.

    With ``step = _SCORE_BLOCK // n``, pairs are grouped into cells of at
    most ``step`` sources times ``step`` targets, whose dense coupling rows
    are built once per cell; a row is thus built about n / step + 1 times
    rather than once per pair.  A cell is scored in blocks of ``step``
    pairs: each takes the differences ``a_jk - a_ik`` per pair, clears the
    excluded positions k = i and k = j and sums the positive part.  Time is
    O(len(src) * n); memory stays within a few ``_SCORE_BLOCK`` budgets.
    """
    n = q.n
    scores = q._diag[dst] - q._diag[src]
    step = max(1, _SCORE_BLOCK // max(n, 1))
    src_loc = np.empty(src.size, dtype=np.intp)
    for by_src, src_rows, loc in _node_groups(q, src, np.arange(src.size), step):
        src_loc[by_src] = loc
        for cell, dst_rows, dst_loc in _node_groups(q, dst, by_src, step):
            for lo in range(0, cell.size, step):
                block = cell[lo : lo + step]
                diff = dst_rows[dst_loc[lo : lo + step]] - src_rows[src_loc[block]]
                t = np.arange(block.size)
                diff[t, src[block]] = diff[t, dst[block]] = 0.0
                scores[block] += np.maximum(diff, 0.0, out=diff).sum(axis=1)
    return scores


def _first_columns_slab(q: QuboMatrix) -> np.ndarray:
    """Dense couplings ``a_vk`` of every variable v at the columns
    k < ``_FIRST_CHUNK``, plus one zero column for the clears of
    :func:`_first_columns_bound`."""
    n = q.n
    w = min(_FIRST_CHUNK, n)
    indptr, indices, data = q._csr
    head = np.flatnonzero(indices < w)
    slab = np.zeros((n, w + 1))
    slab[np.searchsorted(indptr, head, side="right") - 1, indices[head]] = data[head]
    return slab


def _first_columns_bound(q: QuboMatrix, slab: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Lower bound of :func:`_pair_scores`: the score sum over the columns
    of ``slab`` alone.

    Each column left out would only add a nonnegative term, so a bound
    above zero already rejects the pair.
    """
    w = slab.shape[1] - 1
    diff = slab[dst]
    diff -= slab[src]
    t = np.arange(src.size)
    # excluded positions k = i and k = j at or beyond w clear the zero column
    diff[t, np.minimum(src, w)] = diff[t, np.minimum(dst, w)] = 0.0
    return q._diag[dst] - q._diag[src] + np.maximum(diff, 0.0, out=diff).sum(axis=1)


def score_pair(q: QuboMatrix, i: int, j: int) -> float:
    """Admission score of directed pair ``(i, j)``.

    ``sum(max(0, a_jk - a_ik) for k != i, j) + a_jj - a_ii``; a value <= 0
    certifies the edge.  Runs in O(n).
    """
    if not (0 <= i < q.n and 0 <= j < q.n):
        raise ValueError(f"pair ({i}, {j}) out of range for n={q.n}")
    if i == j:
        raise ValueError("score is undefined for a pair of equal indices")
    return float(_pair_scores(q, np.array([i]), np.array([j]))[0])


def _admitted_rows(q: QuboMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """Row-by-row engine behind dense extraction.

    Yields ``(i, admitted)`` where ``admitted`` holds the ascending targets j
    of all pairs ``(i, j)`` that pass the guard ``Q_jj <= Q_ii`` and score
    <= 0.  Rows are mutually independent, which makes the inner work
    vectorizable over j; the reverse-edge rule is left to :func:`_scan_order`.

    Scores accumulate over k in blocks.  Each block adds a nonnegative
    amount, and the two excluded positions k = i and k = j are discounted up
    front, so a running score above zero is already conclusive and dropping
    the pair keeps the exact edge set of the full sum.
    """
    n = q.n
    if n <= 1:
        return
    a = q.dense_symmetric()
    diag = a.diagonal().copy()
    for i in range(n):
        mask = diag <= diag[i]
        mask[i] = False
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            continue
        row_i = a[i]
        # the excluded positions k = i and k = j of the score sum; by symmetry
        # a[:, i] equals row_i, so both discounts are contiguous vector ops
        corr = np.maximum(row_i - diag[i], 0.0) + np.maximum(diag - row_i, 0.0)
        hi = min(_FIRST_CHUNK, n)
        head = np.maximum(a[:, :hi] - row_i[:hi], 0.0).sum(axis=1)
        score = diag[cand] - diag[i] - corr[cand] + head[cand]
        alive = cand
        keep = score <= 0.0
        if not keep.all():
            alive = alive[keep]
            score = score[keep]
        lo = hi
        width = 2 * _FIRST_CHUNK
        while lo < n and alive.size:
            if alive.size * (n - lo) <= _TAIL_BUDGET:
                hi = n
            else:
                hi = min(lo + width, n)
            block = a[:, lo:hi].take(alive, axis=0)
            score = score + np.maximum(block - row_i[lo:hi], 0.0).sum(axis=1)
            keep = score <= 0.0
            if not keep.all():
                alive = alive[keep]
                score = score[keep]
            lo = hi
            width = min(width * 2, _MAX_CHUNK)
        if alive.size:
            yield i, alive


def extract_order_dense(q: QuboMatrix) -> OrderDag:
    """Extract a certified order by scanning all directed pairs.

    The scan is row-major (i outer, j inner): each pair is guarded by
    ``Q_jj <= Q_ii``, skipped when the reverse edge was already admitted,
    and scored with an early break once the score turns positive.  For
    mutually symmetric variables this yields the deterministic total order
    with edges pointing from lower to higher index.
    """
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i, admitted in _admitted_rows(q):
        src.append(np.full(admitted.size, i))
        dst.append(admitted)
    return _scan_order(q.n, np.concatenate(src), np.concatenate(dst))


def extract_order_sparse(q: QuboMatrix) -> OrderDag:
    """Extract a certified order examining only coupled pairs.

    Every directed pair ``(i, j)`` joined by a quadratic term that passes
    the guard ``Q_jj <= Q_ii`` gets the first-columns lower bound of its
    score, chunk by chunk of the couplings; the pairs it does not reject
    are scored exactly.  The row-major scan's reverse-edge rule then drops
    ``(i, j)`` with ``j < i`` whenever ``(j, i)`` was admitted too, and
    edges come out in row-major order, so the result equals
    :func:`extract_order_dense` restricted to coupled pairs, in the same
    sequence.  Time is O(coupled pairs * _FIRST_CHUNK + surviving pairs *
    n).  No n x n array is allocated: beyond the surviving pairs, memory
    stays within a few ``_SCORE_BLOCK`` budgets.
    """
    n = q.n
    _check_bytes("first-columns slab", n, 8 * n * (min(_FIRST_CHUNK, n) + 1))
    indptr, indices, _ = q._csr
    slab = _first_columns_slab(q)
    step = max(1, _SCORE_BLOCK // slab.shape[1])
    src, dst = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, indices.size, step):
        s = np.searchsorted(indptr, np.arange(lo, min(lo + step, indices.size)), side="right") - 1
        d = indices[lo : lo + step]
        guard = q._diag[d] <= q._diag[s]
        s, d = s[guard], d[guard]
        alive = _first_columns_bound(q, slab, s, d) <= 0.0
        src.append(s[alive])
        dst.append(d[alive])
    src, dst = np.concatenate(src), np.concatenate(dst)
    admitted = _pair_scores(q, src, dst) <= 0.0
    return _scan_order(n, src[admitted], dst[admitted])


def topological_order(g: OrderDag) -> list[int] | None:
    """A topological sort of the graph, or None if it contains a cycle."""
    # in-degrees, adjacency lists (an empty list takes 56 bytes) and the result
    _check_bytes("topological sort", g.n, 80 * g.n)
    indeg = [0] * g.n
    out: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges.tolist():
        out[i].append(j)
        indeg[j] += 1
    queue = deque(v for v in range(g.n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order if len(order) == g.n else None


def find_order_violation(q: QuboMatrix, g: OrderDag):
    """First reason the order fails certification, or None if it passes.

    Returns ``("cycle", None)`` or ``("score", (i, j, s))``.
    """
    if q.n != g.n:
        raise ValueError(f"order over {g.n} variables does not match QUBO with n={q.n}")
    if topological_order(g) is None:
        return ("cycle", None)
    scores = _pair_scores(q, g.edges[:, 0], g.edges[:, 1])
    bad = np.flatnonzero(scores > 0.0)
    if bad.size:
        i, j = g.edges[bad[0]].tolist()
        return ("score", (i, j, float(scores[bad[0]])))
    return None


def verify_order(q: QuboMatrix, g: OrderDag) -> bool:
    """True iff the graph is acyclic and every edge scores <= 0.

    This is the sufficient certificate; orders that fail it can still be
    optimum-preserving for problem-specific reasons (see the knapsack
    dominance order).
    """
    return find_order_violation(q, g) is None


def in_ordered_subspace(g: OrderDag, x: Sequence[int]) -> bool:
    """True iff the assignment satisfies every edge implication."""
    arr = _as_assignment(g.n, x)
    return bool(np.all((arr[g.edges[:, 0]] == 0.0) | (arr[g.edges[:, 1]] == 1.0)))


def save_order(g: OrderDag, path: str | Path) -> None:
    _save_rows(path, {"n": g.n}, "edges", g.edges[:, 0], g.edges[:, 1])


def load_order(path: str | Path) -> OrderDag:
    data = json.loads(Path(path).read_text())
    try:
        n = data["n"]
        raw = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"order JSON must contain 'n' and 'edges': {exc}") from exc
    # exact type tests: isinstance would take JSON booleans for integers
    if type(n) is not int or n < 0:
        raise ValueError(f"'n' must be a nonnegative integer, got {n!r}")
    if type(raw) is not list:
        raise ValueError(f"'edges' must be a list of [i, j] pairs, got {raw!r}")
    return OrderDag(n, raw)
