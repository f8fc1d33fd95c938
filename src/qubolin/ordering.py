"""Extraction and verification of optimum-preserving precedence orders.

An order is a DAG whose directed edge ``(i, j)`` asserts that restricting
the search to assignments with ``x_i = 1 => x_j = 1`` cannot change the
minimum of the objective.  Edges are admitted through a conservative
pairwise score: ``score_pair(q, i, j) <= 0`` certifies that exchanging a
selected ``i`` for an unselected ``j`` never increases the energy, whatever
the other bits are.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import LimitError
from .qubo import INDEX_LIMIT, QuboMatrix, _as_assignment, _check_bytes, _load_rows, _pair_runs, _save_rows, _table

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

# A pair (i, j) with deg(i) + deg(j) below this share of n is light: it is
# scored over its neighbours alone, and any other pair over dense coupling
# rows.  Per pair, the first kernel costs about as much as the second where
# deg(i) + deg(j) is 0.15-0.2 n (random inputs, n = 200-3000).
_LIGHT_SHARE = 0.15

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
        order, key = _pair_runs(arr[:, 0], arr[:, 1])
        bad = order[1:][key[1:] == key[:-1]]
        if bad.size:
            raise ValueError(f"duplicate edge {tuple(arr[bad.min()].tolist())}")
        key >>= 1
        bad = np.minimum(order[1:], order[:-1])[key[1:] == key[:-1]]
        if bad.size:
            raise ValueError(f"edge {tuple(arr[bad.min()].tolist())} present together with its reverse")
        arr.flags.writeable = False
        object.__setattr__(self, "edges", arr)

    def __len__(self) -> int:
        return len(self.edges)


def _scan_order(n: int, src: np.ndarray, dst: np.ndarray) -> OrderDag:
    """The order of the admitted pairs ``(src[t], dst[t])``, given row-major,
    after the scan's reverse-edge rule: ``(i, j)`` with ``j < i`` goes when
    ``(j, i)`` is admitted too.  No score depends on another edge, so the
    rule can follow the scoring."""
    order, key = _pair_runs(src, dst)
    # the pairs are distinct: a run of two is (i, j) with i < j, then its reverse
    drop = order[1:][(key[1:] >> 1) == (key[:-1] >> 1)]
    del order, key  # before OrderDag copies the edges
    return OrderDag(n, np.delete(np.stack([src, dst], axis=1), drop, axis=0))


def _degrees(q: QuboMatrix, nodes: np.ndarray) -> np.ndarray:
    """Number of couplings of each variable in ``nodes``."""
    indptr = q._csr[0]
    return indptr[nodes + 1] - indptr[nodes]


def _neighbours(q: QuboMatrix, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(t, k, a)``: every neighbour ``k[e]`` of ``nodes[t[e]]`` with its
    coupling ``a[e]``, by ascending t and then k."""
    indptr, indices, data = q._csr
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    pos = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return np.repeat(np.arange(nodes.size), lens), indices[pos], data[pos]


def _coupling_rows(q: QuboMatrix, nodes: np.ndarray) -> np.ndarray:
    """Dense coupling rows of ``nodes``: ``a_vk`` at k != v, zero at k = v."""
    n = q.n
    t, k, a = _neighbours(q, nodes)
    rows = np.zeros((nodes.size, n))
    rows.reshape(-1)[t * n + k] = a
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


def _is_light(q: QuboMatrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Which pairs ``(src[t], dst[t])`` :func:`_pair_scores` scores over their neighbours alone."""
    return _degrees(q, src) + _degrees(q, dst) < _LIGHT_SHARE * q.n


def _pair_scores(q: QuboMatrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Exact admission scores of the directed pairs ``(src[t], dst[t])``:
    light pairs (:func:`_is_light`) by :func:`_support_scores`, the others by
    :func:`_row_scores`.

    On integer coefficients both kernels give bit-identical scores; on
    others the two sum in different orders, so a score can differ in its
    last bits.
    """
    light = _is_light(q, src, dst)
    scores = np.empty(src.size)
    for kernel, part in ((_support_scores, light), (_row_scores, ~light)):
        if part.any():
            scores[part] = kernel(q, src[part], dst[part])
    return scores


def _support_scores(q: QuboMatrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Scores of the pairs ``(src[t], dst[t])`` over their neighbours alone.

    Only the columns k in N(i) or N(j) add to the score of (i, j): the term
    is ``max(0, a_jk - a_ik)`` at k in N(j) and ``max(0, -a_ik)`` at k in
    N(i) but not in N(j), with k = i and k = j left out.  The entries of
    N(j) and N(i) are merged by the key ``t * n + k``, a column in both
    folds to ``a_jk - a_ik``, and ``np.bincount`` sums the positive parts
    per pair.  A neighbour entry holds about four times the memory of a
    dense value, so pairs go in chunks of about ``_SCORE_BLOCK // 4``
    entries.  Time is O((deg(i) + deg(j)) * log(deg(i) + deg(j))) per pair.
    """
    n = q.n
    scores = q._diag[dst] - q._diag[src]
    work = _degrees(q, src) + _degrees(q, dst)
    chunk = (np.cumsum(work) - work) // (_SCORE_BLOCK // 4)
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), src.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        i, j = src[lo:hi], dst[lo:hi]
        t, k_j, a_jk = _neighbours(q, j)
        u, k_i, a_ik = _neighbours(q, i)
        # column i sits in N(j) only and column j in N(i) only
        a_jk[k_j == i[t]] = 0.0
        a_ik[k_i == j[u]] = 0.0
        t, a = np.concatenate([t, u]), np.concatenate([a_jk, -a_ik])
        key = t * n + np.concatenate([k_j, k_i])
        # both halves ascend, so the stable sort merges two runs; a column in
        # both comes twice in a row, a_jk first, and folds to a_jk + (-a_ik)
        order = np.argsort(key, kind="stable")
        key, t, a = key[order], t[order], a[order]
        twice = np.flatnonzero(key[1:] == key[:-1])
        a[twice] += a[twice + 1]
        a[twice + 1] = 0.0
        scores[lo:hi] += np.bincount(t, np.maximum(a, 0.0, out=a), minlength=hi - lo)
    return scores


def _row_scores(q: QuboMatrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Scores of the pairs ``(src[t], dst[t])`` over dense coupling rows.

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
    _check_bytes("first-columns slab", n, 8 * n * (w + 1))
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
    the guard ``Q_jj <= Q_ii`` is scored exactly.  Light pairs (see
    :func:`_pair_scores`) go straight to the exact score; a heavy pair first
    gets the first-columns lower bound, chunk by chunk, and only the pairs
    it does not reject are scored.  The row-major scan's reverse-edge rule
    then drops ``(i, j)`` with ``j < i`` whenever ``(j, i)`` was admitted
    too, and edges come out in row-major order, so the result equals
    :func:`extract_order_dense` restricted to coupled pairs, in the same
    sequence.  Time is O(couplings * degree) on sparse input, and
    O(heavy pairs * _FIRST_CHUNK + surviving heavy pairs * n) for the rest.
    No n x n array is allocated: beyond the coupled pairs, memory stays
    within a few ``_SCORE_BLOCK`` budgets.
    """
    n = q.n
    indptr, dst, _ = q._csr
    src = np.repeat(np.arange(n), np.diff(indptr))
    guard = q._diag[dst] <= q._diag[src]
    src, dst = src[guard], dst[guard]
    heavy = np.flatnonzero(~_is_light(q, src, dst))
    if heavy.size:
        slab = _first_columns_slab(q)
        step = max(1, _SCORE_BLOCK // slab.shape[1])
        alive = np.ones(src.size, dtype=bool)
        for lo in range(0, heavy.size, step):
            t = heavy[lo : lo + step]
            alive[t] = _first_columns_bound(q, slab, src[t], dst[t]) <= 0.0
        src, dst = src[alive], dst[alive]
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
    n, rows, columns = _load_rows(path, "edges", 2)
    return OrderDag(n, rows if columns is None else np.stack(columns, axis=1))
