"""Shared fixtures and independent test oracles.

The oracles here deliberately re-derive results by the dumbest possible
means (full enumeration, literal triple loops) so they stay independent of
the production code paths they are used to check.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qubolin import QuboMatrix


@pytest.fixture
def overflow_q() -> QuboMatrix:
    """Four variables with coefficients of +-1e308, whose score sums overflow.

    Edge (0, 1) scores -inf + inf = NaN in float64, while its exact score is
    -2e308 + 2e308 + 1e308 = 1e308 > 0.  The coupled pairs admit the edges
    (0, 2) and (3, 1).
    """
    return QuboMatrix.from_entries(
        4, [(0, 0, 1e308), (1, 1, -1e308), (1, 2, 1e308), (0, 2, -1e308), (1, 3, 1e308)]
    )


@pytest.fixture
def example_q() -> QuboMatrix:
    """Three-variable worked example used across the suite.

    Diagonal (-3, -5, -8), couplings 2, 7, 7; it has two single-flip local
    minima and admits exactly the precedence edges (0, 1) and (0, 2).
    """
    return QuboMatrix.from_entries(
        3, [(0, 0, -3), (0, 1, 2), (0, 2, 7), (1, 1, -5), (1, 2, 7), (2, 2, -8)]
    )


@pytest.fixture
def example_q_linearized() -> QuboMatrix:
    """The example above after rewriting both admitted edges."""
    return QuboMatrix.from_entries(3, [(0, 0, 6), (1, 1, -5), (1, 2, 7), (2, 2, -8)])


def exhaustive_energy(q: QuboMatrix, bits) -> float:
    """Term-by-term energy evaluation, no numpy."""
    return float(sum(v * bits[i] * bits[j] for (i, j), v in q.terms.items()))


def exhaustive_minimum(q: QuboMatrix):
    """(min energy, list of argmins) by plain enumeration; small n only."""
    best = None
    argmins = []
    for bits in itertools.product((0, 1), repeat=q.n):
        e = exhaustive_energy(q, bits)
        if best is None or e < best:
            best, argmins = e, [bits]
        elif e == best:
            argmins.append(bits)
    return best, argmins


def reference_extraction(q: QuboMatrix, prune: bool = True):
    """Literal scalar transcription of the row-major extraction scan.

    This single-threaded triple loop defines the ground-truth edge set the
    vectorized implementation must reproduce.
    """
    n = q.n
    a = q.dense_symmetric()
    diag = a.diagonal().copy()
    edges: set[tuple[int, int]] = set()
    ordered: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if j == i or (j, i) in edges or diag[j] > diag[i]:
                continue
            s = diag[j] - diag[i]
            admit = True
            for k in range(n):
                if k == i or k == j:
                    continue
                d = a[j, k] - a[i, k]
                if d > 0:
                    s += d
                    if prune and s > 0:
                        admit = False
                        break
            if admit and s <= 0:
                edges.add((i, j))
                ordered.append((i, j))
    return tuple(ordered)


def reference_csr(q: QuboMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neighbour lists ``(indptr, indices, data)`` of ``q`` by one sort of
    the pair keys ``i * INDEX_LIMIT + j`` of both orientations of every
    coupling, as ``QuboMatrix._csr`` built them before."""
    from qubolin.qubo import INDEX_LIMIT

    off = q.rows != q.cols
    i, j = q.rows[off], q.cols[off]
    key = np.concatenate([i * INDEX_LIMIT + j, j * INDEX_LIMIT + i])
    perm = np.argsort(key)
    key = key[perm]
    data = np.concatenate([q.vals[off], q.vals[off]])[perm]
    return np.searchsorted(key, np.arange(q.n + 1) * INDEX_LIMIT), key % INDEX_LIMIT, data


def reference_score(q: QuboMatrix, i: int, j: int) -> float:
    """Literal scalar transcription of the pair score
    ``sum(max(0, a_jk - a_ik) for k != i, j) + a_jj - a_ii``."""
    a = q.dense_symmetric()
    s = a[j, j] - a[i, i]
    for k in range(q.n):
        if k != i and k != j:
            s += max(0.0, a[j, k] - a[i, k])
    return float(s)


def reference_from_entries(n: int, entries) -> dict[tuple[int, int], float]:
    """Literal dict-loop canonicalization of raw ``(i, j, value)`` entries.

    Raises the errors of :meth:`QuboMatrix.from_entries` on the first
    faulty entry; otherwise returns the folded terms in first-seen order.
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
    return {k: v for k, v in acc.items() if v != 0.0}


def reference_order_fault(n: int, edges) -> str | None:
    """Literal scans for the message :class:`OrderDag` raises on ``edges``
    (pairs of ints below the index limit), or None if it accepts them.

    Self-loops come first, then indices out of range, then the first edge
    that repeats an earlier one, then the first edge whose reverse is listed.
    """
    edges = [tuple(e) for e in edges]
    for i, j in edges:
        if i == j:
            return f"self-loop edge {(i, j)}"
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            return f"edge {(i, j)} out of range for n={n}"
    seen = set()
    for e in edges:
        if e in seen:
            return f"duplicate edge {e}"
        seen.add(e)
    for i, j in edges:
        if (j, i) in seen:
            return f"edge {(i, j)} present together with its reverse"
    return None


def reference_linearize(q: QuboMatrix, edges):
    """Literal dict-loop rewrite, one edge at a time.

    Returns ``(terms, removed, edge_coefficients)``: a positive coupling on
    an edge leaves its cell and is added to the diagonal of the edge source,
    which is dropped whenever it passes through exactly zero.
    """
    terms = dict(q.terms)
    removed = []
    coeffs = {}
    for i, j in edges:
        key = (i, j) if i < j else (j, i)
        c = terms.get(key, 0.0)
        if c <= 0.0:
            coeffs[(i, j)] = 0.0
            continue
        del terms[key]
        d = terms.get((i, i), 0.0) + c
        if d == 0.0:
            terms.pop((i, i), None)
        else:
            terms[(i, i)] = d
        coeffs[(i, j)] = c
        removed.append((i, j, c))
    return terms, tuple(removed), coeffs


def reference_encode_qubo(inst, lam) -> dict[tuple[int, int], float]:
    """Literal dict loop of the knapsack penalty encoding.

    Returns the nonzero terms of ``-sum v_i x_i + lam * sum_k (w_k . x -
    slack_k)**2`` in insertion order: decision diagonals, then per slack bit
    its diagonal, its pairs with later bits of its block and its decision
    pairs, then the decision pairs.
    """
    from qubolin.mkp import slack_blocks

    terms: dict[tuple[int, int], float] = {}
    # Python ints: a sum of squared weights may pass 2**63, and lam may be an int past 2**53
    values, weights = inst.values.tolist(), inst.weights.tolist()
    w = np.array(weights, dtype=np.int64)
    for i in range(inst.n):
        terms[(i, i)] = float(-values[i] + lam * sum(row[i] ** 2 for row in weights))
    for block in slack_blocks(inst):
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
    return {k: v for k, v in terms.items() if v != 0.0}


def reference_generate_mkp(n: int, m: int, alpha: float, seed: int):
    """The knapsack generator as it was written over tuples: ``(values,
    weights, capacities)`` as tuples of Python ints, from the same draws
    (the weights, then one uniform per item)."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 1000, size=(m, n), endpoint=True)
    caps = [math.floor(alpha * int(w[k].sum())) for k in range(m)]
    q = rng.random(n)
    values = [max(1, math.floor(int(w[:, i].sum()) / m + 500.0 * q[i])) for i in range(n)]
    return tuple(values), tuple(tuple(int(x) for x in w[k]) for k in range(m)), tuple(caps)


def reference_anneal_one(a: np.ndarray, diag: np.ndarray, betas: np.ndarray, rng) -> np.ndarray:
    """Literal numpy-scalar Metropolis loop: one restart of ``simulated_anneal``.

    ``a`` is the symmetric matrix with its diagonal zeroed and ``diag`` the
    diagonal; the draws are one start, then per sweep one permutation and
    one array of uniforms.
    """
    n = diag.shape[0]
    x = rng.integers(0, 2, size=n).astype(np.float64)
    g = a @ x
    for beta in betas:
        order = rng.permutation(n)
        us = rng.random(n)
        for pos in range(n):
            i = order[pos]
            # a has a zeroed diagonal here, so g_i = sum_{j != i} a_ij x_j
            fld = diag[i] + g[i]
            delta = (1.0 - 2.0 * x[i]) * fld
            if delta <= 0.0 or us[pos] < math.exp(-beta * delta):
                sign = 1.0 - 2.0 * x[i]
                g += sign * a[i]
                x[i] = 1.0 - x[i]
    return x


def random_integer_qubo(rng: np.random.Generator, n: int, density: float = 0.5,
                        low: int = -10, high: int = 10) -> QuboMatrix:
    """Random sparse integer matrix in canonical form."""
    entries = []
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                v = int(rng.integers(low, high + 1))
                if v:
                    entries.append((i, j, v))
    return QuboMatrix.from_entries(n, entries)


def sparse_integer_qubo(rng: np.random.Generator, n: int, degree: int = 10) -> QuboMatrix:
    """Random sparse matrix with about ``degree`` couplings per variable:
    ``n * degree / 2`` distinct pairs, couplings in [1, 10] and diagonals in
    [-60, -1], as in the benchmark's sparse workload."""
    pairs = n * degree // 2
    i, j = rng.integers(0, n, size=(2, 2 * pairs))
    key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    key = rng.permutation(key[key // n != key % n])[:pairs]
    rows = np.concatenate([key // n, np.arange(n)])
    cols = np.concatenate([key % n, np.arange(n)])
    vals = np.concatenate([rng.integers(1, 11, size=key.size), rng.integers(-60, 0, size=n)])
    return QuboMatrix.from_arrays(n, rows, cols, vals.astype(np.float64))


def qubo_with_symmetric_block(rng: np.random.Generator, n: int, block: list[int]) -> QuboMatrix:
    """Random matrix where the given variables are mutually interchangeable.

    All block members share one diagonal value, one intra-block coupling and
    identical couplings to every outside variable, so permuting them leaves
    the objective unchanged.
    """
    base = random_integer_qubo(rng, n, density=0.4)
    terms = dict(base.terms)
    members = sorted(block)
    diag_value = int(rng.integers(-6, 0))
    intra = int(rng.integers(-4, 5))
    outside_row = {k: int(rng.integers(-4, 5)) for k in range(n) if k not in members}
    for g in members:
        terms.pop((g, g), None)
        if diag_value:
            terms[(g, g)] = float(diag_value)
        for k, v in outside_row.items():
            key = (min(g, k), max(g, k))
            terms.pop(key, None)
            if v:
                terms[key] = float(v)
    for a, b in itertools.combinations(members, 2):
        terms.pop((a, b), None)
        if intra:
            terms[(a, b)] = float(intra)
    return QuboMatrix.from_entries(n, [(i, j, v) for (i, j), v in terms.items()])


def reference_save_qubo(q: QuboMatrix, path) -> None:
    """The QUBO writer as one ``json.dumps`` call over Python triples."""
    terms = list(zip(q.rows.tolist(), q.cols.tolist(), q.vals.tolist()))
    Path(path).write_text(json.dumps({"n": q.n, "terms": terms}) + "\n")


def reference_save_order(g, path) -> None:
    """The order writer as one ``json.dumps`` call over nested lists."""
    Path(path).write_text(json.dumps({"n": g.n, "edges": g.edges.tolist()}) + "\n")


def reference_save_report(report, path) -> None:
    """The report writer as one ``json.dumps`` call over Python triples."""
    removed = [[i, j, c] for i, j, c in zip(report.src.tolist(), report.dst.tolist(), report.coef.tolist())]
    Path(path).write_text(json.dumps({"removed_count": report.removed_count, "removed": removed}) + "\n")
