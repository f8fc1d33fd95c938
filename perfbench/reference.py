"""Reference computations the benchmark checks the program's outputs against.

Everything here is derived from the file formats and the method's rules,
never from qubolin's code: the files are read with ``json`` and plain text
parsing, and the pairwise score, the linearization rule, the knapsack
penalty encoding and the knapsack optimum are recomputed with numpy.  The
inputs in use have integer coefficients, so every comparison is exact.

A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

# pairs scored per numpy batch: bounds the (pairs x n) temporaries
_PAIR_BATCH_ELEMS = 1 << 17


class CheckError(Exception):
    """An output disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ----------------------------------------------------------------------
# QUBO files


def read_qubo(path: str | Path) -> np.ndarray:
    """Upper-triangular coefficient array of a QUBO JSON file."""
    data = json.loads(Path(path).read_text())
    n = data["n"]
    u = np.zeros((n, n))
    terms = data["terms"]
    if terms:
        t = np.asarray(terms, dtype=np.float64)
        i, j = t[:, 0].astype(np.intp), t[:, 1].astype(np.intp)
        require(bool(np.all(i <= j)), f"{path}: term below the diagonal")
        require(np.unique(i * n + j).size == len(terms), f"{path}: duplicate term")
        u[i, j] = t[:, 2]
    return u


def write_qubo(u: np.ndarray, path: str | Path) -> None:
    """Write an upper-triangular array in the QUBO JSON format (nonzeros only)."""
    i, j = np.nonzero(np.triu(u))
    terms = [[int(a), int(b), float(u[a, b])] for a, b in zip(i, j)]
    Path(path).write_text(json.dumps({"n": u.shape[0], "terms": terms}) + "\n")


def couplings(u: np.ndarray) -> int:
    """Number of nonzero off-diagonal terms."""
    return int(np.count_nonzero(np.triu(u, 1)))


def symmetric(u: np.ndarray) -> np.ndarray:
    """Symmetric matrix with the couplings mirrored and Q_ii on the diagonal."""
    return u + np.triu(u, 1).T


def energies(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Energies ``sum_ij U_ij x_i x_j`` of the rows of ``x``."""
    return np.einsum("ri,ij,rj->r", x, u, x)


# ----------------------------------------------------------------------
# pairwise score and the linearization it certifies


def scores(a: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``score(i -> j) = sum_{k != i, j} max(0, a_jk - a_ik) + a_jj - a_ii``
    for each pair ``(src[t], dst[t])`` of the symmetric matrix ``a``."""
    n = a.shape[0]
    out = np.empty(src.size)
    step = max(1, _PAIR_BATCH_ELEMS // max(n, 1))
    for lo in range(0, src.size, step):
        i, j = src[lo : lo + step], dst[lo : lo + step]
        d = a[j] - a[i]
        rows = np.arange(i.size)
        d[rows, i] = 0.0
        d[rows, j] = 0.0
        out[lo : lo + step] = np.maximum(d, 0.0).sum(axis=1) + a[j, j] - a[i, i]
    return out


def predict_linearized(u: np.ndarray) -> np.ndarray:
    """The linearized matrix the method defines for input ``u``.

    Each positive coupling ``{i < j}`` moves onto diagonal ``i`` when
    ``score(i -> j) <= 0``, else onto diagonal ``j`` when
    ``score(j -> i) <= 0``, and otherwise stays.  Scores are taken on the
    unmodified input.  The rule fixes the matrix, not the edge list, so it
    holds for any extraction that finds every certified coupled pair.
    """
    a = symmetric(u)
    i, j = np.nonzero(np.triu(u, 1) > 0)
    forward = scores(a, i, j) <= 0.0
    backward = np.zeros_like(forward)
    rest = ~forward
    backward[rest] = scores(a, j[rest], i[rest]) <= 0.0
    out = u.copy()
    for src, keep in ((i, forward), (j, backward)):
        np.add.at(out, (src[keep], src[keep]), u[i[keep], j[keep]])
        out[i[keep], j[keep]] = 0.0
    return out


def check_order(u: np.ndarray, path: str | Path) -> None:
    """The order file is acyclic and every edge scores <= 0 on ``u``."""
    data = json.loads(Path(path).read_text())
    n = u.shape[0]
    require(data["n"] == n, f"{path}: order over {data['n']} variables, QUBO has {n}")
    edges = np.asarray(data["edges"], dtype=np.intp).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    require(bool(np.all((edges >= 0) & (edges < n))), f"{path}: edge index out of range")
    require(bool(np.all(src != dst)), f"{path}: self-loop")
    # Kahn's algorithm: every vertex is emitted iff the graph is acyclic
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = np.bincount(dst, minlength=n).tolist()
    for s, d in zip(src.tolist(), dst.tolist()):
        out[s].append(d)
    queue = deque(v for v in range(n) if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    require(seen == n, f"{path}: order has a cycle")
    s = scores(symmetric(u), src, dst)
    bad = np.flatnonzero(s > 0.0)
    require(bad.size == 0, f"{path}: edge {edges[bad[0]].tolist() if bad.size else ''} scores > 0")


def check_linearized(u_in: np.ndarray, expected: np.ndarray, out_path, report_path) -> dict:
    """Output matrix equals the prediction; the report's count matches the couplings."""
    u_out = read_qubo(out_path)
    require(u_out.shape == expected.shape, f"{out_path}: wrong variable count")
    diff = np.argwhere(u_out != expected)
    require(diff.size == 0, f"{out_path}: term {diff[0].tolist() if diff.size else ''} differs from the prediction")
    removed = json.loads(Path(report_path).read_text())["removed_count"]
    c_in, c_out = couplings(u_in), couplings(u_out)
    require(removed == c_in - c_out, f"{report_path}: removed_count {removed} != {c_in} - {c_out}")
    return {"couplings_out": c_out, "removed": removed}


# ----------------------------------------------------------------------
# sparse inputs (the package has no sparse generator)


def sparse_qubo(n: int, seed: int, degree: int = 10, diag_span: int = 60) -> np.ndarray:
    """Random sparse QUBO with about ``degree`` couplings per variable.

    ``n * degree / 2`` distinct pairs drawn uniformly, couplings uniform
    integers in [1, 10], diagonals uniform integers in [-diag_span, -1].
    """
    rng = np.random.default_rng(seed)
    pairs = n * degree // 2
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < pairs:
        i = rng.integers(0, n, size=pairs)
        j = rng.integers(0, n, size=pairs)
        ids = np.minimum(i, j) * n + np.maximum(i, j)
        ids = ids[i != j]
        chosen = np.unique(np.concatenate([chosen, ids]))
    chosen = rng.permutation(chosen)[:pairs]
    u = np.zeros((n, n))
    u[chosen // n, chosen % n] = rng.integers(1, 10, size=pairs, endpoint=True)
    u[np.arange(n), np.arange(n)] = rng.integers(-diag_span, -1, size=n, endpoint=True)
    return u


# ----------------------------------------------------------------------
# knapsack instances


def read_mkp(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, weights m x n, capacities) of the single instance in an OR-Library file."""
    tok = [int(t) for t in Path(path).read_text().split()]
    require(tok[0] == 1, f"{path}: expected one instance")
    n, m = tok[1], tok[2]
    pos = 4
    values = np.array(tok[pos : pos + n])
    pos += n
    weights = np.array(tok[pos : pos + m * n]).reshape(m, n)
    pos += m * n
    caps = np.array(tok[pos : pos + m])
    return values, weights, caps


def mkp_plain_qubo(values, weights, caps, lam: float) -> np.ndarray:
    """Upper-triangular ``-v.x + lam * sum_k (w_k . x - s_k . y_k)**2``.

    Slack block k follows the decision bits with loads
    ``1, 2, ..., 2**(b-2), C_k + 1 - 2**(b-1)`` where ``b = bit_length(C_k)``.
    """
    n = values.size
    slack = []
    for cap in caps.tolist():
        b = cap.bit_length()
        slack.append(np.array([2**t for t in range(b - 1)] + [cap + 1 - 2 ** (b - 1)], dtype=np.float64))
    total = n + sum(loads.size for loads in slack)
    # row k holds the coefficients of constraint k's residual w_k . x - s_k . y_k
    c = np.zeros((caps.size, total))
    offset = n
    for k, loads in enumerate(slack):
        c[k, :n] = weights[k]
        c[k, offset : offset + loads.size] = -loads
        offset += loads.size
    full = lam * (c.T @ c)
    u = np.triu(full, 1) * 2.0
    u[np.arange(total), np.arange(total)] = np.diagonal(full)
    u[np.arange(n), np.arange(n)] -= values
    return u


def knapsack_optimum(values, weights, caps) -> int:
    """Exact single-constraint optimum by capacity-indexed dynamic programming."""
    require(caps.size == 1, "the DP reference handles one constraint")
    cap = int(caps[0])
    best = np.zeros(cap + 1, dtype=np.int64)
    for v, w in zip(values.tolist(), weights[0].tolist()):
        if w <= cap:
            best[w:] = np.maximum(best[w:], best[: cap + 1 - w] + v)
    return int(best[cap])


def dominance_closed(values, weights, x: np.ndarray) -> np.ndarray:
    """Close decision bits upward under dominance, so the rows respect the order.

    Item j dominates item i when ``v_j >= v_i`` and ``w_kj <= w_ki`` for all k;
    a row that selects i then also selects j.
    """
    dom = (values[None, :] >= values[:, None]) & np.all(
        weights[:, None, :] <= weights[:, :, None], axis=0
    )
    n = values.size
    sel = x[:, :n].astype(bool)
    while True:
        grown = sel | ((sel.astype(np.int64) @ dom.astype(np.int64)) > 0)
        if np.array_equal(grown, sel):
            break
        sel = grown
    out = x.copy()
    out[:, :n] = sel
    return out


def check_mkp_arm(inst, u_plain, lin: bool, enc_path, samples_path, decode_out: str, probe) -> dict:
    """Checks of one annealing arm: encoding, sample energies, decode, feasibility, optimum."""
    values, weights, caps, optimum = inst
    u = read_qubo(enc_path)
    require(u.shape == u_plain.shape, f"{enc_path}: wrong variable count")
    if lin:
        x = dominance_closed(values, weights, probe)
        require(
            np.array_equal(energies(u, x), energies(u_plain, x)),
            f"{enc_path}: energy differs from the plain encoding inside the dominance order",
        )
    else:
        require(np.array_equal(u, u_plain), f"{enc_path}: plain encoding differs from the reference")
    samples = json.loads(Path(samples_path).read_text())["samples"]
    bits = np.array([[int(b) for b in s["bits"]] for s in samples], dtype=np.float64)
    reported = np.array([s["energy"] for s in samples])
    require(bits.shape[1] == u.shape[0], f"{samples_path}: sample length != {u.shape[0]}")
    bad = np.flatnonzero(energies(u, bits) != reported)
    require(bad.size == 0, f"{samples_path}: sample {bad[0] if bad.size else ''} energy differs from the QUBO")
    rows = json.loads(decode_out)
    sel = bits[:, : values.size].astype(np.int64)
    objective = sel @ values
    excess = sel @ weights.T - caps
    feasible = np.all(excess <= 0, axis=1)
    require(len(rows) == len(samples), "decode: one row per sample expected")
    for r, row in enumerate(rows):
        require(
            row["objective"] == objective[r]
            and row["feasible"] == bool(feasible[r])
            and row["excess"] == excess[r].tolist(),
            f"decode: row {r} disagrees with the instance",
        )
    require(bool(feasible.any()), f"{samples_path}: no feasible sample")
    best = int(objective[feasible].max())
    require(best <= optimum, f"{samples_path}: value {best} above the optimum {optimum}")
    c_out = couplings(u)
    return {
        "couplings_out": c_out,
        "removed": couplings(u_plain) - c_out,
        "feasible": int(feasible.sum()),
        "best_value": best,
    }
