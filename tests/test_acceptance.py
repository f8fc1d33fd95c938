"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from conftest import qubo_with_symmetric_block
from qubolin import (
    MkpInstance,
    QuboMatrix,
    SynthParams,
    brute_force,
    count_local_minima,
    decode,
    encode_linearized,
    encode_qubo,
    extract_and_linearize,
    extract_mkp_order,
    extract_order_dense,
    generate_hard,
    generate_mkp,
    generate_synthetic,
    linearize,
    mkp_exact_oracle,
    od_count,
    score_pair,
)
from qubolin.experiments import mkp_gap, od_reduction, run_timing
from qubolin.mkp import slack_layout
from qubolin.solver import brute_force_energies


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _mixed_instance(index: int, n: int, seed: int) -> QuboMatrix:
    """Alternate between the dense synthetic grid and the hard family."""
    if index % 2 == 0:
        p = (0.2, 0.5, 1.0, 1.5, 2.0)[(index // 2) % 5]
        return generate_synthetic(SynthParams(n=n, p=p, seed=seed))
    return generate_hard(n, seed)


@pytest.fixture(scope="module")
def preservation_tables():
    """200 mixed instances with full energy tables, shared by criteria 2 and 3."""
    out = []
    for idx in range(200):
        n = 4 + idx % 13  # spans 4..16
        q = _mixed_instance(idx, n, seed=idx)
        order = extract_order_dense(q)
        q_lin, _ = linearize(q, order)
        out.append((q, q_lin, order, brute_force_energies(q), brute_force_energies(q_lin)))
    return out


def test_criterion_01_worked_example(example_q, example_q_linearized):
    failures = []
    order = extract_order_dense(example_q)
    if order.edges.tolist() != [[0, 1], [0, 2]]:
        failures.append(f"edges {order.edges.tolist()}")
    scores = (score_pair(example_q, 0, 1), score_pair(example_q, 0, 2))
    if scores != (-2, 0):
        failures.append(f"scores {scores}")
    q_lin, _ = linearize(example_q, order)
    if q_lin != example_q_linearized:
        failures.append(f"matrix {sorted(q_lin.terms.items())}")
    for q in (example_q, q_lin):
        value, argmin, _ = brute_force(q)
        if (value, argmin) != (-8, (0, 0, 1)):
            failures.append(f"minimum {(value, argmin)}")
    minima = (count_local_minima(example_q), count_local_minima(q_lin))
    if minima != (2, 1):
        failures.append(f"local minima {minima}")
    _report(1, "worked example exact", not failures, "; ".join(failures))


def test_criterion_02_optimum_preservation(preservation_tables):
    bad = 0
    for q, q_lin, _, table, table_lin in preservation_tables:
        best, best_lin = table.min(), table_lin.min()
        if best != best_lin:
            bad += 1
            continue
        argmins = set(np.flatnonzero(table == best).tolist())
        argmins_lin = set(np.flatnonzero(table_lin == best_lin).tolist())
        if not argmins_lin <= set(argmins):
            bad += 1
    _report(2, "optimum preservation on 200 instances", bad == 0, f"{bad} failures")


def test_criterion_03_pointwise_dominance(preservation_tables):
    bad = 0
    for q, _, order, table, table_lin in preservation_tables:
        if np.any(table_lin < table):
            bad += 1
            continue
        idx = np.arange(table.size)
        violated = np.zeros(table.size, dtype=bool)
        for i, j in order.edges:
            violated |= ((idx >> i) & 1).astype(bool) & ~((idx >> j) & 1).astype(bool)
        if np.any(table_lin[~violated] != table[~violated]):
            bad += 1
    _report(3, "pointwise dominance with subspace equality", bad == 0, f"{bad} failures")


def test_criterion_04_acyclicity_and_certificate():
    from qubolin.ordering import topological_order

    rng = np.random.default_rng(2024)
    bad = []
    for idx in range(1000):
        n = 4 + idx % 57  # spans 4..60
        kind = idx % 3
        block = None
        if kind == 0:
            q = generate_synthetic(SynthParams(n=n, p=(0.2, 0.5, 1.0, 1.5, 2.0)[idx % 5], seed=idx))
        elif kind == 1:
            q = generate_hard(n, idx)
        else:
            size = int(rng.integers(2, min(6, n) + 1))
            block = sorted(rng.choice(n, size=size, replace=False).tolist())
            q = qubo_with_symmetric_block(rng, n, block)
        order = extract_order_dense(q)
        if topological_order(order) is None:
            bad.append((idx, "cycle"))
            continue
        if any(score_pair(q, i, j) > 0 for i, j in order.edges):
            bad.append((idx, "score"))
            continue
        if block is not None:
            edges = set(map(tuple, order.edges.tolist()))
            if not all(
                (block[a], block[b]) in edges
                for a in range(len(block))
                for b in range(a + 1, len(block))
            ):
                bad.append((idx, "symmetric block incomplete"))
    _report(4, "acyclicity and certificate on 1000 instances", not bad, f"failures {bad[:3]}")


def test_criterion_05_reduction_rates():
    targets = {0.1: 0.0, 0.2: 7.2, 0.5: 49.5, 1.0: 72.6, 1.5: 80.8, 2.0: 85.6}
    rows, _ = od_reduction(180, 10, list(targets), list(range(10)))
    deviations = {}
    for row in rows:
        if row["seed"] == "mean":
            deviations[row["p"]] = row["reduction_pct"] - targets[row["p"]]
    ok = all(abs(d) <= 3.0 for d in deviations.values())
    detail = ", ".join(f"p={p}: {d:+.2f}pp" for p, d in sorted(deviations.items()))
    _report(5, "off-diagonal reduction rates", ok, detail)


def test_criterion_06_runtime_scaling():
    rows, fits = run_timing([100, 200, 400, 800], ["p=2.0", "hard"], list(range(5)), repeats=3)

    def mean_at(label, n):
        cells = [r["seconds"] for r in rows
                 if r["record"] == "cell" and r["class"] == label and r["n"] == n]
        return float(np.mean(cells))

    dense_exp, hard_exp = fits["p=2.0"], fits["hard"]
    ratio = mean_at("p=2.0", 800) / mean_at("hard", 800)
    ok = 2.4 <= dense_exp <= 3.2 and 1.2 <= hard_exp <= 2.1 and ratio >= 5.0
    _report(6, "runtime scaling exponents", ok,
            f"p=2.0 exp {dense_exp:.2f}, hard exp {hard_exp:.2f}, n=800 ratio {ratio:.1f}x")


def test_criterion_07_slack_and_encoding_exactness():
    failures = []
    for cap in range(1, 4097):
        reach = 1
        for w in slack_layout(cap):
            reach |= reach << w
        if reach != (1 << (cap + 1)) - 1:
            failures.append(f"slack coverage at C={cap}")
            break

    rng = np.random.default_rng(777)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        m = 1 + trial % 2
        alpha = (0.25, 0.5, 0.75)[trial % 3]
        w = rng.integers(1, 9, size=(m, n))
        caps = tuple(int(max(1, np.floor(alpha * w[k].sum()))) for k in range(m))
        inst = MkpInstance(
            tuple(int(v) for v in rng.integers(1, 400, n)),
            tuple(tuple(int(x) for x in w[k]) for k in range(m)),
            caps,
        )
        lam = sum(inst.values) + 1
        opt, _ = mkp_exact_oracle(inst)
        for encoder in (encode_qubo, encode_linearized):
            enc = encoder(inst, lam)
            value, assignment, _ = brute_force(enc.qubo)
            d = decode(enc, assignment, inst)
            if not d.feasible or d.objective != opt or value != -opt:
                failures.append(f"trial {trial} {encoder.__name__}: got {d.objective} vs {opt}")
    _report(7, "slack coverage and encoding exactness", not failures, "; ".join(failures[:3]))


def test_criterion_08_dominance_swap_validity():
    rng = np.random.default_rng(4242)
    samples = 10_000
    bad = 0
    for m in (1, 5, 10):
        for k in range(10):
            inst = generate_mkp(50, m, (0.25, 0.5, 0.75)[k % 3], seed=100 * m + k)
            w = np.array(inst.weights, dtype=np.int64)
            v = np.array(inst.values, dtype=np.int64)
            caps = np.array(inst.capacities, dtype=np.int64)
            edges = extract_mkp_order(inst).edges
            if not len(edges):
                continue
            # randomized greedy fill: always feasible, covers varied densities
            sel = np.zeros((samples, inst.n), dtype=bool)
            loads = np.zeros((samples, m), dtype=np.int64)
            perms = np.argsort(rng.random((samples, inst.n)), axis=1)
            rows_idx = np.arange(samples)
            for t in range(inst.n):
                item = perms[:, t]
                candidate = loads + w[:, item].T
                ok = np.all(candidate <= caps[None, :], axis=1)
                loads[ok] = candidate[ok]
                sel[rows_idx[ok], item[ok]] = True
            for a, b in edges:
                if v[b] < v[a]:
                    bad += 1
                    continue
                violated = sel[:, a] & ~sel[:, b]
                if not violated.any():
                    continue
                swapped = loads[violated] - w[:, a][None, :] + w[:, b][None, :]
                if np.any(swapped > caps[None, :]):
                    bad += 1
    _report(8, "dominance swap validity", bad == 0, f"{bad} violations")


def test_criterion_09_gap_improvement_direction():
    instances = [(f"gen#{s}", generate_mkp(100, 1, 0.25, s)) for s in range(10)]
    rows, _ = mkp_gap(instances, lam=1.0, sweeps=300, restarts=50, seed=1000)
    base = {r["instance"]: r["best_gap"] for r in rows if r["method"] == "baseline"}
    lin = {r["instance"]: r["best_gap"] for r in rows if r["method"] == "linearized"}
    usable = [name for name in base if base[name] != "" and lin[name] != ""]
    wins = sum(lin[name] <= base[name] for name in usable)
    mean_base = float(np.mean([base[name] for name in usable]))
    mean_lin = float(np.mean([lin[name] for name in usable]))
    ok = len(usable) == 10 and wins >= 8 and mean_lin < mean_base
    _report(9, "gap improvement direction", ok,
            f"wins {wins}/10, mean baseline {mean_base:.2f}%, mean linearized {mean_lin:.2f}%")


def test_criterion_10_fused_pass_equivalence():
    rng = np.random.default_rng(31337)
    bad = 0
    for idx in range(50):
        n = 4 + idx % 37  # spans 4..40
        q = _mixed_instance(idx, n, seed=5000 + idx)
        fused_q, fused_order, _ = extract_and_linearize(q)
        order = extract_order_dense(q)
        two_phase_q, _ = linearize(q, order)
        if fused_q != two_phase_q or not np.array_equal(fused_order.edges, order.edges):
            bad += 1
        if od_count(fused_q) > od_count(q):
            bad += 1
    _report(10, "fused pass equivalence", bad == 0, f"{bad} mismatches")
