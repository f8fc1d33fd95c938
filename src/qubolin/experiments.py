"""Experiment harnesses: off-diagonal reduction, runtime scaling, solver gaps.

Each harness returns plain row dictionaries ready for CSV emission plus a
manifest payload that pins every parameter and seed, so any row can be
regenerated bit-identically.  Grid cells run one after another, in grid
order.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .linearize import linearize
from .mkp import MkpInstance, decode, dp_knapsack_oracle, encode_linearized, encode_qubo, optimality_gap
from .ordering import extract_order_dense
from .qubo import QuboMatrix, od_count
from .solver import AnnealSchedule, simulated_anneal
from .synth import SynthParams, generate_hard, generate_synthetic

__all__ = [
    "od_reduction",
    "run_timing",
    "fit_power_law",
    "mkp_gap",
    "write_csv",
    "write_manifest",
    "parse_timing_class",
]

OD_REDUCTION_FIELDS = ["p", "seed", "n", "edges", "od_before", "od_after", "reduction_pct"]
TIMING_FIELDS = ["record", "class", "n", "seed", "seconds", "exponent"]
MKP_GAP_FIELDS = [
    "instance",
    "n",
    "m",
    "method",
    "edges",
    "samples",
    "feasible",
    "s_best",
    "best_objective",
    "best_gap",
    "avg_gap",
]


# ----------------------------------------------------------------------
# off-diagonal reduction


def od_reduction(
    n: int, s: int, p_grid: Sequence[float], seeds: Sequence[int]
) -> tuple[list[dict], dict]:
    """Reduction of quadratic density on the dense synthetic family.

    One row per (p, seed) cell plus a summary row per p with seed "mean".
    """
    if not seeds:
        raise ValueError("od_reduction needs at least one seed")
    rows = []
    wall = {}
    for p in p_grid:
        for seed in seeds:
            t0 = time.perf_counter()
            q = generate_synthetic(SynthParams(n=n, p=p, seed=seed, s=s))
            order = extract_order_dense(q)
            q_lin, report = linearize(q, order)
            before = od_count(q)
            after = od_count(q_lin)
            rows.append(
                {
                    "p": p,
                    "seed": seed,
                    "n": n,
                    "edges": len(order),
                    "od_before": before,
                    "od_after": after,
                    "reduction_pct": (before - after) / before * 100.0 if before else 0.0,
                }
            )
            wall[f"p={p},seed={seed}"] = time.perf_counter() - t0
    for p in p_grid:
        group = [r for r in rows if r["p"] == p]
        rows.append(
            {
                "p": p,
                "seed": "mean",
                "n": n,
                "edges": float(np.mean([r["edges"] for r in group])),
                "od_before": float(np.mean([r["od_before"] for r in group])),
                "od_after": float(np.mean([r["od_after"] for r in group])),
                "reduction_pct": float(np.mean([r["reduction_pct"] for r in group])),
            }
        )
    manifest = {
        "experiment": "od_reduction",
        "n": n,
        "s": s,
        "p_grid": list(p_grid),
        "seeds": list(seeds),
        "wall_clock": wall,
    }
    return rows, manifest


# ----------------------------------------------------------------------
# runtime scaling


def parse_timing_class(label: str):
    """Instance factory for a class label: "hard" or "p=<float>"."""
    if label == "hard":
        return lambda n, seed: generate_hard(n, seed)
    if label.startswith("p="):
        p = float(label[2:])
        return lambda n, seed: generate_synthetic(SynthParams(n=n, p=p, seed=seed))
    raise ValueError(f"unknown timing class {label!r}; use 'hard' or 'p=<float>'")


def fit_power_law(ns: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares exponent of ``t ~ n**e`` on log-log axes."""
    if len(ns) < 2 or len(ns) != len(times):
        raise ValueError("need at least two matching (n, t) points")
    slope, _ = np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(times, float)), 1)
    return float(slope)


def run_timing(
    ns: Sequence[int],
    classes: Sequence[str],
    seeds: Sequence[int],
    repeats: int = 3,
    timer: Callable[[], float] = time.perf_counter,
    extract: Callable[[QuboMatrix], object] = extract_order_dense,
) -> tuple[list[dict], dict[str, float]]:
    """Median wall-clock of order extraction per (class, n, seed) cell.

    Cells run strictly single-threaded so the power-law fit is not polluted
    by scheduling noise.  Returns the cell rows plus a fitted exponent per
    class (also appended as ``record="fit"`` rows).  At least 4 distinct
    problem sizes are required for a fit.
    """
    if len(set(ns)) < 4:
        raise ValueError(f"need at least 4 distinct problem sizes, got {sorted(set(ns))}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not seeds:
        raise ValueError("run_timing needs at least one seed")
    rows = []
    per_class_points: dict[str, list[tuple[int, float]]] = {c: [] for c in classes}
    for label in classes:
        make = parse_timing_class(label)
        for n in ns:
            for seed in seeds:
                q = make(n, seed)
                durations = []
                for _ in range(repeats):
                    t0 = timer()
                    extract(q)
                    t1 = timer()
                    durations.append(t1 - t0)
                sec = float(np.median(durations))
                per_class_points[label].append((n, sec))
                rows.append(
                    {
                        "record": "cell",
                        "class": label,
                        "n": n,
                        "seed": seed,
                        "seconds": sec,
                        "exponent": "",
                    }
                )
    fits = {}
    for label in classes:
        points = per_class_points[label]
        mean_by_n = {
            n: float(np.mean([sec for nn, sec in points if nn == n])) for n in sorted(set(ns))
        }
        fits[label] = fit_power_law(list(mean_by_n), list(mean_by_n.values()))
        rows.append(
            {
                "record": "fit",
                "class": label,
                "n": "",
                "seed": "",
                "seconds": "",
                "exponent": fits[label],
            }
        )
    return rows, fits


# ----------------------------------------------------------------------
# solver gap comparison


def mkp_gap(
    instances: Sequence[tuple[str, MkpInstance]],
    lam: float,
    sweeps: int,
    restarts: int,
    seed: int,
    beta_start: float | None = None,
    beta_end: float | None = None,
) -> tuple[list[dict], dict]:
    """Matched-budget annealing comparison of plain vs linearized encodings.

    Both arms of an instance run identical sweeps x restarts with restart
    streams derived from the same master seed.  Unless given explicitly, the
    inverse-temperature ramp starts hot relative to the largest encoding
    coefficient and ends cold relative to the item-value scale, which is
    where the last meaningful moves of this workload live.  Reference scores
    come from the instance file or, for single-constraint instances, from
    the exact DP baseline.
    """
    if not instances:
        raise ValueError("mkp_gap needs at least one instance")
    rows = []
    for idx, (name, inst) in enumerate(instances):
        if inst.best_known is not None:
            s_best = inst.best_known
        elif inst.m == 1:
            s_best, _ = dp_knapsack_oracle(inst)
        else:
            raise ValueError(
                f"instance {name!r} has m={inst.m} and no best-known score; supply one"
            )
        base = encode_qubo(inst, lam)
        lin = encode_linearized(inst, lam)
        scale = float(np.abs(base.qubo.vals).max())
        b0 = beta_start if beta_start is not None else 0.01 / scale
        b1 = beta_end if beta_end is not None else 20.0 / float(np.mean(inst.values))
        for method, enc in (("baseline", base), ("linearized", lin)):
            schedule = AnnealSchedule(
                sweeps=sweeps, beta_start=b0, beta_end=b1, restarts=restarts, seed=seed + idx
            )
            result = simulated_anneal(enc.qubo, schedule)
            decoded = [decode(enc, bits, inst) for bits, _ in result.samples]
            feasible = [d for d in decoded if d.feasible]
            best_obj = max((d.objective for d in feasible), default=None)
            rows.append(
                {
                    "instance": name,
                    "n": inst.n,
                    "m": inst.m,
                    "method": method,
                    "edges": len(lin.order) if lin.order else 0,
                    "samples": restarts,
                    "feasible": len(feasible),
                    "s_best": s_best,
                    "best_objective": best_obj if best_obj is not None else "",
                    "best_gap": optimality_gap(s_best, best_obj) if best_obj is not None else "",
                    "avg_gap": (
                        float(np.mean([optimality_gap(s_best, d.objective) for d in feasible]))
                        if feasible
                        else ""
                    ),
                }
            )
    manifest = {
        "experiment": "mkp_gap",
        "instances": [name for name, _ in instances],
        "lambda": lam,
        "sweeps": sweeps,
        "restarts": restarts,
        "seed": seed,
        "beta_start": beta_start,
        "beta_end": beta_end,
    }
    return rows, manifest


# ----------------------------------------------------------------------
# emission


def write_csv(rows: Sequence[dict], fields: Sequence[str], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_manifest(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
