"""Benchmark of the ``qubolin`` command pipeline, end to end and per module.

    python3 perfbench/run.py --workload dense-verify --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout.  One workload runs in this one
process: its inputs are made with ``qubolin gen`` (or, for the sparse
workload, by the benchmark's own generator), then its jobs run through
``qubolin.cli.main`` in whole rounds for ``--seconds``, and every job's
outputs are checked against ``reference.py`` outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--tiny`` runs
small inputs for a quick look.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from tracing import Tracer, self_time, totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-ups per run, spread over its length; setup_s is their median
SETUPS = 5
# inputs per workload; a round runs one job per input (per arm for mkp-anneal)
INPUTS = 4


@dataclass
class Job:
    argvs: list[list[str]]
    # stdout of each command -> counts; raises ref.CheckError on a wrong output
    check: Callable[[list[str]], dict]


class DenseVerify:
    """``gen synth`` p=2.0, then ``order`` and the verified ``linearize --order``."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.n = 30 if tiny else 150
        self.work = work
        self.inputs = [(work / f"dense{k}.json", 100 * seed + k) for k in range(INPUTS)]

    def gen_commands(self) -> list[list[str]]:
        return [
            ["gen", "synth", "--n", str(self.n), "--p", "2.0", "--seed", str(s), "--out", str(p)]
            for p, s in self.inputs
        ]

    def jobs(self) -> list[Job]:
        out = []
        for k, (path, _) in enumerate(self.inputs):
            u = ref.read_qubo(path)
            expected = ref.predict_linearized(u)
            order, lin, rep = (self.work / f"{name}{k}.json" for name in ("order", "lin", "report"))

            def check(stdouts, u=u, expected=expected, order=order, lin=lin, rep=rep):
                ref.check_order(u, order)
                return ref.check_linearized(u, expected, lin, rep)

            argvs = [
                ["order", "--in", str(path), "--out", str(order)],
                ["linearize", "--in", str(path), "--order", str(order), "--out", str(lin), "--report", str(rep)],
            ]
            out.append(Job(argvs, check))
        return out


class Fused:
    """Fused ``linearize --in --out --report`` with no order."""

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.n = 60 if tiny else 500
        self.work = work
        self.inputs = [(work / f"in{k}.json", 100 * seed + k) for k in range(INPUTS)]

    def jobs(self) -> list[Job]:
        out = []
        for k, (path, _) in enumerate(self.inputs):
            u = ref.read_qubo(path)
            expected = ref.predict_linearized(u)
            lin, rep = self.work / f"lin{k}.json", self.work / f"report{k}.json"

            def check(stdouts, u=u, expected=expected, lin=lin, rep=rep):
                return ref.check_linearized(u, expected, lin, rep)

            out.append(Job([["linearize", "--in", str(path), "--out", str(lin), "--report", str(rep)]], check))
        return out


class SparseFused(Fused):
    """Sparse QUBOs from the benchmark's own generator; set-up is the import alone."""

    def gen_commands(self) -> list[list[str]]:
        return []

    def jobs(self) -> list[Job]:
        for path, s in self.inputs:
            ref.write_qubo(ref.sparse_qubo(self.n, s), path)
        return super().jobs()


class HardFused(Fused):
    """``gen hard``: no pair certifies, so loading and saving dominate."""

    def gen_commands(self) -> list[list[str]]:
        return [["gen", "hard", "--n", str(self.n), "--seed", str(s), "--out", str(p)] for p, s in self.inputs]


class MkpAnneal:
    """``gen mkp`` m=1; per instance, a plain and a linearized arm of encode, solve, decode."""

    LAMBDA = "1.0"

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.n, self.sweeps, self.restarts = (20, 20, 10) if tiny else (100, 100, 10)
        self.work = work
        self.inputs = [(work / f"mkp{k}.txt", 100 * seed + k) for k in range(INPUTS // 2)]

    def gen_commands(self) -> list[list[str]]:
        return [
            ["gen", "mkp", "--n", str(self.n), "--m", "1", "--alpha", "0.25", "--seed", str(s), "--out", str(p)]
            for p, s in self.inputs
        ]

    def jobs(self) -> list[Job]:
        out = []
        for k, (path, s) in enumerate(self.inputs):
            values, weights, caps = ref.read_mkp(path)
            inst = (values, weights, caps, ref.knapsack_optimum(values, weights, caps))
            u_plain = ref.mkp_plain_qubo(values, weights, caps, float(self.LAMBDA))
            # the matched-budget schedule of the solver-gap experiment
            beta_start = 0.01 / float(np.abs(u_plain).max())
            beta_end = 20.0 / float(values.mean())
            probe = np.random.default_rng(s).integers(0, 2, size=(64, u_plain.shape[0])).astype(np.float64)
            for arm in ("plain", "linearized"):
                flag = ["--linearize"] if arm == "linearized" else []
                enc, samples = self.work / f"enc{k}{arm}.json", self.work / f"samples{k}{arm}.json"
                common = ["--mkp", str(path), "--lambda", self.LAMBDA, *flag]
                argvs = [
                    ["encode", *common, "--out", str(enc)],
                    ["solve", "--in", str(enc), "--method", "sa", "--sweeps", str(self.sweeps),
                     "--restarts", str(self.restarts), "--seed", str(s),
                     "--beta-start", repr(beta_start), "--beta-end", repr(beta_end), "--out", str(samples)],
                    ["decode", *common, "--samples", str(samples)],
                ]

                def check(stdouts, lin=bool(flag), enc=enc, samples=samples, u_plain=u_plain, inst=inst, probe=probe, arm=arm):
                    info = ref.check_mkp_arm(inst, u_plain, lin, enc, samples, stdouts[2], probe)
                    return {**info, "arm": arm}

                out.append(Job(argvs, check))
        return out


WORKLOADS = {
    "dense-verify": DenseVerify,
    "sparse-fused": SparseFused,
    "hard-fused": HardFused,
    "mkp-anneal": MkpAnneal,
}


def run_command(cli, argv: list[str], tracer: Tracer | None) -> str:
    """One ``qubolin`` command in-process; returns its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"qubolin {argv[0]} exited with {rc}")
    return buf.getvalue()


def set_up(workload, tracer: Tracer | None, label: str):
    """A fresh ``import qubolin.cli`` and the workload's ``gen`` commands.

    Returns (cli module, import seconds, gen seconds).
    """
    for name in [m for m in sys.modules if m == "qubolin" or m.startswith("qubolin.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    cli = importlib.import_module("qubolin.cli")
    t1 = time.perf_counter()
    if tracer:
        tracer.install(cli)
        tracer.job = label
    try:
        for argv in workload.gen_commands():
            run_command(cli, argv, tracer)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.job = None
    return cli, t1 - t0, time.perf_counter() - t1


@dataclass
class Measured:
    attempted: int = 0
    failed: int = 0
    # job seconds of the timed rounds, keyed by whether the job was traced
    times: dict = field(default_factory=lambda: {True: [], False: []})
    # check results of the passed jobs, and of the timed traced ones alone
    infos: list = field(default_factory=list)
    traced_infos: list = field(default_factory=list)
    traced_jobs: set = field(default_factory=set)


def measure(cli, jobs: list[Job], seconds: float, tracer: Tracer | None, set_up_again=None) -> Measured:
    """Whole rounds of ``jobs`` until ``seconds`` have passed.

    Round 0 warms up: its jobs are checked and counted but not timed.  With
    a tracer, jobs alternate between traced and untraced.  The caller made
    the first set-up; ``set_up_again()`` makes the other ``SETUPS - 1``
    between rounds, spread over the run, and returns the fresh cli module.
    """
    m = Measured()
    start = time.perf_counter()
    rnd = 0
    done = 1
    while rnd < 2 or time.perf_counter() - start < seconds:
        for k, job in enumerate(jobs):
            traced = tracer is not None and (rnd + k) % 2 == 0
            m.attempted += 1
            job_id = m.attempted
            gc.collect()
            if traced:
                tracer.install(cli)
                tracer.job = job_id
            try:
                t0 = time.perf_counter()
                stdouts = [run_command(cli, argv, tracer if traced else None) for argv in job.argvs]
                elapsed = time.perf_counter() - t0
                info = job.check(stdouts)
            except (Exception, SystemExit) as exc:
                m.failed += 1
                if not isinstance(exc, ref.CheckError):
                    traceback.print_exc(file=sys.stderr)
                print(f"job {job_id} failed: {exc}", file=sys.stderr)
                continue
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.job = None
            m.infos.append(info)
            if rnd > 0:
                m.times[traced].append(elapsed)
                if traced:
                    m.traced_jobs.add(job_id)
                    m.traced_infos.append(info)
        rnd += 1
        if set_up_again and done < SETUPS and time.perf_counter() - start >= done * seconds / SETUPS:
            cli = set_up_again()
            done += 1
    while set_up_again and done < SETUPS:
        cli = set_up_again()
        done += 1
    return m


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(m: Measured, setups: list[tuple[float, float]]) -> dict:
    times = m.times[False]
    return {
        "jobs_per_s": (len(times) / sum(times), "jobs/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(i + g for i, g in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "couplings_out": (mean(i["couplings_out"] for i in m.infos), "couplings/job"),
    }


# spans that have a metric of their own; the rest of a command's time is glue
STAGES = frozenset(
    {
        "qubo.load_qubo",
        "qubo.save_qubo",
        "ordering.extract_order_dense",
        "ordering.extract_order_sparse",
        "ordering.find_order_violation",
        "linearize.linearize",
        "linearize.extract_and_linearize",
        "mkp.encode_qubo",
        "mkp.encode_linearized",
        "mkp.decode",
        "solver.simulated_anneal",
        "synth.generate_synthetic",
        "synth.generate_hard",
    }
)


def per_layer(m: Measured, tracer: Tracer, setups: list[tuple[float, float]]) -> dict:
    spans = tracer.spans
    t, c = totals(spans, m.traced_jobs)
    jobs = len(m.traced_jobs)

    def per_job(*names: str) -> float:
        return sum(t.get(n, 0.0) for n in names) / jobs

    extract = ("ordering.extract_order_dense", "ordering.extract_order_sparse")
    edges = sum(c.get(n, 0) for n in (*extract, "linearize.extract_and_linearize"))
    removed = sum(i["removed"] for i in m.traced_infos)
    arms = {arm: [i for i in m.traced_infos if i.get("arm") == arm] for arm in ("plain", "linearized")}
    generate = [
        sum(totals(spans, {label})[0].get(n, 0.0) for n in ("synth.generate_synthetic", "synth.generate_hard"))
        for label in (f"setup{k}" for k in range(len(setups)))
    ]
    metrics = {
        "qubo.load_s": (per_job("qubo.load_qubo"), "s/job"),
        "qubo.save_s": (per_job("qubo.save_qubo"), "s/job"),
        "qubo.load_terms_per_s": (ratio(c.get("qubo.load_qubo", 0), t.get("qubo.load_qubo", 0.0)), "terms/s"),
        "ordering.extract_s": (per_job(*extract), "s/job"),
        "ordering.verify_s": (per_job("ordering.find_order_violation"), "s/job"),
        "ordering.verify_edges_per_s": (
            ratio(c.get("ordering.find_order_violation", 0), t.get("ordering.find_order_violation", 0.0)),
            "edges/s",
        ),
        "ordering.edges": (edges / jobs, "edges/job"),
        "ordering.useful_edge_ratio": (ratio(removed, edges), "removed/admitted"),
        "linearize.apply_s": (per_job("linearize.linearize"), "s/job"),
        "linearize.fused_s": (per_job("linearize.extract_and_linearize"), "s/job"),
        "linearize.removed": (removed / jobs, "couplings/job"),
        "mkp.encode_s": (per_job("mkp.encode_qubo", "mkp.encode_linearized"), "s/job"),
        "mkp.decode_s": (per_job("mkp.decode"), "s/job"),
        "solver.anneal_s": (per_job("solver.simulated_anneal"), "s/job"),
        "solver.ns_per_flip": (
            1e9 * ratio(t.get("solver.simulated_anneal", 0.0), c.get("solver.simulated_anneal", 0)),
            "ns",
        ),
        "solver.feasible_samples": (mean(i.get("feasible", 0) for i in m.traced_infos), "samples/arm"),
        "solver.best_value": (mean(i.get("best_value", 0) for i in m.traced_infos), "value"),
        "solver.best_value.plain": (mean(i["best_value"] for i in arms["plain"]), "value"),
        "solver.best_value.linearized": (mean(i["best_value"] for i in arms["linearized"]), "value"),
        "synth.generate_s": (statistics.median(generate), "s/run"),
        "cli.import_s": (statistics.median(i for i, _ in setups), "s"),
        "cli.glue_s": (self_time(spans, m.traced_jobs, "cli.main", STAGES) / jobs, "s/job"),
        "trace.overhead_s": (statistics.median(m.times[True]) - statistics.median(m.times[False]), "s"),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for a quick look")
    args = parser.parse_args(argv)

    if not (SRC / "qubolin" / "cli.py").is_file():
        print(f"perfbench: no qubolin sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
        tracer = Tracer() if args.trace else None
        setups = []

        def set_up_once():
            cli, import_s, gen_s = set_up(workload, tracer, f"setup{len(setups)}")
            setups.append((import_s, gen_s))
            return cli

        cli = set_up_once()
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported qubolin from {cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        jobs = workload.jobs()
        m = measure(cli, jobs, args.seconds, tracer, set_up_once)
        if not m.times[False] or (tracer and not m.traced_jobs):
            print(f"perfbench: {m.failed} of {m.attempted} jobs failed, too few passed to measure", file=sys.stderr)
            return 1
        if tracer:
            metrics = per_layer(m, tracer, setups)
            tracer.write(
                HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed},
            )
        else:
            metrics = end_to_end(m, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
