"""Command-line interface wiring generators, preprocessing, solvers and experiments.

Exit codes: 0 success, 2 usage error, 3 validation or verification failure,
4 documented resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import experiments
from .errors import LimitError, ParseError
from .linearize import linearize, save_report
from .mkp import (
    decode,
    encode_linearized,
    encode_qubo,
    generate_mkp,
    parse_orlib,
    save_layout,
    serialize_orlib,
)
from .ordering import (
    extract_order_dense,
    extract_order_sparse,
    find_order_violation,
    load_order,
    save_order,
)
from .qubo import load_qubo, od_count, save_qubo
from .solver import AnnealSchedule, SampleSet, brute_force, default_schedule, save_sampleset, simulated_anneal
from .synth import SynthParams, generate_hard, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_LIMIT = 4


def _write_gen_manifest(out: Path, command: str, params: dict) -> None:
    manifest = {"command": command, "params": params, "artifact": str(out)}
    experiments.write_manifest(manifest, out.with_suffix(out.suffix + ".manifest.json"))


def _save_generated(q, out: str, command: str, params: dict) -> int:
    out = Path(out)
    save_qubo(q, out)
    _write_gen_manifest(out, command, params)
    print(f"wrote {out} with n={q.n}, off-diagonals={od_count(q)}")
    return EXIT_OK


def _cmd_gen_synth(args) -> int:
    q = generate_synthetic(SynthParams(n=args.n, p=args.p, seed=args.seed, s=args.s))
    return _save_generated(q, args.out, "gen synth", {"n": args.n, "s": args.s, "p": args.p, "seed": args.seed})


def _cmd_gen_hard(args) -> int:
    return _save_generated(generate_hard(args.n, args.seed), args.out, "gen hard", {"n": args.n, "seed": args.seed})


def _cmd_gen_mkp(args) -> int:
    inst = generate_mkp(args.n, args.m, args.alpha, args.seed)
    out = Path(args.out)
    out.write_text(serialize_orlib([inst]))
    _write_gen_manifest(
        out, "gen mkp", {"n": args.n, "m": args.m, "alpha": args.alpha, "seed": args.seed}
    )
    print(f"wrote {out} with n={inst.n}, m={inst.m}")
    return EXIT_OK


def _cmd_order(args) -> int:
    q = load_qubo(args.in_path)
    order = extract_order_sparse(q) if args.sparse else extract_order_dense(q)
    save_order(order, args.out)
    print(f"extracted {len(order)} edges over {q.n} variables -> {args.out}")
    return EXIT_OK


def _cmd_linearize(args) -> int:
    q = load_qubo(args.in_path)
    if args.order is not None:
        order = load_order(args.order)
        if not args.no_verify:
            violation = find_order_violation(q, order)
            if violation is not None:
                kind, detail = violation
                if kind == "cycle":
                    print("order rejected: the graph contains a cycle", file=sys.stderr)
                else:
                    i, j, s = detail
                    print(
                        f"order rejected: edge ({i}, {j}) has score {s:g} > 0",
                        file=sys.stderr,
                    )
                return EXIT_VALIDATION
    else:
        # linearize moves terms on coupled pairs only, so their order suffices
        order = extract_order_sparse(q)
    q_lin, report = linearize(q, order)
    save_qubo(q_lin, args.out)
    if args.report:
        save_report(report, args.report)
    print(
        f"removed {report.removed_count} off-diagonals "
        f"({od_count(q)} -> {od_count(q_lin)}) -> {args.out}"
    )
    return EXIT_OK


def _load_encoding(args):
    """Instance ``--index`` of the ``--mkp`` file and its encoding under ``--lambda``."""
    instances = parse_orlib(Path(args.mkp).read_text())
    if not 0 <= args.index < len(instances):
        raise ValueError(f"instance index {args.index} out of range (file holds {len(instances)})")
    inst = instances[args.index]
    enc = encode_linearized(inst, args.lam) if args.linearize else encode_qubo(inst, args.lam)
    return inst, enc


def _cmd_encode(args) -> int:
    inst, enc = _load_encoding(args)
    out = Path(args.out)
    save_qubo(enc.qubo, out)
    layout_path = Path(args.layout) if args.layout else out.with_suffix(out.suffix + ".layout.json")
    save_layout(enc, layout_path)
    print(
        f"encoded n={inst.n}, m={inst.m} into {enc.qubo.n} variables "
        f"(off-diagonals={od_count(enc.qubo)}) -> {out}"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    if (args.beta_start is None) != (args.beta_end is None):
        missing = "--beta-end" if args.beta_end is None else "--beta-start"
        print(f"usage error: --beta-start and --beta-end go together; {missing} is missing", file=sys.stderr)
        return EXIT_USAGE
    q = load_qubo(args.in_path)
    if args.method == "brute":
        value, assignment, count = brute_force(q)
        result = SampleSet(((assignment, value),), 0)
        save_sampleset(result, args.out)
        print(f"minimum {value:g} attained by {count} assignment(s)")
        return EXIT_OK
    if args.beta_start is not None:
        schedule = AnnealSchedule(
            sweeps=args.sweeps,
            beta_start=args.beta_start,
            beta_end=args.beta_end,
            restarts=args.restarts,
            seed=args.seed,
        )
    else:
        schedule = default_schedule(q, args.sweeps, args.restarts, args.seed)
    result = simulated_anneal(q, schedule)
    save_sampleset(result, args.out)
    print(f"best of {args.restarts} restarts: {result.best_energy():g}")
    return EXIT_OK


def _sample_bits(path: str, n: int) -> list[list[int]]:
    """The assignments of a sample-set file, each checked to be ``n`` bits."""
    data = json.loads(Path(path).read_text())
    if type(data) is not dict or type(data.get("samples")) is not list:
        raise ValueError(f"sample-set JSON must be an object with a 'samples' list, got {data!r}")
    rows = []
    for k, sample in enumerate(data["samples"]):
        bits = sample.get("bits") if type(sample) is dict else None
        if type(bits) is not str or len(bits) != n or not set(bits) <= {"0", "1"}:
            raise ValueError(f"sample {k} needs 'bits' as a string of {n} 0/1 characters, got {sample!r}")
        rows.append([int(b) for b in bits])
    return rows


def _cmd_decode(args) -> int:
    inst, enc = _load_encoding(args)
    rows = []
    for bits in _sample_bits(args.samples, enc.qubo.n):
        d = decode(enc, bits, inst)
        rows.append(
            {"objective": d.objective, "feasible": d.feasible, "excess": list(d.excess)}
        )
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def _cmd_exp_od(args) -> int:
    seeds = list(range(args.seeds))
    rows, manifest = experiments.od_reduction(args.n, args.s, args.p_grid, seeds)
    experiments.write_csv(rows, experiments.OD_REDUCTION_FIELDS, args.out)
    experiments.write_manifest(manifest, Path(args.out).with_suffix(".manifest.json"))
    for row in rows:
        if row["seed"] == "mean":
            print(f"p={row['p']}: mean reduction {row['reduction_pct']:.1f}%")
    return EXIT_OK


def _cmd_exp_timing(args) -> int:
    ns = args.n_list
    classes = args.classes
    rows, fits = experiments.run_timing(ns, classes, list(range(args.seeds)), repeats=args.repeats)
    experiments.write_csv(rows, experiments.TIMING_FIELDS, args.out)
    experiments.write_manifest(
        {
            "experiment": "timing",
            "ns": ns,
            "classes": classes,
            "seeds": list(range(args.seeds)),
            "repeats": args.repeats,
        },
        Path(args.out).with_suffix(".manifest.json"),
    )
    for label, exponent in fits.items():
        print(f"{label}: exponent {exponent:.2f}")
    return EXIT_OK


def _cmd_exp_mkp_gap(args) -> int:
    instances = []
    for path in args.mkp:
        for k, inst in enumerate(parse_orlib(Path(path).read_text())):
            instances.append((f"{Path(path).stem}#{k}", inst))
    rows, manifest = experiments.mkp_gap(
        instances,
        lam=args.lam,
        sweeps=args.sweeps,
        restarts=args.restarts,
        seed=args.seed,
        beta_start=args.beta_start,
        beta_end=args.beta_end,
    )
    experiments.write_csv(rows, experiments.MKP_GAP_FIELDS, args.out)
    experiments.write_manifest(manifest, Path(args.out).with_suffix(".manifest.json"))
    for row in rows:
        gap = row["best_gap"]
        gap_txt = f"{gap:.2f}%" if gap != "" else "no feasible sample"
        print(f"{row['instance']} [{row['method']}]: best gap {gap_txt}")
    return EXIT_OK


def _seed(text: str) -> int:
    """The argparse type of every ``--seed``: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _list_of(convert, what: str):
    """The argparse type of a comma-separated list of ``what``, each read by ``convert``."""

    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be comma-separated {what}, got {text!r}") from None

    return parse


def _timing_classes(text: str) -> list[str]:
    """The argparse type of ``--classes``: comma-separated class labels."""
    labels = text.split(",")
    for label in labels:
        try:
            experiments.parse_timing_class(label)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"unknown timing class {label!r}; use 'hard' or 'p=<number>'"
            ) from None
    return labels


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building its 14 parsers
    costs milliseconds, and parsing leaves it unchanged.  The command
    functions look library names up when they run, so a name patched in this
    module after the build still takes effect."""
    parser = argparse.ArgumentParser(
        prog="qubolin",
        description="Optimum-preserving ordering and linearization of QUBO problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate problem instances")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    g_synth = gen_sub.add_parser("synth", help="dense synthetic QUBO family")
    g_synth.add_argument("--n", type=int, required=True)
    g_synth.add_argument("--s", type=int, default=10)
    g_synth.add_argument("--p", type=float, required=True)
    g_synth.add_argument("--seed", type=_seed, required=True)
    g_synth.add_argument("--out", required=True)
    g_synth.set_defaults(func=_cmd_gen_synth)

    g_hard = gen_sub.add_parser("hard", help="QUBO with i.i.d. entries from {-1, 0, 1}")
    g_hard.add_argument("--n", type=int, required=True)
    g_hard.add_argument("--seed", type=_seed, required=True)
    g_hard.add_argument("--out", required=True)
    g_hard.set_defaults(func=_cmd_gen_hard)

    g_mkp = gen_sub.add_parser("mkp", help="random knapsack instance (OR-Library format)")
    g_mkp.add_argument("--n", type=int, required=True)
    g_mkp.add_argument("--m", type=int, required=True)
    g_mkp.add_argument("--alpha", type=float, required=True)
    g_mkp.add_argument("--seed", type=_seed, required=True)
    g_mkp.add_argument("--out", required=True)
    g_mkp.set_defaults(func=_cmd_gen_mkp)

    order = sub.add_parser("order", help="extract a certified precedence order")
    order.add_argument("--in", dest="in_path", required=True)
    order.add_argument("--out", required=True)
    order.add_argument("--sparse", action="store_true", help="examine adjacent pairs only")
    order.set_defaults(func=_cmd_order)

    lin = sub.add_parser("linearize", help="rewrite ordered positive quadratic terms")
    lin.add_argument("--in", dest="in_path", required=True)
    lin.add_argument(
        "--order",
        help="order JSON; omitted = extract the order of the coupled pairs and linearize in one pass",
    )
    lin.add_argument("--out", required=True)
    lin.add_argument("--report", help="write removal report JSON here")
    lin.add_argument(
        "--no-verify",
        action="store_true",
        help="skip certification (needed for orders with problem-specific certificates)",
    )
    lin.set_defaults(func=_cmd_linearize)

    enc = sub.add_parser("encode", help="encode a knapsack instance as QUBO")
    enc.add_argument("--mkp", required=True, help="OR-Library instance file")
    enc.add_argument("--index", type=int, default=0, help="instance index within the file")
    enc.add_argument("--lambda", dest="lam", type=float, default=1.0)
    enc.add_argument("--linearize", action="store_true")
    enc.add_argument("--out", required=True)
    enc.add_argument("--layout", help="layout JSON path (default: <out>.layout.json)")
    enc.set_defaults(func=_cmd_encode)

    solve = sub.add_parser("solve", help="minimize a QUBO")
    solve.add_argument("--in", dest="in_path", required=True)
    solve.add_argument("--method", choices=["sa", "brute"], required=True)
    solve.add_argument("--sweeps", type=int, default=1000)
    solve.add_argument("--restarts", type=int, default=10)
    solve.add_argument("--seed", type=_seed, default=0)
    solve.add_argument("--beta-start", type=float)
    solve.add_argument("--beta-end", type=float)
    solve.add_argument("--out", required=True)
    solve.set_defaults(func=_cmd_solve)

    dec = sub.add_parser("decode", help="project solver samples back onto a knapsack instance")
    dec.add_argument("--mkp", required=True)
    dec.add_argument("--index", type=int, default=0)
    dec.add_argument("--lambda", dest="lam", type=float, default=1.0)
    dec.add_argument("--linearize", action="store_true")
    dec.add_argument("--samples", required=True, help="sample-set JSON from solve")
    dec.set_defaults(func=_cmd_decode)

    exp = sub.add_parser("exp", help="experiment harnesses emitting CSV artifacts")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    e_od = exp_sub.add_parser("od-reduction", help="off-diagonal reduction grid")
    e_od.add_argument("--n", type=int, default=180)
    e_od.add_argument("--s", type=int, default=10)
    e_od.add_argument("--p-grid", type=_list_of(float, "numbers"), default="0.1,0.2,0.5,1.0,1.5,2.0")
    e_od.add_argument("--seeds", type=int, default=10, help="use seeds 0..N-1")
    e_od.add_argument("--out", required=True)
    e_od.set_defaults(func=_cmd_exp_od)

    e_t = exp_sub.add_parser("timing", help="extraction runtime scaling")
    e_t.add_argument("--n-list", type=_list_of(int, "integers"), default="100,200,400,800")
    e_t.add_argument("--classes", type=_timing_classes, default="p=2.0,hard")
    e_t.add_argument("--seeds", type=int, default=5)
    e_t.add_argument("--repeats", type=int, default=3)
    e_t.add_argument("--out", required=True)
    e_t.set_defaults(func=_cmd_exp_timing)

    e_g = exp_sub.add_parser("mkp-gap", help="baseline vs linearized annealing gaps")
    e_g.add_argument("--mkp", nargs="+", required=True, help="OR-Library instance files")
    e_g.add_argument("--lambda", dest="lam", type=float, default=1.0)
    e_g.add_argument("--sweeps", type=int, default=300)
    e_g.add_argument("--restarts", type=int, default=50)
    e_g.add_argument("--seed", type=_seed, default=0)
    e_g.add_argument("--beta-start", type=float)
    e_g.add_argument("--beta-end", type=float)
    e_g.add_argument("--out", required=True)
    e_g.set_defaults(func=_cmd_exp_mkp_gap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
