import csv
import json
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_integer_qubo
from qubolin import (
    QuboMatrix,
    SynthParams,
    extract_order_dense,
    generate_hard,
    generate_synthetic,
    linearize,
    load_qubo,
    od_count,
    parse_orlib,
    save_qubo,
)
from qubolin import cli, ordering
from qubolin.cli import build_parser, main
from qubolin.linearize import LinearizationReport, save_report
from qubolin.ordering import OrderDag, save_order


@pytest.fixture
def example_file(tmp_path, example_q):
    path = tmp_path / "example.json"
    save_qubo(example_q, path)
    return path


class TestGen:
    def test_synth_is_complete_clique(self, tmp_path):
        out = tmp_path / "synth.json"
        assert main(["gen", "synth", "--n", "180", "--s", "10", "--p", "0.5",
                     "--seed", "1", "--out", str(out)]) == 0
        q = load_qubo(out)
        assert od_count(q) == 16110
        manifest = json.loads((tmp_path / "synth.json.manifest.json").read_text())
        assert manifest["params"]["seed"] == 1

    def test_hard_entry_support(self, tmp_path):
        out = tmp_path / "hard.json"
        assert main(["gen", "hard", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
        q = load_qubo(out)
        assert set(q.terms.values()) <= {-1.0, 1.0}

    def test_mkp_file_parses(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert main(["gen", "mkp", "--n", "30", "--m", "5", "--alpha", "0.25",
                     "--seed", "7", "--out", str(out)]) == 0
        inst = parse_orlib(out.read_text())[0]
        assert (inst.n, inst.m) == (30, 5)

    def test_bad_usage_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["gen", "synth", "--n", "10"])
        assert err.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["exp", "od-reduction", "--p-grid", "0.5,a"], "--p-grid"),
    (["exp", "od-reduction", "--p-grid", ""], "--p-grid"),
    (["exp", "timing", "--n-list", "8,x"], "--n-list"),
    (["exp", "timing", "--n-list", "8,12.5"], "--n-list"),
])
def test_bad_list_entry_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(out)])
    assert err.value.code == 2
    assert f"argument {flag}: must be comma-separated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("classes, label", [("p=abc", "p=abc"), ("hard,p=", "p="), ("p=2.0,dense", "dense")])
def test_bad_timing_class_is_usage_error(tmp_path, capsys, classes, label):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main(["exp", "timing", "--classes", classes, "--out", str(out)])
    assert err.value.code == 2
    assert f"argument --classes: unknown timing class {label!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "synth", "--n", "5", "--p", "1.0"],
    ["gen", "hard", "--n", "5"],
    ["gen", "mkp", "--n", "5", "--m", "1", "--alpha", "0.5"],
    ["solve", "--in", "q.json", "--method", "sa"],
    ["exp", "mkp-gap", "--mkp", "inst.txt"],
])
def test_negative_seed_names_the_flag(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "-1", "--out", str(out)])
    assert err.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


class TestPipeline:
    def test_order_then_linearize_reproduces_rewrite(self, tmp_path, example_file,
                                                     example_q_linearized):
        order_path = tmp_path / "order.json"
        out_path = tmp_path / "lin.json"
        report_path = tmp_path / "report.json"
        assert main(["order", "--in", str(example_file), "--out", str(order_path)]) == 0
        assert json.loads(order_path.read_text()) == {"n": 3, "edges": [[0, 1], [0, 2]]}
        assert main(["linearize", "--in", str(example_file), "--order", str(order_path),
                     "--out", str(out_path), "--report", str(report_path)]) == 0
        assert load_qubo(out_path) == example_q_linearized
        report = json.loads(report_path.read_text())
        assert report["removed_count"] == 2
        assert report["removed"] == [[0, 1, 2.0], [0, 2, 7.0]]

    def test_fused_linearize_without_order(self, tmp_path, example_file, example_q_linearized):
        out_path = tmp_path / "lin.json"
        assert main(["linearize", "--in", str(example_file), "--out", str(out_path)]) == 0
        assert load_qubo(out_path) == example_q_linearized

    @pytest.mark.parametrize("block", [ordering._SCORE_BLOCK, 200])
    def test_fused_writes_the_dense_order_rewrite(self, tmp_path, monkeypatch, block):
        # n on both sides of the bound's 32 columns; the small scorer block
        # splits the bound and the exact scoring into many groups and blocks
        monkeypatch.setattr(ordering, "_SCORE_BLOCK", block)
        rng = np.random.default_rng(61)
        instances = [
            generate_synthetic(SynthParams(n, p, seed=n))
            for n in (20, 45)
            for p in (0.1, 0.2, 0.5, 1.0, 1.5, 2.0)
        ]
        instances += [generate_hard(n, seed=n) for n in (12, 31, 33, 60)]
        instances += [random_integer_qubo(rng, n, density=d) for n in (9, 40, 70) for d in (0.1, 0.5, 1.0)]
        paths = {name: tmp_path / f"{name}.json" for name in ("in", "lin", "report", "lin_ref", "report_ref")}
        for q in instances:
            save_qubo(q, paths["in"])
            assert main(["linearize", "--in", str(paths["in"]), "--out", str(paths["lin"]),
                         "--report", str(paths["report"])]) == 0
            q_lin, report = linearize(q, extract_order_dense(q))
            save_qubo(q_lin, paths["lin_ref"])
            save_report(report, paths["report_ref"])
            assert paths["lin"].read_bytes() == paths["lin_ref"].read_bytes()
            assert paths["report"].read_bytes() == paths["report_ref"].read_bytes()

    def test_sparse_order_flag(self, tmp_path, example_file):
        order_path = tmp_path / "order.json"
        assert main(["order", "--in", str(example_file), "--out", str(order_path),
                     "--sparse"]) == 0
        assert json.loads(order_path.read_text())["edges"] == [[0, 1], [0, 2]]

    def test_uncertified_order_rejected(self, tmp_path, example_file, capsys):
        bad = tmp_path / "bad_order.json"
        save_order(OrderDag(3, ((1, 0),)), bad)
        out = tmp_path / "lin.json"
        code = main(["linearize", "--in", str(example_file), "--order", str(bad),
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "(1, 0)" in err and "score" in err
        assert not out.exists()

    def test_no_verify_overrides(self, tmp_path, example_file):
        bad = tmp_path / "bad_order.json"
        save_order(OrderDag(3, ((1, 0),)), bad)
        out = tmp_path / "lin.json"
        assert main(["linearize", "--in", str(example_file), "--order", str(bad),
                     "--out", str(out), "--no-verify"]) == 0
        assert out.exists()

    def test_dominance_order_needs_no_verify(self, tmp_path):
        # the knapsack dominance order preserves the optimum, but the generic
        # pairwise score rejects it on the encoded QUBO: the slack couplings
        # of a strictly lighter item push the score positive
        from qubolin import encode_linearized, extract_mkp_order, parse_orlib

        inst_path = tmp_path / "inst.txt"
        inst_path.write_text("1 2 1 0  3 4  5 2  6\n")
        inst = parse_orlib(inst_path.read_text())[0]
        qubo_path = tmp_path / "enc.json"
        assert main(["encode", "--mkp", str(inst_path), "--lambda", "8",
                     "--out", str(qubo_path)]) == 0
        n_total = load_qubo(qubo_path).n
        order_path = tmp_path / "dominance.json"
        save_order(OrderDag(n_total, extract_mkp_order(inst).edges), order_path)

        out = tmp_path / "lin.json"
        assert main(["linearize", "--in", str(qubo_path), "--order", str(order_path),
                     "--out", str(out)]) == 3
        assert main(["linearize", "--in", str(qubo_path), "--order", str(order_path),
                     "--out", str(out), "--no-verify"]) == 0
        assert load_qubo(out) == encode_linearized(inst, 8.0).qubo


class TestMalformedJson:
    """Malformed QUBO and order files exit 3 with a message naming the item."""

    def _linearize(self, tmp_path, capsys, qubo_json, order_json=None):
        qubo_path = tmp_path / "q.json"
        qubo_path.write_text(qubo_json)
        argv = ["linearize", "--in", str(qubo_path), "--out", str(tmp_path / "lin.json")]
        if order_json is not None:
            order_path = tmp_path / "order.json"
            order_path.write_text(order_json)
            argv += ["--order", str(order_path), "--no-verify"]
        code = main(argv)
        assert not (tmp_path / "lin.json").exists()
        return code, capsys.readouterr().err

    def test_terms_not_a_list(self, tmp_path, capsys):
        code, err = self._linearize(tmp_path, capsys, '{"n": 3, "terms": 5}')
        assert code == 3
        assert "'terms' must be a list" in err and "5" in err

    def test_float_indices(self, tmp_path, capsys):
        code, err = self._linearize(tmp_path, capsys, '{"n": 2, "terms": [[0.7, 1.2, 5]]}')
        assert code == 3
        assert "[0.7, 1.2, 5]" in err and "indices must be integers" in err

    def test_boolean_variable_count(self, tmp_path, capsys):
        code, err = self._linearize(tmp_path, capsys, '{"n": true, "terms": []}')
        assert code == 3
        assert "'n' must be an integer, got True" in err

    def test_string_coefficient(self, tmp_path, capsys):
        code, err = self._linearize(tmp_path, capsys, '{"n": 2, "terms": [[0, 1, "3"]]}')
        assert code == 3
        assert "[0, 1, '3']" in err and "coefficient must be a finite number" in err

    def test_float_order_edge(self, tmp_path, capsys):
        code, err = self._linearize(
            tmp_path, capsys, '{"n": 2, "terms": [[0, 1, 5]]}', '{"n": 2, "edges": [[0.9, 1.5]]}'
        )
        assert code == 3
        assert "[0.9, 1.5]" in err and "pair of integers" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("terms, message", [
        ([[0, 1, 1e308], [1, 0, 1e308]], "coefficient at (0, 1) is not finite once folded: inf"),
        ([[0, 0, 1e308], [0, 1, 1e308], [1, 1, 1e308]], "linearized diagonal at (0, 0) is not finite: inf"),
    ], ids=["folded-mirror", "linearized-diagonal"])
    def test_sum_overflowing_to_infinity(self, tmp_path, capsys, terms, message):
        code, err = self._linearize(tmp_path, capsys, json.dumps({"n": 2, "terms": terms}))
        assert code == 3
        assert message in err


class TestDenseMemoryLimit:
    @pytest.fixture
    def wide_file(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text('{"n": 60000, "terms": [[0, 1, 1.0]]}')
        return path

    @pytest.mark.parametrize("argv", [["order"], ["solve", "--method", "sa"]])
    def test_dense_matrix_over_limit_exits_four(self, tmp_path, capsys, wide_file, argv):
        assert main([*argv, "--in", str(wide_file), "--out", str(tmp_path / "out.json")]) == 4
        assert "n=60000 needs 28800000000 bytes" in capsys.readouterr().err

    def test_fused_linearize_allocates_no_dense_matrix(self, tmp_path, wide_file):
        out = tmp_path / "lin.json"
        assert main(["linearize", "--in", str(wide_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"n": 60000, "terms": [[0, 0, 1.0]]}


class TestHugeVariableCount:
    """n beyond any O(n) array: the sparse path stops before allocating."""

    @pytest.mark.parametrize("n", [10**12, 10**30])
    @pytest.mark.parametrize("argv", [["linearize"], ["order", "--sparse"]])
    def test_sparse_path_exits_four(self, tmp_path, capsys, n, argv):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": n, "terms": [[0, 1, 1.0]]}))
        out = tmp_path / "out.json"
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 4
        assert f"n={n} needs {8 * n * 33} bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_index_over_the_limit_exits_four(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"n": 10**30, "terms": [[0, 0, 1.0], [1, 2**31, 1.0]]}))
        assert main(["order", "--sparse", "--in", str(path), "--out", str(tmp_path / "o.json")]) == 4
        assert "index pair (1, 2147483648) reaches the index limit" in capsys.readouterr().err

    def test_order_edge_over_the_limit_exits_four(self, tmp_path, capsys):
        qubo_path, order_path = tmp_path / "q.json", tmp_path / "order.json"
        qubo_path.write_text(json.dumps({"n": 10**30, "terms": [[0, 1, 1.0]]}))
        order_path.write_text(json.dumps({"n": 10**30, "edges": [[0, 10**20]]}))
        argv = ["linearize", "--in", str(qubo_path), "--order", str(order_path), "--no-verify"]
        assert main([*argv, "--out", str(tmp_path / "lin.json")]) == 4
        assert "edge (0, 100000000000000000000) reaches the index limit" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [([], "topological sort"), (["--no-verify"], "diagonal")])
    def test_order_over_huge_n_exits_four(self, tmp_path, capsys, flag, what):
        qubo_path, order_path = tmp_path / "q.json", tmp_path / "order.json"
        qubo_path.write_text(json.dumps({"n": 10**12, "terms": [[0, 1, 1.0]]}))
        order_path.write_text(json.dumps({"n": 10**12, "edges": [[0, 1]]}))
        out = tmp_path / "lin.json"
        assert main(["linearize", "--in", str(qubo_path), "--order", str(order_path), *flag, "--out", str(out)]) == 4
        assert f"{what} of n={10**12} needs" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "synth", "--n", "1000000", "--p", "2.0", "--seed", "0"],
     "term arrays of n=1000000 needs 12000012000000 bytes"),
    (["gen", "hard", "--n", "1000000", "--seed", "0"], "term arrays of n=1000000 needs"),
    (["exp", "od-reduction", "--n", "1000000", "--p-grid", "2.0", "--seeds", "1"], "term arrays of n=1000000 needs"),
    (["gen", "mkp", "--n", str(10**12), "--m", "1", "--alpha", "0.5", "--seed", "0"],
     f"weights of m=1 constraints of n={10**12} needs {8 * 10**12} bytes"),
])
def test_generator_over_the_limit_exits_four(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "synth", "--n", "10", "--p", "inf", "--seed", "0"], "p=inf"),
    (["gen", "synth", "--n", "10", "--p", "1e308", "--seed", "0"], "p=1e+308 reach 2**53"),
    (["gen", "synth", "--n", "10", "--p", "1e17", "--seed", "0"], "p=1e+17 reach 2**53"),
    (["gen", "synth", "--n", "10", "--p", "2.0", "--s", str(10**22), "--seed", "0"], f"s={10**22}"),
    (["exp", "od-reduction", "--n", "10", "--p-grid", "inf", "--seeds", "1"], "p=inf"),
    (["exp", "od-reduction", "--n", "10", "--p-grid", "nan", "--seeds", "1"], "p=nan"),
    (["encode", "--mkp", "{mkp}", "--lambda", "nan"], "lambda must be positive and finite, got nan"),
    (["exp", "mkp-gap", "--mkp", "{mkp}", "--lambda", "inf"], "lambda must be positive and finite, got inf"),
    (["solve", "--in", "{qubo}", "--method", "sa", "--beta-start", "1", "--beta-end", "inf"], "beta_end=inf"),
    (["solve", "--in", "{qubo}", "--method", "sa", "--beta-start", "nan", "--beta-end", "1"], "beta_start=nan"),
])
def test_non_finite_or_oversized_parameter_exits_three(tmp_path, capsys, example_q, argv, message):
    mkp, qubo, out = tmp_path / "inst.txt", tmp_path / "q.json", tmp_path / "out"
    mkp.write_text("1\n2 1 0\n5 7\n3 4\n5\n")
    save_qubo(example_q, qubo)
    argv = [a.format(mkp=mkp, qubo=qubo) for a in argv]
    assert main([*argv, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestNoTermsOnHotPaths:
    """The CLI commands work on the arrays: they never build ``QuboMatrix.terms``."""

    @pytest.fixture(autouse=True)
    def forbid_terms(self, monkeypatch):
        def fail(self):
            raise AssertionError("QuboMatrix.terms on a hot path")

        monkeypatch.setattr(QuboMatrix, "terms", property(fail))

    def test_order_and_linearize(self, tmp_path):
        q = generate_synthetic(SynthParams(n=40, p=2.0, seed=3))
        path, order, out = tmp_path / "q.json", tmp_path / "order.json", tmp_path / "lin.json"
        save_qubo(q, path)
        for argv in (
            ["order", "--in", str(path), "--out", str(order)],
            ["order", "--sparse", "--in", str(path), "--out", str(order)],
            ["linearize", "--in", str(path), "--out", str(out), "--report", str(tmp_path / "r.json")],
            ["linearize", "--in", str(path), "--order", str(order), "--out", str(out)],
            ["solve", "--in", str(path), "--method", "sa", "--sweeps", "2", "--restarts", "1",
             "--out", str(tmp_path / "s.json")],
        ):
            assert main(argv) == 0

    @pytest.mark.parametrize("flag", [[], ["--linearize"]])
    def test_encode_solve_decode(self, tmp_path, flag):
        inst, enc, samples = tmp_path / "inst.txt", tmp_path / "enc.json", tmp_path / "s.json"
        for argv in (
            ["gen", "mkp", "--n", "12", "--m", "2", "--alpha", "0.5", "--seed", "1", "--out", str(inst)],
            ["encode", "--mkp", str(inst), "--lambda", "0.37", *flag, "--out", str(enc)],
            ["solve", "--in", str(enc), "--method", "sa", "--sweeps", "2", "--restarts", "2", "--out", str(samples)],
            ["decode", "--mkp", str(inst), "--lambda", "0.37", *flag, "--samples", str(samples)],
        ):
            assert main(argv) == 0


class TestNoTriplesOnHotPaths:
    """``linearize`` hands its report arrays, never Python triples, and the
    CLI formats a report only when ``--report`` asks for one."""

    @pytest.fixture(autouse=True)
    def arrays_only(self, monkeypatch):
        post_init = LinearizationReport.__post_init__

        def check(report):
            for name in ("src", "dst", "coef"):
                assert isinstance(getattr(report, name), np.ndarray), f"report {name} built as Python objects"
            post_init(report)

        def fail(*args):
            raise AssertionError("report formatted without --report")

        monkeypatch.setattr(LinearizationReport, "__post_init__", check)
        monkeypatch.setattr(cli, "save_report", fail)

    def test_linearize(self, tmp_path):
        q = generate_synthetic(SynthParams(n=40, p=2.0, seed=3))
        path, order, out = tmp_path / "q.json", tmp_path / "order.json", tmp_path / "lin.json"
        save_qubo(q, path)
        for argv in (
            ["order", "--in", str(path), "--out", str(order)],
            ["linearize", "--in", str(path), "--out", str(out)],
            ["linearize", "--in", str(path), "--order", str(order), "--out", str(out)],
        ):
            assert main(argv) == 0
        assert od_count(load_qubo(out)) < od_count(q)

    def test_encode_linearized(self, tmp_path):
        inst, enc = tmp_path / "inst.txt", tmp_path / "enc.json"
        assert main(["gen", "mkp", "--n", "12", "--m", "2", "--alpha", "0.5", "--seed", "1", "--out", str(inst)]) == 0
        assert main(["encode", "--mkp", str(inst), "--linearize", "--out", str(enc)]) == 0


# JSON values of every shape the QUBO boundary must survive
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2**31, 2**63, 10**20, -(10**20), 10**400]), st.text(max_size=3),
)
_indices = st.one_of(st.integers(-2, 6), st.booleans(), st.floats(-2, 8), st.sampled_from([2**31, 2**63, 10**20]))
_coefficients = st.one_of(
    st.integers(-5, 5), st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([10**400, -(10**309)]),
    st.booleans(), st.text(max_size=2), st.none(),
)
_items = st.one_of(
    st.tuples(_indices, _indices, _coefficients).map(list),
    st.lists(_json_scalars, max_size=4),
    _json_scalars,
    st.dictionaries(st.text(max_size=2), _json_scalars, max_size=2),
)
_counts = st.one_of(
    st.integers(-2, 7), st.booleans(), st.floats(), st.sampled_from([10**12, 10**30, -(10**30)]), st.text(max_size=2)
)


@st.composite
def _folding_files(draw):
    """Valid terms plus literal duplicates and mirror pairs that fold to zero,
    over a small or a huge variable count."""
    k = draw(st.integers(1, 6))
    cell = st.integers(0, k - 1)
    base = draw(st.lists(st.tuples(cell, cell, st.integers(-4, 4)), max_size=8))
    terms = [list(t) for t in base]
    for i, j, v in draw(st.lists(st.sampled_from(base), max_size=3)) if base else ():
        terms.append([i, j, v] if draw(st.booleans()) else [j, i, -v])
    n = draw(st.sampled_from([k, k, 10**12, 10**30]))
    return {"n": n, "terms": draw(st.permutations(terms))}


_qubo_json = st.one_of(
    _folding_files(),
    st.fixed_dictionaries({"n": _counts, "terms": st.one_of(st.lists(_items, max_size=6), _json_scalars)}),
    st.dictionaries(st.sampled_from(["n", "terms", "x"]), _json_scalars, max_size=3),
    st.lists(_json_scalars, max_size=3),
    _json_scalars,
)


@settings(max_examples=150, deadline=None)
@given(_qubo_json)
def test_any_json_ends_in_a_documented_exit_code(value):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "q.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(value))
        for argv in (["order"], ["linearize"], ["solve", "--method", "sa", "--sweeps", "1"]):
            assert main([*argv, "--in", str(path), "--out", str(out)]) in (0, 2, 3, 4)


class TestSolve:
    def test_brute_on_example(self, tmp_path, example_file):
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(example_file), "--method", "brute",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["samples"][0] == {"bits": "001", "energy": -8.0}

    def test_brute_size_limit_exits_four(self, tmp_path):
        big = tmp_path / "big.json"
        save_qubo(QuboMatrix.from_entries(27, []), big)
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(big), "--method", "brute", "--out", str(out)]) == 4

    def test_brute_at_limit_succeeds(self, tmp_path):
        edge = tmp_path / "edge.json"
        save_qubo(QuboMatrix.from_entries(26, [(25, 25, -1)]), edge)
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(edge), "--method", "brute", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["samples"][0]["energy"] == -1.0

    def test_sa_with_default_schedule(self, tmp_path, example_file):
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(example_file), "--method", "sa",
                     "--sweeps", "40", "--restarts", "4", "--seed", "9",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["samples"]) == 4

    def test_sa_with_explicit_schedule(self, tmp_path, example_file):
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(example_file), "--method", "sa",
                     "--sweeps", "50", "--restarts", "6", "--seed", "1",
                     "--beta-start", "0.01", "--beta-end", "5.0", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["samples"]) == 6
        assert min(s["energy"] for s in data["samples"]) == -8.0

    @pytest.mark.parametrize("given, missing", [("--beta-start", "--beta-end"),
                                                ("--beta-end", "--beta-start")])
    def test_lone_beta_flag_is_usage_error(self, tmp_path, example_file, capsys, given, missing):
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(example_file), "--method", "sa",
                     given, "0.5", "--out", str(out)]) == 2
        assert f"{missing} is missing" in capsys.readouterr().err
        assert not out.exists()


    def test_huge_sweeps_exits_four(self, tmp_path, example_file, capsys):
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(example_file), "--method", "sa",
                     "--sweeps", "1000000000000", "--out", str(out)]) == 4
        assert "sweeps=1000000000000 needs 8000000000000 bytes" in capsys.readouterr().err
        assert not out.exists()


class TestEncodeDecode:
    def test_encode_solve_decode_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        assert main(["gen", "mkp", "--n", "8", "--m", "1", "--alpha", "0.5",
                     "--seed", "5", "--out", str(inst_path)]) == 0
        qubo_path = tmp_path / "enc.json"
        layout_path = tmp_path / "layout.json"
        assert main(["encode", "--mkp", str(inst_path), "--lambda", "100000",
                     "--linearize", "--out", str(qubo_path), "--layout", str(layout_path)]) == 0
        layout = json.loads(layout_path.read_text())
        assert layout["n_decision"] == 8
        assert layout["lambda"] == 100000
        assert {"constraint", "offset", "weights"} <= set(layout["slack_blocks"][0])

        samples_path = tmp_path / "samples.json"
        assert main(["solve", "--in", str(qubo_path), "--method", "sa", "--sweeps", "200",
                     "--restarts", "10", "--seed", "2", "--beta-start", "1e-7",
                     "--beta-end", "0.05", "--out", str(samples_path)]) == 0
        capsys.readouterr()
        assert main(["decode", "--mkp", str(inst_path), "--lambda", "100000",
                     "--linearize", "--samples", str(samples_path)]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert len(decoded) == 10
        assert any(d["feasible"] for d in decoded)

    def test_encode_default_layout_path(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        main(["gen", "mkp", "--n", "4", "--m", "1", "--alpha", "0.5",
              "--seed", "1", "--out", str(inst_path)])
        qubo_path = tmp_path / "enc.json"
        assert main(["encode", "--mkp", str(inst_path), "--out", str(qubo_path)]) == 0
        assert (tmp_path / "enc.json.layout.json").exists()

    def test_bad_index_exits_three(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        main(["gen", "mkp", "--n", "4", "--m", "1", "--alpha", "0.5",
              "--seed", "1", "--out", str(inst_path)])
        assert main(["encode", "--mkp", str(inst_path), "--index", "3",
                     "--out", str(tmp_path / "x.json")]) == 3

    def test_malformed_instance_exits_three(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 1 0 10 7 5")
        assert main(["encode", "--mkp", str(bad), "--out", str(tmp_path / "x.json")]) == 3

    @pytest.mark.parametrize("text, argv, message", [
        (f"1 2 1 0  1 {10**20}  1 1  1", ["decode", "--samples", "none.json"], f"value of item 1 is {10**20}"),
        (f"1 2 1 0  1 1  1 {10**20}  1", ["encode", "--out", "x.json"], f"weight (0, 1) is {10**20}"),
        ("1 2 1 0  1 1  1 4000000000  1", ["encode", "--out", "x.json"], "weight (0, 1) is 4000000000"),
        (f"1 2 1 0  1 1  1 1  {10**20}", ["exp", "mkp-gap", "--out", "x.csv"], f"capacity 0 is {10**20}"),
    ], ids=["value", "weight", "weight-4e9", "capacity"])
    def test_number_over_its_limit_exits_three(self, tmp_path, capsys, monkeypatch, text, argv, message):
        monkeypatch.chdir(tmp_path)
        Path("inst.txt").write_text(text)
        assert main([*argv, "--mkp", "inst.txt"]) == 3
        assert message in capsys.readouterr().err
        assert not Path(argv[-1]).exists()

    @pytest.mark.parametrize("samples_text, message", [
        ("{}", "'samples' list, got {}"),
        ('{"samples": [{"bits": 5}]}', "sample 0 needs 'bits'"),
        ('{"samples": [{"energy": 1}]}', "got {'energy': 1}"),
        ("[1]", "'samples' list, got [1]"),
    ])
    def test_malformed_sample_set_exits_three(self, tmp_path, capsys, samples_text, message):
        inst_path = tmp_path / "inst.txt"
        main(["gen", "mkp", "--n", "4", "--m", "1", "--alpha", "0.5",
              "--seed", "1", "--out", str(inst_path)])
        samples = tmp_path / "samples.json"
        samples.write_text(samples_text)
        assert main(["decode", "--mkp", str(inst_path), "--samples", str(samples)]) == 3
        assert message in capsys.readouterr().err


class TestExperiments:
    def test_od_reduction_csv(self, tmp_path):
        out = tmp_path / "od.csv"
        assert main(["exp", "od-reduction", "--n", "30", "--p-grid", "0.5,2.0",
                     "--seeds", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 4 cells + 2 mean rows
        assert (tmp_path / "od.manifest.json").exists()

    def test_timing_csv(self, tmp_path, capsys):
        out = tmp_path / "timing.csv"
        assert main(["exp", "timing", "--n-list", "8,12,16,24", "--classes", "hard",
                     "--seeds", "1", "--repeats", "1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "hard: exponent" in printed
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(r["record"] == "fit" for r in rows) == 1

    def test_mkp_gap_csv(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        main(["gen", "mkp", "--n", "10", "--m", "1", "--alpha", "0.5",
              "--seed", "3", "--out", str(inst_path)])
        out = tmp_path / "gap.csv"
        assert main(["exp", "mkp-gap", "--mkp", str(inst_path), "--sweeps", "60",
                     "--restarts", "5", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["baseline", "linearized"]
        assert rows[0]["s_best"] == rows[1]["s_best"]

    @pytest.mark.parametrize("argv", [
        ["od-reduction", "--n", "10", "--p-grid", "0.5"],
        ["timing", "--n-list", "8,12,16,24", "--classes", "hard", "--repeats", "1"],
    ])
    def test_zero_seeds_exits_three(self, tmp_path, capsys, argv):
        out = tmp_path / "exp.csv"
        assert main(["exp", *argv, "--seeds", "0", "--out", str(out)]) == 3
        assert "at least one seed" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_sweeps_exits_four(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        main(["gen", "mkp", "--n", "10", "--m", "1", "--alpha", "0.5",
              "--seed", "3", "--out", str(inst_path)])
        out = tmp_path / "gap.csv"
        assert main(["exp", "mkp-gap", "--mkp", str(inst_path), "--sweeps", "1000000000000",
                     "--out", str(out)]) == 4
        assert "sweeps=1000000000000 needs 8000000000000 bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_instances_exits_three(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("0\n")
        out = tmp_path / "gap.csv"
        assert main(["exp", "mkp-gap", "--mkp", str(empty), "--out", str(out)]) == 3
        assert "at least one instance" in capsys.readouterr().err
        assert not out.exists()


def readme_commands() -> list[list[str]]:
    """Every ``qubolin ...`` invocation in the README's plain code blocks.

    Indented lines continue the line above; ``[...]`` groups and ``#``
    comments are dropped, shell variables read as 0, and each part of a
    line split at ``;`` is taken when it starts with ``qubolin`` (or
    ``do qubolin``, in a one-line loop).
    """
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    logical: list[str] = []
    info = None  # info string of the open fence, None outside a block
    for line in text.splitlines():
        if line.startswith("```"):
            info = line[3:].strip() if info is None else None
        elif info == "" and line.strip():
            if line[0].isspace() and logical:
                logical[-1] += " " + line.strip()
            else:
                logical.append(line)
    commands = []
    for line in logical:
        line = re.sub(r"\[[^\]]*\]", "", line.split("#")[0])
        for part in line.split(";"):
            words = shlex.split(re.sub(r"\$\w+", "0", part))
            if words[:1] == ["do"]:
                words = words[1:]
            if words[:1] == ["qubolin"]:
                commands.append(words)
    return commands


def option_strings(parser) -> set[str]:
    """Every option string of the parser and of its subcommands."""
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                out |= option_strings(sub)
    return out


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert len(commands) >= 15
    # argparse takes unambiguous prefixes, so a renamed flag could still parse
    flags = option_strings(build_parser())
    for words in commands:
        try:
            build_parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(words)}")
        stale = [w for w in words if w.startswith("--") and w not in flags]
        assert not stale, f"README command uses unknown flags {stale}: {shlex.join(words)}"
