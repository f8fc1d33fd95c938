import csv
import json

import pytest

from qubolin import QuboMatrix, load_qubo, od_count, parse_orlib, save_qubo
from qubolin.cli import main
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


class TestSolve:
    def test_brute_on_example(self, tmp_path, example_file):
        out = tmp_path / "samples.json"
        assert main(["solve", "--in", str(example_file), "--method", "brute",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["samples"][0] == {"bits": "001", "energy": -8.0}

    def test_brute_size_limit_exits_four(self, tmp_path):
        big = tmp_path / "big.json"
        save_qubo(QuboMatrix(27, {}), big)
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
