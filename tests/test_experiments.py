import csv

import pytest

from qubolin import MkpInstance, generate_mkp
from qubolin.experiments import (
    MKP_GAP_FIELDS,
    OD_REDUCTION_FIELDS,
    TIMING_FIELDS,
    fit_power_law,
    mkp_gap,
    od_reduction,
    parse_timing_class,
    run_timing,
    write_csv,
)


class TestPowerLawFit:
    def test_perfect_cubic(self):
        ns = [100, 200, 400, 800]
        times = [2e-9 * n**3 for n in ns]
        assert fit_power_law(ns, times) == pytest.approx(3.0, abs=0.01)

    def test_perfect_quadratic(self):
        ns = [50, 100, 200, 400]
        times = [1e-7 * n**2 for n in ns]
        assert fit_power_law(ns, times) == pytest.approx(2.0, abs=0.01)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([10], [1.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTimingHarness:
    def test_injected_cubic_clock_fits_exponent_three(self):
        clock = FakeClock()

        def fake_extract(q):
            clock.now += 1e-9 * q.n**3

        rows, fits = run_timing(
            [8, 16, 32, 64], ["hard"], [0, 1], repeats=3, timer=clock, extract=fake_extract
        )
        assert fits["hard"] == pytest.approx(3.0, abs=0.01)
        fit_rows = [r for r in rows if r["record"] == "fit"]
        assert len(fit_rows) == 1
        assert fit_rows[0]["exponent"] == fits["hard"]

    def test_requires_four_sizes(self):
        with pytest.raises(ValueError):
            run_timing([8, 16, 8], ["hard"], [0])

    def test_cell_rows_cover_grid(self):
        clock = FakeClock()
        rows, _ = run_timing(
            [4, 8, 12, 16], ["hard"], [0], repeats=1, timer=clock,
            extract=lambda q: setattr(clock, "now", clock.now + q.n),
        )
        cells = [r for r in rows if r["record"] == "cell"]
        assert [(r["n"], r["seed"]) for r in cells] == [(4, 0), (8, 0), (12, 0), (16, 0)]

    def test_class_labels(self):
        assert parse_timing_class("hard")(10, 0).n == 10
        assert parse_timing_class("p=0.5")(10, 0).n == 10
        with pytest.raises(ValueError):
            parse_timing_class("bogus")


class TestOdReduction:
    def test_rows_and_means(self):
        rows, manifest = od_reduction(30, 10, [0.5, 2.0], [0, 1])
        cells = [r for r in rows if r["seed"] != "mean"]
        means = [r for r in rows if r["seed"] == "mean"]
        assert len(cells) == 4 and len(means) == 2
        for row in cells:
            assert row["od_before"] == 30 * 29 // 2
            assert row["od_after"] == row["od_before"] - row["edges"]
            assert row["reduction_pct"] == pytest.approx(
                row["edges"] / row["od_before"] * 100
            )
        assert manifest["seeds"] == [0, 1]

    def test_bit_reproducible(self):
        rows1, _ = od_reduction(25, 10, [1.0], [0, 1, 2])
        rows2, _ = od_reduction(25, 10, [1.0], [0, 1, 2])
        assert rows1 == rows2

    def test_manifest_regenerates_cell(self):
        rows, manifest = od_reduction(25, 10, [1.5], [3])
        again, _ = od_reduction(manifest["n"], manifest["s"], manifest["p_grid"], manifest["seeds"])
        assert rows == again


class TestMkpGap:
    def test_zero_edge_instance_has_identical_arms(self):
        # incomparable items: no dominance edges, so both encodings coincide
        inst = MkpInstance((3, 4, 5), ((2, 5, 9),), (9,))
        rows, _ = mkp_gap([("flat", inst)], lam=10.0, sweeps=40, restarts=6, seed=0)
        base, lin = rows
        assert base["edges"] == 0
        assert base["best_gap"] == lin["best_gap"]
        assert base["avg_gap"] == lin["avg_gap"]
        assert base["feasible"] == lin["feasible"]

    def test_reference_score_from_dp(self):
        inst = MkpInstance((10, 7), ((5, 4),), (6,))
        rows, _ = mkp_gap([("tiny", inst)], lam=18.0, sweeps=60, restarts=8, seed=1)
        assert all(row["s_best"] == 10 for row in rows)

    def test_best_known_used_when_present(self):
        inst = MkpInstance((10, 7), ((5, 4),), (6,), best_known=10)
        rows, _ = mkp_gap([("tiny", inst)], lam=18.0, sweeps=30, restarts=4, seed=2)
        assert all(row["s_best"] == 10 for row in rows)

    def test_multi_constraint_requires_reference(self):
        inst = MkpInstance((10, 7), ((5, 4), (4, 5)), (6, 6))
        with pytest.raises(ValueError, match="best-known"):
            mkp_gap([("nameless", inst)], lam=18.0, sweeps=10, restarts=2, seed=3)

    def test_generated_instance_smoke(self):
        inst = generate_mkp(12, 1, 0.5, 0)
        rows, manifest = mkp_gap([("gen", inst)], lam=1.0, sweeps=80, restarts=10, seed=4)
        assert {row["method"] for row in rows} == {"baseline", "linearized"}
        for row in rows:
            assert 0 <= row["feasible"] <= 10
            if row["feasible"]:
                assert row["best_gap"] >= 0
        assert manifest["restarts"] == 10


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows, _ = od_reduction(20, 10, [1.0], [0])
        path = tmp_path / "out.csv"
        write_csv(rows, OD_REDUCTION_FIELDS, path)
        with open(path) as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == len(rows)
        assert read[0]["od_before"] == str(20 * 19 // 2)

    def test_field_sets_cover_harness_rows(self):
        rows, _ = od_reduction(20, 10, [1.0], [0])
        assert set(rows[0]) == set(OD_REDUCTION_FIELDS)
        clock = FakeClock()
        rows, _ = run_timing([4, 8, 12, 16], ["hard"], [0], repeats=1, timer=clock,
                             extract=lambda q: setattr(clock, "now", clock.now + q.n))
        assert set(rows[0]) == set(TIMING_FIELDS)
        inst = MkpInstance((10, 7), ((5, 4),), (6,))
        rows, _ = mkp_gap([("t", inst)], lam=18.0, sweeps=10, restarts=2, seed=0)
        assert set(rows[0]) == set(MKP_GAP_FIELDS)

