import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exhaustive_minimum, random_integer_qubo, reference_anneal_one
from qubolin import (
    AnnealSchedule,
    LimitError,
    QuboMatrix,
    SampleSet,
    brute_force,
    count_local_minima,
    default_schedule,
    encode_linearized,
    encode_qubo,
    energy,
    generate_mkp,
    simulated_anneal,
)
from qubolin.solver import brute_force_energies, minimum_assignments, save_sampleset


class TestBruteForce:
    def test_worked_example(self, example_q):
        assert brute_force(example_q) == (-8, (0, 0, 1), 1)

    def test_linearized_example_keeps_minimum(self, example_q_linearized):
        assert brute_force(example_q_linearized) == (-8, (0, 0, 1), 1)

    def test_diagonal_only_is_separable(self):
        diag = [3, -4, -7, 2]
        q = QuboMatrix.from_entries(4, [(i, i, d) for i, d in enumerate(diag) if d])
        value, argmin, _ = brute_force(q)
        assert value == sum(min(0, d) for d in diag)
        assert argmin == (0, 1, 1, 0)

    def test_degenerate_minima_counted(self):
        q = QuboMatrix.from_entries(3, [(0, 0, -5), (1, 1, -5)])
        value, _, count = brute_force(q)
        assert value == -10
        assert count == 2  # bit 2 is free

    def test_empty_problem(self):
        assert brute_force(QuboMatrix.from_entries(0, [])) == (0, (), 1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            q = random_integer_qubo(rng, n)
            value, argmin, count = brute_force(q)
            best, argmins = exhaustive_minimum(q)
            assert value == best
            assert argmin in argmins
            assert count == len(argmins)

    def test_size_limit(self):
        with pytest.raises(LimitError):
            brute_force(QuboMatrix.from_entries(27, []))

    def test_crosses_block_boundary(self):
        # n > 18 exercises the high/low split; pin the optimum on a high bit
        entries = [(i, i, 1) for i in range(19)]
        entries[18] = (18, 18, -2)
        q = QuboMatrix.from_entries(19, entries)
        assert brute_force(q) == (-2, tuple([0] * 18 + [1]), 1)


class TestEnergyTable:
    def test_matches_per_assignment_evaluation(self):
        rng = np.random.default_rng(71)
        q = random_integer_qubo(rng, 8)
        table = brute_force_energies(q)
        for idx in range(2**8):
            bits = [(idx >> b) & 1 for b in range(8)]
            assert table[idx] == energy(q, bits)

    def test_minimum_assignments(self):
        q = QuboMatrix.from_entries(3, [(0, 0, -5), (1, 1, -5)])
        assert set(minimum_assignments(q)) == {(1, 1, 0), (1, 1, 1)}


class TestSimulatedAnneal:
    def test_reaches_known_minimum(self, example_q):
        sched = AnnealSchedule(sweeps=60, beta_start=0.01, beta_end=5.0, restarts=8, seed=2)
        result = simulated_anneal(example_q, sched)
        assert result.best_energy() == brute_force(example_q)[0]

    def test_deterministic_per_seed(self, example_q):
        sched = AnnealSchedule(sweeps=20, beta_start=0.05, beta_end=2.0, restarts=5, seed=11)
        assert simulated_anneal(example_q, sched) == simulated_anneal(example_q, sched)

    def test_zero_temperature_limit_is_greedy_descent(self, example_q):
        # equal, very large betas: uphill moves are never accepted, so every
        # restart ends in one of the two single-flip local minima
        sched = AnnealSchedule(sweeps=50, beta_start=1e6, beta_end=1e6, restarts=10, seed=3)
        result = simulated_anneal(example_q, sched)
        assert {e for _, e in result.samples} <= {-6, -8}

    def test_never_beats_brute_force(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            q = random_integer_qubo(rng, n)
            floor_value = brute_force(q)[0]
            sched = AnnealSchedule(sweeps=30, beta_start=0.01, beta_end=3.0, restarts=5,
                                   seed=int(rng.integers(1000)))
            result = simulated_anneal(q, sched)
            assert all(e >= floor_value for _, e in result.samples)

    def test_recorded_energies_match_recomputation(self, example_q):
        sched = AnnealSchedule(sweeps=15, beta_start=0.01, beta_end=2.0, restarts=6, seed=4)
        result = simulated_anneal(example_q, sched)
        for bits, e in result.samples:
            assert e == energy(example_q, bits)

    def test_best_points_at_minimum_sample(self, example_q):
        sched = AnnealSchedule(sweeps=10, beta_start=0.01, beta_end=1.0, restarts=7, seed=5)
        result = simulated_anneal(example_q, sched)
        energies = [e for _, e in result.samples]
        assert result.best_energy() == min(energies)
        assert energies[result.best] == min(energies)


def reference_sampleset(q: QuboMatrix, schedule: AnnealSchedule) -> SampleSet:
    """What ``simulated_anneal`` returns, computed with the literal loop."""
    a = q.dense_symmetric()
    diag = a.diagonal().copy()
    np.fill_diagonal(a, 0.0)
    samples = []
    for r in range(schedule.restarts):
        x = reference_anneal_one(a, diag, schedule.betas(), np.random.default_rng((schedule.seed, r)))
        bits = tuple(int(b) for b in x)
        samples.append((bits, energy(q, bits)))
    return SampleSet(tuple(samples), min(range(len(samples)), key=lambda k: samples[k][1]))


def assert_matches_reference(q: QuboMatrix, schedule: AnnealSchedule):
    # equal bits, energies and best index
    assert simulated_anneal(q, schedule) == reference_sampleset(q, schedule)


@st.composite
def anneal_cases(draw):
    """A small QUBO, integer or not, dense or diagonal-only, and a schedule
    that is either a ramp or the greedy limit of equal, huge betas."""
    n = draw(st.integers(0, 7))
    value = draw(st.sampled_from([st.integers(-3, 3), st.floats(-5, 5, allow_subnormal=False)]))
    diagonal_only = draw(st.booleans())
    cells = [(i, j) for i in range(n) for j in range(i, n) if not diagonal_only or i == j]
    q = QuboMatrix.from_entries(n, [(i, j, draw(value)) for i, j in cells])
    if draw(st.booleans()):
        b0 = b1 = 1e6
    else:
        b0 = draw(st.floats(1e-3, 10.0))
        b1 = b0 * draw(st.floats(1.0, 1e3))
    schedule = AnnealSchedule(sweeps=draw(st.integers(1, 12)), beta_start=b0, beta_end=b1,
                              restarts=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)))
    return q, schedule


class TestAnnealOracle:
    """``simulated_anneal`` draws and flips exactly like the numpy-scalar loop
    in ``conftest.reference_anneal_one``: bit-identical samples, energies and
    best index."""

    @settings(max_examples=150, deadline=None)
    @given(anneal_cases())
    def test_random_grid(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("q", [
        QuboMatrix.from_entries(0, []),
        QuboMatrix.from_entries(1, [(0, 0, -1.5)]),
        QuboMatrix.from_entries(2, [(0, 0, 3), (0, 1, -4), (1, 1, 2)]),
        QuboMatrix.from_entries(4, [(0, 0, -2.25), (1, 1, 0.5), (3, 3, 7)]),
        # every flip of the zero matrix has delta 0.0 or -0.0
        QuboMatrix.from_entries(3, []),
        # x_1 = 1 puts the field of x_0 at exactly 0.0
        QuboMatrix.from_entries(3, [(0, 0, -2), (0, 1, 2), (1, 1, 1), (1, 2, -1), (2, 2, 1)]),
    ])
    @pytest.mark.parametrize("sweeps, b0, b1", [(1, 0.5, 0.5), (9, 1e6, 1e6), (25, 0.01, 5.0)])
    def test_edge_cases(self, q, sweeps, b0, b1):
        assert_matches_reference(q, AnnealSchedule(sweeps, b0, b1, restarts=4, seed=7))

    @pytest.mark.parametrize("encode", [encode_qubo, encode_linearized])
    def test_mkp_encodings(self, encode):
        # the mkp-anneal benchmark's first instance and schedule, at 20 sweeps
        inst = generate_mkp(100, 1, 0.25, 100)
        b0 = 0.01 / float(np.abs(encode_qubo(inst, 1.0).qubo.vals).max())
        b1 = 20.0 / float(np.mean(inst.values))
        schedule = AnnealSchedule(sweeps=20, beta_start=b0, beta_end=b1, restarts=10, seed=100)
        assert_matches_reference(encode(inst, 1.0).qubo, schedule)


class TestSchedule:
    @pytest.mark.parametrize("kwargs", [
        {"sweeps": 0, "beta_start": 0.1, "beta_end": 1.0},
        {"sweeps": 5, "beta_start": 0.0, "beta_end": 1.0},
        {"sweeps": 5, "beta_start": 2.0, "beta_end": 1.0},
        {"sweeps": 5, "beta_start": 0.1, "beta_end": 1.0, "restarts": 0},
        {"sweeps": 5, "beta_start": 0.1, "beta_end": 1.0, "seed": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AnnealSchedule(**kwargs)

    def test_geometric_ramp(self):
        sched = AnnealSchedule(sweeps=3, beta_start=0.01, beta_end=1.0)
        assert np.allclose(sched.betas(), [0.01, 0.1, 1.0])

    def test_default_scales_with_coefficients(self, example_q):
        sched = default_schedule(example_q, sweeps=10, restarts=2, seed=0)
        assert sched.beta_start == pytest.approx(0.01 / 8)
        assert sched.beta_end == pytest.approx(10 / 8)


class TestLocalMinima:
    def test_worked_example_pair(self, example_q, example_q_linearized):
        assert count_local_minima(example_q) == 2
        assert count_local_minima(example_q_linearized) == 1

    def test_flat_landscape_is_all_minima(self):
        assert count_local_minima(QuboMatrix.from_entries(4, [])) == 16

    def test_size_limit(self):
        with pytest.raises(LimitError):
            count_local_minima(QuboMatrix.from_entries(23, []))

    def test_against_flip_delta_census(self):
        from qubolin import flip_delta

        rng = np.random.default_rng(73)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            q = random_integer_qubo(rng, n)
            expected = 0
            for idx in range(2**n):
                bits = [(idx >> b) & 1 for b in range(n)]
                if all(flip_delta(q, bits, i) >= 0 for i in range(n)):
                    expected += 1
            assert count_local_minima(q) == expected

    def test_spans_two_blocks(self):
        # n = 17 takes two blocks of 2**16 assignments; integer coefficients
        # keep every energy exact, so the flip test below is a strict oracle
        n = 17
        q = random_integer_qubo(np.random.default_rng(74), n, density=0.4)
        e = brute_force_energies(q)
        idx = np.arange(2**n)
        minima = np.ones(2**n, dtype=bool)
        for b in range(n):
            minima &= e <= e[idx ^ (1 << b)]
        assert count_local_minima(q) == int(minima.sum())


class TestSampleSetSerialization:
    def test_json_shape(self, tmp_path, example_q):
        sched = AnnealSchedule(sweeps=5, beta_start=0.01, beta_end=1.0, restarts=3, seed=6)
        result = simulated_anneal(example_q, sched)
        path = tmp_path / "samples.json"
        save_sampleset(result, path)
        data = json.loads(path.read_text())
        assert data["best"] == result.best
        assert len(data["samples"]) == 3
        assert all(set(s["bits"]) <= {"0", "1"} for s in data["samples"])
