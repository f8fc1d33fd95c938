import tracemalloc

import numpy as np
import pytest

from qubolin import SynthParams, extract_order_dense, generate_hard, generate_synthetic, od_count, synth


class TestSyntheticFamily:
    def test_graph_is_complete(self):
        q = generate_synthetic(SynthParams(n=40, p=0.5, seed=0))
        assert od_count(q) == 40 * 39 // 2

    def test_entry_ranges_at_unit_propensity(self):
        # s=10, p=1.0 puts the offset at 10: couplings in [11, 20]
        q = generate_synthetic(SynthParams(n=30, p=1.0, seed=1))
        off = [v for (i, j), v in q.terms.items() if i < j]
        diag = [v for (i, j), v in q.terms.items() if i == j]
        assert min(off) >= 11 and max(off) <= 20
        assert all(v == int(v) for v in off + diag)
        low = -(int(np.floor(1.0 * 29 * 11)) + 10)
        assert all(low <= v <= -11 for v in diag)

    def test_deterministic_per_seed(self):
        a = generate_synthetic(SynthParams(n=25, p=0.7, seed=9))
        b = generate_synthetic(SynthParams(n=25, p=0.7, seed=9))
        c = generate_synthetic(SynthParams(n=25, p=0.7, seed=10))
        assert a == b
        assert a != c

    def test_offset_rounding(self):
        assert SynthParams(n=5, p=0.1, seed=0).offset == 1
        assert SynthParams(n=5, p=2.0, seed=0).offset == 20

    @pytest.mark.parametrize("kwargs", [
        {"n": 1, "p": 0.5, "seed": 0},
        {"n": 10, "p": 0.0, "seed": 0},
        {"n": 10, "p": -1.0, "seed": 0},
        {"n": 10, "p": 0.5, "seed": 0, "s": 0},
    ])
    def test_parameter_domain(self, kwargs):
        with pytest.raises(ValueError):
            generate_synthetic(SynthParams(**kwargs))

    def test_lowest_grid_propensity_admits_nothing(self):
        # at p=0.1 the diagonal spread is far too narrow for any pair to
        # certify at the experiment scale, on every seed
        for seed in range(10):
            q = generate_synthetic(SynthParams(n=180, p=0.1, seed=seed))
            assert len(extract_order_dense(q)) == 0

    def test_edge_count_grows_with_propensity(self):
        grid = [0.1, 0.2, 0.5, 1.0, 1.5, 2.0]
        means = []
        for p in grid:
            counts = [
                len(extract_order_dense(generate_synthetic(SynthParams(n=100, p=p, seed=s))))
                for s in range(4)
            ]
            means.append(float(np.mean(counts)))
        assert all(a <= b for a, b in zip(means, means[1:]))


class TestHardFamily:
    def test_support(self):
        q = generate_hard(50, 3)
        assert set(q.terms.values()) <= {-1.0, 1.0}

    def test_deterministic_per_seed(self):
        assert generate_hard(30, 7) == generate_hard(30, 7)
        assert generate_hard(30, 7) != generate_hard(30, 8)

    def test_orders_are_essentially_absent(self):
        counts = [len(extract_order_dense(generate_hard(200, s))) for s in range(10)]
        assert max(counts) <= 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            generate_hard(1, 0)


@pytest.mark.parametrize("make", [
    lambda n: generate_synthetic(SynthParams(n, 2.0, 1)),
    lambda n: generate_hard(n, 1),
], ids=["synth", "hard"])
def test_generator_peaks_within_its_count(make):
    # README: 49-50 bytes per upper-triangle entry at n = 300-2000
    n = 300
    make(n)
    tracemalloc.start()
    try:
        make(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= synth._TERM_BYTES * (n * (n + 1) // 2)
