import re
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    qubo_with_symmetric_block,
    random_integer_qubo,
    reference_csr,
    reference_extraction,
    reference_order_fault,
    reference_score,
    sparse_integer_qubo,
)
from qubolin import (
    OrderDag,
    QuboMatrix,
    SynthParams,
    extract_order_dense,
    extract_order_sparse,
    generate_hard,
    generate_synthetic,
    in_ordered_subspace,
    score_pair,
    symmetric_coefficient,
    verify_order,
)
from qubolin import ordering, qubo
from qubolin.errors import LimitError
from qubolin.ordering import find_order_violation, load_order, save_order, topological_order


class TestScorePair:
    def test_worked_example_first_edge(self, example_q):
        assert score_pair(example_q, 0, 1) == -2

    def test_worked_example_second_edge(self, example_q):
        assert score_pair(example_q, 0, 2) == 0

    def test_reverse_direction_positive(self, example_q):
        assert score_pair(example_q, 1, 0) == 2

    def test_symmetric_pair_scores_zero(self):
        # both variables share diagonal and couplings, so either direction is 0
        q = QuboMatrix.from_entries(
            4, [(0, 0, -2), (1, 1, -2), (0, 1, 3), (0, 2, 5), (1, 2, 5), (0, 3, -1), (1, 3, -1)]
        )
        assert score_pair(q, 0, 1) == 0
        assert score_pair(q, 1, 0) == 0

    def test_equal_indices_rejected(self, example_q):
        with pytest.raises(ValueError):
            score_pair(example_q, 1, 1)

    def test_matches_scalar_score_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            q = random_integer_qubo(rng, n, density=float(rng.uniform(0.1, 1.0)))
            for _ in range(20):
                i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
                assert score_pair(q, i, j) == reference_score(q, i, j)


class TestDenseExtraction:
    def test_worked_example(self, example_q):
        assert extract_order_dense(example_q).edges.tolist() == [[0, 1], [0, 2]]

    def test_fully_symmetric_matrix_yields_total_order(self):
        n = 5
        entries = [(i, i, -3) for i in range(n)] + [
            (i, j, 2) for i in range(n) for j in range(i + 1, n)
        ]
        q = QuboMatrix.from_entries(n, entries)
        expected = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assert set(map(tuple, extract_order_dense(q).edges.tolist())) == set(expected)

    def test_diagonal_only_orders_every_pair_one_way(self):
        # strictly increasing diagonal: the pair score is just the diagonal
        # difference, so every pair is ordered from larger to smaller entry
        diag = [-9, -5, -2, 4]
        q = QuboMatrix.from_entries(4, [(i, i, d) for i, d in enumerate(diag)])
        edges = set(map(tuple, extract_order_dense(q).edges.tolist()))
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                expect_edge = diag[j] - diag[i] <= 0 and (j, i) not in edges
                assert ((i, j) in edges) == expect_edge
        assert len(edges) == 6

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(2, 35))
            q = random_integer_qubo(rng, n, density=float(rng.uniform(0.2, 1.0)))
            assert extract_order_dense(q).edges.tolist() == list(map(list, reference_extraction(q)))

    def test_matches_scalar_reference_on_tied_diagonals(self):
        # tied diagonals let both orientations of a pair pass the guard, which
        # is where the reverse-edge rule drops the later one
        rng = np.random.default_rng(47)
        instances = [generate_hard(int(rng.integers(2, 30)), seed=k) for k in range(20)]
        for _ in range(20):
            n = int(rng.integers(3, 25))
            block = sorted(rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)), replace=False).tolist())
            instances.append(qubo_with_symmetric_block(rng, n, block))
        fired = 0
        for q in instances:
            edges = extract_order_dense(q).edges.tolist()
            assert edges == list(map(list, reference_extraction(q)))
            fired += any(score_pair(q, j, i) <= 0 for i, j in edges)
        assert fired >= 20

    def test_symmetric_block_gets_complete_total_order(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(6, 20))
            size = int(rng.integers(2, 5))
            block = sorted(rng.choice(n, size=size, replace=False).tolist())
            q = qubo_with_symmetric_block(rng, n, block)
            edges = set(map(tuple, extract_order_dense(q).edges.tolist()))
            for a in range(size):
                for b in range(a + 1, size):
                    assert (block[a], block[b]) in edges

    def test_never_emits_edge_and_reverse(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            q = random_integer_qubo(rng, int(rng.integers(2, 25)))
            edges = set(map(tuple, extract_order_dense(q).edges.tolist()))
            assert not any((j, i) in edges for i, j in edges)

    def test_output_is_acyclic(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            q = random_integer_qubo(rng, int(rng.integers(2, 25)))
            assert topological_order(extract_order_dense(q)) is not None

    def test_certificate_soundness(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            q = random_integer_qubo(rng, int(rng.integers(2, 25)))
            for i, j in extract_order_dense(q).edges:
                assert score_pair(q, i, j) <= 0


class TestSparseExtraction:
    def test_worked_example(self, example_q):
        assert extract_order_sparse(example_q).edges.tolist() == [[0, 1], [0, 2]]

    def test_no_couplings_means_no_edges(self):
        q = QuboMatrix.from_entries(4, [(i, i, -i - 1) for i in range(4)])
        assert extract_order_sparse(q).edges.tolist() == []

    def test_every_edge_rescored_nonpositive(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            q = random_integer_qubo(rng, int(rng.integers(2, 31)), density=0.3)
            for i, j in extract_order_sparse(q).edges:
                assert score_pair(q, i, j) <= 0

    def test_agrees_with_dense_on_adjacent_pairs(self):
        rng = np.random.default_rng(48)
        instances = [random_integer_qubo(rng, int(rng.integers(2, 25)), density=0.4) for _ in range(25)]
        instances += [generate_hard(int(rng.integers(2, 70)), seed=k) for k in range(15)]
        instances += [
            generate_synthetic(SynthParams(int(rng.integers(2, 70)), p, seed=k))
            for k, p in enumerate((0.1, 0.2, 0.5, 1.0, 1.5, 2.0) * 2)
        ]
        # interchangeable variables admit both directions of a pair
        instances += [
            qubo_with_symmetric_block(rng, n, sorted(rng.choice(n, size=3, replace=False).tolist()))
            for n in rng.integers(6, 40, size=10).tolist()
        ]
        for q in instances:
            adjacent_dense = [
                [i, j] for i, j in extract_order_dense(q).edges.tolist() if symmetric_coefficient(q, i, j)
            ]
            assert extract_order_sparse(q).edges.tolist() == adjacent_dense

    @given(st.integers(2, 70), st.floats(0.05, 1.0), st.integers(0, 10_000))
    def test_first_columns_bound_is_below_exact_score(self, n, density, seed):
        q = random_integer_qubo(np.random.default_rng(seed), n, density=density)
        indptr, dst, _ = q._csr
        src = np.repeat(np.arange(n), np.diff(indptr))
        guard = q._diag[dst] <= q._diag[src]
        src, dst = src[guard], dst[guard]
        bound = ordering._first_columns_bound(q, ordering._first_columns_slab(q), src, dst)
        assert np.all(bound <= ordering._pair_scores(q, src, dst))

    def test_agrees_with_dense_where_sums_overflow(self, overflow_q):
        with np.errstate(over="ignore", invalid="ignore"):
            sparse = extract_order_sparse(overflow_q).edges.tolist()
            dense = extract_order_dense(overflow_q).edges.tolist()
        assert sparse == [[0, 2], [3, 1]]
        assert [e for e in dense if symmetric_coefficient(overflow_q, *e)] == sparse

    def test_agrees_with_dense_on_huge_coefficients(self):
        # the score sums of both engines leave out k = i and k = j alike, so
        # where they overflow to inf, they overflow on the same pairs
        for q in _scaled_corpus(0.6e308, 20):
            with np.errstate(over="ignore", invalid="ignore"):
                sparse = extract_order_sparse(q).edges.tolist()
                dense = extract_order_dense(q).edges.tolist()
            assert [e for e in dense if symmetric_coefficient(q, *e)] == sparse

    def test_large_sparse_instance(self):
        # genuinely sparse input: the neighbourhood-restricted scan must stay
        # cheap and keep agreeing with the dense scan on adjacent pairs
        rng = np.random.default_rng(49)
        q = random_integer_qubo(rng, 400, density=0.01, low=-30, high=5)
        sparse = set(map(tuple, extract_order_sparse(q).edges.tolist()))
        dense_adjacent = {
            (i, j) for i, j in extract_order_dense(q).edges.tolist() if symmetric_coefficient(q, i, j)
        }
        assert sparse == dense_adjacent
        assert all(score_pair(q, i, j) <= 0 for i, j in sparse)


def _scaled_corpus(scale: float, per_n: int) -> Iterator[QuboMatrix]:
    """``per_n`` random QUBOs for each n = 3-9, every coefficient in
    {0, +-1, +-2} and 30 % of them scaled by ``scale``."""
    rng = np.random.default_rng(2024)
    for n in range(3, 10):
        for _ in range(per_n):
            u = np.triu(rng.integers(-2, 3, size=(n, n))).astype(float)
            u[rng.random((n, n)) < 0.3] *= scale
            i, j = np.nonzero(u)
            yield QuboMatrix.from_arrays(n, i, j, u[i, j])


def _kernel_corpus() -> list[QuboMatrix]:
    """Random-density, hard and synthetic (p-grid) inputs with n = 2-69,
    sparse n = 150, 500 and 2000, hard n = 150 and synthetic n = 200."""
    rng = np.random.default_rng(61)
    corpus = [random_integer_qubo(rng, int(rng.integers(2, 70)), density=float(rng.uniform(0.05, 1.0)))
              for _ in range(40)]
    corpus += [generate_hard(int(rng.integers(2, 70)), seed=k) for k in range(10)]
    corpus += [generate_synthetic(SynthParams(int(rng.integers(2, 70)), p, seed=k))
               for k, p in enumerate((0.1, 0.2, 0.5, 1.0, 1.5, 2.0))]
    corpus += [sparse_integer_qubo(np.random.default_rng(n), n) for n in (150, 500, 2000)]
    return corpus + [generate_hard(150, seed=1), generate_synthetic(SynthParams(200, 0.5, seed=1))]


def _coupled_pairs(q: QuboMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Both orientations of every coupled pair, row-major."""
    indptr, dst, _ = q._csr
    return np.repeat(np.arange(q.n), np.diff(indptr)), dst


class TestScoreKernels:
    """The support kernel (light pairs) and the dense-row kernel (heavy
    pairs) of ``_pair_scores`` are one score: forcing every pair through
    either one changes no score bit and no edge on integer inputs."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return [(q, extract_order_sparse(q).edges.tolist(), ordering._pair_scores(q, *_coupled_pairs(q)))
                for q in _kernel_corpus()]

    @pytest.mark.parametrize("share", [0.0, np.inf], ids=["all-heavy", "all-light"])
    def test_forced_kernel_keeps_scores_and_edges(self, monkeypatch, corpus, share):
        monkeypatch.setattr(ordering, "_LIGHT_SHARE", share)
        for q, edges, scores in corpus:
            src, dst = _coupled_pairs(q)
            assert np.all(ordering._is_light(q, src, dst) == (share > 0))
            assert np.array_equal(ordering._pair_scores(q, src, dst), scores)
            assert extract_order_sparse(q).edges.tolist() == edges

    def test_corpus_takes_both_kernels(self, corpus):
        light = [ordering._is_light(q, *_coupled_pairs(q)).mean() for q, _, _ in corpus if q.n > 100]
        assert min(light) == 0.0 and max(light) == 1.0

    @settings(deadline=None)
    @given(st.integers(0, 14), st.integers(0, 3), st.floats(0.0, 1.0), st.integers(0, 10_000))
    def test_kernels_agree_on_every_pair(self, n, isolated, density, seed):
        # signed couplings, and `isolated` trailing variables without any term
        base = random_integer_qubo(np.random.default_rng(seed), n, density=density, low=-6, high=6)
        q = QuboMatrix.from_arrays(n + isolated, base.rows, base.cols, base.vals)
        src, dst = (a.ravel() for a in np.meshgrid(np.arange(q.n), np.arange(q.n), indexing="ij"))
        src, dst = src[src != dst], dst[src != dst]
        light = ordering._support_scores(q, src, dst)
        assert np.array_equal(light, ordering._row_scores(q, src, dst))
        assert light.tolist() == [reference_score(q, i, j) for i, j in zip(src.tolist(), dst.tolist())]
        edges = []
        for share in (0.0, np.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ordering, "_LIGHT_SHARE", share)
                edges.append(extract_order_sparse(q).edges.tolist())
        assert edges[0] == edges[1]

    def test_sparse_input_never_builds_dense_rows(self, monkeypatch):
        q = sparse_integer_qubo(np.random.default_rng(62), 500)

        def forbidden(q, nodes):
            raise AssertionError("dense coupling rows built for a sparse input")

        monkeypatch.setattr(ordering, "_coupling_rows", forbidden)
        g = extract_order_sparse(q)
        assert len(g) > 0 and find_order_violation(q, g) is None
        src, dst = _coupled_pairs(q)
        assert find_order_violation(q, OrderDag(q.n, np.stack([src, dst], axis=1)[src < dst])) is not None
        assert score_pair(q, int(src[0]), int(dst[0])) == reference_score(q, int(src[0]), int(dst[0]))

    def test_extraction_peak_memory(self):
        # README: at about 10 couplings per variable the peak stays within 4x
        # the 264 bytes per variable of a first-columns slab, which this input
        # (all pairs light) never builds
        n = 5000
        q = sparse_integer_qubo(np.random.default_rng(63), n)
        counted = 8 * n * (ordering._FIRST_CHUNK + 1)
        tracemalloc.start()
        try:
            extract_order_sparse(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * counted


class TestNeighbourLists:
    """``QuboMatrix._csr`` sorts both orientations of every coupling by row
    alone, the lower neighbours first, in one stable sort: the same arrays
    as one sort of all pair keys."""

    @staticmethod
    def assert_as_key_sort(q: QuboMatrix):
        for got, want in zip(q._csr, reference_csr(q), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_corpus_keeps_its_arrays(self):
        for q in _kernel_corpus() + [generate_hard(500, seed=1)]:
            self.assert_as_key_sort(q)

    @settings(deadline=None)
    @given(st.integers(0, 14), st.integers(0, 3), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 10_000))
    @example(0, 0, 0.0, False, 0)
    @example(1, 0, 1.0, False, 0)
    @example(6, 0, 1.0, True, 0)
    def test_small_inputs_keep_their_arrays(self, n, isolated, density, diagonal_only, seed):
        # `isolated` trailing variables without any term, or no coupling at all
        base = random_integer_qubo(np.random.default_rng(seed), n, density=density, low=-6, high=6)
        on = base.rows == base.cols if diagonal_only else slice(None)
        self.assert_as_key_sort(QuboMatrix.from_arrays(n + isolated, base.rows[on], base.cols[on], base.vals[on]))

    def test_peak_memory(self):
        # README: building the lists peaks within 93 bytes per coupling (77
        # measured on hard n = 300)
        q = generate_hard(300, seed=1)
        couplings = int(np.count_nonzero(q.rows != q.cols))
        tracemalloc.start()
        try:
            q._csr
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 93 * couplings

    def test_heavy_extraction_peak_memory(self):
        # README: on hard n = 300 every coupled pair is heavy; extraction peaks
        # within 112 bytes per coupling (97 measured, in scoring the pairs
        # after these lists), the first-columns bound taking pairs a quarter
        # budget at a time
        q = generate_hard(300, seed=1)
        couplings = int(np.count_nonzero(q.rows != q.cols))
        assert not ordering._is_light(q, *_coupled_pairs(q)).any()
        tracemalloc.start()
        try:
            extract_order_sparse(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 112 * couplings


class TestVerifyOrder:
    def test_worked_example_order_is_certified(self, example_q):
        assert verify_order(example_q, OrderDag(3, ((0, 1), (0, 2))))

    def test_empty_order_is_certified(self, example_q):
        assert verify_order(example_q, OrderDag(3, ()))

    def test_positive_score_fails(self, example_q):
        assert not verify_order(example_q, OrderDag(3, ((1, 0),)))

    def test_cycle_fails(self):
        q = QuboMatrix.from_entries(
            3, [(0, 0, -2), (1, 1, -2), (2, 2, -2), (0, 1, 1), (0, 2, 1), (1, 2, 1)]
        )
        cyclic = OrderDag(3, ((0, 1), (1, 2), (2, 0)))
        assert not verify_order(q, cyclic)

    def test_dimension_mismatch(self, example_q):
        with pytest.raises(ValueError):
            verify_order(example_q, OrderDag(4, ()))

    def test_nan_score_fails(self, overflow_q):
        # -inf + inf: NaN is not <= 0, the admission test of both engines
        with np.errstate(over="ignore", invalid="ignore"):
            i, j, s = find_order_violation(overflow_q, OrderDag(4, ((0, 1),)))[1]
            assert not verify_order(overflow_q, OrderDag(4, ((0, 2), (0, 1))))
        assert (i, j) == (0, 1) and np.isnan(s)

    def test_cycle_among_ties_is_found(self):
        # 1 -> 2 -> 3 -> 1 keeps the diagonal; 0 -> 1 lowers it
        q = QuboMatrix.from_entries(4, [(0, 0, -1), (1, 1, -3), (2, 2, -3), (3, 3, -3)])
        assert find_order_violation(q, OrderDag(4, ((0, 1), (1, 2), (2, 3), (3, 1)))) == ("cycle", None)
        assert find_order_violation(q, OrderDag(4, ((0, 1), (1, 2), (2, 3)))) is None

    def test_cycle_through_a_rising_edge_is_a_cycle(self):
        # (2, 0) raises the diagonal, so it scores above 0; the cycle comes first
        q = QuboMatrix.from_entries(3, [(0, 0, -1), (1, 1, -2), (2, 2, -3)])
        assert find_order_violation(q, OrderDag(3, ((0, 1), (1, 2), (2, 0)))) == ("cycle", None)
        assert find_order_violation(q, OrderDag(3, ((0, 1), (2, 0)))) == ("score", (2, 0, 2.0))

    def test_only_tie_edges_are_sorted(self, monkeypatch):
        sorted_edges = []
        sort = ordering.topological_order
        monkeypatch.setattr(ordering, "topological_order", lambda g: sorted_edges.append(len(g)) or sort(g))
        q = generate_synthetic(SynthParams(60, 2.0, seed=3))
        g = extract_order_dense(q)
        assert len(g) > 0 and find_order_violation(q, g) is None
        # an extracted dense p=2 order has no tie edge
        assert sorted_edges == [0]
        d = q._diag
        listed = {(i, j) for i, j in g.edges.tolist()}
        i, j = next((i, j) for i in range(q.n) for j in range(q.n)
                    if d[j] > d[i] and (i, j) not in listed and (j, i) not in listed)
        rising = OrderDag(q.n, np.concatenate([g.edges, [[i, j]]]))
        assert find_order_violation(q, rising)[0] in ("cycle", "score")
        assert sorted_edges[-1] == len(rising)

    def test_sort_counts_edges_before_allocating(self, monkeypatch):
        chain = OrderDag(1000, np.stack([np.arange(999), np.arange(1, 1000)], axis=1))
        assert ordering.topological_order(chain) == list(range(1000))
        # 80 bytes per variable fit, 96 more per edge do not
        monkeypatch.setattr(qubo, "DENSE_MAX_BYTES", 80 * 1000 + 96 * 999 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(LimitError, match="topological sort of n=1000 needs 175904 bytes"):
                ordering.topological_order(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 1000

    @pytest.mark.parametrize("block", [ordering._SCORE_BLOCK, 40])
    def test_first_violation_matches_scalar_score_oracle(self, monkeypatch, block):
        # random acyclic orders: edges follow a random permutation, listed in
        # random file order, so the first failing edge is not the lowest pair;
        # the small scorer block splits every order into many blocks
        monkeypatch.setattr(ordering, "_SCORE_BLOCK", block)
        rng = np.random.default_rng(50)
        failing = 0
        for _ in range(60):
            n = int(rng.integers(2, 30))
            q = random_integer_qubo(rng, n, density=float(rng.uniform(0.1, 1.0)))
            perm = rng.permutation(n)
            pairs = [(int(perm[a]), int(perm[b])) for a in range(n) for b in range(a + 1, n)]
            picked = rng.choice(len(pairs), size=int(rng.integers(0, len(pairs) + 1)), replace=False)
            edges = [pairs[k] for k in picked]
            if rng.random() < 0.5:
                # keep mostly certified edges, so that failures sit deep in the list
                edges = [e for e in edges if reference_score(q, *e) <= 0 or rng.random() < 0.1]
            g = OrderDag(n, tuple(edges))
            expected = None
            for i, j in g.edges.tolist():
                s = reference_score(q, i, j)
                if s > 0:
                    expected = ("score", (i, j, s))
                    break
            got = find_order_violation(q, g)
            assert got == expected
            failing += got is not None
        assert 0 < failing < 60


class TestOrderDag:
    def test_tuple_list_and_array_inputs_agree(self):
        want = np.array([[0, 2], [1, 2]])
        for edges in (((0, 2), (1, 2)), [[0, 2], [1, 2]], want, want.astype(np.int32)):
            g = OrderDag(3, edges)
            assert g.edges.dtype == np.int64 and np.array_equal(g.edges, want)
            assert not g.edges.flags.writeable
        want[0, 0] = 1  # the order holds its own copy
        assert g.edges.tolist() == [[0, 2], [1, 2]]
        assert OrderDag(3, ()).edges.shape == OrderDag(3, np.empty((0, 2), dtype=np.int64)).edges.shape == (0, 2)

    @pytest.mark.parametrize("edges, message", [
        (((0, 1), (0.5, 2)), r"pair of integers \(i, j\), got \(0.5, 2\)"),
        ([[0, 1], [2, True]], r"pair of integers \(i, j\), got \[2, True\]"),
        (np.array([[0.0, 1.0]]), "integers, got dtype float64"),
        (np.array([[True, False]]), "integers, got dtype bool"),
        ([[0, 1]] * 50 + [(2, 1.0)], r"pair of integers \(i, j\), got \(2, 1.0\)"),
        ([[0, 1], [1, 2], 5], r"pair of integers \(i, j\), got 5"),
        (([0, 1], (1, 2, 0)), r"pair of integers \(i, j\), got \(1, 2, 0\)"),
        (([0, 1], "12"), r"pair of integers \(i, j\), got '12'"),
    ])
    def test_non_integer_entry_rejected(self, edges, message):
        with pytest.raises(ValueError, match=message):
            OrderDag(3, edges)

    @pytest.mark.parametrize("edges", [
        np.array([[0, 1, 2], [3, 4, 0]]),
        np.array([0, 1, 2, 3]),
        np.array([[[0, 1]], [[1, 2]]]),
        np.empty(0, dtype=np.int64),
    ])
    def test_array_of_another_shape_rejected(self, edges):
        with pytest.raises(ValueError, match=rf"shape \(m, 2\), got {re.escape(str(edges.shape))}"):
            OrderDag(5, edges)

    def test_reverse_pair_rejected(self):
        with pytest.raises(ValueError, match="reverse"):
            OrderDag(3, ((0, 1), (1, 0)))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            OrderDag(3, ((1, 1),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            OrderDag(3, ((0, 1), (0, 1)))

    def test_bulk_validation_matches_scalar(self):
        edges = tuple((i, j) for i in range(80) for j in range(i + 1, 80))
        assert len(edges) > 2000
        OrderDag(80, edges)  # valid either way
        with pytest.raises(ValueError, match="reverse"):
            OrderDag(80, edges + ((1, 0),))
        with pytest.raises(ValueError, match="duplicate"):
            OrderDag(80, edges + ((0, 1),))
        # several duplicates and reverses at once, in shuffled lists: the
        # first offender equals the literal scans'
        rng = np.random.default_rng(64)
        base = np.array(edges)
        for _ in range(40):
            dup, rev = rng.integers(0, 4, size=2)
            extra = [base[rng.integers(0, len(base), dup)], base[rng.integers(0, len(base), rev)][:, ::-1]]
            arr = np.concatenate([base, *extra])[rng.permutation(len(base) + dup + rev)]
            expected = reference_order_fault(80, arr.tolist())
            for given_edges in (arr, tuple(map(tuple, arr.tolist()))):
                if expected is None:
                    assert OrderDag(80, given_edges).edges.tolist() == arr.tolist()
                    continue
                with pytest.raises(ValueError) as err:
                    OrderDag(80, given_edges)
                assert str(err.value) == expected

    @staticmethod
    def traced_peak(f, *args) -> int:
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def many_pairs(reverse_share: float) -> tuple[np.ndarray, np.ndarray]:
        """About a million distinct pairs over 1500 variables, row-major;
        ``reverse_share`` of the upper ones also come reversed."""
        rng = np.random.default_rng(68)
        i, j = np.triu_indices(1500, 1)
        keep = rng.random(i.size) < 0.9
        i, j = i[keep], j[keep]
        rev = rng.random(i.size) < reverse_share
        src, dst = np.concatenate([i, j[rev]]), np.concatenate([j, i[rev]])
        order = np.lexsort((dst, src))
        return src[order], dst[order]

    def test_validation_peak_memory(self):
        # README: an order of about 1 M edges in shuffled file order peaks
        # within 4x its 16 bytes per edge (2.6x measured)
        src, dst = self.many_pairs(0.0)
        edges = np.stack([src, dst], axis=1)[np.random.default_rng(69).permutation(src.size)]
        assert self.traced_peak(OrderDag, 1500, edges) <= 4 * 16 * len(edges)

    def test_scan_order_peak_memory(self):
        # README: the reverse-edge rule over about 1 M admitted pairs, 5 %
        # of them reversed, peaks within 5x 16 bytes per pair (3.4x measured)
        src, dst = self.many_pairs(0.05)
        assert self.traced_peak(ordering._scan_order, 1500, src, dst) <= 5 * 16 * src.size

    def test_scan_order_is_the_checked_order(self):
        # the reverse-edge rule over the coupled pairs (every pair comes with
        # its reverse) and over those that score <= 0, against the literal rule
        for q in _kernel_corpus():
            src, dst = _coupled_pairs(q)
            for keep in (slice(None), ordering._pair_scores(q, src, dst) <= 0.0):
                pairs = list(zip(src[keep].tolist(), dst[keep].tolist()))
                present = set(pairs)
                want = OrderDag(q.n, [(i, j) for i, j in pairs if not (j < i and (j, i) in present)])
                g = ordering._scan_order(q.n, src[keep], dst[keep])
                assert g.n == want.n and g.edges.dtype == want.edges.dtype
                assert np.array_equal(g.edges, want.edges) and not g.edges.flags.writeable

    def test_scan_order_peak_on_a_dense_order(self):
        # README: the pairs of a total order over 1000 variables, 16 bytes
        # each, peak within 3x (2.6x measured; 3.6x when they were checked
        # again as an OrderDag)
        i, j = np.triu_indices(1000, 1)
        assert self.traced_peak(ordering._scan_order, 1000, i, j) <= 3 * 16 * i.size

    def test_indices_at_the_limit(self):
        top = ordering.INDEX_LIMIT - 1
        OrderDag(top + 1, ((top, 0), (0, 1), (1, top)))
        with pytest.raises(ValueError, match=rf"edge \({top}, 0\) present together with its reverse"):
            OrderDag(top + 1, ((0, 1), (top, 0), (0, top)))
        with pytest.raises(ValueError, match=rf"duplicate edge \(0, {top}\)"):
            OrderDag(top + 1, ((0, top), (top, 1), (0, top)))


class TestOrderedSubspace:
    def test_satisfied(self):
        assert in_ordered_subspace(OrderDag(3, ((0, 1),)), (1, 1, 0))

    def test_violated(self):
        assert not in_ordered_subspace(OrderDag(3, ((0, 1),)), (1, 0, 0))

    def test_source_zero_is_vacuous(self):
        assert in_ordered_subspace(OrderDag(3, ((0, 1), (0, 2))), (0, 0, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            in_ordered_subspace(OrderDag(3, ((0, 1),)), (1, 1))


class TestOrderSerialization:
    def test_round_trip(self, tmp_path, example_q):
        order = extract_order_dense(example_q)
        path = tmp_path / "order.json"
        save_order(order, path)
        assert np.array_equal(load_order(path).edges, order.edges)

    @pytest.mark.parametrize("text", [
        '{"n": 5, "edges": [[3, 0], [0, 1], [4, 2]]}\n',  # file order, not row-major
        '{"n": 0, "edges": []}\n',
        None,
    ])
    def test_load_save_round_trip_is_byte_identical(self, tmp_path, text):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        if text is None:
            save_order(extract_order_dense(generate_synthetic(SynthParams(40, 2.0, seed=3))), first)
        else:
            first.write_text(text)
        save_order(load_order(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_load_rejects_reverse_pairs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": [[0, 1], [1, 0]]}')
        with pytest.raises(ValueError):
            load_order(path)
