import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    qubo_with_symmetric_block,
    random_integer_qubo,
    reference_extraction,
    reference_score,
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
from qubolin import ordering
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
    ])
    def test_non_integer_entry_rejected(self, edges, message):
        with pytest.raises(ValueError, match=message):
            OrderDag(3, edges)

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
