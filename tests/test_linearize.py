import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import exhaustive_minimum, random_integer_qubo, reference_linearize
from qubolin import (
    LinearizationReport,
    OrderDag,
    QuboMatrix,
    count_local_minima,
    energy,
    extract_and_linearize,
    extract_order_dense,
    in_ordered_subspace,
    linearize,
    od_count,
    penalty_value,
)
from qubolin.linearize import _edge_coefficients, save_report, undo_linearization


def triples(report):
    """The report's rewritten terms as ``(i, j, c)`` tuples."""
    return tuple(zip(report.src.tolist(), report.dst.tolist(), report.coef.tolist()))


@pytest.fixture
def example_order():
    return OrderDag(3, ((0, 1), (0, 2)))


class TestLinearize:
    def test_worked_example(self, example_q, example_q_linearized, example_order):
        q_lin, report = linearize(example_q, example_order)
        assert q_lin == example_q_linearized
        assert report.removed_count == 2
        assert triples(report) == ((0, 1, 2.0), (0, 2, 7.0))

    def test_empty_order_is_identity(self, example_q):
        q_lin, report = linearize(example_q, OrderDag(3, ()))
        assert q_lin == example_q
        assert report.removed_count == 0

    def test_negative_coefficient_untouched(self):
        q = QuboMatrix.from_entries(2, [(0, 0, -4), (1, 1, -4), (0, 1, -3)])
        q_lin, report = linearize(q, OrderDag(2, ((0, 1),)))
        assert q_lin == q
        assert report.removed_count == 0
        assert _edge_coefficients(q, OrderDag(2, ((0, 1),)))[1].tolist() == [0.0]

    def test_edge_against_lower_stored_orientation(self):
        # edge (1, 0): the positive coefficient lives at canonical key (0, 1)
        # and must land on the diagonal of the edge source, variable 1
        q = QuboMatrix.from_entries(2, [(0, 0, -1), (1, 1, -1), (0, 1, 5)])
        q_lin, report = linearize(q, OrderDag(2, ((1, 0),)))
        assert q_lin.terms == {(0, 0): -1.0, (1, 1): 4.0}
        assert triples(report) == ((1, 0, 5.0),)

    def test_dimension_mismatch(self, example_q):
        with pytest.raises(ValueError):
            linearize(example_q, OrderDag(4, ()))

    def test_removed_coefficients_strictly_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            q = random_integer_qubo(rng, int(rng.integers(2, 20)))
            _, report = linearize(q, extract_order_dense(q))
            assert all(c > 0 for _, _, c in triples(report))
            assert report.removed_count == len(triples(report))

    def test_sparsity_accounting(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = random_integer_qubo(rng, int(rng.integers(2, 20)))
            q_lin, report = linearize(q, extract_order_dense(q))
            assert od_count(q_lin) == od_count(q) - report.removed_count
            assert od_count(q_lin) <= od_count(q)

    def test_report_allows_reconstruction(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = random_integer_qubo(rng, int(rng.integers(2, 20)))
            q_lin, report = linearize(q, extract_order_dense(q))
            assert undo_linearization(q_lin, report) == q


@st.composite
def qubos_with_orders(draw):
    """``(q, order, integral)``: integer or non-integer coefficients under the
    extracted order or a random acyclic one."""
    n = draw(st.integers(2, 9))
    integral = draw(st.booleans())
    value = st.integers(-9, 9) if integral else st.floats(-10, 10).map(lambda v: round(v, 3))
    cell = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(cell, cell, value), max_size=40, unique_by=lambda e: (e[0], e[1])))
    q = QuboMatrix.from_entries(n, entries)
    if draw(st.booleans()):
        return q, extract_order_dense(q), integral
    rank = draw(st.permutations(range(n)))
    pairs = st.tuples(cell, cell).filter(lambda p: p[0] != p[1])
    chosen = draw(st.lists(pairs, max_size=n * 2, unique_by=lambda p: frozenset(p)))
    # orient every pair along the permutation, so the graph is acyclic
    edges = tuple((a, b) if rank[a] < rank[b] else (b, a) for a, b in chosen)
    return q, OrderDag(n, edges), integral


class TestDictOracle:
    """The vectorized rewrite against the literal per-edge dict loop."""

    @given(qubos_with_orders())
    def test_matches_per_edge_loop(self, case):
        q, order, integral = case
        q_lin, report = linearize(q, order)
        terms, removed, coeffs = reference_linearize(q, order.edges.tolist())
        assert q_lin.terms == terms
        assert triples(report) == removed
        assert dict(zip(map(tuple, order.edges.tolist()), _edge_coefficients(q, order)[1].tolist())) == coeffs
        # bit-equal diagonals, also where the additions round
        assert [v.hex() for (i, j), v in q_lin.terms.items() if i == j] == [
            terms[k].hex() for k in sorted(terms) if k[0] == k[1]
        ]
        if integral:
            assert undo_linearization(q_lin, report) == q

    def test_diagonal_passing_through_zero(self):
        q = QuboMatrix.from_entries(3, [(0, 0, -2), (0, 1, 2), (0, 2, 3)])
        q_lin, report = linearize(q, OrderDag(3, ((0, 1), (0, 2))))
        assert q_lin.terms == reference_linearize(q, ((0, 1), (0, 2)))[0] == {(0, 0): 3.0}
        assert undo_linearization(q_lin, report) == q

    @given(qubos_with_orders())
    def test_report_file_round_trip(self, tmp_path_factory, case):
        q, order, integral = case
        q_lin, report = linearize(q, order)
        path = tmp_path_factory.mktemp("report") / "report.json"
        save_report(report, path)
        data = json.loads(path.read_text())
        assert data["removed_count"] == report.removed_count
        read = LinearizationReport(*(zip(*data["removed"]) if data["removed"] else ((), (), ())))
        for name in ("src", "dst", "coef"):
            assert getattr(read, name).tobytes() == getattr(report, name).tobytes()
        if integral:
            assert undo_linearization(q_lin, read) == q

    def test_report_columns_are_read_only_arrays(self, example_q, example_order):
        _, report = linearize(example_q, example_order)
        for col, dtype in ((report.src, np.int64), (report.dst, np.int64), (report.coef, np.float64)):
            assert col.dtype == dtype and not col.flags.writeable
        with pytest.raises(ValueError, match="1-D of one length"):
            LinearizationReport([0, 1], [1], [2.0])

    def test_undo_rejects_an_occupied_cell(self):
        q = QuboMatrix.from_entries(2, [(0, 1, 2)])
        _, report = linearize(q, OrderDag(2, ((0, 1),)))
        with pytest.raises(ValueError, match=r"cannot restore \(0, 1\)"):
            undo_linearization(q, report)

    @pytest.mark.parametrize("removed, message", [
        ([(0, 1, 2.0), (2, 1, 1.0)], "cannot restore (2, 1): cell already occupied"),
        # a pair removed twice: the later removal is named, whichever way round
        ([(0, 1, 2.0), (1, 0, 3.0)], "cannot restore (1, 0): cell already occupied"),
        ([(1, 0, 2.0), (0, 2, 1.0), (0, 1, 3.0), (2, 0, 1.0)], "cannot restore (0, 1): cell already occupied"),
        ([(0, 1, 1.0), (5, 0, 1.0)], "report entry (5, 0, 1.0) names no coupling of n=3"),
        ([(0, 1, 1.0), (0, -1, 2.0)], "report entry (0, -1, 2.0) names no coupling of n=3"),
        ([(0, 1, 1.0), (1, 1, 2.0)], "report entry (1, 1, 2.0) names no coupling of n=3"),
    ], ids=["stored", "repeated", "repeated-reverse-first", "index-over-n", "negative-index", "diagonal"])
    def test_undo_rejects_a_bad_entry(self, removed, message):
        q_lin = QuboMatrix.from_entries(3, [(0, 0, 4.0), (1, 2, 1.0)])
        with pytest.raises(ValueError) as err:
            undo_linearization(q_lin, LinearizationReport(*zip(*removed)))
        assert str(err.value) == message


class TestPenaltyValue:
    def test_worked_example_violating_assignment(self, example_q, example_order):
        # both edge implications broken: penalties 2 and 7 both fire
        assert penalty_value(example_q, example_order, (1, 0, 0)) == 9

    def test_zero_inside_ordered_subspace(self, example_q, example_order):
        for bits in itertools.product((0, 1), repeat=3):
            if in_ordered_subspace(example_order, bits):
                assert penalty_value(example_q, example_order, bits) == 0

    def test_all_zeros(self, example_q, example_order):
        assert penalty_value(example_q, example_order, (0, 0, 0)) == 0

    def test_dimension_mismatch(self, example_q):
        with pytest.raises(ValueError):
            penalty_value(example_q, OrderDag(4, ()), (0, 0, 0, 0))

    def test_decomposition_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            q = random_integer_qubo(rng, n)
            order = extract_order_dense(q)
            q_lin, _ = linearize(q, order)
            for bits in itertools.product((0, 1), repeat=n):
                assert energy(q_lin, bits) == energy(q, bits) + penalty_value(q, order, bits)

    @given(st.integers(2, 12), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_decomposition_identity_random_points(self, n, seed, bits_seed):
        rng = np.random.default_rng(seed)
        q = random_integer_qubo(rng, n)
        order = extract_order_dense(q)
        q_lin, _ = linearize(q, order)
        bits = np.random.default_rng(bits_seed).integers(0, 2, n)
        assert energy(q_lin, bits) == energy(q, bits) + penalty_value(q, order, bits)


class TestOptimumPreservation:
    def test_pointwise_dominance_and_subspace_equality(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(2, 11))
            q = random_integer_qubo(rng, n)
            order = extract_order_dense(q)
            q_lin, _ = linearize(q, order)
            for bits in itertools.product((0, 1), repeat=n):
                e, e_lin = energy(q, bits), energy(q_lin, bits)
                assert e_lin >= e
                if in_ordered_subspace(order, bits):
                    assert e_lin == e

    def test_minimum_and_argmins_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            n = int(rng.integers(2, 11))
            q = random_integer_qubo(rng, n)
            q_lin, _ = linearize(q, extract_order_dense(q))
            best, argmins = exhaustive_minimum(q)
            best_lin, argmins_lin = exhaustive_minimum(q_lin)
            assert best_lin == best
            assert set(argmins_lin) <= set(argmins)


class TestFusedPass:
    def test_worked_example(self, example_q, example_q_linearized):
        q_lin, order, report = extract_and_linearize(example_q)
        assert q_lin == example_q_linearized
        assert order.edges.tolist() == [[0, 1], [0, 2]]
        assert report.removed_count == 2

    def test_diagonal_only_matrix_unchanged(self):
        q = QuboMatrix.from_entries(3, [(0, 0, -1), (1, 1, -2), (2, 2, -3)])
        q_lin, order, report = extract_and_linearize(q)
        assert q_lin == q
        assert report.removed_count == 0
        assert len(order) > 0  # diagonal ordering still admits edges

    def test_equals_two_phase_pipeline(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            q = random_integer_qubo(rng, int(rng.integers(2, 35)))
            fused_q, fused_order, fused_report = extract_and_linearize(q)
            order = extract_order_dense(q)
            two_phase_q, two_phase_report = linearize(q, order)
            assert fused_q == two_phase_q
            assert np.array_equal(fused_order.edges, order.edges)
            assert triples(fused_report) == triples(two_phase_report)


class TestLandscapeThinning:
    def test_worked_example_loses_a_local_minimum(self, example_q, example_q_linearized):
        assert count_local_minima(example_q) == 2
        assert count_local_minima(example_q_linearized) == 1
