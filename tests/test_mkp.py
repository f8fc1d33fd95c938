import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import reference_encode_qubo, reference_generate_mkp
from qubolin import (
    LimitError,
    MkpInstance,
    ParseError,
    brute_force,
    decode,
    dp_knapsack_oracle,
    encode_linearized,
    encode_qubo,
    energy,
    extract_mkp_order,
    generate_mkp,
    linearize,
    mkp_exact_oracle,
    od_count,
    optimality_gap,
    parse_orlib,
    serialize_orlib,
    slack_layout,
)
from qubolin import mkp, qubo
from qubolin.mkp import slack_blocks


def small_random_instance(rng, n=None, m=None, max_weight=8, alpha=None) -> MkpInstance:
    n = n or int(rng.integers(2, 10))
    m = m or int(rng.integers(1, 3))
    alpha = alpha or float(rng.choice([0.25, 0.5, 0.75]))
    w = rng.integers(1, max_weight + 1, size=(m, n))
    caps = tuple(int(max(1, np.floor(alpha * w[k].sum()))) for k in range(m))
    values = tuple(int(v) for v in rng.integers(1, 200, n))
    return MkpInstance(values, tuple(tuple(int(x) for x in w[k]) for k in range(m)), caps)


def same_instance(a: MkpInstance, b: MkpInstance) -> bool:
    fields = ("values", "weights", "capacities")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields) and a.best_known == b.best_known


class TestParser:
    def test_constructed_token_stream(self):
        instances = parse_orlib("1 2 1 0  10 7  5 4  6")
        assert len(instances) == 1
        inst = instances[0]
        assert (inst.n, inst.m) == (2, 1)
        assert np.array_equal(inst.values, [10, 7])
        assert np.array_equal(inst.weights, [[5, 4]])
        assert np.array_equal(inst.capacities, [6])
        assert inst.best_known is None

    def test_best_known_zero_means_absent(self):
        assert parse_orlib("1 1 1 0 5 3 2")[0].best_known is None
        assert parse_orlib("1 1 1 17 5 3 2")[0].best_known == 17

    def test_empty_stream(self):
        with pytest.raises(ParseError):
            parse_orlib("")

    def test_zero_instances(self):
        assert parse_orlib("0") == []

    def test_truncated_stream_names_position(self):
        with pytest.raises(ParseError, match="token"):
            parse_orlib("1 2 1 0 10 7 5")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="integer"):
            parse_orlib("1 2 x 0 10 7 5 4 6")

    def test_numbers_at_their_limits(self):
        MkpInstance((2**31 - 1,), ((2**31 - 1,),), (2**62 - 1,))
        with pytest.raises(ValueError, match=r"value of item 1 is 2147483648, outside 1\.\.2147483647"):
            MkpInstance((1, 2**31), ((1, 1),), (1,))
        with pytest.raises(ValueError, match=r"weight \(1, 0\) is 0, outside 1\.\.2147483647"):
            MkpInstance((1, 1), ((1, 1), (0, 1)), (1, 1))
        with pytest.raises(ValueError, match=r"capacity 0 is 4611686018427387904, outside 1\.\.4611686018427387903"):
            MkpInstance((1,), ((1,),), (2**62,))

    @pytest.mark.parametrize("text, message", [
        ("1 2 1 0  1 {big}  1 1  1", "value of item 1 is {big}"),
        ("1 2 1 0  1 1  1 {big}  1", r"weight \(0, 1\) is {big}"),
        ("1 2 1 0  1 1  1 1  {big}", "capacity 0 is {big}"),
    ], ids=["value", "weight", "capacity"])
    def test_token_beyond_int64(self, text, message):
        big = 10**23
        with pytest.raises(ValueError, match=message.format(big=big) + ", outside 1"):
            parse_orlib(text.format(big=big))

    def test_non_positive_shape(self):
        with pytest.raises(ParseError, match="non-positive"):
            parse_orlib("1 0 1 0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_orlib("1 1 1 0 5 3 2 99")

    def test_round_trip(self):
        rng = np.random.default_rng(20)
        instances = [small_random_instance(rng) for _ in range(4)]
        parsed = parse_orlib(serialize_orlib(instances))
        assert len(parsed) == len(instances)
        for a, b in zip(parsed, instances):
            assert same_instance(a, b)

    def test_bytes_accepted(self):
        assert parse_orlib(b"1 1 1 0 5 3 2")[0].values.tolist() == [5]


class TestInputChecks:
    def test_forms_agree_and_are_read_only(self):
        a = MkpInstance((5, 6), ((2, 3), (1, 1)), (5, 2))
        b = MkpInstance([5, 6], [[2, 3], [1, 1]], [5, 2])
        c = MkpInstance(np.array([5, 6], dtype=np.int32), np.array([[2, 3], [1, 1]], dtype=np.uint16),
                        np.array([5, 2]))
        for inst in (a, b, c):
            assert same_instance(inst, a)
            for arr in (inst.values, inst.weights, inst.capacities):
                assert arr.dtype == np.int64 and not arr.flags.writeable
        assert inst.weights.shape == (2, 2) and (inst.n, inst.m) == (2, 2)

    def test_owns_a_copy(self):
        values = np.array([5, 6])
        inst = MkpInstance(values, np.ones((1, 2), dtype=np.int64), np.array([1]))
        values[0] = 7
        assert inst.values.tolist() == [5, 6] and values.flags.writeable

    def test_equality_is_identity(self):
        inst = MkpInstance((5,), ((1,),), (1,))
        assert inst == inst and inst != MkpInstance((5,), ((1,),), (1,))

    @pytest.mark.parametrize("args, message", [
        (((1.5,), ((1,),), (1,)), "value of item 0 is 1.5, not an integer"),
        (((True,), ((1,),), (1,)), "value of item 0 is True, not an integer"),
        (((1, "2"), ((1, 1),), (1,)), "value of item 1 is '2', not an integer"),
        (((1,), ((1.0,),), (2.5,)), r"weight \(0, 0\) is 1.0, not an integer"),
        (((1, 1), ((1, 1), (1, False)), (1, 1)), r"weight \(1, 1\) is False, not an integer"),
        (((1,), ((1,),), (2.5,)), "capacity 0 is 2.5, not an integer"),
        (((1,), ((1,),), ("2",)), "capacity 0 is '2', not an integer"),
        (((1, 2), ((1, 1),), (np.int64(3),)), r"capacity 0 is np.int64\(3\), not an integer"),
        ((np.array([1.5]), np.ones((1, 1), dtype=np.int64), np.array([1])), "value of item 0 is 1.5, not an integer"),
        ((np.array([1]), np.ones((1, 1), dtype=bool), np.array([1])), r"weight \(0, 0\) is True, not an integer"),
        ((np.array([1]), np.ones((1, 1), dtype=np.int64), np.array(["1"])), "capacity 0 is '1', not an integer"),
    ], ids=["float-value", "bool-value", "str-value", "float-weight", "bool-weight", "float-capacity",
            "str-capacity", "numpy-scalar", "float-array", "bool-array", "str-array"])
    def test_non_integer_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            MkpInstance(*args)

    @pytest.mark.parametrize("args, message", [
        (((), ((),), (1,)), "at least one item"),
        (((1,), (), ()), "one weight row per capacity"),
        (((1, 2), ((1, 2),), (1, 1)), "one weight row per capacity"),
        (((1, 2), ((1, 2), (3,)), (1, 1)), "one entry per item"),
        (((1, 2), ((1, 2), 3), (1, 1)), "one entry per item"),
        (((1, 2), ((1, 2, 3),), (1,)), "one entry per item"),
        ((np.ones((1, 2), dtype=np.int64), np.ones((1, 2), dtype=np.int64), (1,)), "must be 1-D"),
        ((np.ones(2, dtype=np.int64), np.ones(1, dtype=np.int64), (1,)), "one entry per item"),
    ], ids=["no-items", "no-rows", "rows-vs-capacities", "ragged", "row-not-a-sequence", "long-row",
            "values-2d", "weights-1d"])
    def test_shapes(self, args, message):
        with pytest.raises(ValueError, match=message):
            MkpInstance(*args)

    def test_beyond_int64_quoted(self):
        with pytest.raises(ValueError, match=r"weight \(0, 1\) is 9223372036854775808, outside"):
            MkpInstance((1, 1), np.array([[1, 2**63]], dtype=np.uint64), (1,))
        with pytest.raises(ValueError, match=f"value of item 0 is {10**23}, outside"):
            MkpInstance([10**23], [[1]], [1])


class TestGenerator:
    def test_deterministic(self):
        assert same_instance(generate_mkp(20, 3, 0.5, 4), generate_mkp(20, 3, 0.5, 4))
        other = generate_mkp(20, 3, 0.5, 5)
        assert not np.array_equal(generate_mkp(20, 3, 0.5, 4).weights, other.weights)
        assert not same_instance(generate_mkp(20, 3, 0.5, 4), other)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 100, 300])
    def test_matches_tuple_oracle(self, n):
        # the grid the array generator was checked on against the tuple one
        for m, alpha, seed in itertools.product((1, 2, 5), (0.25, 0.5, 0.75), range(3)):
            inst = generate_mkp(n, m, alpha, seed)
            values, weights, caps = reference_generate_mkp(n, m, alpha, seed)
            assert inst.values.tolist() == list(values)
            assert inst.weights.tolist() == list(map(list, weights))
            assert inst.capacities.tolist() == list(caps)
            oracle = MkpInstance(values, weights, caps)
            for lam in (1.0, 0.37, 3.0):
                q = encode_qubo(inst, lam).qubo
                terms = reference_encode_qubo(oracle, lam)
                assert list(zip(q.rows.tolist(), q.cols.tolist())) == sorted(terms)
                assert [v.hex() for v in q.vals.tolist()] == [terms[k].hex() for k in sorted(terms)]

    def test_peak_memory(self):
        # README: generate_mkp peaks within 1.1x the bytes its limit check counts
        n, m = 200_000, 2
        tracemalloc.start()
        try:
            generate_mkp(n, m, 0.5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * (2 * m + 3) * n

    @pytest.mark.parametrize("stage, n, m, tied", [
        (encode_qubo, 300, 1, False),
        (encode_qubo, 100, 30, False),
        (extract_mkp_order, 300, 1, True),
        (extract_mkp_order, 100, 30, False),
    ], ids=["encode", "encode-m30", "order-all-tied", "order-m30"])
    def test_encode_path_peaks_within_its_count(self, monkeypatch, stage, n, m, tied):
        # README: the encoding peaks at 0.63-0.77x its count, the dominance order
        # at 0.97x where every pair of items is an edge
        inst = generate_mkp(n, m, 0.5, 0)
        if tied:
            inst = MkpInstance(np.full(n, 7), np.full((m, n), 3), inst.capacities)
        counted = []
        monkeypatch.setattr(mkp, "_check_bytes", lambda what, n, size: counted.append(size))
        tracemalloc.start()
        try:
            stage(inst, 1.0) if stage is encode_qubo else stage(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[0]

    def test_single_item_bounds(self):
        inst = generate_mkp(1, 1, 0.9, 0)
        w = inst.weights[0][0]
        assert inst.capacities[0] == int(np.floor(0.9 * w))
        assert w <= inst.values[0] <= w + 500

    def test_weight_support(self):
        inst = generate_mkp(200, 2, 0.5, 1)
        flat = [w for row in inst.weights for w in row]
        assert min(flat) >= 1 and max(flat) <= 1000

    def test_mean_capacity_matches_tightness(self):
        # capacity = floor(alpha * sum of ~U(1, 1000) weights)
        caps = []
        for seed in range(10):
            inst = generate_mkp(100, 5, 0.25, seed)
            caps.extend(inst.capacities)
        expected = 0.25 * 500.5 * 100
        assert abs(np.mean(caps) - expected) / expected < 0.05

    def test_invalid_alpha(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                generate_mkp(5, 1, alpha, 0)


class TestSlackLayout:
    def test_capacity_five(self):
        assert slack_layout(5) == (1, 2, 2)

    def test_capacity_one(self):
        assert slack_layout(1) == (1,)

    @pytest.mark.parametrize("cap", [2, 3, 4, 7, 8, 100, 1023, 1024])
    def test_coverage(self, cap):
        reachable = {0}
        for w in slack_layout(cap):
            reachable |= {r + w for r in reachable}
        assert reachable == set(range(cap + 1))

    def test_residual_bounds(self):
        for cap in range(1, 2000):
            ws = slack_layout(cap)
            bits = len(ws)
            assert 1 <= ws[-1] <= 2 ** (bits - 1)
            assert sum(ws) == cap

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            slack_layout(0)

    def test_blocks_offsets(self):
        inst = MkpInstance((5, 6), ((2, 3), (1, 1)), (5, 2))
        blocks = slack_blocks(inst)
        assert blocks[0].offset == 2
        assert blocks[0].weights == (1, 2, 2)
        assert blocks[1].offset == 5
        assert blocks[1].weights == (1, 1)


class TestEncoding:
    def test_single_item_diagonal(self):
        # -v + lam * w^2 on the decision diagonal
        inst = MkpInstance((3,), ((2,),), (2,))
        enc = encode_qubo(inst, 1.0)
        assert enc.qubo.terms[(0, 0)] == 1.0
        assert enc.n_decision == 1
        assert enc.qubo.n == 1 + 2  # capacity 2 needs two slack bits

    def test_energy_matches_symbolic_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            inst = small_random_instance(rng, n=int(rng.integers(1, 4)), max_weight=6)
            lam = float(rng.integers(1, 4))
            enc = encode_qubo(inst, lam)
            blocks = enc.layout
            for bits in itertools.product((0, 1), repeat=enc.qubo.n):
                sel = bits[: inst.n]
                expected = -sum(v * b for v, b in zip(inst.values, sel))
                for block in blocks:
                    load = sum(
                        inst.weights[block.constraint][i] * sel[i] for i in range(inst.n)
                    )
                    slack = sum(
                        w * bits[block.offset + t] for t, w in enumerate(block.weights)
                    )
                    expected += lam * (load - slack) ** 2
                assert energy(enc.qubo, bits) == expected

    def test_all_zeros_energy(self):
        inst = MkpInstance((5, 7), ((3, 4),), (5,))
        enc = encode_qubo(inst, 2.0)
        assert energy(enc.qubo, [0] * enc.qubo.n) == 0

    def test_matched_slack_cancels_penalty(self):
        inst = MkpInstance((5, 7), ((3, 4),), (5,))
        enc = encode_qubo(inst, 2.0)
        # select item 0 (load 3); capacity 5 has slack weights (1, 2, 2):
        # setting bits for 1 + 2 balances the load exactly
        bits = [1, 0, 1, 1, 0]
        assert energy(enc.qubo, bits) == -5

    def test_cross_coefficients(self):
        inst = MkpInstance((5, 7), ((3, 4), (2, 6)), (5, 6))
        lam = 3.0
        enc = encode_qubo(inst, lam)
        assert enc.qubo.terms[(0, 1)] == 2 * lam * (3 * 4 + 2 * 6)

    def test_squared_weights_sum_exactly(self):
        # three squared weights of 2**31 - 1 sum past 2**63, where int64 wraps
        w = 2**31 - 1
        inst = MkpInstance((1, 2), ((w, 1),) * 3, (w,) * 3)
        assert encode_qubo(inst, 1.0).qubo.terms[(0, 0)] == float(-1 + 3 * w * w)

    def test_invalid_lambda(self):
        inst = MkpInstance((5,), ((3,),), (5,))
        for encoder in (encode_qubo, encode_linearized):
            for lam in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="lambda"):
                    encoder(inst, lam)

    @given(
        st.integers(1, 8).flatmap(lambda n: st.tuples(
            st.lists(st.integers(1, 1000), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(1, 1000), min_size=n, max_size=n), min_size=1, max_size=3),
            st.floats(0.05, 1.0),
        )),
        st.one_of(
            st.sampled_from([1.0, 0.37, 0.5, 3, 3.0, 1e-3]),
            st.floats(1e-6, 1e6),
            st.integers(1, 10**12),
        ),
    )
    # an integer lam past 2**53 tells exact integer arithmetic from float arithmetic
    @example(([7, 5], [[3, 9], [4, 1]], 0.5), 2**53 + 1)
    def test_matches_dict_loop(self, case, lam):
        values, weights, alpha = case
        caps = tuple(max(1, int(alpha * sum(row))) for row in weights)
        inst = MkpInstance(tuple(values), tuple(map(tuple, weights)), caps)
        q = encode_qubo(inst, lam).qubo
        terms = reference_encode_qubo(inst, lam)
        assert list(zip(q.rows.tolist(), q.cols.tolist())) == sorted(terms)
        assert [v.hex() for v in q.vals.tolist()] == [terms[k].hex() for k in sorted(terms)]


class TestDominanceOrder:
    def test_strict_dominance(self):
        inst = MkpInstance((3, 4), ((5, 2),), (6,))
        assert extract_mkp_order(inst).edges.tolist() == [[0, 1]]

    def test_identical_items_ordered_by_index(self):
        inst = MkpInstance((3, 3), ((5, 5),), (6,))
        assert extract_mkp_order(inst).edges.tolist() == [[0, 1]]

    def test_incomparable_items(self):
        inst = MkpInstance((3, 4), ((2, 5),), (6,))
        assert extract_mkp_order(inst).edges.tolist() == []

    def test_dominance_must_hold_on_every_constraint(self):
        inst = MkpInstance((3, 4), ((5, 2), (2, 5)), (6, 6))
        assert extract_mkp_order(inst).edges.tolist() == []

    def test_is_acyclic(self):
        from qubolin.ordering import topological_order

        rng = np.random.default_rng(22)
        for _ in range(20):
            inst = small_random_instance(rng, n=12)
            assert topological_order(extract_mkp_order(inst)) is not None

    def test_size_check_names_n_and_m(self, monkeypatch):
        # (m + 34) bytes per item pair, counted before any array is built
        monkeypatch.setattr(qubo, "DENSE_MAX_BYTES", 10_000)
        with pytest.raises(LimitError, match=r"dominance order of m=2 constraints of n=30 needs 32400 bytes"):
            extract_mkp_order(generate_mkp(30, 2, 0.5, 0))

    def test_edge_count_trends(self):
        # more constraints squeeze the order, more items enlarge it
        def mean_edges(n, m):
            return float(
                np.mean([len(extract_mkp_order(generate_mkp(n, m, 0.25, s))) for s in range(5)])
            )

        assert mean_edges(60, 1) > mean_edges(60, 5) > mean_edges(60, 30)
        assert mean_edges(80, 2) > mean_edges(30, 2)


class TestLinearizedEncoding:
    def test_no_edges_means_identical(self):
        inst = MkpInstance((3, 4), ((2, 5),), (6,))
        assert encode_linearized(inst, 1.0).qubo == encode_qubo(inst, 1.0).qubo

    def test_equals_two_phase_rewrite(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            inst = small_random_instance(rng)
            lam = float(rng.integers(1, 4))
            direct = encode_linearized(inst, lam)
            base = encode_qubo(inst, lam)
            two_phase, _ = linearize(base.qubo, direct.order)
            assert direct.qubo == two_phase

    def test_dominated_pair_coefficient_moves(self):
        lam = 2.0
        inst = MkpInstance((3, 4), ((5, 2),), (6,))
        enc = encode_linearized(inst, lam)
        base = encode_qubo(inst, lam)
        moved = 2 * lam * 5 * 2
        assert base.qubo.terms[(0, 1)] == moved
        assert (0, 1) not in enc.qubo.terms
        assert enc.qubo.terms[(0, 0)] == base.qubo.terms[(0, 0)] + moved
        assert od_count(enc.qubo) == od_count(base.qubo) - 1

    def test_slack_terms_untouched(self):
        rng = np.random.default_rng(24)
        inst = small_random_instance(rng, n=6, m=2)
        base = encode_qubo(inst, 1.0)
        lin = encode_linearized(inst, 1.0)
        for (i, j), v in base.qubo.terms.items():
            if i >= inst.n or j >= inst.n:
                assert lin.qubo.terms[(i, j)] == v


class TestDecode:
    def test_all_zeros_feasible(self):
        inst = MkpInstance((5, 7), ((3, 4),), (5,))
        enc = encode_qubo(inst, 1.0)
        d = decode(enc, [0] * enc.qubo.n, inst)
        assert d.feasible and d.objective == 0

    def test_overweight_selection_infeasible(self):
        inst = MkpInstance((5, 7), ((3, 4),), (5,))
        enc = encode_qubo(inst, 1.0)
        bits = [1, 1] + [0] * (enc.qubo.n - 2)
        d = decode(enc, bits, inst)
        assert not d.feasible
        assert d.excess == (2,)
        assert d.objective == 12

    def test_feasibility_ignores_slack_bits(self):
        inst = MkpInstance((5, 7), ((3, 4),), (5,))
        enc = encode_qubo(inst, 1.0)
        # feasible selection with deliberately unbalanced slack
        bits = [1, 0] + [1] * (enc.qubo.n - 2)
        assert decode(enc, bits, inst).feasible

    def test_dimension_mismatch(self):
        inst = MkpInstance((5,), ((3,),), (5,))
        enc = encode_qubo(inst, 1.0)
        with pytest.raises(ValueError):
            decode(enc, [0, 1], inst)


class TestOptimalityGap:
    @pytest.mark.parametrize("best,achieved,expected", [
        (100, 100, 0.0),
        (100, 90, 10.0),
        (200, 150, 25.0),
    ])
    def test_values(self, best, achieved, expected):
        assert optimality_gap(best, achieved) == expected

    def test_requires_positive_reference(self):
        with pytest.raises(ValueError):
            optimality_gap(0, 0)


class TestExactBaselines:
    def test_dp_worked_case(self):
        inst = MkpInstance((10, 7), ((5, 4),), (6,))
        score, selection = dp_knapsack_oracle(inst)
        # four selections by hand: {} -> 0, {0} -> 10, {1} -> 7, both -> overweight
        assert score == 10
        assert selection == (1, 0)

    def test_dp_everything_fits(self):
        inst = MkpInstance((4, 5, 6), ((1, 1, 1),), (10,))
        assert dp_knapsack_oracle(inst) == (15, (1, 1, 1))

    def test_dp_nothing_fits(self):
        inst = MkpInstance((4, 5), ((7, 9),), (3,))
        assert dp_knapsack_oracle(inst) == (0, (0, 0))

    def test_dp_rejects_multiple_constraints(self):
        inst = MkpInstance((4,), ((2,), (3,)), (5, 5))
        with pytest.raises(ValueError):
            dp_knapsack_oracle(inst)

    def test_dp_memory_limit(self):
        inst = MkpInstance(
            tuple([1] * 300), (tuple([1000] * 300),), (10**6,)
        )
        with pytest.raises(LimitError):
            dp_knapsack_oracle(inst)

    def test_exact_oracle_agrees_with_dp(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            inst = small_random_instance(rng, m=1, n=int(rng.integers(2, 12)))
            assert mkp_exact_oracle(inst)[0] == dp_knapsack_oracle(inst)[0]

    def test_exact_oracle_spans_two_blocks(self):
        # n = 19 takes two blocks of 2**18 selections; the optimum of seed 0
        # takes item 18, so it lies in the second block
        for seed in (0, 1):
            inst = generate_mkp(19, 1, 0.5, seed)
            score, selection = mkp_exact_oracle(inst)
            assert score == dp_knapsack_oracle(inst)[0]
            assert score == sum(v * s for v, s in zip(inst.values, selection))
            assert sum(w * s for w, s in zip(inst.weights[0], selection)) <= inst.capacities[0]

    def test_exact_oracle_selection_is_feasible_and_scores(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            inst = small_random_instance(rng, n=10)
            score, selection = mkp_exact_oracle(inst)
            loads = [
                sum(w * s for w, s in zip(row, selection)) for row in inst.weights
            ]
            assert all(l <= c for l, c in zip(loads, inst.capacities))
            assert score == sum(v * s for v, s in zip(inst.values, selection))

    def test_exact_oracle_empty_set_only(self):
        inst = MkpInstance((4, 5), ((7, 9),), (3,))
        assert mkp_exact_oracle(inst) == (0, (0, 0))

    def test_exact_oracle_size_limit(self):
        inst = MkpInstance(
            tuple([1] * 25), (tuple([1] * 25),), (5,)
        )
        with pytest.raises(LimitError):
            mkp_exact_oracle(inst)


class TestEncodingExactness:
    def test_brute_force_minimum_decodes_to_optimum(self):
        rng = np.random.default_rng(27)
        for _ in range(6):
            inst = small_random_instance(rng, n=int(rng.integers(3, 9)), max_weight=6)
            lam = sum(inst.values) + 1
            opt, _ = mkp_exact_oracle(inst)
            for encoder in (encode_qubo, encode_linearized):
                enc = encoder(inst, lam)
                value, assignment, _ = brute_force(enc.qubo)
                d = decode(enc, assignment, inst)
                assert d.feasible
                assert d.objective == opt
                assert value == -opt
