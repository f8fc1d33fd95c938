import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    exhaustive_energy,
    random_integer_qubo,
    reference_from_entries,
    reference_save_order,
    reference_save_qubo,
    reference_save_report,
)
from qubolin import (
    LinearizationReport,
    OrderDag,
    QuboMatrix,
    SynthParams,
    encode_linearized,
    encode_qubo,
    energy,
    extract_and_linearize,
    flip_delta,
    generate_hard,
    generate_mkp,
    generate_synthetic,
    load_qubo,
    od_count,
    save_qubo,
    symmetric_coefficient,
)
from qubolin.cli import main
from qubolin.linearize import save_report
from qubolin.ordering import save_order
from qubolin.qubo import INDEX_LIMIT


class TestEnergy:
    def test_worked_example_local_minimum(self, example_q):
        assert energy(example_q, (1, 1, 0)) == -6

    def test_worked_example_global_minimum(self, example_q):
        assert energy(example_q, (0, 0, 1)) == -8

    def test_all_zeros_is_zero(self, example_q):
        assert energy(example_q, (0, 0, 0)) == 0

    def test_empty_matrix(self):
        q = QuboMatrix.from_entries(3, [])
        assert energy(q, (1, 0, 1)) == 0

    def test_zero_variables_is_legal(self):
        q = QuboMatrix.from_entries(0, [])
        assert energy(q, ()) == 0

    def test_dimension_mismatch(self, example_q):
        with pytest.raises(ValueError):
            energy(example_q, (1, 0))

    def test_non_binary_rejected(self, example_q):
        with pytest.raises(ValueError):
            energy(example_q, (2, 0, 0))

    def test_matches_exhaustive_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = random_integer_qubo(rng, 6)
            bits = tuple(rng.integers(0, 2, 6))
            assert energy(q, bits) == exhaustive_energy(q, bits)


class TestOdCount:
    def test_worked_example(self, example_q):
        assert od_count(example_q) == 3

    def test_linearized_example(self, example_q_linearized):
        assert od_count(example_q_linearized) == 1

    def test_empty(self):
        assert od_count(QuboMatrix.from_entries(4, [])) == 0

    def test_diagonal_only(self):
        q = QuboMatrix.from_entries(3, [(0, 0, 1), (2, 2, -4)])
        assert od_count(q) == 0


class TestFlipDelta:
    def test_from_zero_equals_diagonal(self, example_q):
        assert flip_delta(example_q, (0, 0, 0), 2) == -8

    def test_against_full_reevaluation(self, example_q):
        # flipping bit 0 of (1, 1, 0) must land at the energy of (0, 1, 0)
        expected = energy(example_q, (0, 1, 0)) - energy(example_q, (1, 1, 0))
        assert expected == 1
        assert flip_delta(example_q, (1, 1, 0), 0) == 1

    def test_double_flip_cancels(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            q = random_integer_qubo(rng, 7)
            bits = list(rng.integers(0, 2, 7))
            i = int(rng.integers(0, 7))
            d1 = flip_delta(q, bits, i)
            bits[i] ^= 1
            d2 = flip_delta(q, bits, i)
            assert d1 + d2 == 0

    def test_index_out_of_range(self, example_q):
        with pytest.raises(ValueError):
            flip_delta(example_q, (0, 0, 0), 3)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_consistent_with_energy(self, n, seed):
        rng = np.random.default_rng(seed)
        q = random_integer_qubo(rng, n)
        bits = list(rng.integers(0, 2, n))
        i = int(rng.integers(0, n))
        before = energy(q, bits)
        delta = flip_delta(q, bits, i)
        bits[i] ^= 1
        assert energy(q, bits) == before + delta


class TestSymmetricCoefficient:
    def test_off_diagonal_is_symmetric(self, example_q):
        assert symmetric_coefficient(example_q, 0, 1) == symmetric_coefficient(example_q, 1, 0) == 2

    def test_diagonal(self, example_q):
        assert symmetric_coefficient(example_q, 2, 2) == -8

    def test_absent_pair_is_zero(self):
        q = QuboMatrix.from_entries(3, [(0, 1, 5)])
        assert symmetric_coefficient(q, 1, 2) == 0


class TestCanonicalization:
    def test_lower_entry_folds_by_addition(self):
        q = QuboMatrix.from_entries(3, [(0, 1, 2), (1, 0, 3)])
        assert q.terms == {(0, 1): 5.0}

    def test_fold_to_zero_drops_key(self):
        q = QuboMatrix.from_entries(3, [(0, 1, 2), (1, 0, -2)])
        assert q.terms == {}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuboMatrix.from_entries(3, [(0, 1, 2), (0, 1, 3)])

    def test_zero_entry_not_stored(self):
        q = QuboMatrix.from_entries(3, [(0, 1, 0)])
        assert q.terms == {}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QuboMatrix.from_entries(2, [(0, 0, math.inf)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuboMatrix.from_entries(2, [(0, 2, 1)])


entry_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-9, 9)),
    max_size=20,
    unique_by=lambda e: (e[0], e[1]),
)


class TestCanonicalFormProperties:
    @given(entry_lists)
    def test_from_entries_invariants(self, entries):
        q = QuboMatrix.from_entries(6, entries)
        assert all(i <= j for i, j in q.terms)
        assert all(v != 0 for v in q.terms.values())

    @given(entry_lists)
    def test_folding_preserves_energy(self, entries):
        # a lower-triangular entry contributes exactly like its mirror
        q = QuboMatrix.from_entries(6, entries)
        for idx in (0, 21, 42, 63):
            bits = [(idx >> b) & 1 for b in range(6)]
            direct = sum(v * bits[i] * bits[j] for i, j, v in entries)
            assert energy(q, bits) == direct


class TestSerialization:
    def test_round_trip(self, tmp_path, example_q):
        path = tmp_path / "q.json"
        save_qubo(example_q, path)
        assert load_qubo(path) == example_q

    def test_reserialization_idempotent(self, tmp_path):
        rng = np.random.default_rng(3)
        q = random_integer_qubo(rng, 9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_qubo(q, p1)
        save_qubo(load_qubo(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_format_shape(self, tmp_path, example_q):
        path = tmp_path / "q.json"
        save_qubo(example_q, path)
        data = json.loads(path.read_text())
        assert data["n"] == 3
        assert all(i <= j for i, j, _ in data["terms"])

    def test_duplicate_keys_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "terms": [[0, 1, 2], [0, 1, 3]]}))
        with pytest.raises(ValueError, match="duplicate"):
            load_qubo(path)

    def test_lower_triangle_in_file_folds(self, tmp_path):
        path = tmp_path / "fold.json"
        path.write_text(json.dumps({"n": 2, "terms": [[1, 0, 4], [0, 1, 1]]}))
        assert load_qubo(path).terms == {(0, 1): 5.0}


# integer, short decimal and wide float coefficients; the last two make
# float sums depend on their order
coefficients = st.one_of(
    st.integers(-9, 9),
    st.floats(-10, 10).map(lambda v: round(v, 3)),
    st.floats(-1e6, 1e6, allow_subnormal=False),
)


@st.composite
def raw_entry_lists(draw, faults: bool = False):
    """``(n, entries)``: lower-triangle keys, mirror pairs and any order; with
    ``faults`` also out-of-range indices, repeated keys and non-finite values."""
    n = draw(st.integers(1, 7))
    lo, hi = (-1, n) if faults else (0, n - 1)
    values = st.one_of(coefficients, st.sampled_from([math.nan, math.inf, -math.inf])) if faults else coefficients
    entry = st.tuples(st.integers(lo, hi), st.integers(lo, hi), values)
    unique = None if faults else (lambda e: (e[0], e[1]))
    return n, draw(st.lists(entry, max_size=30, unique_by=unique))


class TestDictOracle:
    """The array storage against the literal dict loop it replaced."""

    @given(raw_entry_lists())
    def test_from_entries_matches_oracle(self, case):
        n, entries = case
        q = QuboMatrix.from_entries(n, entries)
        expected = reference_from_entries(n, entries)
        assert q.terms == expected
        assert list(q.terms) == sorted(expected)
        assert [v.hex() for v in q.terms.values()] == [expected[k].hex() for k in q.terms]

    @given(raw_entry_lists(faults=True))
    def test_first_fault_matches_oracle(self, case):
        n, entries = case
        try:
            expected = reference_from_entries(n, entries)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                QuboMatrix.from_entries(n, entries)
            assert str(err.value) == str(exc)
        else:
            assert QuboMatrix.from_entries(n, entries).terms == expected

    @given(raw_entry_lists(), st.integers(0, 127))
    def test_energy_within_rounding_of_term_loop(self, case, mask):
        # the arrays sum in key order, the loop in its own; both round
        n, entries = case
        q = QuboMatrix.from_entries(n, entries)
        bits = [(mask >> b) & 1 for b in range(n)]
        bound = len(q.terms) * np.finfo(np.float64).eps * sum(abs(v) for v in q.terms.values())
        assert abs(energy(q, bits) - exhaustive_energy(q, bits)) <= bound

    @given(raw_entry_lists())
    def test_json_load_matches_oracle(self, case):
        n, entries = case
        data = json.loads(json.dumps({"n": n, "terms": [list(e) for e in entries]}))
        assert QuboMatrix.from_json_dict(data).terms == reference_from_entries(n, entries)


def _sparse_qubo(n: int, seed: int) -> QuboMatrix:
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=3 * n)
    j = rng.integers(0, n, size=3 * n)
    keep = i < j
    pairs = np.unique(np.stack([i[keep], j[keep]], axis=1), axis=0)
    diag = [(k, k, int(rng.integers(-30, 0))) for k in range(n)]
    return QuboMatrix.from_entries(n, diag + [(a, b, int(rng.integers(-5, 6)) or 1) for a, b in pairs.tolist()])


class TestSaveBytes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_synthetic(SynthParams(n=40, p=0.5, seed=2)),
            lambda: generate_hard(60, 4),
            lambda: _sparse_qubo(300, 5),
            lambda: encode_qubo(generate_mkp(30, 2, 0.5, seed=1), 0.37).qubo,
            lambda: encode_linearized(generate_mkp(30, 1, 0.25, seed=3), 1.0).qubo,
        ],
        ids=["synth", "hard", "sparse", "mkp", "mkp-linearized"],
    )
    def test_load_save_is_byte_identical(self, tmp_path, make):
        q = make()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_qubo(q, first)
        save_qubo(load_qubo(first), second)
        assert second.read_bytes() == first.read_bytes()
        # the writer's format: sorted keys, floats by repr
        terms = [[i, j, v] for (i, j), v in sorted(q.terms.items())]
        assert first.read_text() == json.dumps({"n": q.n, "terms": terms}) + "\n"


# values whose text json.dumps spells in each of its styles: integral floats
# ("2.0"), exponents ("1e+16"), subnormals, negatives and the extremes
file_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e16, -1e16, 5e-324, -2.5e-320, -0.5, 0.1, 1e308, -1.7976931348623157e308, 2.0**53]),
)
file_sizes = st.one_of(st.integers(1, 12), st.just(INDEX_LIMIT))


@st.composite
def index_pairs(draw, n: int, distinct: bool):
    """Pairs of indices below ``n``, at most one per unordered pair."""
    cell = st.integers(0, n - 1) if n < 12 else st.sampled_from([0, 1, 7, n // 2, n - 2, n - 1])
    pair = st.tuples(cell, cell)
    if distinct:
        pair = pair.filter(lambda p: p[0] != p[1])
    return draw(st.lists(pair, max_size=30, unique_by=lambda p: frozenset(p)))


class TestWriterOracle:
    """The QUBO, order and report writers against one ``json.dumps`` call each."""

    @staticmethod
    def same_bytes(tmp_path, save, reference, obj) -> None:
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        save(obj, got)
        reference(obj, want)
        assert got.read_bytes() == want.read_bytes()

    @given(st.data())
    def test_qubo(self, tmp_path_factory, data):
        n = data.draw(file_sizes)
        pairs = data.draw(index_pairs(n, distinct=False))
        vals = data.draw(st.lists(file_values, min_size=len(pairs), max_size=len(pairs)))
        q = QuboMatrix.from_entries(n, [(min(p), max(p), v) for p, v in zip(pairs, vals)])
        self.same_bytes(tmp_path_factory.mktemp("q"), save_qubo, reference_save_qubo, q)

    @given(st.data())
    def test_order(self, tmp_path_factory, data):
        n = data.draw(file_sizes)
        pairs = data.draw(index_pairs(n, distinct=True))
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = OrderDag(n, [(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)])
        self.same_bytes(tmp_path_factory.mktemp("order"), save_order, reference_save_order, g)

    @given(st.lists(st.tuples(st.integers(0, INDEX_LIMIT - 1), st.integers(0, INDEX_LIMIT - 1),
                              st.one_of(file_values, st.sampled_from([0.0, -0.0]))), max_size=30))
    def test_report(self, tmp_path_factory, removed):
        report = LinearizationReport(*(zip(*removed) if removed else ((), (), ())))
        self.same_bytes(tmp_path_factory.mktemp("report"), save_report, reference_save_report, report)

    @pytest.mark.parametrize("make", [
        lambda: generate_hard(60, 4),
        lambda: generate_synthetic(SynthParams(n=80, p=2.0, seed=5)),
        lambda: encode_linearized(generate_mkp(30, 2, 0.5, seed=1), 0.37).qubo,
    ], ids=["hard", "dense", "mkp-linearized"])
    def test_generated_files(self, tmp_path, make):
        q = make()
        q_lin, order, report = extract_and_linearize(q)
        self.same_bytes(tmp_path, save_qubo, reference_save_qubo, q)
        self.same_bytes(tmp_path, save_qubo, reference_save_qubo, q_lin)
        self.same_bytes(tmp_path, save_order, reference_save_order, order)
        self.same_bytes(tmp_path, save_report, reference_save_report, report)


class TestValueSemantics:
    def test_equal_and_hashed_by_contents(self):
        a = QuboMatrix.from_entries(3, [(2, 2, -1), (1, 0, 2)])
        b = QuboMatrix.from_entries(3, [(2, 2, -1.0), (0, 1, 2.0)])
        assert a == b and hash(a) == hash(b)
        assert a != QuboMatrix.from_entries(4, [(2, 2, -1.0), (0, 1, 2.0)])
        assert list(b.terms) == [(0, 1), (2, 2)]

    def test_immutable(self):
        q = QuboMatrix.from_entries(3, [(0, 1, 2.0)])
        with pytest.raises(TypeError):
            q.terms[(0, 0)] = 1.0
        with pytest.raises(AttributeError):
            q.n = 4
        with pytest.raises(ValueError):
            q.vals[0] = 5.0

    def test_built_from_entries_or_arrays_only(self):
        with pytest.raises(TypeError):
            QuboMatrix(3, {})
        q = QuboMatrix.from_entries(3, [(1, 0, 2.0)])
        assert repr(q) == "QuboMatrix(n=3, rows=array([0]), cols=array([1]), vals=array([2.]))"


# Malformed table entries, each with the text of its faulty item
_BAD_INDEX = [
    pytest.param((0, 1.7, 2.0), "1.7", id="float-index"),
    pytest.param((True, 1, 1.0), "True", id="bool-index"),
    pytest.param(("0", 1, 1.0), "'0'", id="string-index"),
    pytest.param((0.5, 1.9, "2"), "0.5", id="float-index-string-value"),
]
_BAD_VALUE = [
    pytest.param((0, 1, "2.5"), "'2.5'", id="string-value"),
    pytest.param((0, 1, True), "True", id="bool-value"),
    pytest.param((0, 1, None), "None", id="null-value"),
]
# index arrays of a non-integer dtype, one row per entry; every entry is
# faulty, so the first is named
_BAD_ARRAYS = [
    pytest.param(np.array([[0, 2], [0.5, 1]]), "(0.0, 2.0", id="float"),
    pytest.param(np.array([[True, False]]), "(True, False", id="bool"),
    pytest.param(np.array([["0", "1"]]), "('0', '1'", id="string"),
]
_BAD_COUNTS = [pytest.param(n, repr(n), id=f"n={n!r}") for n in (True, 2.5, -3, "3")]


class TestMalformedEntries:
    """One corpus of malformed entries through the seven entry paths: the
    QUBO from entries, from arrays and from its file; the order from pairs,
    from an array and from its file; and the report.  Each raises a
    ValueError that names the entry, and a file holding one exits 3."""

    @staticmethod
    def rejects(named, make, *args):
        with pytest.raises(ValueError) as err:
            make(*args)
        assert named in str(err.value)

    @staticmethod
    def exits_three(tmp_path, capsys, named, qubo, order=None):
        argv = ["linearize", "--in", str(tmp_path / "q.json"), "--out", str(tmp_path / "out.json")]
        (tmp_path / "q.json").write_text(json.dumps(qubo))
        if order is not None:
            (tmp_path / "order.json").write_text(json.dumps(order))
            argv += ["--order", str(tmp_path / "order.json"), "--no-verify"]
        assert main(argv) == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("entry, named", _BAD_INDEX + _BAD_VALUE)
    def test_qubo_from_entries(self, entry, named):
        self.rejects(named, QuboMatrix.from_entries, 3, [(0, 2, 1.0), entry])

    @pytest.mark.parametrize("entry, named", _BAD_INDEX + _BAD_VALUE)
    def test_qubo_from_arrays(self, entry, named):
        self.rejects(named, QuboMatrix.from_arrays, 3, *(np.array([x]) for x in entry))
        self.rejects(named, QuboMatrix.from_arrays, 3, *([0, x] for x in entry))

    @pytest.mark.parametrize("arr, named", _BAD_ARRAYS)
    def test_qubo_from_index_arrays(self, arr, named):
        self.rejects(named, QuboMatrix.from_arrays, 3, arr[:, 0], arr[:, 1], np.ones(len(arr)))

    @pytest.mark.parametrize("entry, named", _BAD_INDEX + _BAD_VALUE)
    def test_qubo_file(self, tmp_path, capsys, entry, named):
        self.exits_three(tmp_path, capsys, named, {"n": 3, "terms": [[0, 2, 1.0], list(entry)]})

    @pytest.mark.parametrize("entry, named", _BAD_INDEX)
    def test_order_from_pairs(self, entry, named):
        self.rejects(named, OrderDag, 3, [(0, 2), entry[:2]])

    @pytest.mark.parametrize("arr, named", _BAD_ARRAYS)
    def test_order_from_array(self, arr, named):
        self.rejects(named, OrderDag, 3, arr)

    @pytest.mark.parametrize("entry, named", _BAD_INDEX)
    def test_order_file(self, tmp_path, capsys, entry, named):
        self.exits_three(
            tmp_path, capsys, named, {"n": 3, "terms": []}, {"n": 3, "edges": [[0, 2], list(entry[:2])]}
        )

    @pytest.mark.parametrize("entry, named", _BAD_INDEX + _BAD_VALUE)
    def test_report(self, entry, named):
        self.rejects(named, LinearizationReport, *([0, x] for x in entry))
        self.rejects(named, LinearizationReport, *(np.array([x]) for x in entry))

    @pytest.mark.parametrize("arr, named", _BAD_ARRAYS)
    def test_report_from_index_arrays(self, arr, named):
        self.rejects(named, LinearizationReport, arr[:, 0], arr[:, 1], np.ones(len(arr)))

    @pytest.mark.parametrize("n, named", _BAD_COUNTS)
    def test_variable_count(self, tmp_path, capsys, n, named):
        self.rejects(named, QuboMatrix.from_entries, n, [(0, 1, 1.0)])
        self.rejects(named, QuboMatrix.from_arrays, n, np.array([0]), np.array([1]), np.array([1.0]))
        self.rejects(named, OrderDag, n, [(0, 1)])
        self.rejects(named, OrderDag, n, np.array([[0, 1]]))
        self.exits_three(tmp_path, capsys, named, {"n": n, "terms": [[0, 1, 1.0]]})
        self.exits_three(tmp_path, capsys, named, {"n": 3, "terms": []}, {"n": n, "edges": [[0, 1]]})
