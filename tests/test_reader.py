"""The QUBO and order file reader: the array path and its JSON fallback.

A file that is byte for byte what the writer makes is read as arrays by
``_rows.parse_rows``, unless it is a QUBO file whose values are mostly
distinct; any other file goes through ``json.loads``.  Both must give the
same matrix or order, or the same error.
"""

import itertools
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubolin import OrderDag, QuboMatrix, generate_hard, load_qubo, save_qubo
from qubolin import _rows, qubo
from qubolin.cli import main
from qubolin.ordering import load_order, save_order

_FORMS = {"terms": (load_qubo, 3), "edges": (load_order, 2)}


def _json_path(path, key):
    """The file read by ``json.loads`` and the table check alone."""
    data = json.loads(path.read_text())
    if key == "terms":
        return QuboMatrix.from_entries(data["n"], data["terms"])
    return OrderDag(data["n"], data["edges"])


def _outcome(path, key, read=None):
    """What reading ``path`` gives: its arrays with their dtypes, or the
    exception type and message.  ``read`` defaults to the library reader."""
    try:
        got = read(path, key) if read else _FORMS[key][0](path)
    except Exception as exc:  # noqa: BLE001 - every error type is compared
        return type(exc), str(exc)
    arrays = [got.edges] if key == "edges" else [got.rows, got.cols, got.vals]
    return got.n, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _fallback_outcome(path, key):
    """:func:`_outcome` with the array path switched off."""
    with mock.patch.object(_rows, "parse_rows", lambda *args: None):
        return _outcome(path, key)


@pytest.fixture
def paths_taken(monkeypatch):
    """Whether each load took the array path (True) or the fallback (False)."""
    taken = []
    parse = _rows.parse_rows

    def spy(*args):
        got = parse(*args)
        taken.append(got is not None)
        return got

    monkeypatch.setattr(_rows, "parse_rows", spy)
    return taken


@pytest.fixture
def any_values(monkeypatch):
    """The array path for every exact file, however few of its values repeat."""
    monkeypatch.setattr(_rows, "_DISTINCT_SHARE", 1.0)


_WRITTEN = {
    "gen-synth": (["gen", "synth", "--n", "30", "--p", "2.0", "--seed", "4", "--out", "{out}"], "terms"),
    "gen-hard": (["gen", "hard", "--n", "40", "--seed", "2", "--out", "{out}"], "terms"),
    "encode": (["encode", "--mkp", "{mkp}", "--lambda", "0.37", "--out", "{out}"], "terms"),
    "encode-linearize": (["encode", "--mkp", "{mkp}", "--lambda", "0.37", "--linearize", "--out", "{out}"], "terms"),
    "linearize-fused": (["linearize", "--in", "{qubo}", "--out", "{out}"], "terms"),
    "linearize-order": (["linearize", "--in", "{qubo}", "--order", "{order}", "--out", "{out}"], "terms"),
    "order": (["order", "--in", "{qubo}", "--out", "{out}"], "edges"),
    "order-sparse": (["order", "--sparse", "--in", "{qubo}", "--out", "{out}"], "edges"),
}


class TestWrittenFiles:
    """Every file the program writes reads as through ``json.loads``, and
    as arrays unless its values are mostly distinct."""

    @pytest.mark.parametrize("name", sorted(_WRITTEN))
    def test_cli_outputs(self, tmp_path, monkeypatch, paths_taken, name):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "mkp", "--n", "12", "--m", "2", "--alpha", "0.5", "--seed", "1", "--out", "inst.txt"]) == 0
        # from n = 60 on, most values of the linearized outputs repeat too
        assert main(["gen", "synth", "--n", "60", "--p", "2.0", "--seed", "3", "--out", "q.json"]) == 0
        assert main(["order", "--in", "q.json", "--out", "order.json"]) == 0
        argv, key = _WRITTEN[name]
        names = {"out": "out.json", "mkp": "inst.txt", "qubo": "q.json", "order": "order.json"}
        assert main([a.format(**names) for a in argv]) == 0
        path = tmp_path / "out.json"
        want = _outcome(path, key, _json_path)
        paths_taken.clear()
        assert _outcome(path, key) == want == _fallback_outcome(path, key)
        # about 90 % of the values of a knapsack encoding are distinct
        assert paths_taken == [not name.startswith("encode")]
        monkeypatch.setattr(_rows, "_DISTINCT_SHARE", 1.0)
        assert _outcome(path, key) == want
        assert paths_taken[1:] == [True]

    @given(
        n=st.one_of(st.integers(1, 12), st.just(qubo.INDEX_LIMIT)),
        entries=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7, 10, 11]),
                st.sampled_from([0, 1, 7, 10, 11]),
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e16, -1e16, 5e-324, -2.5e-320, 0.1, 2.0**53, -1.7976931348623157e308]),
                ),
            ),
            max_size=20,
            unique_by=lambda e: frozenset(e[:2]),
        ),
    )
    def test_any_written_matrix(self, tmp_path_factory, n, entries):
        q = QuboMatrix.from_entries(n, [(min(i, j), max(i, j), v) for i, j, v in entries if max(i, j) < n])
        path = tmp_path_factory.mktemp("q") / "q.json"
        save_qubo(q, path)
        with mock.patch.object(_rows, "_DISTINCT_SHARE", 1.0):
            n_read, _, columns = qubo._load_rows(path, "terms", 3)
        assert columns is not None
        assert QuboMatrix.from_arrays(n_read, *columns) == q == _json_path(path, "terms") == load_qubo(path)

    def test_order_over_a_wide_index_range(self, tmp_path, paths_taken):
        path = tmp_path / "order.json"
        save_order(OrderDag(qubo.INDEX_LIMIT, [(0, 5), (qubo.INDEX_LIMIT - 1, 123456789), (17, 0)]), path)
        assert _outcome(path, "edges") == _outcome(path, "edges", _json_path)
        assert paths_taken == [True]


# texts that are exactly what json.dumps writes for their numbers: the array
# path reads them, with the same result or error as json.loads
_EXACT = {
    "negative-zero-value": ("terms", '{"n": 3, "terms": [[0, 1, -0.0], [1, 1, 2.5]]}\n'),
    "exponent-value": ("terms", '{"n": 3, "terms": [[0, 1, 1e+16], [2, 2, 5e-324]]}\n'),
    "infinite-value": ("terms", '{"n": 3, "terms": [[0, 1, Infinity]]}\n'),
    "nan-value": ("terms", '{"n": 3, "terms": [[0, 1, NaN]]}\n'),
    "index-out-of-range": ("terms", '{"n": 3, "terms": [[0, 3, 1.0]]}\n'),
    "duplicate": ("terms", '{"n": 3, "terms": [[0, 1, 1.0], [0, 1, 2.0]]}\n'),
    "mirror-folds-to-zero": ("terms", '{"n": 3, "terms": [[1, 0, 1.0], [0, 1, -1.0]]}\n'),
    "zero-variables": ("terms", '{"n": 0, "terms": []}\n'),
    "edge-self-loop": ("edges", '{"n": 3, "edges": [[1, 1]]}\n'),
    "edge-reverse": ("edges", '{"n": 3, "edges": [[0, 1], [1, 0]]}\n'),
    "edge-out-of-range": ("edges", '{"n": 2, "edges": [[0, 2]]}\n'),
}

# any other JSON text: the fallback reads it, as before the array path
_OTHER = {
    "hand-spaced": ("terms", '{"n": 3, "terms": [[0,1,1.0], [1, 2,  2.0]]}\n'),
    "no-final-newline": ("terms", '{"n": 3, "terms": [[0, 1, 1.0]]}'),
    "key-reordered": ("terms", '{"terms": [[0, 1, 1.0]], "n": 3}\n'),
    "extra-key": ("terms", '{"n": 3, "terms": [[0, 1, 1.0]], "x": 1}\n'),
    "integer-value": ("terms", '{"n": 3, "terms": [[0, 1, 5]]}\n'),
    "exponent-unsigned": ("terms", '{"n": 3, "terms": [[0, 1, 1e16]]}\n'),
    "overflowing-value": ("terms", '{"n": 3, "terms": [[0, 1, 1e999]]}\n'),
    "negative-zero-index": ("terms", '{"n": 3, "terms": [[-0.0, 1, 1.0]]}\n'),
    "exponent-index": ("terms", '{"n": 3, "terms": [[1e+16, 1, 1.0]]}\n'),
    "negative-index": ("terms", '{"n": 3, "terms": [[-1, 1, 1.0]]}\n'),
    "float-index": ("terms", '{"n": 3, "terms": [[0.0, 1, 1.0]]}\n'),
    "19-digit-index": ("terms", '{"n": 3, "terms": [[1000000000000000000, 1, 1.0]]}\n'),
    "leading-zero-index": ("terms", '{"n": 3, "terms": [[01, 1, 1.0]]}\n'),
    "leading-zero-count": ("terms", '{"n": 03, "terms": [[0, 1, 1.0]]}\n'),
    "float-count": ("terms", '{"n": 3.0, "terms": [[0, 1, 1.0]]}\n'),
    "negative-count": ("terms", '{"n": -3, "terms": [[0, 1, 1.0]]}\n'),
    "short-row": ("terms", '{"n": 3, "terms": [[0, 1]]}\n'),
    "long-row": ("terms", '{"n": 3, "terms": [[0, 1, 1.0, 2.0]]}\n'),
    "string-value": ("terms", '{"n": 3, "terms": [[0, 1, "1.0"]]}\n'),
    "non-ascii": ("terms", '{"n": 3, "terms": [[0, 1, 1.0]], "é": 1}\n'),
    "unicode-digit-count": ("terms", '{"n": ٣, "terms": []}\n'),
    "wrong-key": ("terms", '{"n": 3, "edges": [[0, 1, 1.0]]}\n'),
    "edge-negative": ("edges", '{"n": 3, "edges": [[-1, 1]]}\n'),
    "edge-float": ("edges", '{"n": 3, "edges": [[0.0, 1]]}\n'),
    "edge-triple": ("edges", '{"n": 3, "edges": [[0, 1, 2]]}\n'),
}


class TestPathTaken:
    @pytest.mark.parametrize("name", sorted(_EXACT))
    def test_exact_json_text_takes_the_array_path(self, tmp_path, paths_taken, any_values, name):
        key, text = _EXACT[name]
        path = tmp_path / "f.json"
        path.write_text(text)
        assert _outcome(path, key) == _fallback_outcome(path, key)
        assert paths_taken == [True]

    @pytest.mark.parametrize("name", sorted(_OTHER))
    def test_other_json_text_falls_back(self, tmp_path, paths_taken, any_values, name):
        key, text = _OTHER[name]
        path = tmp_path / "f.json"
        path.write_text(text, encoding="utf-8")
        assert _outcome(path, key) == _fallback_outcome(path, key)
        assert paths_taken == [False]


# bytes that mutations draw from: the file's own alphabet, the JSON literals'
# letters, whitespace, a backslash and bytes beyond ASCII
_MUTATION_BYTES = b'0123456789-+.,:[]{} "eEnNIa\\\n\t\xff\xc3\xa9'


@pytest.mark.parametrize("key", ["terms", "edges"])
def test_mutated_files_read_as_through_json(tmp_path, key):
    """Random 1-3 byte edits of a written file give the same matrix or order,
    or the same exception type and message, as the JSON path."""
    # values repeat enough for the array path: 3 distinct in 20 rows
    values = [2.0, -3.0, 2.0, 2.0, 1e16, -3.0, 2.0, 2.0, -3.0, 2.0] * 2
    q = QuboMatrix.from_entries(7, [(i, j, v) for (i, j), v in zip(itertools.combinations(range(7), 2), values)])
    source = tmp_path / "source.json"
    if key == "terms":
        save_qubo(q, source)
    else:
        save_order(OrderDag(5, [(0, 1), (0, 4), (3, 2), (1, 2)]), source)
    width = _FORMS[key][1]
    original, path = source.read_bytes(), tmp_path / "f.json"
    rng = random.Random(18)
    parse = _rows.parse_rows
    exact = 0
    for _ in range(2500):
        data = bytearray(original)
        for _ in range(rng.randint(1, 3)):
            at, byte = rng.randrange(len(data) + 1), _MUTATION_BYTES[rng.randrange(len(_MUTATION_BYTES))]
            edit = rng.randrange(3)
            if edit == 0:
                data.insert(at, byte)
            elif at < len(data):
                if edit == 1:
                    data[at] = byte
                else:
                    del data[at]
        path.write_bytes(bytes(data))
        exact += parse(bytes(data), key, width) is not None
        assert _outcome(path, key) == _fallback_outcome(path, key), bytes(data)
    # both paths are exercised: edited digits often leave exact JSON text
    assert 50 < exact < 2400


class TestLoadLimit:
    """A file over ``DENSE_MAX_BYTES / LOAD_FACTOR`` bytes is refused before it is read."""

    @pytest.fixture
    def files(self, tmp_path):
        q, order = tmp_path / "q.json", tmp_path / "order.json"
        q.write_text('{"n": 100, "terms": [[0, 1, 1.0]]}\n')
        save_order(OrderDag(100, [(k, k + 1) for k in range(99)]), order)
        return q, order

    @pytest.mark.parametrize("argv", [
        ["order", "--in", "{q}"],
        ["order", "--sparse", "--in", "{q}"],
        ["linearize", "--in", "{q}"],
        ["solve", "--method", "sa", "--in", "{q}"],
        ["linearize", "--in", "{q}", "--order", "{order}", "--no-verify"],
    ], ids=["order", "order-sparse", "linearize", "solve", "linearize-order"])
    def test_over_the_limit_exits_four(self, tmp_path, capsys, monkeypatch, files, argv):
        q, order = files
        # the QUBO file passes on its own, so --order fails on the order file
        big = order if "--order" in argv else q
        size = big.stat().st_size
        limit = qubo.LOAD_FACTOR * size - 1 if big == q else qubo.LOAD_FACTOR * q.stat().st_size
        monkeypatch.setattr(qubo, "DENSE_MAX_BYTES", limit)
        out = tmp_path / "out.json"
        assert main([*(a.format(q=q, order=order) for a in argv), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"loading {big} of {size} bytes needs {qubo.LOAD_FACTOR * size} bytes, over the limit of {limit}" in err
        assert not out.exists()

    def test_at_the_limit_loads(self, monkeypatch, files):
        q, _ = files
        monkeypatch.setattr(qubo, "DENSE_MAX_BYTES", qubo.LOAD_FACTOR * q.stat().st_size)
        assert load_qubo(q).n == 100

    @pytest.mark.parametrize("fallback", [False, True], ids=["array", "json"])
    @pytest.mark.parametrize("key", ["terms", "edges"])
    def test_load_peaks_within_the_factor(self, tmp_path, monkeypatch, fallback, key):
        # README: 8-11x the file on the array path, up to 14.5x through json.loads
        path = tmp_path / "f.json"
        q = generate_hard(200, 5)
        if key == "terms":
            save_qubo(q, path)
        else:
            save_order(OrderDag(q.n, np.stack(np.triu_indices(q.n, 1), axis=1)), path)
        if fallback:
            monkeypatch.setattr(_rows, "parse_rows", lambda *args: None)
        read, _ = _FORMS[key]
        read(path)
        tracemalloc.start()
        try:
            read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= qubo.LOAD_FACTOR * path.stat().st_size
