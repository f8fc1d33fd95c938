"""The QUBO and order file reader: the array path and its JSON fallback.

A file that is byte for byte what the writer makes is read as arrays by
``_rows.parse_rows``, unless it is a QUBO file whose values are mostly
distinct; any other file goes through ``json.loads``.  Both must give the
same matrix or order, or the same error.
"""

import builtins
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qubolin
from qubolin import OrderDag, QuboMatrix, generate_hard, load_qubo, save_qubo
from qubolin import _rows, ordering, qubo
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
    # float() and a loose cut accept these, json.loads does not
    "nul-after-value": ("terms", '{"n": 3, "terms": [[0, 1, 2.0\x00]]}\n'),
    "nul-in-index": ("terms", '{"n": 3, "terms": [[0, 1\x00, 2.0]]}\n'),
    "nul-after-count": ("terms", '{"n": 3\x00, "terms": [[0, 1, 2.0]]}\n'),
    "underscore-value": ("terms", '{"n": 3, "terms": [[0, 1, 1_0.0]]}\n'),
    "underscore-index": ("terms", '{"n": 11, "terms": [[1_0, 1, 1.0]]}\n'),
    "space-before-value": ("terms", '{"n": 3, "terms": [[0, 1,  1.0]]}\n'),
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
# letters, whitespace, a backslash, NUL, an underscore and bytes beyond ASCII
_MUTATION_BYTES = b'0123456789-+.,:[]{} "eEnNIa\\\n\t\x00_\xff\xc3\xa9'


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
        # README: 6-7.6x the file on the array path, up to 15x through json.loads
        if fallback:
            monkeypatch.setattr(_rows, "parse_rows", lambda *args: None)
        assert _load_peak(tmp_path, key) <= qubo.LOAD_FACTOR

    def test_order_file_peaks_no_higher_than_a_qubo_file(self, tmp_path):
        # an order file holds more int64 entries per byte than a QUBO file,
        # and its edge array is built once: 6.5x against 7.4x at n = 200
        assert _load_peak(tmp_path, "edges") <= _load_peak(tmp_path, "terms")

    def test_order_columns_become_one_edge_array(self, monkeypatch):
        # past the parse, load_order stacks the columns once: 41 bytes per
        # edge with the pair sort, 57 if they were stacked before OrderDag
        n = 300
        columns = list(np.triu_indices(n, 1))
        monkeypatch.setattr(ordering, "_load_rows", lambda path, key, width: (n, None, columns))
        load_order("edges.json")
        tracemalloc.start()
        try:
            assert len(load_order("edges.json")) == columns[0].size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * columns[0].size


def test_cli_import_leaves_the_reader_unloaded():
    # where no bytecode cache is written, a loaded module costs its compile
    # time in every command, also in those that read no file
    code = "import sys, qubolin.cli; print('qubolin._rows' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qubolin.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def _load_peak(tmp_path, key) -> float:
    """The ``tracemalloc`` peak of loading a hard n = 200 QUBO file, or the
    order file of all its pairs, per byte of the file."""
    path = tmp_path / f"{key}.json"
    q = generate_hard(200, 5)
    if key == "terms":
        save_qubo(q, path)
    else:
        save_order(OrderDag(q.n, np.stack(np.triu_indices(q.n, 1), axis=1)), path)
    read, _ = _FORMS[key]
    read(path)
    tracemalloc.start()
    try:
        read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / path.stat().st_size


def _formatted(q, path) -> bytes:
    """The bytes the writer formats for ``q``, saved from a copy that keeps no file bytes."""
    copy = QuboMatrix.from_arrays(q.n, q.rows, q.cols, q.vals)
    assert copy._text is None
    save_qubo(copy, path)
    return path.read_bytes()


class TestKeptBytes:
    """A matrix read from the writer's bytes, whose columns pass the entry
    check as they are, keeps those bytes, and saving it writes them back."""

    @pytest.mark.parametrize("name", sorted(n for n, (_, key) in _WRITTEN.items() if key == "terms"))
    def test_written_files_save_as_read(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "mkp", "--n", "12", "--m", "2", "--alpha", "0.5", "--seed", "1", "--out", "inst.txt"]) == 0
        assert main(["gen", "synth", "--n", "60", "--p", "2.0", "--seed", "3", "--out", "q.json"]) == 0
        assert main(["order", "--in", "q.json", "--out", "order.json"]) == 0
        argv, _ = _WRITTEN[name]
        names = {"out": "out.json", "mkp": "inst.txt", "qubo": "q.json", "order": "order.json"}
        assert main([a.format(**names) for a in argv]) == 0
        written = (tmp_path / "out.json").read_bytes()
        q = load_qubo(tmp_path / "out.json")
        # a knapsack encoding goes through json.loads, which keeps nothing
        assert (q._text is None) == name.startswith("encode")
        assert q._text in (None, written)
        assert _formatted(q, tmp_path / "copy.json") == written
        save_qubo(q, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == written

    # the writer's byte layout, but not a canonical table: the 15 pairs of
    # n = 5 with at most three distinct values keep the file on the array path
    _TABLE = [[i, j, -3.0 if i == j else 2.0] for i, j in itertools.combinations_with_replacement(range(5), 2)]
    _CHANGED = {
        "unsorted": _TABLE[::-1],
        "zero-value": [*_TABLE[:3], [0, 3, 0.0], *_TABLE[4:]],
        "lower-triangular": [*_TABLE[:6], [2, 1, 2.0], *_TABLE[7:]],
    }

    @pytest.mark.parametrize("name", sorted(_CHANGED))
    def test_tables_that_change_keep_nothing(self, tmp_path, paths_taken, name):
        rows = self._CHANGED[name]
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"n": 5, "terms": rows}) + "\n")
        q = load_qubo(path)
        assert paths_taken == [True]
        assert q._text is None
        assert q == QuboMatrix.from_entries(5, [tuple(r) for r in rows])
        save_qubo(q, tmp_path / "out.json")
        saved = (tmp_path / "out.json").read_bytes()
        assert saved == _formatted(q, tmp_path / "copy.json") != path.read_bytes()

    def test_repeated_key_keeps_its_error(self, tmp_path, paths_taken):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"n": 5, "terms": [*self._TABLE[:2], *self._TABLE[1:]]}) + "\n")
        with pytest.raises(ValueError, match=r"^duplicate entry for key \(0, 1\)$"):
            load_qubo(path)
        assert paths_taken == [True]

    def test_fused_pass_that_moves_nothing_writes_the_input(self, tmp_path, monkeypatch, capsys):
        src, out = tmp_path / "hard.json", tmp_path / "out.json"
        assert main(["gen", "hard", "--n", "120", "--seed", "7", "--out", str(src)]) == 0

        def no_formatting(*columns):
            raise AssertionError("the output was formatted again")

        monkeypatch.setattr(qubo, "_json_rows", no_formatting)
        capsys.readouterr()
        assert main(["linearize", "--in", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("removed 0 off-diagonals")
        assert out.read_bytes() == src.read_bytes()

    def test_other_matrices_keep_nothing(self, tmp_path):
        path = tmp_path / "q.json"
        q = generate_hard(30, 1)
        save_qubo(q, path)
        loaded = load_qubo(path)
        assert loaded._text == path.read_bytes()
        assert q._text is None
        assert QuboMatrix.from_arrays(q.n, loaded.rows, loaded.cols, loaded.vals)._text is None
        # equality and hashing see the arrays alone
        assert loaded == q and hash(loaded) == hash(q)


@pytest.fixture
def opens(monkeypatch):
    """The paths opened, through ``open`` or ``io.open`` (which pathlib uses)."""
    opened, real = [], io.open

    def spy(file, *args, **kwargs):
        opened.append(Path(file).name if isinstance(file, (str, Path)) else file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    return opened


class TestReadOnce:
    """Each load reads its file once, and no further than the size limit."""

    @pytest.mark.parametrize("kind", ["hard", "encoding", "integer-values", "order"])
    def test_one_read_per_load(self, tmp_path, paths_taken, opens, kind):
        path = tmp_path / "f.json"
        if kind == "hard":
            save_qubo(generate_hard(40, 2), path)
        elif kind == "encoding":
            assert main(["gen", "mkp", "--n", "12", "--m", "1", "--alpha", "0.5", "--seed", "1",
                         "--out", str(tmp_path / "inst.txt")]) == 0
            assert main(["encode", "--mkp", str(tmp_path / "inst.txt"), "--lambda", "0.37", "--out", str(path)]) == 0
        elif kind == "integer-values":
            path.write_text('{"n": 3, "terms": [[0, 1, 5], [1, 2, -2]]}\n')
        else:
            save_order(OrderDag(5, [(0, 1), (0, 4), (3, 2)]), path)
        paths_taken.clear()
        opens.clear()
        (load_order if kind == "order" else load_qubo)(path)
        assert opens == ["f.json"]
        assert paths_taken == [kind in ("hard", "order")]

    @staticmethod
    def _feed(fifo: Path, data: bytes) -> threading.Thread:
        """A thread that writes ``data`` into the named pipe once a reader opens it."""

        def write():
            try:
                with open(fifo, "wb") as f:
                    f.write(data)
            except BrokenPipeError:  # the reader stopped at the limit
                pass

        thread = threading.Thread(target=write, daemon=True)
        thread.start()
        return thread

    @staticmethod
    def _release(fifo: Path, thread: threading.Thread) -> None:
        """Let a writer that no reader met finish, then wait for it."""
        if thread.is_alive():
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        thread.join(10)
        assert not thread.is_alive()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
    def test_pipe_over_the_limit_exits_four(self, tmp_path, monkeypatch, capsys, paths_taken):
        source, fifo, out = tmp_path / "q.json", tmp_path / "q.pipe", tmp_path / "out.json"
        save_qubo(generate_hard(40, 3), source)
        data = source.read_bytes()
        os.mkfifo(fifo)
        # a pipe's size reads 0, so only the read itself can stop at the limit
        limit = len(data) // 2
        monkeypatch.setattr(qubo, "DENSE_MAX_BYTES", qubo.LOAD_FACTOR * limit)
        thread = self._feed(fifo, data)
        try:
            code = main(["linearize", "--in", str(fifo), "--out", str(out)])
        finally:
            self._release(fifo, thread)
        assert code == 4
        err = capsys.readouterr().err
        assert f"loading {fifo} of at least {limit + 1} bytes" in err
        assert f"over the limit of {qubo.LOAD_FACTOR * limit}" in err
        assert paths_taken == [] and not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
    def test_pipe_read_through_json_loads(self, tmp_path):
        fifo, out = tmp_path / "q.pipe", tmp_path / "out.json"
        os.mkfifo(fifo)
        thread = self._feed(fifo, b'{"n": 3, "terms": [[0, 1, 5], [1, 1, -2]]}\n')
        env = {**os.environ, "PYTHONPATH": str(Path(qubolin.__file__).parents[1])}
        code = "import sys; from qubolin.cli import main; sys.exit(main(sys.argv[1:]))"
        try:
            # a second read of the pipe would wait for a writer forever
            done = subprocess.run([sys.executable, "-c", code, "linearize", "--in", str(fifo), "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=60)
        finally:
            self._release(fifo, thread)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("removed 1 off-diagonals (1 -> 0)")
        assert load_qubo(out) == QuboMatrix.from_entries(3, [(0, 0, 5), (1, 1, -2)])
