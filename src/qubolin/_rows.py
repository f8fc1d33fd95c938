"""Array reader for the QUBO and order files that ``qubo._save_rows`` writes.

:func:`parse_rows` reads a file as int64 index and float64 value columns
when its text is exactly what the writer makes of those columns, and
returns None for any other file, which ``qubo._load_rows`` then reads
through ``json.loads``.
"""

from __future__ import annotations

import json

import numpy as np

from .qubo import _json_rows

# The array path reads a QUBO file only where at most this share of the
# values in its first _SAMPLE_BYTES of rows are distinct: formatting a
# distinct value for the check costs more than json.loads spends on a row,
# so mostly distinct values read faster through json.loads.
_DISTINCT_SHARE = 0.25
_SAMPLE_BYTES = 1 << 14


def parse_rows(data: bytes, key: str, width: int) -> tuple[int, list[np.ndarray]] | None:
    """``(n, columns)`` if ``data`` is exactly the text that ``qubo._save_rows``
    writes for ``{"n": n}``, ``key`` and the columns, else None.  None also
    for a QUBO file whose values repeat too little for this to pay
    (:func:`_values_repeat`).

    Tokens are cut at the ``", "`` and ``"], ["`` separators of the rows.
    The cut is loose, but its columns count only if ``qubo._json_rows``
    gives back the rows byte for byte, and then ``json.loads`` reads the
    same numbers.
    """
    head, mid = b'{"n": ', f', "{key}": '.encode()
    at = data.find(mid)
    if at < 0 or not data.startswith(head) or not data.endswith(b"}\n"):
        return None
    count = data[len(head) : at]
    if not (count.isdigit() and len(count) <= 20 and b"%d" % int(count) == count):
        return None
    seg = data[at + len(mid) : -2]
    if seg == b"[]":
        return int(count), [np.empty(0, np.int64 if c < 2 else np.float64) for c in range(width)]
    if width == 3 and not _values_repeat(seg[:_SAMPLE_BYTES]):
        return None
    buf = np.frombuffer(seg, np.uint8)
    comma = np.flatnonzero(buf == ord(","))
    m = (comma.size + 1) // width
    if not seg.startswith(b"[[") or not seg.endswith(b"]]") or m * width != comma.size + 1:
        return None
    # token t lies between comma t - 1 and comma t, counting one before the
    # first row and one after the last, less "], [" where a row ends
    cut = np.concatenate([[-1], comma, [len(seg) - 1]])
    del comma
    columns = [None] * width
    for c in range(width):
        start = cut[c:-1:width] + 2 + (c == 0)
        size = cut[c + 1 :: width] - (c == width - 1) - start
        columns[c] = _index_column(buf, start, size) if c < 2 else _value_column(buf, start, size)
        if columns[c] is None:
            return None
    del cut, start, size
    if _json_rows(*columns).encode() != seg:
        return None
    return int(count), columns


def _index_column(buf: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray | None:
    """The tokens ``buf[start[t] : start[t] + size[t]]`` as int64 digit sums,
    or None for a token not of 1 to 18 characters."""
    if size.min() < 1 or size.max() > 18:
        return None
    # digits summed from the right; a digit read before a shorter token is
    # masked, and its position stays within -len(buf)
    col, pos = np.zeros(size.size, np.int64), start + size - 1
    for k in range(int(size.max())):
        digit = buf[pos].astype(np.int64) - ord("0")
        digit *= 10**k * (size > k)
        col += digit
        pos -= 1
    return col


def _value_column(buf: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray | None:
    """The tokens ``buf[start[t] : start[t] + size[t]]`` as float64, each
    distinct one through ``float`` once; None for a token not of 1 to 32
    characters or not a number."""
    if size.min() < 1 or size.max() > 32:
        return None
    w = -(-int(size.max()) // 8) * 8
    tokens = np.lib.stride_tricks.sliding_window_view(np.concatenate([buf, np.zeros(w, np.uint8)]), w)[start]
    tokens *= np.arange(w) < size[:, None]
    # one machine word per token where it fits, for a fast sort
    distinct, inverse = np.unique(tokens.view(np.uint64 if w == 8 else f"S{w}").ravel(), return_inverse=True)
    try:
        return np.array([float(t) for t in distinct.view(f"S{w}").tolist()])[inverse]
    except ValueError:
        return None


def _values_repeat(head: bytes) -> bool:
    """Whether the value tokens of the whole rows in ``head``, the start of a
    QUBO rows segment, are spelled as ``json.dumps`` spells floats and at
    most ``_DISTINCT_SHARE`` of them are distinct.  Integer values, say,
    fail here, before any array is built."""
    tokens = [row.rpartition(b", ")[2] for row in head.split(b"], [")[:-1]]
    distinct = list(set(tokens))
    if len(distinct) > _DISTINCT_SHARE * len(tokens):
        return False
    try:
        values = [float(t) for t in distinct]
    except ValueError:
        return False
    return not distinct or json.dumps(values)[1:-1].encode().split(b", ") == distinct
