"""Array reader for the QUBO and order files that ``qubo._save_rows`` writes.

:func:`parse_rows` reads a file as int64 index and float64 value columns
when its text is exactly what the writer makes of those columns, and
returns None for any other file, which ``qubo._load_rows`` then reads
through ``json.loads``.
"""

from __future__ import annotations

import json

import numpy as np

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

    Tokens are cut at the commas of the rows, and then every byte of the
    rows is proved to be the one the writer puts there:

    - the separators: ``[[`` at the start and ``]]`` at the end, a space
      after every comma, and ``]`` before and `` [`` after the comma that
      ends a row;
    - each index token: 1 to 18 ASCII digits, with no leading zero unless
      it is ``0``, which is how ``json.dumps`` writes an int below 10**18;
    - each value token: ``json.dumps(float(token))`` gives back the token.

    These bytes tile the rows with the tokens between them, so the rows are
    ``qubo._json_rows`` of the columns byte for byte, which writes indices
    and values as ``json.dumps`` does, and ``json.loads`` reads the same
    numbers from the file.
    """
    head, mid = b'{"n": ', f', "{key}": '.encode()
    at = data.find(mid)
    if at < 0 or not data.startswith(head) or not data.endswith(b"}\n"):
        return None
    count = data[len(head) : at]
    if not (count.isdigit() and len(count) <= 20 and b"%d" % int(count) == count):
        return None
    lo = at + len(mid)
    if len(data) - lo == 4 and data.endswith(b"[]}\n"):
        return int(count), [np.empty(0, np.int64 if c < 2 else np.float64) for c in range(width)]
    if data[lo : lo + 2] != b"[[" or not data.endswith(b"]]}\n"):
        return None
    if width == 3 and not _values_repeat(data[lo : lo + _SAMPLE_BYTES]):
        return None
    # the rows and the space before them, a view of data; positions count
    # from that space, and the cuts are the commas with that space and the
    # last "]", so token t lies between cut t and cut t + 1, less "], ["
    # where a row ends
    buf = np.frombuffer(data, np.uint8, len(data) - lo - 1, lo - 1)
    mark = buf == ord(",")
    mark[0] = mark[-1] = True
    cut = np.flatnonzero(mark)
    del mark
    m = (cut.size - 1) // width
    if m * width != cut.size - 1:
        return None
    # ", " within a row and "], [" between rows; the closing "]]" keeps
    # every position read here inside buf
    comma, ends = cut[1:-1], cut[width:-1:width]
    if (buf[1:][comma] != ord(" ")).any() or (buf[ends - 1] != ord("]")).any() or (buf[2:][ends] != ord("[")).any():
        return None
    columns = [None] * width
    for c in range(width):
        start = cut[c:-1:width] + (2 + (c == 0))
        size = cut[c + 1 :: width] - start
        size -= int(c == width - 1)
        columns[c] = _index_column(buf, start, size) if c < 2 else _value_column(buf, start, size)
        del start, size
        if columns[c] is None:
            return None
    return int(count), columns


def _index_column(buf: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray | None:
    """The tokens ``buf[start[t] : start[t] + size[t]]`` as int64, or None
    unless each is 1 to 18 ASCII digits with no leading zero but ``0``."""
    if size.min() < 1 or size.max() > 18 or ((buf[start] == ord("0")) & (size > 1)).any():
        return None
    # Horner's rule over the k-th digits from the right, k falling from the
    # longest token's length: a byte read before a shorter token is masked
    # to 0, and its position stays within -len(buf)
    top = int(size.max())
    col, pos = np.zeros(size.size, np.int64), start + size
    pos -= top
    for k in range(top - 1, -1, -1):
        digit = buf[pos] - np.uint8(ord("0"))
        digit *= size > k
        if digit.max() > 9:
            return None
        col *= 10
        col += digit
        pos += 1
    return col


def _value_column(buf: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray | None:
    """The tokens ``buf[start[t] : start[t] + size[t]]`` as float64, or None
    unless each is a float as ``json.dumps`` spells it.  Each distinct token
    goes through ``float`` and ``json.dumps`` once."""
    if size.min() < 1 or size.max() > 32:
        return None
    w = -(-int(size.max()) // 8) * 8
    tokens = np.lib.stride_tricks.sliding_window_view(np.concatenate([buf, np.zeros(w, np.uint8)]), w)[start]
    tokens *= np.arange(w) < size[:, None]
    # one machine word per token where it fits, for a fast sort
    distinct, inverse = np.unique(tokens.view(np.uint64 if w == 8 else f"S{w}").ravel(), return_inverse=True)
    del tokens
    # the NUL padding is stripped here, so "2.0\0" and "2.0" share a
    # spelling: each token's size must be its spelling's length too
    spelled = distinct.view(f"S{w}").tolist()
    try:
        values = [float(t) for t in spelled]
    except ValueError:
        return None
    if json.dumps(values)[1:-1].encode().split(b", ") != spelled:
        return None
    if (np.array([len(t) for t in spelled])[inverse] != size).any():
        return None
    return np.array(values)[inverse]


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
