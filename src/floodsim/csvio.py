"""The one CSV output path: columns in, bytes out in the csv module's format.

Every table floodsim writes goes through write_columns. A column is one of

* ``Seconds(ns)``: integer nanoseconds rendered as seconds with nine
  fractional digits, exactly, from divmod(|ns|, 10**9) -- no float round
  trip, so the last digit is right at any horizon;
* a numpy integer array: plain decimal integers;
* a ``range``: the same, each block's integers built as the block is encoded;
* a numpy string array or a sequence of str: written as is. Floats are
  formatted by the caller (``format(x, ".9f")`` and friends) into strings.

Rows end in CRLF and nothing is quoted, which is byte for byte what the
stdlib csv module's default writer produces for these fields. A string it
would quote (one holding a comma, a double quote, CR or LF) or one holding
NUL is rejected with ValueError instead.

Each block of at most model.BLOCK rows is encoded in one column-major
(width, rows) uint8 buffer: every field owns a few contiguous buffer rows,
one per character slot, and writes its digits straight into them,
right-aligned, NUL before a value's first digit and '-' just before it if
negative. ``buf.T.tobytes()`` turns the buffer into the rows' bytes, and
``translate(None, b"\\0")`` drops the padding only from a block that holds a
NUL (no field may hold a real one). The buffer's rows lie rows + 64 bytes
apart, off the power of two that puts every byte the transposing copy reads
in one L1 cache set. The scratch stays flat however long the table is; the
README's csvio notes give the measurements behind these choices.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import BLOCK, as_times

_NS_PER_S = np.uint64(10**9)
_REFUSED = np.frombuffer(b',"\r\n', np.uint8)  # csv.writer would quote these
_REFUSED_MSG = "CSV field needs quoting (holds ',', '\"', CR or LF) or holds NUL; not supported"
_COMMA, _DOT, _MINUS, _ZERO, _CR, _LF = b",.-0\r\n"


class Seconds:
    """Marks an integer-nanosecond column to be written as seconds."""

    __slots__ = ("ns",)

    def __init__(self, ns):
        self.ns = as_times(ns)


def _magnitude(v: np.ndarray):
    """(|v| as uint64, indices of the negative values); exact for the int64 minimum."""
    v = v.astype(np.uint64 if v.dtype.kind == "u" else np.int64, copy=False)
    if v.min() >= 0:  # blocks are never empty
        return v.view(np.uint64), np.empty(0, np.intp)
    return np.abs(v).view(np.uint64), np.flatnonzero(v < 0)


def _split(wide: np.ndarray, base: int, narrow: np.ndarray) -> None:
    """Rows of wide, each below base**2, into uint8 base digits: row i's low
    digit to narrow row 2i, its high one to row 2i + 1 where narrow has that
    row (where it does not, the high digit is 0). The low digit is worked out
    modulo 256, which is exact since it is below base."""
    high = len(narrow) // 2
    np.floor_divide(wide[:high], base, out=narrow[1::2], casting="unsafe")
    narrow[::2] = wide[: len(narrow) - high]
    narrow[: 2 * high : 2] -= narrow[1::2] * np.uint8(base)


def _put_digits(out: np.ndarray, mag: np.ndarray, zero_fill: bool = False) -> None:
    """Write mag's decimal digits right-aligned into out, a (width, n) uint8
    view of NULs. The slots before a value's first digit stay NUL, or hold
    '0' with zero_fill.

    One division peels four digits off the quotient, which is narrowed to
    uint32 once it fits; each group, as uint16, splits by 100 into two uint8
    pairs, and each pair by 10 into its slots' two digits."""
    width, n = out.shape
    slots = out[::-1]  # slot k holds the digit worth 10**k
    q = mag.astype(np.uint32) if width <= 9 else mag.astype(np.uint64, copy=False)
    every = width if zero_fill else len(str(int(q.min())))  # slots that every value fills
    if every < width:
        present = q >= np.array([10**k for k in range(every, width)], q.dtype)[:, None]
    groups = np.empty(((width + 3) // 4, n), np.uint16)  # group i: slots 4i to 4i + 3
    for i in range(len(groups) - 1):
        rest = q // 10_000
        groups[i] = q - rest * 10_000
        q = rest.astype(np.uint32) if width - 4 * (i + 1) <= 9 else rest
    groups[-1] = q
    pairs = np.empty(((width + 1) // 2, n), np.uint8)  # pair j: slots 2j and 2j + 1
    _split(groups, 100, pairs)
    _split(pairs, 10, slots)
    out += _ZERO
    if every < width:
        slots[every:] *= present.view(np.uint8)  # NUL before each value's first digit


def _put_int(out: np.ndarray, mag: np.ndarray, neg: np.ndarray) -> None:
    """Digits of mag right-aligned in out, NUL before them, and '-' in the
    slot just before the first digit of the neg columns."""
    _put_digits(out[len(neg) > 0 :], mag)
    if len(neg):
        first = (out[:, neg] != 0).argmax(axis=0)
        out[first - 1, neg] = _MINUS


def _render_ints(values: np.ndarray):
    mag, neg = _magnitude(values)
    return len(str(int(mag.max()))) + (len(neg) > 0), lambda out: _put_int(out, mag, neg)


def _render_seconds(ns: np.ndarray):
    mag, neg = _magnitude(ns)
    whole = mag // _NS_PER_S  # numpy's uint64 divmod has no fast path
    frac = whole * _NS_PER_S
    np.subtract(mag, frac, out=frac)
    point = len(str(int(whole.max()))) + (len(neg) > 0)

    def fill(out):
        _put_int(out[:point], whole, neg)
        out[point] = _DOT
        _put_digits(out[point + 1 :], frac, zero_fill=True)

    return point + 10, fill


def _render_strings(mat: np.ndarray):
    return mat.shape[1], lambda out: np.copyto(out, mat.T)


def _byte_matrix(col: np.ndarray) -> np.ndarray:
    """The (rows, itemsize) uint8 view of a bytes array, NUL-padded on the
    right; raises ValueError on a byte csv.writer would quote or an inner NUL."""
    mat = np.ascontiguousarray(col).view(np.uint8).reshape(len(col), col.dtype.itemsize)
    filled = mat != 0
    if np.isin(mat, _REFUSED).any() or (filled[:, 1:] > filled[:, :-1]).any():
        raise ValueError(_REFUSED_MSG)
    return mat


def _as_column(col):
    """(renderer, array) for one input column."""
    if isinstance(col, Seconds):
        return _render_seconds, col.ns
    if isinstance(col, range):  # sliced per block, a range stays a range
        return lambda r: _render_ints(np.arange(r.start, r.stop, r.step, dtype=np.int64)), col
    arr = np.asarray(col)
    if arr.dtype.kind == "U":
        # numpy drops a str's trailing NULs, so look for NUL before it does
        if not isinstance(col, np.ndarray) and any("\0" in str(s) for s in col):
            raise ValueError(_REFUSED_MSG)
        arr = np.char.encode(arr, "utf-8")
    if arr.dtype.kind == "S":
        return _render_strings, _byte_matrix(arr)
    if arr.dtype.kind in "iu" or arr.size == 0:
        return _render_ints, arr
    raise TypeError(f"unsupported CSV column dtype {arr.dtype}; format floats as str first")


def write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV table column-wise; see the module docstring for the rules."""
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    head = _as_column(header)  # the header obeys the same rules
    cols = [_as_column(c) for c in columns]
    n = len(cols[0][1]) if cols else 0
    if any(len(arr) != n for _, arr in cols):
        raise ValueError("CSV columns differ in length")
    # csv.writer quotes the field of a one-field row that is empty
    if len(cols) == 1 and any(r is _render_strings and not m[:, :1].all() for r, m in (head, *cols)):
        raise ValueError(_REFUSED_MSG)
    with open(path, "wb") as fh:
        fh.write(b",".join(h.encode() for h in header) + b"\r\n")
        for lo in range(0, n, BLOCK):
            rows = min(BLOCK, n - lo)
            fh.write(_encode_block(rows, [render(arr[lo : lo + rows]) for render, arr in cols]))


def _encode_block(rows: int, fields) -> bytes:
    """One block of rendered (width, fill) fields -> the bytes of its CSV rows."""
    # rows 2^k bytes apart would put every byte the transposing copy reads in one L1 set
    buf = np.zeros((sum(w for w, _ in fields) + len(fields) + 1, rows + 64), np.uint8)[:, :rows]
    at = 0
    for width, fill in fields:
        fill(buf[at : at + width])
        buf[at + width] = _COMMA  # the last one becomes the CR
        at += width + 1
    buf[-2:] = [[_CR], [_LF]]
    data = buf.T.tobytes()
    return data.translate(None, b"\0") if b"\0" in data else data  # no NUL, no padding
