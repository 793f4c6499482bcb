"""The one CSV output path: columns in, bytes out in the csv module's format.

Every table floodsim writes goes through write_columns. A column is one of

* ``Seconds(ns)``: integer nanoseconds rendered as seconds with nine
  fractional digits, exactly, from the digits of |ns| with the point put
  in -- no float round trip, so the last digit is right at any horizon.
  ``Seconds(a, b, ...)`` writes the sum of its arrays, added per block;
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
negative. A field's render does the arithmetic (magnitude, width, four-digit
groups) before the buffer exists, and its fill writes the bytes and counts
the NULs it leaves. ``buf.T.tobytes()`` turns the buffer into the rows'
bytes, and the padding is dropped by ``replace`` where NULs are sparse and
by ``translate`` where they are dense (no field may hold a real NUL). The
buffer's rows lie rows + 192 bytes apart, off the power of two that puts
every byte the transposing copy reads in one L1 cache set. The scratch
stays flat however long the table is; the README's csvio notes give the
measurements behind these choices.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import BLOCK, as_times

_REFUSED = np.frombuffer(b',"\r\n', np.uint8)  # csv.writer would quote these
_REFUSED_MSG = "CSV field needs quoting (holds ',', '\"', CR or LF) or holds NUL; not supported"
_COMMA, _DOT, _MINUS, _ZERO, _CR, _LF = b",.-0\r\n"
_NONE = np.empty(0, np.intp)  # no negative values


class Seconds:
    """Marks an integer-nanosecond column to be written as seconds. Given
    several arrays, the column is their sum, added a block at a time so that
    no summed array spans the table; the sum must fit int64."""

    __slots__ = ("parts",)

    def __init__(self, ns, *more):
        self.parts = [as_times(p) for p in (ns, *more)]
        if any(len(p) != len(self.parts[0]) for p in self.parts):
            raise ValueError("Seconds parts differ in length")

    def __len__(self) -> int:
        return len(self.parts[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        return sum((p[rows] for p in self.parts[1:]), self.parts[0][rows])


def _magnitude(v: np.ndarray):
    """(|v| as uint64, indices of the negative values, the least and the
    largest |v|); exact for the int64 minimum."""
    v = v.astype(np.uint64 if v.dtype.kind == "u" else np.int64, copy=False)
    if (least := int(v.min())) >= 0:  # blocks are never empty
        mag, neg = v.view(np.uint64), _NONE
    else:
        mag, neg = np.abs(v).view(np.uint64), np.flatnonzero(v < 0)
        least = int(mag.min())
    return mag, neg, least, int(mag.max())


def _groups(mag: np.ndarray, width: int, top: int) -> np.ndarray:
    """mag's four-digit groups, low group first, as (ceil(width / 4), n)
    uint16 rows; top is at least mag's largest value, which has at most
    width digits. One division per group but the last, on uint64 only until
    the quotient fits uint32. One digit is its own group, left as it is."""
    if width == 1:
        return mag[None]
    groups = np.empty(((width + 3) // 4, len(mag)), np.uint16)
    q = mag.astype(np.uint32 if top < 2**32 else np.uint64, copy=False)
    for i in range(len(groups) - 1):
        rest = q // 10_000
        groups[i] = q - rest * 10_000
        top //= 10_000
        q = rest.astype(np.uint32, copy=False) if top < 2**32 else rest
    groups[-1] = q
    return groups


def _split(wide: np.ndarray, base: int, narrow: np.ndarray) -> None:
    """Rows of wide, each below base**2, into uint8 base digits: row i's low
    digit to narrow row 2i, its high one to row 2i + 1 where narrow has that
    row (where it does not, the high digit is 0). The low digit is worked out
    modulo 256, which is exact since it is below base."""
    high = len(narrow) // 2
    np.floor_divide(wide[:high], base, out=narrow[1::2], casting="unsafe")
    narrow[::2] = wide[: len(narrow) - high]
    narrow[: 2 * high : 2] -= narrow[1::2] * np.uint8(base)


def _put_digits(out: np.ndarray, groups: np.ndarray, zero_fill: int) -> int:
    """Write the digits of _groups' rows right-aligned into out, a (width, n)
    uint8 view of NULs, and return how many slots stay NUL. The low
    zero_fill slots hold '0' where a value has no digit; above them, the
    slots before a value's first digit stay NUL.

    Each group splits by 100 into two uint8 pairs, and each pair by 10 into
    its slots' two digits; a one-digit field is its group plus '0'."""
    width, n = out.shape
    if width == 1:
        out[0] = groups[0]
        out[0] += _ZERO
        return 0
    pairs = np.empty(((width + 1) // 2, n), np.uint8)  # pair j: slots 2j and 2j + 1
    _split(groups, 100, pairs)
    _split(pairs, 10, out[::-1])  # slot k, worth 10**k, is row width - 1 - k
    every = max(zero_fill, 1)  # the units digit is always written
    out[width - every :] += _ZERO
    nuls, seen = 0, np.zeros(n, bool)
    for row in out[: width - every]:  # from the highest slot down
        seen |= row != 0  # the value's first digit is here or above
        row += seen.view(np.uint8) * np.uint8(_ZERO)
        nuls += n - np.count_nonzero(seen)
    return nuls


def _render_ints(mag: np.ndarray, neg: np.ndarray, least: int, top: int):
    """A field of integers given as _magnitude's four values: its width, and
    its fill, which writes the digits, NUL before them and '-' in the slot
    just before the first digit of the neg columns, and returns the NULs left."""
    groups = _groups(mag, len(str(top)), top)
    sign = len(neg) > 0

    def fill(out):
        nuls = _put_digits(out[sign:], groups, len(str(least)))
        if sign:
            first = (out[:, neg] != 0).argmax(axis=0)
            out[first - 1, neg] = _MINUS
            nuls += len(mag) - len(neg)  # the sign slot of the other values
        return nuls

    return len(str(top)) + sign, fill


def _render_range(r: range):
    """Integers that know their least and largest value: no reductions."""
    lo, hi = sorted((r[0], r[-1]))  # a block's range is never empty
    v = np.arange(r.start, r.stop, r.step, dtype=np.int64)
    return _render_ints(v.view(np.uint64), _NONE, lo, hi) if lo >= 0 else _render_ints(*_magnitude(v))


def _render_seconds(ns: np.ndarray):
    """One digit pass over the nanoseconds, with the seconds' units digit and
    every digit below it always written; then the sign and the whole seconds
    move up a row, in place, to make room for the point."""
    mag, neg, least, top = _magnitude(ns)
    top = max(top, 10**9)  # "0." at least
    width, fill_int = _render_ints(mag, neg, max(least, 10**9), top)
    point = width - 9

    def fill(out):
        nuls = fill_int(out[1:])
        for k in range(point):
            out[k] = out[k + 1]
        out[point] = _DOT
        return nuls

    return width + 1, fill


def _render_strings(mat: np.ndarray):
    nuls = mat.size - np.count_nonzero(mat)
    return mat.shape[1], lambda out: np.copyto(out, mat.T) or nuls


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
        return _render_seconds, col
    if isinstance(col, range):  # sliced per block, a range stays a range
        return _render_range, col
    arr = np.asarray(col)
    if arr.dtype.kind == "U":
        # numpy drops a str's trailing NULs, so look for NUL before it does
        if not isinstance(col, np.ndarray) and any("\0" in str(s) for s in col):
            raise ValueError(_REFUSED_MSG)
        arr = np.array([s.encode() for s in arr.tolist()], dtype=bytes)  # 3x np.char.encode
    if arr.dtype.kind == "S":
        return _render_strings, _byte_matrix(arr)
    if arr.dtype.kind in "iu" or arr.size == 0:
        return lambda v: _render_ints(*_magnitude(v)), arr
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
    # rows 2^k bytes apart would put every byte the transposing copy reads in one L1
    # set; at rows + 64, 45-80-byte rows transposed 25-35 % slower than at rows + 192
    buf = np.zeros((sum(w for w, _ in fields) + len(fields) + 1, rows + 192), np.uint8)[:, :rows]
    at = nuls = 0
    for width, fill in fields:
        nuls += fill(buf[at : at + width])
        buf[at + width] = _COMMA  # the last one becomes the CR
        at += width + 1
    buf[-2:] = [[_CR], [_LF]]
    data = buf.T.tobytes()
    del buf  # so the stripped copy does not sit beside it
    if not nuls:
        return data
    # replace pays per NUL and translate per byte: they break even near one NUL in 16 bytes
    return data.replace(b"\0", b"") if 16 * nuls < len(data) else data.translate(None, b"\0")
