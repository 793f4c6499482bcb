"""The one CSV output path: columns in, bytes out in the csv module's format.

Every table floodsim writes goes through write_columns. A column is one of

* ``Seconds(ns)``: integer nanoseconds rendered as seconds with nine
  fractional digits, exactly, from divmod(|ns|, 10**9) -- no float round
  trip, so the last digit is right at any horizon;
* a numpy integer array: plain decimal integers;
* a numpy string array or a sequence of str: written as is. Floats are
  formatted by the caller (``format(x, ".9f")`` and friends) into strings.

Rows end in CRLF and nothing is quoted, which is byte for byte what the
stdlib csv module's default writer produces for these fields. A string it
would quote (one holding a comma, a double quote, CR or LF) is rejected
with ValueError instead.

The digits are assembled with numpy into a uint8 matrix per block of rows,
one left-padded slot per field, and the padding is compacted away with a
validity mask. Blocks are capped at BLOCK_ROWS so the scratch memory stays
flat however long the table is.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

BLOCK_ROWS = 65536

_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 1 .. 10**19, all of uint64's decades
_NS_PER_S = np.uint64(10**9)
_MUST_QUOTE = np.frombuffer(b',"\r\n', np.uint8)
_COMMA, _DOT, _MINUS = ord(","), ord("."), ord("-")
_CRLF = np.frombuffer(b"\r\n", np.uint8)


class Seconds:
    """Marks an integer-nanosecond column to be written as seconds."""

    __slots__ = ("ns",)

    def __init__(self, ns):
        self.ns = np.asarray(ns, dtype=np.int64)


def _digits(mag: np.ndarray, width: int | None = None):
    """Right-aligned decimal digits of uint64 values: (uint8 matrix, mask).

    With width given, every value is zero-padded to exactly that width."""
    n = len(mag)
    if width is None:
        ndig = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
        w = int(ndig.max())
    else:
        ndig, w = None, width
    mat = np.empty((n, w), np.uint8)
    q = mag
    for j in range(w - 1, -1, -1):
        q, r = np.divmod(q, 10)
        mat[:, j] = r
    mat += ord("0")
    if ndig is None:
        return mat, np.ones((n, w), bool)
    return mat, np.arange(w) >= (w - ndig)[:, None]


def _magnitude(v: np.ndarray):
    """(|v| as uint64, v < 0) of an integer array; exact for the int64 minimum."""
    if v.dtype.kind == "u":
        return v.astype(np.uint64, copy=False), np.zeros(len(v), bool)
    v = v.astype(np.int64, copy=False)
    neg = v < 0
    u = v.view(np.uint64)
    return np.where(neg, np.uint64(0) - u, u), neg


def _with_sign(mat, mask, neg):
    """Put '-' in the slot just before the first digit of negative rows."""
    if not neg.any():
        return mat, mask
    n, w = mat.shape
    out = np.zeros((n, w + 1), np.uint8)
    out_mask = np.zeros((n, w + 1), bool)
    out[:, 1:] = mat
    out_mask[:, 1:] = mask
    rows = np.flatnonzero(neg)
    first = mask[rows].argmax(axis=1)
    out[rows, first] = _MINUS
    out_mask[rows, first] = True
    return out, out_mask


def _render_ints(values: np.ndarray):
    mag, neg = _magnitude(values)
    return _with_sign(*_digits(mag), neg)


def _render_seconds(ns: np.ndarray):
    mag, neg = _magnitude(ns)
    whole, frac = np.divmod(mag, _NS_PER_S)
    wmat, wmask = _digits(whole)
    fmat, _ = _digits(frac.astype(np.uint32), width=9)
    n = len(ns)
    mat = np.concatenate([wmat, np.full((n, 1), _DOT, np.uint8), fmat], axis=1)
    mask = np.concatenate([wmask, np.ones((n, 10), bool)], axis=1)
    return _with_sign(mat, mask, neg)


def _render_strings(col: np.ndarray):
    mat = np.ascontiguousarray(col).view(np.uint8).reshape(len(col), col.dtype.itemsize)
    if np.isin(mat, _MUST_QUOTE).any():
        raise ValueError("CSV field needs quoting (holds ',', '\"', CR or LF); not supported")
    return mat, mat != 0


def _as_column(col):
    """(renderer, array) for one input column."""
    if isinstance(col, Seconds):
        return _render_seconds, col.ns
    arr = np.asarray(col)
    if arr.dtype.kind == "U":
        arr = np.char.encode(arr, "utf-8")
    if arr.dtype.kind == "S":
        return _render_strings, arr
    if arr.dtype.kind in "iu" or arr.size == 0:
        return _render_ints, arr
    raise TypeError(f"unsupported CSV column dtype {arr.dtype}; format floats as str first")


def write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV table column-wise; see the module docstring for the rules."""
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    head = np.array([h.encode() for h in header], dtype=np.bytes_)
    _render_strings(head)  # the header obeys the same no-quoting rule
    cols = [_as_column(c) for c in columns]
    n = len(cols[0][1]) if cols else 0
    if any(len(arr) != n for _, arr in cols):
        raise ValueError("CSV columns differ in length")
    with open(path, "wb") as fh:
        fh.write(b",".join(head.tolist()) + b"\r\n")
        for lo in range(0, n, BLOCK_ROWS):
            fh.write(_encode_block([render(arr[lo : lo + BLOCK_ROWS]) for render, arr in cols]))


def _encode_block(parts) -> bytes:
    """One block of rendered columns -> the bytes of its CSV rows."""
    n = parts[0][0].shape[0]
    width = sum(m.shape[1] for m, _ in parts) + len(parts) + 1
    mat = np.empty((n, width), np.uint8)
    mask = np.ones((n, width), bool)
    at = 0
    for i, (m, k) in enumerate(parts):
        if i:
            mat[:, at] = _COMMA
            at += 1
        mat[:, at : at + m.shape[1]] = m
        mask[:, at : at + m.shape[1]] = k
        at += m.shape[1]
    mat[:, at:] = _CRLF
    return mat[mask].tobytes()
