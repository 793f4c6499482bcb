"""The shared CSV writer: exact seconds, csv.writer byte format, row blocks."""
import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floodsim import csvio
from floodsim.csvio import Seconds, write_columns
from floodsim.model import BLOCK

INT64 = st.integers(-(2**63), 2**63 - 1)
# the extremes and the decade edges, where a field's width changes
INT64_EDGES = st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1, -1, 0, 1, -(10**9), 10**9 - 1])


def exact_seconds(ns: int) -> str:
    """Reference rendering: sign, then divmod of the magnitude by 10**9."""
    whole, frac = divmod(abs(ns), 10**9)
    return f"{'-' if ns < 0 else ''}{whole}.{frac:09d}"


def written(header, columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_columns(path, header, columns)
        return path.read_bytes()


def seconds_lines(ns) -> list:
    return written(["t"], [Seconds(np.array(ns, np.int64))]).decode().split("\r\n")[1:-1]


@settings(max_examples=200)
@given(st.lists(st.integers(-(10**14) + 1, 10**14 - 1), min_size=1, max_size=50))
def test_seconds_match_float_formatting_below_1e14_ns(ns):
    assert seconds_lines(ns) == [f"{v / 1e9:.9f}" for v in ns]


@settings(max_examples=200)
@given(st.lists(INT64, min_size=1, max_size=50))
def test_seconds_are_exact_for_every_int64(ns):
    assert seconds_lines(ns) == [exact_seconds(v) for v in ns]


def test_seconds_edge_values():
    ns = [0, 1, -1, 999_999_999, -(10**9), 10**9, 2**63 - 1, -(2**63)]
    assert seconds_lines(ns) == [exact_seconds(v) for v in ns]
    assert seconds_lines([-1])[0] == "-0.000000001"


def test_seconds_refuses_nanoseconds_it_would_truncate_or_wrap():
    with pytest.raises(ValueError, match="to_ns"):
        Seconds(np.array([1.5, 2.7]))
    with pytest.raises(ValueError, match="int64"):
        Seconds(np.array([2**64 - 1], np.uint64))
    top = np.array([0, 2**63 - 1], np.uint64)
    assert written(["t"], [Seconds(top)]) == b"t\r\n0.000000000\r\n9223372036.854775807\r\n"


# Where the digit kernel narrows a dtype or splits a group: the decade edges,
# 2**16 and 2**32 at each four-digit shift, and the tops of int64 and uint64.
KERNEL_EDGES = sorted(
    {10**k + d for k in range(21) for d in (-1, 0)}
    | {2**b * 10**k + d for b in (16, 32) for k in range(0, 20, 4) for d in (-1, 0, 1)}
    | {2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1}
)


@settings(max_examples=400)
@given(st.data(), st.integers(1, 20), st.sampled_from([np.uint32, np.uint64, np.int64]), st.booleans())
def test_digit_kernel_writes_each_values_str(data, width, dtype, loose_top):
    """One block of values of mixed lengths: for every count of always-written
    low slots, 0 to the width, each column is str(v) zero-filled to that
    count and right-justified in the field with NUL. The groups are taken
    with the largest value as their bound, or with the field's."""
    top = min(10**width, int(np.iinfo(dtype).max) + 1)  # the values that fit field and dtype
    edge = st.sampled_from([e for e in KERNEL_EDGES if e < top])
    near = st.builds(lambda e, d: min(max(e + d, 0), top - 1), edge, st.integers(-2, 2))
    values = data.draw(st.lists(edge | near | st.integers(0, top - 1), min_size=1, max_size=12))
    groups = csvio._groups(np.array(values, dtype), width, 10**width - 1 if loose_top else max(values))
    for count in range(width + 1):
        out = np.zeros((width, len(values)), np.uint8)
        nuls = csvio._put_digits(out, groups, count)
        want = [str(v).rjust(count, "0").rjust(width, "\0") for v in values]
        assert [col.tobytes().decode() for col in out.T] == want
        assert nuls == sum(w.count("\0") for w in want)


@pytest.mark.parametrize("peels", [0, 1, 2])
def test_groups_narrow_to_uint32_only_below_2_to_32(peels):
    """The largest value's quotient after `peels` divisions is 2**32 - 1, 2**32
    or 2**32 + 1: only the first fits uint32."""
    for top in (2**32 * 10 ** (4 * peels) + d * 10 ** (4 * peels) for d in (-1, 0, 1)):
        values = [top, top - 1, 10 ** (4 * peels)]
        width = len(str(top))
        out = np.zeros((width, len(values)), np.uint8)
        csvio._put_digits(out, csvio._groups(np.array(values, np.uint64), width, top), width)
        assert [col.tobytes().decode() for col in out.T] == [str(v).zfill(width) for v in values]


@settings(max_examples=100)
@given(st.lists(st.tuples(INT64, st.integers(0, 2**64 - 1), st.text("AB_xyz09.- ")), max_size=30))
def test_bytes_match_csv_writer(rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["i", "u", "s"])
    w.writerows(rows)
    ints = np.array([r[0] for r in rows], np.int64)
    uints = np.array([r[1] for r in rows], np.uint64)
    got = written(["i", "u", "s"], [ints, uints, [r[2] for r in rows]])
    assert got == buf.getvalue().encode()


@settings(max_examples=200)
@given(
    st.integers(1, 7),
    st.lists(
        st.tuples(
            INT64_EDGES | INT64,
            st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
            INT64_EDGES | INT64 | st.integers(-(10**12), 10**12),
            st.text("AB_xyz09.- é", max_size=6),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_many_small_blocks_match_csv_writer(block, rows):
    """Every block sizes its fields afresh, so widths and signs change from
    one block to the next."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["i", "u", "t", "s"])
    w.writerows((i, u, exact_seconds(t), s) for i, u, t, s in rows)
    columns = [
        np.array([r[0] for r in rows], np.int64),
        np.array([r[1] for r in rows], np.uint64),
        Seconds(np.array([r[2] for r in rows], np.int64)),
        [r[3] for r in rows],
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "BLOCK", block)
        got = written(["i", "u", "t", "s"], columns)
    assert got == buf.getvalue().encode()


# Blocks of three rows for write_columns. In an unpadded block every value
# of a field has the same width; a padded block breaks that in each field. A
# block with a single negative value is always padded, since its field
# keeps a sign slot that the other values leave empty.
UNPADDED = {
    "i": [[-5, -7, -3], [0, 5, 9], [-(2**63), -(2**63) + 1, -(10**18)]],
    "u": [[2**64 - 1, 10**19, 2**64 - 2], [7, 8, 9]],
    "t": [[-1, -2, -(10**9) + 1], [0, 10**9 - 1, 5], [-(2**63), -(2**63) + 1, -(9 * 10**18)]],
    "s": [["abc", "abc", "xyz"], ["a b", "x.y", "-_-"]],
}
PADDED = {
    "i": [[-1, 22, 33], [-5, -70, -3], [0, 10, 5], [1, -100, 7]],
    "u": [[2**63, 9 * 10**18, 2**64 - 1], [0, 1, 10]],
    "t": [[-1, 0, 1], [9 * 10**9, 10 * 10**9, 0], [-(10**10), -1, -(10**9)]],
    "s": [["abc", "ab", "abc"], ["", "x", ""]],
}


def test_padded_and_unpadded_blocks_match_csv_writer():
    """Blocks alternate between needing no padding and needing some; the
    seq column's block crosses 9 -> 10 and 99 -> 100 in padded ones."""
    blocks = 36
    cols = {k: [] for k in "iuts"}
    for b in range(blocks):
        for k, values in cols.items():
            pick = (PADDED if b % 2 else UNPADDED)[k]
            values += pick[(b // 2) % len(pick)]
    seq = np.arange(3 * blocks)
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["seq", "i", "u", "t", "s"])
    w.writerows(zip(seq, cols["i"], cols["u"], map(exact_seconds, cols["t"]), cols["s"]))
    columns = [
        seq,
        np.array(cols["i"], np.int64),
        np.array(cols["u"], np.uint64),
        Seconds(np.array(cols["t"], np.int64)),
        cols["s"],
    ]
    padded = []
    encode = csvio._encode_block

    def spy(rows, fields):
        out = encode(rows, fields)
        padded.append(len(out) < rows * (sum(w for w, _ in fields) + len(fields) + 1))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "BLOCK", 3)
        mp.setattr(csvio, "_encode_block", spy)
        got = written(["seq", "i", "u", "t", "s"], columns)
    assert got == buf.getvalue().encode()
    assert padded == [b % 2 == 1 for b in range(blocks)]


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def padding_of_each_block(header, columns):
    """(bytes written, [(NUL bytes stripped, bytes before the strip)] per
    block), checking that the fields' fills count the NULs they leave."""
    seen = []
    encode = csvio._encode_block

    def spy(rows, fields):
        counts = []

        def counted(fill):
            return lambda out: counts.append(fill(out)) or counts[-1]

        out = encode(rows, [(w, counted(fill)) for w, fill in fields])
        full = rows * (sum(w for w, _ in fields) + len(fields) + 1)
        assert sum(counts) == full - len(out)
        seen.append((full - len(out), full))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_encode_block", spy)
        got = written(header, columns)
    return got, seen


def test_densely_padded_block_matches_csv_writer():
    """Every row is padded in several fields, so the strip is translate's:
    at least one NUL in 16 bytes."""
    k = np.arange(3000)
    ints = [10 ** (k % 12), -(10 ** (k % 7)) * (k % 3 - 1), k % 1000]
    ns = 10 ** (k % 13) * (k % 2 * 2 - 1)
    labels = ["x" * (i % 5) for i in range(len(k))]
    header = ["a", "b", "c", "t", "s"]
    got, seen = padding_of_each_block(header, [*ints, Seconds(ns), labels])
    rows = zip(*(c.tolist() for c in ints), map(exact_seconds, ns.tolist()), labels)
    assert got == csv_writer_bytes(header, rows)
    assert len(seen) == 1 and 16 * seen[0][0] >= seen[0][1]


def test_sparsely_padded_block_matches_csv_writer():
    """One row of a block is padded, so the strip is replace's."""
    n = 5000
    v = np.full(n, 123_456, np.int64)
    v[1234] = 7
    ns = np.full(n, -(10**10), np.int64)
    ns[1234] = -(10**9)
    got, seen = padding_of_each_block(["v", "t"], [v, Seconds(ns)])
    assert got == csv_writer_bytes(["v", "t"], zip(v.tolist(), map(exact_seconds, ns.tolist())))
    assert len(seen) == 1 and seen[0][0] == 5 + 1 and 16 * seen[0][0] < seen[0][1]


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 2**61), st.integers(0, 2**61), st.integers(-(2**61), 2**61)), max_size=30))
def test_seconds_of_several_parts_writes_their_sum(parts):
    a, b, c = np.array(parts, np.int64).reshape(-1, 3).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "BLOCK", 7)
        assert written(["t"], [Seconds(a, b, c)]) == written(["t"], [Seconds(a + b + c)])
    with pytest.raises(ValueError, match="differ in length"):
        Seconds(a, np.zeros(len(a) + 1, np.int64))


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1], ids=["block-1", "block", "block+1"])
def test_block_boundary_does_not_change_bytes(n):
    assert csvio.BLOCK == BLOCK == 1 << 14
    rng = np.random.default_rng(n)
    ns = rng.integers(-(10**18), 10**18, n) // (10 ** rng.integers(0, 18, n))
    seq = np.arange(n)
    expected = "seq,t\r\n" + "".join(f"{k},{exact_seconds(int(v))}\r\n" for k, v in zip(seq, ns))
    assert written(["seq", "t"], [seq, Seconds(ns)]) == expected.encode()


@settings(max_examples=100)
@given(
    st.sampled_from([1, 3, 7]),
    st.integers(0, 4),
    st.integers(-1, 1),
    st.integers(-(10**12), 10**12) | st.sampled_from([0, -1, 1, 9, 10, -(2**62)]),
    st.sampled_from([1, 2, 10**6, -3]),
)
def test_range_column_writes_its_arange(block, blocks, off, start, step):
    # lengths around a multiple of the block, so the ranges sliced per block
    # start, end and fall on every boundary
    n = max(0, blocks * block + off)
    col = range(start, start + n * step, step)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "BLOCK", block)
        got = written(["seq", "x"], [col, np.zeros(n, np.int64)])
        want = written(["seq", "x"], [np.arange(start, start + n * step, step, dtype=np.int64),
                                      np.zeros(n, np.int64)])
    assert got == want
    assert got.count(b"\r\n") == n + 1


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, 2 * BLOCK], ids=["block-1", "block+1", "2blocks"])
def test_range_column_at_the_real_block(n):
    start = 10**12 - BLOCK
    assert written(["seq"], [range(start, start + n)]) == written(["seq"], [np.arange(start, start + n)])


def server_trace_write_peak(path, blocks: int) -> int:
    """tracemalloc peak, in bytes, of writing a server-trace-shaped table
    (seq, then four Seconds columns of run-like magnitudes) of whole blocks."""
    n = blocks * BLOCK
    rng = np.random.default_rng(blocks)
    arrival = np.cumsum(rng.integers(0, 10**6, n))
    wait = rng.integers(0, 10**8, n)
    service = rng.integers(10**6, 10**7, n)
    columns = [np.arange(n), *map(Seconds, (arrival, wait, service, arrival + wait + service))]
    tracemalloc.start()
    try:
        write_columns(path, ["seq", "arrival_s", "wait_s", "service_s", "departure_s"], columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The encoder holds every field's four-digit groups and two block-sized
# copies of the rows' bytes (the buffer and its transposed copy, or that copy
# and the stripped bytes) at once: 139-149 B per block row measured with
# numpy 2.4.6. The bound was set 16 % over the 253-258 B the encoder held
# when it kept two uint64 arrays per seconds field.
SCRATCH_PER_BLOCK_ROW = 300


def test_writer_scratch_is_flat_in_the_table_length(tmp_path):
    short, long = (server_trace_write_peak(tmp_path / f"{b}.csv", b) for b in (4, 16))
    assert abs(long - short) <= 0.05 * short
    assert max(short, long) <= SCRATCH_PER_BLOCK_ROW * BLOCK


# csv.writer quotes the first four and writes the NUL, which the encoder pads with
@pytest.mark.parametrize("bad", ["a,b", 'say "x"', "cr\r", "lf\n", "a\0b", "\0", "a\0", "\0a"])
def test_field_that_needs_quoting_is_rejected(bad):
    with pytest.raises(ValueError, match="quoting"):
        written(["k", "v"], [["ok", bad], np.array([1, 2])])
    with pytest.raises(ValueError, match="quoting"):
        written(["k", bad], [["ok"], np.array([1])])


def test_inner_nul_in_a_bytes_array_is_rejected():
    # numpy keeps a NUL that a non-NUL byte follows, and drops a trailing one itself
    for bad in (b"a\0b", b"\0a"):
        with pytest.raises(ValueError, match="quoting"):
            written(["k", "v"], [np.array([bad, b"ok"]), np.array([1, 2])])


def test_lone_empty_field_is_rejected():
    # csv.writer writes a one-field row holding "" as '""'
    with pytest.raises(ValueError, match="quoting"):
        written(["k"], [["a", ""]])
    with pytest.raises(ValueError, match="quoting"):
        written([""], [np.array([1])])
    assert written(["k", "v"], [["", "a"], ["b", ""]]) == b"k,v\r\n,b\r\na,\r\n"
    assert written(["k"], [np.array([0, -5])]) == b"k\r\n0\r\n-5\r\n"


def test_column_checks():
    with pytest.raises(TypeError, match="float"):
        written(["x"], [np.array([0.5])])
    with pytest.raises(ValueError, match="length"):
        written(["a", "b"], [np.arange(3), np.arange(2)])
    with pytest.raises(ValueError, match="header"):
        written(["a"], [np.arange(3), np.arange(3)])
    assert written(["a", "b"], [[], np.array([], np.int64)]) == b"a,b\r\n"
