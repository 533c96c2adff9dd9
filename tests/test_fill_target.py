"""Fill-pattern generation, verification, and target handles."""

import errno
import itertools
import os
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readbench import target
from readbench.errors import AlignmentError, IoError, VerifyError
from readbench.fill import (CHECK_CHUNK_BYTES, LANES, check_block,
                            check_blocks, digest_offsets, hexdigest,
                            new_scratch, pattern_bytes, pattern_rows)
from readbench.rng import (FLOAT_CHUNK, GOLDEN, MASK64, SplitMix64, mix64,
                           uniform_floats, worker_seed)
from readbench.target import (ALIGNMENT, RWF_HIGHPRI, alloc_aligned,
                              open_target, polled_flags, prepare_target,
                              read_block, simulated_target, verify_file)
from readbench.devicesim import preset_model
from readbench.engines import EngineConfig, WorkloadSpec, run


def mix64_oracle(x):
    """Independent pure-Python reimplementation of the 64-bit finalizer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def test_mix64_matches_oracle():
    for x in [0, 1, 2**63, MASK64, 0xDEADBEEF, GOLDEN]:
        assert mix64(x) == mix64_oracle(x)


@given(st.integers(min_value=0, max_value=MASK64))
@settings(max_examples=300, deadline=None)
def test_mix64_property(x):
    assert mix64(x) == mix64_oracle(x)


def test_stream_matches_oracle():
    seed = 99
    rng = SplitMix64(seed)
    state = seed
    for _ in range(100):
        state = (state + GOLDEN) & MASK64
        assert rng.next_u64() == mix64_oracle(state)


@pytest.mark.parametrize("seed", [0, 17, 2**63 + 5, MASK64, -3])
def test_uniform_floats_match_stream(seed):
    # across two chunk boundaries, as Python floats of next_u64() / 2**64
    n = 2 * FLOAT_CHUNK + 11
    rng = SplitMix64(seed)
    got = list(itertools.islice(uniform_floats(seed), n))
    assert got == [rng.next_u64() / 2**64 for _ in range(n)]
    assert all(type(u) is float and 0.0 <= u <= 1.0 for u in got)


def test_worker_seed_distinct():
    seeds = {worker_seed(5, w) for w in range(64)}
    assert len(seeds) == 64


def pattern_oracle(seed, o):
    """The fill word at byte offset o: its page's hash plus its index in
    the page times GOLDEN, mod 2**64."""
    return (mix64_oracle(seed ^ (o & ~4095)) + (o & 4095) // 8 * GOLDEN) & MASK64


def test_pattern_word_oracle():
    # the first words of page 0, and 64 bytes across the end of page 2
    seed = 1234
    for start in (0, 3 * 4096 - 32):
        buf = pattern_bytes(seed, start, 64)
        for i in range(0, 64, 8):
            want = pattern_oracle(seed, start + i).to_bytes(8, "little")
            assert buf[i:i + 8] == want


def test_pattern_words_offset_consistency():
    seed = 7
    whole = pattern_bytes(seed, 0, 4096)
    part = pattern_bytes(seed, 2048, 2048)
    assert whole[2048:] == part


def mismatch(buf, offset, seed):
    """The offset check_block names, or None; check_blocks, which takes
    whole pages at page-aligned offsets, names the same."""
    checks = [check_block]
    if not (len(buf) % 4096 or offset % 4096):
        checks.append(lambda buf, offset, seed: check_blocks(
            np.frombuffer(buf, dtype="<u8")[None], [offset], seed))
    named = []
    for check in checks:
        try:
            check(buf, offset, seed)
            named.append(None)
        except VerifyError as exc:
            named.append(exc.offset)
    assert len(set(named)) == 1, named
    return named[0]


def test_verify_and_mismatch():
    seed = 42
    buf = bytearray(pattern_bytes(seed, 8192, 4096))
    assert mismatch(buf, 8192, seed) is None
    buf[100] ^= 0xFF
    # mismatch position is reported word-aligned
    assert mismatch(buf, 8192, seed) == 8192 + (100 // 8) * 8
    with pytest.raises(VerifyError) as ei:
        check_block(buf, 8192, seed)
    assert ei.value.offset == 8192 + (100 // 8) * 8


# the larger batch takes two CHECK_CHUNK_BYTES passes
@pytest.mark.parametrize("nrows", [8, CHECK_CHUNK_BYTES // 4096 + 8])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("word", [0, 511])
def test_check_blocks_names_first_bad_offset(nrows, where, word):
    seed = 0xC0FFEE
    offsets = [4096 * (3 * k + 1) for k in range(nrows)]
    rows = pattern_rows(seed, offsets, 4096)
    check_blocks(rows, offsets, seed)
    row = {"first": 0, "middle": nrows // 2, "last": nrows - 1}[where]
    rows.view(np.uint8)[row, word * 8 + 5] ^= 0x10
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == mismatch(rows[row].tobytes(), offsets[row], seed)
    assert ei.value.offset == offsets[row] + word * 8


def test_check_blocks_splits_long_rows():
    seed = 11
    block = 2 * CHECK_CHUNK_BYTES
    offsets = [5 * block, 2 * block, 7 * block]
    rows = pattern_rows(seed, offsets, block)
    check_blocks(rows, offsets, seed)
    word = CHECK_CHUNK_BYTES // 8 + 5  # in the second piece of row 1
    rows[1, word] ^= 1 << 40
    rows[2, 0] ^= 1
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == offsets[1] + word * 8


def test_check_blocks_reports_in_row_order():
    seed = 3
    offsets = [4096 * k for k in range(8, 0, -1)]  # descending offsets
    rows = pattern_rows(seed, offsets, 4096)
    rows[2, 7] ^= 1
    rows[6, 0] ^= 1  # lower offset, later row
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == offsets[2] + 7 * 8


def test_shared_scratch_reuse():
    """One scratch checks a bad batch, then a clean one, then a bad batch of
    256 KiB rows that are split into pieces."""
    seed = 21
    scratch = new_scratch()
    offsets = [4096 * k for k in (9, 2, 40, 7)]
    rows = pattern_rows(seed, offsets, 4096)
    rows[3, 100] ^= 1 << 63
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed, scratch)
    assert ei.value.offset == offsets[3] + 100 * 8
    rows[3, 100] ^= 1 << 63
    check_blocks(rows, offsets, seed, scratch)
    block = 2 * CHECK_CHUNK_BYTES
    offsets = [3 * block, block]
    rows = pattern_rows(seed, offsets, block)
    check_blocks(rows, offsets, seed, scratch)
    word = CHECK_CHUNK_BYTES // 8 + 77  # in the second piece of row 1
    rows[1, word] ^= 4
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed, scratch)
    assert ei.value.offset == offsets[1] + word * 8


# 40 rows of 4 KiB take two multi-row passes; a row of CHECK_CHUNK_BYTES +
# 4 KiB is written in a long and a short piece
@pytest.mark.parametrize("block,nrows", [(4096, 40), (CHECK_CHUNK_BYTES + 4096, 3)])
def test_pattern_rows_match_oracle(block, nrows):
    seed = 0xFEED
    offsets = [8] + [block * (5 * k + 2) for k in range(nrows - 1)]
    words = block // 8
    wide = np.zeros((nrows, words + 3), dtype="<u8")  # out= a strided view
    rows = pattern_rows(seed, offsets, block, out=wide[:, :words])
    assert rows.base is wide and not wide[:, words:].any()
    pick = np.random.default_rng(block).integers(0, words, (nrows, 64))
    for r, o in enumerate(offsets):
        for j in {0, words - 1, CHECK_CHUNK_BYTES // 8 % words, *pick[r]}:
            assert int(rows[r, j]) == pattern_oracle(seed, o + 8 * int(j))
        assert rows[r].tobytes() == pattern_bytes(seed, o, block)
    with pytest.raises(ValueError):
        pattern_rows(seed, [4], 4096)


@given(st.integers(min_value=0, max_value=MASK64),
       st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=0, max_value=511))
@settings(max_examples=100, deadline=None)
def test_corruption_always_detected(seed, block, byte_index):
    offset = block * 4096
    buf = bytearray(pattern_bytes(seed, offset, 512))
    buf[byte_index] ^= 0x01
    assert mismatch(buf, offset, seed) is not None


def old_pattern(seed, nbytes):
    """The fill of earlier versions: mix64(seed ^ o) in the word at o."""
    return b"".join(mix64_oracle(seed ^ o).to_bytes(8, "little")
                    for o in range(0, nbytes, 8))


def test_old_pattern_named_on_verify(tmp_path):
    # word 0 of a page is the same in both patterns; word 1 is not
    path = tmp_path / "old.dat"
    path.write_bytes(old_pattern(5, 4 * 4096))
    with open_target(str(path), seed=5, direct=False) as h:
        with pytest.raises(VerifyError, match="byte offset 8 has the old "
                           "fill pattern; prepare the file again") as ei:
            verify_file(h)
        assert ei.value.offset == 8
        with pytest.raises(VerifyError, match="old fill pattern") as ei:
            run(WorkloadSpec(target=h, pattern="sequential",
                             request_budget=4, seed=1, verify=True),
                EngineConfig(kind="sync"))
        assert ei.value.offset == 8
    # a flipped byte of the new pattern, word 0 or not, is a plain mismatch
    for byte in (3, 4096 + 100):
        data = bytearray(pattern_bytes(5, 0, 2 * 4096))
        data[byte] ^= 0x20
        path.write_bytes(data)
        with open_target(str(path), seed=5, direct=False) as h:
            with pytest.raises(VerifyError) as ei:
                verify_file(h)
        assert ei.value.offset == byte // 8 * 8
        assert str(ei.value) == f"data mismatch at byte offset {byte // 8 * 8}"


@given(st.integers(min_value=0, max_value=MASK64),
       st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=0, max_value=4095),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=100, deadline=None)
def test_page_corruption_named(seed, block, byte_index, bit):
    # a whole page takes the per-page check, which must see every word
    offset = block * 4096
    buf = bytearray(pattern_bytes(seed, offset, 4096))
    buf[byte_index] ^= 1 << bit
    assert mismatch(buf, offset, seed) == offset + byte_index // 8 * 8


#: one-page rows that one pass of the check's scratch holds
FITS = CHECK_CHUNK_BYTES // 4096


@given(st.integers(min_value=0, max_value=MASK64),
       st.integers(min_value=0, max_value=2**40),
       st.sampled_from([1, 2, 4, 32, 40]),
       st.sampled_from([1, 2, FITS, FITS + 8]),
       st.integers(min_value=0, max_value=40 * 4096 - 1),
       st.integers(min_value=0, max_value=7))
@example(seed=9, block=0, pages=1, nrows=FITS + 8, byte_index=0, bit=0)
@settings(max_examples=100, deadline=None)
def test_page_hashes_name_the_first_bad_word(seed, block, pages, nrows,
                                             byte_index, bit):
    # rows of whole pages are checked page by page against their hashes, in
    # batches of one row, of the rows the scratch fits, and of more (two
    # rows of 40 pages cross the scratch twice), and a failure in the last
    # row is still named by its first bad word
    nbytes = pages * 4096
    offsets = [(block + 9 * pages * (nrows - 1 - r)) * 4096
               for r in range(nrows)]
    rows = pattern_rows(seed, offsets, nbytes)
    check_blocks(rows, offsets, seed)
    byte_index %= nbytes
    rows.view(np.uint8)[-1, byte_index] ^= 1 << bit
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == offsets[-1] + byte_index // 8 * 8
    assert "old fill pattern" not in str(ei.value)
    # an old-pattern word there (an odd word: word 0 of a page is the same
    # in both patterns) is named as one
    rows.view(np.uint8)[-1, byte_index] ^= 1 << bit
    word = byte_index // 8 | 1
    rows[-1, word] = mix64_oracle(seed ^ (offsets[-1] + 8 * word))
    with pytest.raises(VerifyError, match="old fill pattern") as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == offsets[-1] + 8 * word
    # and so is a whole page of it, from its word 1
    rows[-1, :512] = [mix64_oracle(seed ^ (offsets[-1] + 8 * j))
                      for j in range(512)]
    with pytest.raises(VerifyError, match="old fill pattern") as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == offsets[-1] + 8


def test_page_hashes_refused_or_left_unused():
    seed = 9
    offsets = [4096 * k for k in range(FITS + 9)]
    # the right pages read at the wrong offsets fail their page hashes, at
    # every batch size, the scratch's and larger ones included, from the
    # first word of the first row
    for n in (1, FITS, FITS + 8):
        rows = pattern_rows(seed, offsets[1:n + 1], 4096)
        check_blocks(rows, offsets[1:n + 1], seed)
        with pytest.raises(VerifyError) as ei:
            check_blocks(rows, offsets[:n], seed)
        assert ei.value.offset == 0
    # and so do multi-page rows with the two pages of each row swapped
    rows = pattern_rows(seed, offsets[::2], 8192)
    check_blocks(rows, offsets[::2], seed)
    swapped = rows.reshape(len(rows), 2, -1)[:, ::-1].reshape(rows.shape)
    with pytest.raises(VerifyError) as ei:
        check_blocks(swapped.copy(), offsets[::2], seed)
    assert ei.value.offset == 0
    # rows that are not whole pages, or not at page-aligned offsets, are
    # refused; check_block compares such a block with its pattern, and
    # names a bad word
    part = pattern_rows(seed, offsets[:4:2], 2048)
    for rows, at in ((part, offsets[:4:2]), (pattern_rows(seed, [8], 4096),
                                             [8])):
        with pytest.raises(ValueError, match="whole pages at page-aligned"):
            check_blocks(rows, at, seed)
    check_block(part[1], offsets[2], seed)
    part[1, 3] ^= 1
    with pytest.raises(VerifyError) as ei:
        check_block(part[1], offsets[2], seed)
    assert ei.value.offset == offsets[2] + 24
    # the old pattern is still named from its first bad word
    old = np.frombuffer(old_pattern(seed, 4096), dtype="<u8")[None]
    with pytest.raises(VerifyError, match="old fill pattern") as ei:
        check_blocks(old, [0], seed)
    assert ei.value.offset == 8


# ---------------------------------------------------------------------------
# offset digest
# ---------------------------------------------------------------------------

def digest_oracle(offsets, nbytes, seed, lanes=(0,) * LANES):
    """Pure-Python reference of fill.digest_offsets: the block at offset o
    adds mix64((o ^ seed) + mix64(nbytes + j * GOLDEN)) to lane j, mod
    2**64."""
    lanes = list(lanes)
    for o in offsets:
        for j in range(LANES):
            key = mix64((nbytes + j * GOLDEN) & MASK64)
            lanes[j] = (lanes[j] + mix64(((o ^ seed) + key) & MASK64)) & MASK64
    return "".join(format(v, "016x") for v in lanes)


def digest_of(*batches, nbytes=4096, seed=2026, lanes=None):
    lanes = np.zeros(LANES, dtype=np.uint64) if lanes is None else lanes
    for offsets in batches:
        digest_offsets(offsets, nbytes, seed, lanes)
    return hexdigest(lanes)


#: offsets of 3 blocks
TINY = [0, 4096, 12288]


def test_digest_pinned():
    assert digest_of(TINY) == (
        "309464eb5292f383fa7e1267ad41008b6cb09537ebdddf8862cd793a9881ffd4")
    assert len(digest_of(TINY)) == 64 == len(digest_of())


@pytest.mark.parametrize("block", [4096, 2 * CHECK_CHUNK_BYTES])
def test_digest_matches_oracle(block):
    offsets = [block * k for k in (3, 0, 8, 1 << 20)]
    seed = MASK64 - 3  # (offset ^ seed) + key wraps past 2**64
    want = digest_oracle(offsets, block, seed)
    # engines pass lists, int64 arrays and array("q") buffers
    for batch in (offsets, np.array(offsets, dtype=np.int64),
                  array("q", offsets)):
        assert digest_of(batch, nbytes=block, seed=seed) == want


def test_digest_independent_of_order_and_batching():
    offsets = np.array([4096 * k for k in range(40)])
    whole = digest_of(offsets)
    assert digest_of(offsets[::-1]) == whole
    assert digest_of(offsets[np.random.default_rng(1).permutation(40)]) == whole
    assert digest_of(offsets[:13], offsets[13:]) == whole
    # two workers' lanes merge by lane-wise addition
    a, b = np.zeros(LANES, np.uint64), np.zeros(LANES, np.uint64)
    digest_of(offsets[::2], lanes=a)
    digest_of(offsets[1::2], lanes=b)
    assert hexdigest(a + b) == whole


def test_digest_sees_offsets_length_and_seed():
    base = digest_of(TINY)
    assert digest_of([0, 4096, 8192]) != base
    assert digest_of(TINY + [4096]) != base  # a block read twice counts twice
    assert digest_of(TINY, nbytes=8192) != base
    assert digest_of(TINY, seed=2027) != base


def test_digest_lanes_wrap():
    start = [MASK64 - k for k in range(LANES)]
    lanes = np.array(start, dtype=np.uint64)
    assert digest_of(TINY, lanes=lanes) == digest_oracle(TINY, 4096, 2026, start)
    added = [int(v, 16) for v in (digest_of(TINY)[i:i + 16]
                                  for i in range(0, 64, 16))]
    assert lanes.tolist() == [(s + d) & MASK64 for s, d in zip(start, added)]


class TestFileTarget:
    def test_prepare_read_verify(self, tmp_path):
        path = str(tmp_path / "bench.dat")
        with prepare_target(path, size=1 << 20, seed=11) as h:
            assert h.capacity == 1 << 20
            assert os.path.getsize(path) == 1 << 20
            buf = bytearray(4096)
            us = read_block(h, 32768, buf)
            assert us >= 0
            check_block(buf, 32768, 11)
        with open_target(path, seed=11, direct=False) as h:
            verify_file(h)

    @pytest.mark.parametrize("size,block", [(4100, 1 << 20), (4099, 4096),
                                            (6004, 1 << 20), (12290, 6000)])
    def test_verify_file_checks_a_partial_last_word(self, tmp_path, size, block):
        # the last 1-7 bytes of a file whose size is not a multiple of 8,
        # inside the first verify chunk or alone in the last one; chunks
        # that are not whole pages at page-aligned offsets check word by
        # word
        path = tmp_path / "odd.dat"
        good = pattern_bytes(9, 0, (size + 7) // 8 * 8)[:size]

        def verify(data):
            path.write_bytes(data)
            with open_target(str(path), seed=9, direct=False) as h:
                verify_file(h, block)

        verify(good)
        with pytest.raises(VerifyError) as ei:
            verify(bytes(size))
        assert ei.value.offset == 0
        last = size - 2
        with pytest.raises(VerifyError) as ei:
            verify(good[:last] + bytes([good[last] ^ 1]) + good[last + 1:])
        assert ei.value.offset == last
        mid = size // 2
        with pytest.raises(VerifyError) as ei:
            verify(good[:mid] + bytes([good[mid] ^ 1]) + good[mid + 1:])
        assert ei.value.offset == mid // 8 * 8

    def test_reopen_and_bounds(self, tmp_path):
        path = str(tmp_path / "bench.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        with open_target(path, seed=3, direct=False) as h:
            with pytest.raises(IoError):
                read_block(h, h.capacity, bytearray(4096))

    @pytest.mark.parametrize("offset,length,direct,error,match", [
        (-4096, 4096, False, IoError, "beyond capacity"),
        ((1 << 20) - 2048, 4096, False, IoError, "beyond capacity"),
        (None, 4096, False, IoError, "no open file"),
        (0, 2048, True, AlignmentError, "aligned"),
        (6144, 2048, True, AlignmentError, "aligned"),
    ], ids=["negative", "straddles-end", "closed", "direct-length",
            "direct-offset"])
    def test_read_block_refusals_named(self, tmp_path, offset, length, direct,
                                       error, match):
        path = str(tmp_path / "bench.dat")
        with prepare_target(path, size=1 << 20, seed=3) as h:
            # the refusals come before any read, so a buffered handle
            # stands in for a direct one
            h.direct = direct
            if offset is None:
                h.close()
                offset = 0
            with pytest.raises(error, match=match):
                read_block(h, offset, alloc_aligned(length))

    @settings(max_examples=200, deadline=None)
    @given(offset=st.one_of(st.integers(-16, 144).map(lambda k: k * 512),
                            st.integers(-8192, (1 << 16) + 8192)),
           length=st.sampled_from([512, 2048, 4096, 8192]),
           direct=st.booleans())
    def test_read_block_refuses_as_check_bounds(self, tmp_path_factory,
                                                offset, length, direct):
        # the one-expression test in read_block refuses exactly the reads
        # that _check_bounds refuses, with its error
        path = str(tmp_path_factory.getbasetemp() / "bounds.dat")
        if not os.path.exists(path):
            prepare_target(path, size=1 << 16, seed=3).close()
        with open_target(path, seed=3, direct=False) as h:
            h.direct = direct
            try:
                target._check_bounds(h, offset, length)
                want = None
            except (IoError, AlignmentError) as exc:
                want = exc
            buf = alloc_aligned(length)
            if want is None:
                assert read_block(h, offset, buf) >= 0
            else:
                with pytest.raises(type(want)) as ei:
                    read_block(h, offset, buf)
                assert str(ei.value) == str(want)

    def test_direct_alignment(self, tmp_path):
        path = str(tmp_path / "bench.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        try:
            h = open_target(path, seed=3, direct=True)
        except IoError:
            pytest.skip("direct I/O unavailable on this filesystem")
        with h:
            buf = alloc_aligned(ALIGNMENT)
            with pytest.raises(AlignmentError):
                read_block(h, 100, buf)
            read_block(h, 0, buf)
            check_block(buf, 0, 3)

    @pytest.fixture
    def flagged_preadv(self, monkeypatch):
        """Patches os.preadv so that a flagged (polled) call is counted and
        fails with the errno the test sets, if any; other calls, and flagged
        ones without an errno, read as plain calls."""
        preadv, fail = os.preadv, {"calls": 0, "errno": None}

        def patched(fd, buffers, offset, flags=0):
            if flags:
                fail["calls"] += 1
                if fail["errno"] is not None:
                    raise OSError(fail["errno"], os.strerror(fail["errno"]))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", patched)
        return fail

    def test_polled_read_error_propagates(self, tmp_path, flagged_preadv):
        path = str(tmp_path / "bench.dat")
        flagged_preadv["errno"] = errno.EIO
        with prepare_target(path, size=1 << 20, seed=3) as h:
            h.direct = True  # the polled path is tried on direct handles
            with pytest.raises(OSError) as ei:
                polled_flags(h, alloc_aligned(4096))
            assert ei.value.errno == errno.EIO

    def test_polled_read_falls_back_once_refused(self, tmp_path,
                                                 flagged_preadv, monkeypatch):
        path = str(tmp_path / "bench.dat")
        flagged_preadv["errno"] = errno.EOPNOTSUPP
        checks = []
        check_bounds = target._check_bounds
        monkeypatch.setattr(target, "_check_bounds",
                            lambda *args: checks.append(check_bounds(*args)))
        with prepare_target(path, size=1 << 20, seed=3) as h:
            h.direct = True
            assert polled_flags(h, alloc_aligned(4096)) == 0
            assert flagged_preadv["calls"] == 1
            h.direct = False  # never polled, so never probed
            assert polled_flags(h, alloc_aligned(4096)) == 0
            assert flagged_preadv["calls"] == 1
            flagged_preadv["errno"] = None  # the flag is taken
            h.direct = True
            assert polled_flags(h, alloc_aligned(4096)) == RWF_HIGHPRI
            assert flagged_preadv["calls"] == 2
        assert len(checks) == 3  # one bounds check per probe

    @pytest.mark.parametrize("direct,flagged", [(True, 1), (False, 0)],
                             ids=["direct", "buffered"])
    def test_polled_run_probes_once(self, tmp_path, flagged_preadv, direct,
                                    flagged):
        # a refused flag costs one call per run, not one per read
        path = str(tmp_path / "bench.dat")
        flagged_preadv["errno"] = errno.EOPNOTSUPP
        with prepare_target(path, size=1 << 20, seed=3) as h:
            h.direct = direct  # the polled path is tried on direct handles
            rec = run(WorkloadSpec(target=h, request_budget=1000, seed=1),
                      EngineConfig(kind="polled"))
        assert rec.latency.count == 1000
        assert flagged_preadv["calls"] == flagged
        assert rec.notes.count("polled reads unsupported") == 1


class TestSimulatedTarget:
    def test_block_reads_refused(self):
        # simulated targets are replayed by the engines, never read directly
        with simulated_target(preset_model("nvme-ssd"), 1 << 24, seed=5) as h:
            with pytest.raises(IoError, match="simulated"):
                read_block(h, 12288, bytearray(4096))
            with pytest.raises(IoError, match="simulated"):
                polled_flags(h, bytearray(4096))
            with pytest.raises(IoError, match="simulated"):
                verify_file(h)
