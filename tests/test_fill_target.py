"""Fill-pattern generation, verification, and target handles."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readbench.errors import AlignmentError, IoError, VerifyError
from readbench.fill import (CHECK_CHUNK_BYTES, check_block, check_blocks,
                            first_mismatch, pattern_bytes, pattern_words,
                            verify_block)
from readbench.rng import GOLDEN, MASK64, SplitMix64, mix64, worker_seed
from readbench.target import (ALIGNMENT, alloc_aligned, open_target, prepare_target,
                              read_block, read_block_polled,
                              recommended_file_size, simulated_target,
                              verify_file)
from readbench.devicesim import preset_model


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


def test_worker_seed_distinct():
    seeds = {worker_seed(5, w) for w in range(64)}
    assert len(seeds) == 64


def test_pattern_word_oracle():
    seed = 1234
    buf = pattern_bytes(seed, 0, 64)
    for o in range(0, 64, 8):
        want = mix64_oracle(seed ^ o).to_bytes(8, "little")
        assert buf[o:o + 8] == want


def test_pattern_words_offset_consistency():
    seed = 7
    whole = pattern_bytes(seed, 0, 4096)
    part = pattern_bytes(seed, 2048, 2048)
    assert whole[2048:] == part


def test_verify_and_mismatch():
    seed = 42
    buf = bytearray(pattern_bytes(seed, 8192, 4096))
    assert verify_block(buf, 8192, seed)
    assert first_mismatch(buf, 8192, seed) is None
    buf[100] ^= 0xFF
    assert not verify_block(buf, 8192, seed)
    # mismatch position is reported word-aligned
    assert first_mismatch(buf, 8192, seed) == 8192 + (100 // 8) * 8
    with pytest.raises(VerifyError) as ei:
        check_block(buf, 8192, seed)
    assert ei.value.offset == 8192 + (100 // 8) * 8


def pattern_rows(seed, offsets, block=4096):
    return np.stack([pattern_words(seed, o, block) for o in offsets])


# the larger batch takes two CHECK_CHUNK_BYTES passes
@pytest.mark.parametrize("nrows", [8, CHECK_CHUNK_BYTES // 4096 + 8])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("word", [0, 511])
def test_check_blocks_names_first_bad_offset(nrows, where, word):
    seed = 0xC0FFEE
    offsets = [4096 * (3 * k + 1) for k in range(nrows)]
    rows = pattern_rows(seed, offsets)
    check_blocks(rows, offsets, seed)
    row = {"first": 0, "middle": nrows // 2, "last": nrows - 1}[where]
    rows.view(np.uint8)[row, word * 8 + 5] ^= 0x10
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == first_mismatch(rows[row].tobytes(), offsets[row], seed)
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
    rows = pattern_rows(seed, offsets)
    rows[2, 7] ^= 1
    rows[6, 0] ^= 1  # lower offset, later row
    with pytest.raises(VerifyError) as ei:
        check_blocks(rows, offsets, seed)
    assert ei.value.offset == offsets[2] + 7 * 8


@given(st.integers(min_value=0, max_value=MASK64),
       st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=0, max_value=511))
@settings(max_examples=100, deadline=None)
def test_corruption_always_detected(seed, block, byte_index):
    offset = block * 4096
    buf = bytearray(pattern_bytes(seed, offset, 512))
    buf[byte_index] ^= 0x01
    assert first_mismatch(buf, offset, seed) is not None


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

    def test_reopen_and_bounds(self, tmp_path):
        path = str(tmp_path / "bench.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        with open_target(path, seed=3, direct=False) as h:
            with pytest.raises(IoError):
                read_block(h, h.capacity, bytearray(4096))

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

    def test_recommended_size_alignment(self):
        size = recommended_file_size(10**9)
        assert size % 4096 == 0
        assert size <= 0.9 * 10**9


class TestSimulatedTarget:
    def test_block_reads_refused(self):
        # simulated targets are replayed by the engines, never read directly
        with simulated_target(preset_model("nvme-ssd"), 1 << 24, seed=5) as h:
            for read in (read_block, read_block_polled):
                with pytest.raises(IoError, match="simulated"):
                    read(h, 12288, bytearray(4096))
            with pytest.raises(IoError, match="simulated"):
                verify_file(h)
