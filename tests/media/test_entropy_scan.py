"""The whole-scan entropy routines against the spec-literal per-block pair.

``encode_mcus`` / ``decode_scan`` (what ``repro.media.jpeg`` runs) must
produce the bytes, the coefficients and the exception types of the loop
over ``encode_block`` + ``BitWriter`` / ``decode_block`` + ``BitReader``
they replaced.  The reference loops below walk MCUs the way the old
``encode_scan`` / ``decode_to_coefficients`` did, so raster placement of
the blocks is checked too, not only their coding.

No ``max_examples`` here: the CI property job re-runs this file under
the ``deep`` Hypothesis profile (``tests/conftest.py``) for ten times
the default budget.
"""

import gc
import inspect
import os
import pathlib
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media import huffman, jpeg
from repro.media.bitstream import BitReader, BitWriter
from repro.media.huffman import (
    HuffmanTable,
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    decode_block,
    decode_scan,
    encode_block,
    encode_mcus,
)
from repro.media.jpeg import (
    blocks_to_plane,
    decode_to_coefficients,
    encode_from_quantized,
    encode_jpeg,
    encode_scan,
    plane_to_blocks,
)
from repro.media.yuv import synthetic_sequence
from repro.media.zigzag import inverse_zigzag, zigzag

LUMA = (STD_DC_LUMA, STD_AC_LUMA)
CHROMA = (STD_DC_CHROMA, STD_AC_CHROMA)
SAMPLINGS = [(1, 1), (2, 1), (2, 2)]


def plan_for(h, v):
    return [(0, *LUMA)] * (h * v) + [(1, *CHROMA), (2, *CHROMA)]


# ----------------------------------------------------------------------
# The reference: one block at a time, one bit at a time
# ----------------------------------------------------------------------
def mcu_walk(mcus_y, mcus_x, h, v):
    """(component, block row, block column) of every block in stream
    order, for luma sampling (h, v) over 1x1 chroma."""
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for comp, (ch, cv) in enumerate(((h, v), (1, 1), (1, 1))):
                for r in range(cv):
                    for c in range(ch):
                        yield comp, my * cv + r, mx * ch + c


def reference_encode_grids(grids, h, v):
    mcus_y, mcus_x = grids[1].shape[:2]
    writer = BitWriter(stuffing=True)
    prev = [0, 0, 0]
    for comp, row, col in mcu_walk(mcus_y, mcus_x, h, v):
        prev[comp] = encode_block(
            writer, zigzag(grids[comp][row, col]), prev[comp],
            *(LUMA if comp == 0 else CHROMA),
        )
    writer.flush()
    return writer.getvalue()


def reference_encode_mcus(zz, plan):
    writer = BitWriter(stuffing=True)
    prev = {}
    for mcu in zz:
        for block, (comp, dc_table, ac_table) in zip(mcu, plan):
            prev[comp] = encode_block(
                writer, block, prev.get(comp, 0), dc_table, ac_table
            )
    writer.flush()
    return writer.getvalue()


def reference_decode_scan(scan, mcus, plan):
    """``decode_scan``'s contract, met with ``decode_block``."""
    reader = BitReader(scan, stuffing=True)
    prev = {}
    out = []
    for _ in range(mcus):
        for comp, dc_table, ac_table in plan:
            zz, prev[comp] = decode_block(
                reader, prev.get(comp, 0), dc_table, ac_table
            )
            out.append(zz)
    return np.array(out, dtype=np.int64).reshape(mcus, len(plan), 64)


def outcome(fn, *args):
    """('ok', result) or ('raised', exception type)."""
    try:
        return "ok", fn(*args)
    except (ValueError, EOFError) as exc:
        return "raised", type(exc)


def same_outcome(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "raised":
        return a[1] is b[1]
    return np.array_equal(a[1], b[1]) and a[1].dtype == b[1].dtype


# ----------------------------------------------------------------------
# Inputs: blocks that reach every branch of the coder
# ----------------------------------------------------------------------
def make_block(kind, rng):
    """One zig-zag block; the DC stays within ±1023 so that any two
    neighbours differ by at most 2047."""
    zz = np.zeros(64, dtype=np.int64)
    zz[0] = int(rng.integers(-300, 300))
    if kind == "zero":
        zz[0] = 0
    elif kind == "dense":
        zz[1:] = rng.integers(-1023, 1024, 63)
    elif kind == "small":  # what a quantizer emits: low, decaying
        zz[1:] = rng.integers(-40, 41, 63) // (1 + np.arange(63) // 4)
    elif kind == "sparse":
        where = rng.choice(np.arange(1, 64), int(rng.integers(1, 5)), False)
        zz[where] = rng.integers(1, 200, where.size) * rng.choice(
            [-1, 1], where.size
        )
    elif kind in ("zrl1", "zrl2", "zrl3"):
        skipped = 16 * int(kind[-1]) + int(rng.integers(0, 15))
        zz[1 + skipped] = int(rng.integers(1, 1024))
    elif kind == "tail":  # coefficient 63 coded: no EOB
        zz[63] = int(rng.choice([-1023, -1, 1, 1023]))
    elif kind == "ones":  # long all-ones codes and magnitudes: 0xFF bytes
        zz[1::6] = 1023
    elif kind == "dc_hi":
        zz[0] = 1023
        zz[int(rng.integers(1, 64))] = -1023
    elif kind == "dc_lo":
        zz[0] = -1024
        zz[int(rng.integers(1, 64))] = 1023
    else:  # pragma: no cover
        raise AssertionError(kind)
    return zz


KINDS = [
    "zero", "dense", "small", "sparse", "zrl1", "zrl2", "zrl3", "tail",
    "ones", "dc_hi", "dc_lo",
]


@st.composite
def block_grids(draw, h, v):
    """Raster block grids [Y, Cb, Cr] for luma sampling (h, v)."""
    mcus_y = draw(st.integers(1, 3))
    mcus_x = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for ch, cv in ((h, v), (1, 1), (1, 1)):
        n = mcus_y * cv * mcus_x * ch
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
        blocks = np.stack([make_block(kind, rng) for kind in kinds])
        grids.append(
            inverse_zigzag(blocks).reshape(mcus_y * cv, mcus_x * ch, 8, 8)
        )
    return grids


def as_mcus(grids, h, v):
    """The grids' blocks as ``(mcus, len(plan), 64)`` zig-zag, walked by
    the reference order."""
    mcus_y, mcus_x = grids[1].shape[:2]
    blocks = [
        zigzag(grids[comp][row, col])
        for comp, row, col in mcu_walk(mcus_y, mcus_x, h, v)
    ]
    return np.array(blocks).reshape(mcus_y * mcus_x, h * v + 2, 64)


PROPERTY = settings(deadline=None)

#: The grid layouts ``encode_scan`` reads: C-contiguous block grids (what
#: ``quantize_plane`` returns), ``plane_to_blocks`` views of a plane (what
#: the MJPEG kernels hand it) and anything else (copied first).
LAYOUTS = {
    "blocks": np.ascontiguousarray,
    "plane view": lambda g: plane_to_blocks(
        np.ascontiguousarray(blocks_to_plane(g))
    ),
    "fortran": np.asfortranarray,
}


# ----------------------------------------------------------------------
# (i) encode
# ----------------------------------------------------------------------
class TestEncodeDifferential:
    @PROPERTY
    @given(block_grids(2, 2))
    def test_encode_scan_matches_block_loop(self, grids):
        assert encode_scan(*grids) == reference_encode_grids(grids, 2, 2)

    @PROPERTY
    @given(st.sampled_from(SAMPLINGS).flatmap(
        lambda hv: st.tuples(st.just(hv), block_grids(*hv))
    ))
    def test_encode_mcus_matches_block_loop(self, case):
        (h, v), grids = case
        zz = as_mcus(grids, h, v)
        plan = plan_for(h, v)
        assert encode_mcus(zz, plan) == reference_encode_mcus(zz, plan)
        assert encode_mcus(zz, plan) == reference_encode_grids(grids, h, v)

    @PROPERTY
    @given(block_grids(2, 2),
           st.lists(st.sampled_from(list(LAYOUTS)), min_size=3, max_size=3))
    def test_encode_scan_reads_any_grid_layout(self, grids, layouts):
        laid = [LAYOUTS[name](g) for name, g in zip(layouts, grids)]
        assert encode_scan(*laid) == reference_encode_grids(grids, 2, 2)

    def test_every_branch_in_one_scan(self):
        """The named cases at once — and proof the inputs reach them."""
        rng = np.random.default_rng(5)
        kinds = ["zrl1", "zrl2", "zrl3", "tail", "zero", "ones",
                 "dc_hi", "dc_lo", "dc_hi", "dense", "sparse", "small"]
        zz = np.stack([make_block(k, rng) for k in kinds]).reshape(2, 6, 64)
        plan = plan_for(2, 2)
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert b"\xff\x00" in scan  # stuffing happened
        assert b"\xff" not in scan.replace(b"\xff\x00", b"")
        # luma DCs 1023 -> -1024 -> 1023: both limits of the difference
        assert list(np.diff(zz[1, :3, 0])) == [-2047, 2047]
        assert np.array_equal(decode_scan(scan, 2, plan), zz)

    def test_chroma_tables_and_long_runs(self):
        # the parity cases of the deleted scalar-vs-batched micro-bench
        rng = np.random.default_rng(0)
        plan = [(0, *CHROMA)]
        for kind in ("dense", "sparse", "zrl3", "small"):
            zz = np.stack([make_block(kind, rng) for _ in range(8)])
            zz = zz.reshape(8, 1, 64)
            assert encode_mcus(zz, plan) == reference_encode_mcus(zz, plan)

    @pytest.mark.parametrize("k, value", [(0, 2048), (0, -2048),
                                          (1, 1024), (63, -1024)])
    def test_one_past_the_limit_raises_like_the_block_encoder(self, k, value):
        zz = np.zeros((2, 1, 64), dtype=np.int64)
        zz[1, 0, k] = value
        plan = [(0, *LUMA)]
        with pytest.raises(ValueError, match="out of baseline range"):
            reference_encode_mcus(zz, plan)
        with pytest.raises(ValueError, match="out of baseline range"):
            encode_mcus(zz, plan)
        zz[1, 0, k] -= np.sign(value)  # at the limit: fine
        assert encode_mcus(zz, plan) == reference_encode_mcus(zz, plan)

    def test_symbol_missing_from_table_raises(self):
        # an AC table that can only say "nothing more" and "16 zeros"
        bare = HuffmanTable([0, 2] + [0] * 14, [0x00, 0xF0])
        plan = [(0, STD_DC_LUMA, bare)]
        zz = np.zeros((1, 1, 64), dtype=np.int64)
        assert encode_mcus(zz, plan) == reference_encode_mcus(zz, plan)
        zz[0, 0, 5] = 3
        for encode in (encode_mcus, reference_encode_mcus):
            with pytest.raises(ValueError, match="not in Huffman table"):
                encode(zz, plan)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            encode_mcus(np.zeros((2, 5, 64)), plan_for(2, 2))
        with pytest.raises(ValueError):
            encode_scan(np.zeros((3, 2, 8, 8)), np.zeros((1, 1, 8, 8)),
                        np.zeros((1, 1, 8, 8)))


def without(table, symbol):
    """``table`` less one symbol, its code left unused."""
    values = list(table.values)
    length = table.encode(symbol)[1]
    bits = list(table.bits)
    bits[length - 1] -= 1
    values.remove(symbol)
    return HuffmanTable(bits, values)


class TestEncodeContract:
    """What ``encode_mcus`` promises besides its bytes."""

    @PROPERTY
    @given(st.sampled_from(SAMPLINGS).flatmap(
        lambda hv: st.tuples(st.just(hv), block_grids(*hv))
    ), st.sampled_from([np.int32, np.int64]))
    def test_the_input_is_not_modified(self, case, dtype):
        (h, v), grids = case
        zz = as_mcus(grids, h, v).astype(dtype)
        kept = zz.copy()
        zz.setflags(write=False)  # a write in place raises
        encode_mcus(zz, plan_for(h, v))
        assert np.array_equal(zz, kept)

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_integer_dtypes_give_equal_bytes(self, seed, mcus):
        rng = np.random.default_rng(seed)
        zz = rng.integers(0, 256, (mcus, 6, 64))
        zz[:, :, 1:] *= rng.random((mcus, 6, 63)) < 0.2
        plan = plan_for(2, 2)
        want = reference_encode_mcus(zz, plan)
        for dtype in (np.int16, np.int32, np.int64, np.uint8):
            assert encode_mcus(zz.astype(dtype), plan) == want, dtype

    @pytest.mark.parametrize("blocks", [0, 1])
    def test_no_mcus_is_no_bytes(self, blocks):
        plan = plan_for(2, 2)[: blocks or None]
        zz = np.zeros((0, len(plan), 64), dtype=np.int32)
        assert encode_mcus(zz, plan) == b"" == reference_encode_mcus(zz, plan)

    @pytest.mark.parametrize("symbol", [0x00, 0xF0])
    def test_a_missing_eob_or_zrl_raises_only_where_needed(self, symbol):
        plan = [(0, STD_DC_LUMA, without(STD_AC_LUMA, symbol))]
        rng = np.random.default_rng(symbol)
        needless = np.stack([make_block("tail", rng) for _ in range(3)])
        if symbol == 0xF0:  # no run of 16 zeros, but EOBs
            needless = np.stack([make_block("small", rng) for _ in range(3)])
            needless[:, 1::8] += needless[:, 1::8] == 0
        zz = needless[:, None]
        assert encode_mcus(zz, plan) == reference_encode_mcus(zz, plan)
        needy = zz.copy()
        if symbol == 0x00:
            needy[2, 0, 63] = 0  # the last block ends in zeros
        else:
            needy[1, 0, 2:20] = 0  # a run of 18 or more zeros
        for encode in (encode_mcus, reference_encode_mcus):
            with pytest.raises(
                ValueError, match=f"symbol {symbol:#x} not in Huffman table"
            ):
                encode(needy, plan)

    def test_the_first_bad_block_names_the_error(self):
        # a bad AC value in block 1, an out-of-range DC difference in
        # block 3: the block loop meets the coefficient first
        zz = np.zeros((4, 1, 64), dtype=np.int64)
        zz[1, 0, 9] = 5000
        zz[3, 0, 0] = 3000
        plan = [(0, *LUMA)]
        with pytest.raises(ValueError) as ref:
            reference_encode_mcus(zz, plan)
        with pytest.raises(ValueError) as new:
            encode_mcus(zz, plan)
        assert str(new.value) == str(ref.value) == (
            "AC coefficient 5000 out of baseline range"
        )

    def test_values_that_would_wrap_int64_raise(self):
        zz = np.zeros((2, 1, 64), dtype=np.int64)
        zz[:, 0, 0] = [2**62 + 1, -(2**62)]  # difference past 2**63
        with pytest.raises(ValueError, match="DC difference"):
            encode_mcus(zz, [(0, *LUMA)])

    @pytest.mark.parametrize("column", range(6))
    def test_the_limits_in_every_block_of_a_420_mcu(self, column):
        """DC difference ±2047 and AC ±1023 in each block position, AC
        at coefficients 1 and 63 and in between."""
        plan = plan_for(2, 2)
        diff = np.zeros((3, 6), dtype=np.int64)
        diff[:, column] = [1023, -2047, 2047]
        zz = np.zeros((3, 6, 64), dtype=np.int64)
        prev = {}
        for m in range(3):  # DC values from the differences wanted
            for j, (comp, _dc, _ac) in enumerate(plan):
                prev[comp] = zz[m, j, 0] = prev.get(comp, 0) + diff[m, j]
        zz[1, column, [1, 30, 63]] = [1023, -1023, 1023]
        zz[2, column, [1, 17, 62]] = [-1023, 1023, -1023]
        assert {2047, -2047} <= coded_dc_differences(zz, plan)
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert np.array_equal(decode_scan(scan, 3, plan), zz)


def coded_dc_differences(zz, plan):
    """Every DC difference a scan of ``zz`` codes."""
    prev, out = {}, set()
    for mcu in zz:
        for block, (comp, _dc, _ac) in zip(mcu, plan):
            out.add(int(block[0]) - prev.get(comp, 0))
            prev[comp] = int(block[0])
    return out


class TestTokenPacking:
    """Where packing tokens at their bit offsets could go wrong: the pad,
    the ends of the scan, tokens crossing a 64-bit word, a block with no
    EOB."""

    @pytest.mark.parametrize("blocks", range(1, 9))
    def test_every_pad_length_including_none(self, blocks):
        # an all-zero luma block is DC "00" + EOB "1010": 6 bits, so
        # 1..8 blocks leave 2, 4, 6, 0, 2, ... pad bits; 4 and 8 none
        zz = np.zeros((blocks, 1, 64), dtype=np.int64)
        plan = [(0, *LUMA)]
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert len(scan) == -(-6 * blocks // 8)
        if blocks == 1:
            assert scan == bytes([0b00_1010_11])

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_mcu_scan(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        zz = np.stack([make_block(kind, rng) for _ in range(6)])[None]
        plan = plan_for(2, 2)
        assert encode_mcus(zz, plan) == reference_encode_mcus(zz, plan)
        assert np.array_equal(decode_scan(encode_mcus(zz, plan), 1, plan),
                              zz)

    def test_26_bit_tokens_at_every_bit_offset(self):
        """Luma AC run 0 / size 10 has a 16-bit code: a coefficient of
        magnitude 512..1023 is a 26-bit token.  DC differences of every
        category shift the blocks, so the tokens start at all 64 offsets
        of a word."""
        rng = np.random.default_rng(26)
        diffs = [0, 2, -1, 7, 20, -60, 100, 255, -300, 600, 1000, -2000]
        zz = np.zeros((len(diffs), 1, 64), dtype=np.int64)
        zz[:, 0, 0] = np.cumsum(diffs)
        zz[:, 0, 1:] = rng.integers(512, 1024, (len(diffs), 63)) * (
            rng.choice([-1, 1], (len(diffs), 63))
        )
        assert STD_AC_LUMA.encode(0x0A)[1] + 10 == 26
        starts, pos = set(), 0
        for diff in diffs:
            cat = int(abs(diff)).bit_length()
            pos += STD_DC_LUMA.encode(cat)[1] + cat
            for _ in range(63):
                starts.add(pos % 64)
                pos += 26
        assert starts == set(range(64))
        plan = [(0, *LUMA)]
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert np.array_equal(decode_scan(scan, len(diffs), plan), zz)

    @pytest.mark.parametrize("value", [-1023, -1, 1, 1023])
    def test_coefficient_63_codes_no_eob(self, value):
        zz = np.zeros((3, 1, 64), dtype=np.int64)
        zz[:, 0, 63] = value
        zz[1, 0, 1:63:5] = 9  # and one block with coefficients before it
        plan = [(0, *LUMA)]
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert np.array_equal(decode_scan(scan, 3, plan), zz)

    @pytest.mark.parametrize("blocks, multiple", [(8, 16), (16, 32),
                                                  (32, 64)])
    def test_zero_blocks_filling_whole_words(self, blocks, multiple):
        # 6 bits a block: the scan ends on a 16-, 32- or 64-bit boundary
        zz = np.zeros((blocks, 1, 64), dtype=np.int64)
        plan = [(0, *LUMA)]
        assert (6 * blocks) % multiple == 0
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert len(scan) == 6 * blocks // 8

    @pytest.mark.parametrize("multiple", [32, 64])
    def test_coded_blocks_filling_whole_words(self, multiple):
        """The first of a run of seeded one-MCU scans whose bit count
        is a multiple of ``multiple``: no pad, the last token ends the
        packer's last unit."""
        plan = plan_for(2, 2)
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            kinds = rng.choice(["small", "sparse", "zrl1", "tail"], 6)
            zz = np.stack([make_block(k, rng) for k in kinds])[None]
            writer = BitWriter()
            prev = {}
            for block, (comp, dc, ac) in zip(zz[0], plan):
                prev[comp] = encode_block(
                    writer, block, prev.get(comp, 0), dc, ac
                )
            if writer.bit_length % multiple == 0:
                break
        else:  # pragma: no cover
            raise AssertionError(f"no seed fills {multiple}-bit words")
        scan = encode_mcus(zz, plan)
        assert scan == reference_encode_mcus(zz, plan)
        assert np.array_equal(decode_scan(scan, 1, plan), zz)


# ----------------------------------------------------------------------
# (ii) decode
# ----------------------------------------------------------------------
def jpeg_around(scan, width, height, h, v):
    """A JFIF file with luma sampling (h, v) around ``scan``: the
    encoder's own headers with the SOF0 sampling byte rewritten."""
    blank = np.zeros((1, 1, 8, 8), dtype=np.int64)
    qy, qc = jpeg.qtables_for_quality(75)
    shell = encode_from_quantized(
        np.zeros((2, 2, 8, 8), dtype=np.int64), blank, blank,
        width, height, qy, qc,
    )
    sof = shell.index(b"\xff\xc0")
    sos = shell.index(b"\xff\xda")
    head = bytearray(shell[: sos + 14])
    assert head[sof + 11] == 0x22
    head[sof + 11] = (h << 4) | v
    return bytes(head) + scan + b"\xff\xd9"


class TestDecodeDifferential:
    @PROPERTY
    @given(st.sampled_from(SAMPLINGS).flatmap(
        lambda hv: st.tuples(st.just(hv), block_grids(*hv))
    ))
    def test_decode_scan_matches_block_loop(self, case):
        (h, v), grids = case
        plan = plan_for(h, v)
        scan = reference_encode_grids(grids, h, v)
        mcus = grids[1].shape[0] * grids[1].shape[1]
        got = decode_scan(scan, mcus, plan)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_decode_scan(scan, mcus, plan))
        assert np.array_equal(got, as_mcus(grids, h, v))

    @PROPERTY
    @given(st.sampled_from(SAMPLINGS).flatmap(
        lambda hv: st.tuples(st.just(hv), block_grids(*hv))
    ))
    def test_blocks_land_where_the_mcu_walk_put_them(self, case):
        (h, v), grids = case
        mcus_y, mcus_x = grids[1].shape[:2]
        data = jpeg_around(
            reference_encode_grids(grids, h, v),
            8 * h * mcus_x, 8 * v * mcus_y, h, v,
        )
        dec = decode_to_coefficients(data)
        assert dec.sampling == ((h, v), (1, 1), (1, 1))
        for got, want in zip(dec.grids, grids):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_ac_symbol_without_magnitude_codes_a_zero(self):
        # run/size 0x30: skip three, code nothing — legal to decode
        odd = HuffmanTable([0, 3] + [0] * 14, [0x00, 0x30, 0x01])
        plan = [(0, STD_DC_LUMA, odd)]
        writer = BitWriter()
        writer.write_bits(*STD_DC_LUMA.encode(0))
        for symbol in (0x30, 0x01):
            writer.write_bits(*odd.encode(symbol))
        writer.write_bits(1, 1)  # magnitude of the 0x01
        writer.write_bits(*odd.encode(0x00))
        writer.flush()
        got = decode_scan(writer.getvalue(), 1, plan)
        assert np.array_equal(
            got, reference_decode_scan(writer.getvalue(), 1, plan)
        )
        assert got[0, 0, 5] == 1 and np.count_nonzero(got) == 1

    @pytest.mark.parametrize("scan, error", [
        (b"", EOFError),                      # nothing to read
        (b"\xff\xd9", EOFError),              # a marker straight away
        (b"\xff", EOFError),                  # 0xFF with nothing behind it
        (b"\xff\x00" * 8, ValueError),        # all ones: no such code
        (b"\xff\x00", EOFError),              # ... but cut short: the end
        (b"\x00" * 2, EOFError),              # valid codes, too few blocks
    ])
    def test_error_types_match_the_bit_reader(self, scan, error):
        plan = plan_for(1, 1)
        with pytest.raises(error):
            reference_decode_scan(scan, 4, plan)
        with pytest.raises(error):
            decode_scan(scan, 4, plan)

    def test_ac_run_past_the_block_is_a_value_error(self):
        zz = np.zeros((1, 1, 64), dtype=np.int64)
        zz[0, 0, 60] = 1
        plan = [(0, *LUMA)]
        writer = BitWriter()
        encode_block(writer, zz[0, 0], 0, *LUMA)
        # then a block of run-15 symbols: three fit, the fourth would
        # land on coefficient 64
        writer.write_bits(*STD_DC_LUMA.encode(0))
        for _ in range(5):
            writer.write_bits(*STD_AC_LUMA.encode(0xF1))
            writer.write_bits(1, 1)
        writer.flush()
        for decode in (reference_decode_scan, decode_scan):
            with pytest.raises(ValueError, match="overflows"):
                decode(writer.getvalue(), 2, plan)

    def test_dc_category_the_window_cannot_hold(self):
        wide = HuffmanTable([1] + [0] * 15, [17])
        plan = [(0, wide, STD_AC_LUMA)]
        for decode in (reference_decode_scan, decode_scan):
            with pytest.raises(ValueError, match="DC category 17"):
                decode(b"\x00" * 16, 1, plan)


# ----------------------------------------------------------------------
# (ii b) decode under generated tables: token-table entries the standard
# tables never produce (two tokens where codes are short, code + magnitude
# over 16 bits, unmatched windows, category-0 and wide AC symbols)
# ----------------------------------------------------------------------
FREQUENT = [0x00, 0x01, 0x02, 0x11, 0x03, 0x21, 0x12, 0x04]


def generated_table(rng, symbols, skew, unused, frequent_first):
    """A valid DHT table for ``symbols``: a code tree grown by splitting
    leaves (the deepest with probability ``skew``, so codes reach 16
    bits), ``unused`` of its leaves left without a symbol (windows no
    code matches)."""
    leaves = [0]
    while len(leaves) < max(2, len(symbols) + unused):
        open_ = [i for i, depth in enumerate(leaves) if depth < 16]
        if rng.random() < skew:
            i = max(open_, key=leaves.__getitem__)
        else:
            i = open_[int(rng.integers(len(open_)))]
        depth = leaves.pop(i)
        leaves += [depth + 1, depth + 1]
    rng.shuffle(leaves)
    lengths = sorted(leaves[: len(symbols)])
    order = list(rng.permutation(symbols))
    if frequent_first:  # short codes to what blocks use most
        order.sort(key=lambda s: s not in FREQUENT)
    bits = [lengths.count(n) for n in range(1, 17)]
    return HuffmanTable(bits, [int(s) for s in order])


@st.composite
def huffman_tables(draw):
    """A generated (DC, AC) pair: DC categories 0..11; AC every run/size
    a block can need and EOB, with or without ZRL, with or without
    category-0 symbols such as 0x30 and categories 11..15."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    skew = draw(st.sampled_from([0.0, 0.5, 0.9]))
    unused = draw(st.integers(0, 2))
    frequent_first = draw(st.booleans())
    ac = [0x00] + [(run << 4) | cat for run in range(16)
                   for cat in range(1, 11)]
    if draw(st.booleans()):
        ac.append(0xF0)
    if draw(st.booleans()):
        ac += [int(r) << 4 for r in rng.choice(np.arange(1, 15), 4, False)]
    if draw(st.booleans()):
        ac += [(int(r) << 4) | int(c) for r, c in zip(
            rng.choice(16, 6, False), rng.integers(11, 16, 6))]
    return (
        generated_table(rng, list(range(12)), skew, unused, frequent_first),
        generated_table(rng, ac, skew, unused, frequent_first),
    )


def token_stream(rng, dc, ac, blocks):
    """``blocks`` blocks of random tokens from the tables: any symbol,
    random magnitude bits, ZRL anywhere, now and then a run past the
    block (the stream is wrong from there; both decoders must say so)."""
    writer = BitWriter()
    runs = [s for s in ac.values if s not in (0x00, 0xF0)]
    for _ in range(blocks):
        cat = int(rng.choice(dc.values))
        writer.write_bits(*dc.encode(cat))
        writer.write_bits(int(rng.integers(1 << cat)), cat)
        k = 1
        while k < 64:
            if 0x00 in ac.values and rng.random() < 0.08:
                writer.write_bits(*ac.encode(0x00))
                break
            fitting = [s for s in runs if k + (s >> 4) <= 63]
            if 0xF0 in ac.values and rng.random() < 0.05:
                symbol = 0xF0
            elif fitting and rng.random() < 0.95:
                symbol = int(rng.choice(fitting))
            else:
                symbol = int(rng.choice(runs))
            writer.write_bits(*ac.encode(symbol))
            if symbol == 0xF0:
                k += 16
                continue
            cat = symbol & 0x0F
            writer.write_bits(int(rng.integers(1 << cat)), cat)
            k += (symbol >> 4) + 1
        if k > 64:
            break
    writer.flush()
    return writer.getvalue()


class TestGeneratedTables:
    @PROPERTY
    @given(huffman_tables(), st.integers(0, 2**32 - 1),
           st.sampled_from(SAMPLINGS))
    def test_blocks_of_every_kind_decode_like_the_block_loop(
        self, tables, seed, hv
    ):
        dc, ac = tables
        rng = np.random.default_rng(seed)
        h, v = hv
        plan = [(0, dc, ac)] * (h * v) + [(1, dc, ac), (2, dc, ac)]
        kinds = list(KINDS) + list(
            rng.choice(KINDS, -len(KINDS) % len(plan))
        )
        rng.shuffle(kinds)
        blocks = np.stack([make_block(kind, rng) for kind in kinds])
        if 0xF0 not in ac.values:  # no run of 16 zeros to code
            blocks[:, 1::16] += blocks[:, 1::16] == 0
        zz = blocks.reshape(-1, len(plan), 64)
        scan = encode_mcus(zz, plan)
        got = decode_scan(scan, len(zz), plan)
        assert np.array_equal(got, reference_decode_scan(scan, len(zz), plan))
        assert np.array_equal(got, zz)

    @PROPERTY
    @given(huffman_tables(), st.integers(0, 2**32 - 1),
           st.one_of(st.none(), st.integers(0, 300)))
    def test_token_streams_decode_like_the_bit_reader(
        self, tables, seed, cut
    ):
        dc, ac = tables
        plan = [(0, dc, ac)]
        scan = token_stream(np.random.default_rng(seed), dc, ac, 8)
        if cut is not None:
            scan = scan[:cut]
        new = outcome(decode_scan, scan, 8, plan)
        ref = outcome(reference_decode_scan, scan, 8, plan)
        assert same_outcome(new, ref), (new, ref)


class TestErrorPositions:
    """``decode_scan`` judges an error where the bit reader meets it."""

    @pytest.mark.parametrize("dc_cat", range(8))
    def test_run_overflow_with_its_magnitude_past_the_data(self, dc_cat):
        # coefficients 1..62, then run 1 / size 5 (11-bit code, a token
        # of 16 bits) with no magnitude bits behind it: the reference
        # stops at the code's end, before it would read past the data
        writer = BitWriter()
        writer.write_bits(*STD_DC_LUMA.encode(dc_cat))
        writer.write_bits(0, dc_cat)
        for _ in range(62):
            writer.write_bits(*STD_AC_LUMA.encode(0x01))
            writer.write_bits(1, 1)
        writer.write_bits(*STD_AC_LUMA.encode(0x15))
        pad = -writer.bit_length % 8
        writer.flush()
        plan = [(0, *LUMA)]
        for decode in (reference_decode_scan, decode_scan):
            with pytest.raises(ValueError, match="overflows"):
                decode(writer.getvalue(), 1, plan)
        if pad < 5:
            with pytest.raises(EOFError):  # the magnitude is not there
                BitReader(writer.getvalue()).read_bits(
                    writer.bit_length - pad + 5
                )

    @pytest.mark.parametrize("scan, error", [
        (bytes([0b00_01_1_111]), EOFError),  # 3 bits left: runs dry
        (bytes([0b00_01_1_111]) + b"\xff\x00" * 2, ValueError),  # 19 left
    ])
    def test_an_unmatched_window_near_the_end(self, scan, error):
        # DC "00", AC "01" + magnitude "1", then ones: no AC code
        # starts with 1
        short = HuffmanTable([0, 2] + [0] * 14, [0x00, 0x01])
        plan = [(0, STD_DC_LUMA, short)]
        for decode in (reference_decode_scan, decode_scan):
            with pytest.raises(error):
                decode(scan, 1, plan)


def test_token_tables_are_small_and_untracked():
    """Four fresh tables (equal lengths to Annex K, two symbols of one
    length swapped so no cache holds them) add few objects for the
    collector to walk and stay under 2 MiB, for the decoder and for the
    encoder.  One tuple per window (65 536 each) would be ~20 MiB; a
    Python loop over an AC table's 32 768 values would take > 20 ms.
    Equal tables share their token tables."""
    def fresh(table, a, b):
        values = list(table.values)
        i, j = values.index(a), values.index(b)
        assert table.encode(a)[1] == table.encode(b)[1]
        values[i], values[j] = values[j], values[i]
        return HuffmanTable(table.bits, values)

    gc.collect()
    before = len(gc.get_objects())
    dc_y, dc_c = fresh(STD_DC_LUMA, 1, 2), fresh(STD_DC_CHROMA, 1, 2)
    ac_y = fresh(STD_AC_LUMA, 0x01, 0x02)
    ac_c = fresh(STD_AC_CHROMA, 0x03, 0x11)
    started = time.perf_counter()
    ac_y.ac_value_tokens()
    assert time.perf_counter() - started < 0.02
    zz = np.zeros((1, 2, 64), dtype=np.int64)
    zz[0, :, :3] = [[5, 1, -2], [-3, 2, 1]]
    plan = [(0, dc_y, ac_y), (1, dc_c, ac_c)]
    scan = encode_mcus(zz, plan)
    assert np.array_equal(decode_scan(scan, 1, plan), zz)
    gc.collect()
    assert len(gc.get_objects()) - before < 200

    tables = [dc_y.dc_tokens(), dc_c.dc_tokens(), ac_y.ac_tokens(),
              ac_c.ac_tokens()]
    size = 0
    for ids, tokens in tables:
        assert len(ids) == 1 << 16
        size += ids.itemsize * len(ids) + sys.getsizeof(tokens)
        size += sum(sys.getsizeof(token) for token in tokens)
    assert size < 2 << 20

    scan_tables = huffman._scan_tables(tuple(plan))
    encoder = [dc_y.dc_value_tokens(), dc_c.dc_value_tokens(),
               ac_y.ac_value_tokens()[0], ac_c.ac_value_tokens()[0],
               *vars(scan_tables).values()]
    assert sum(table.nbytes for table in encoder) < 2 << 20

    twin = fresh(STD_AC_LUMA, 0x01, 0x02)
    assert twin is not ac_y
    assert twin.ac_value_tokens()[0] is ac_y.ac_value_tokens()[0]
    assert (fresh(STD_DC_LUMA, 1, 2).dc_value_tokens()
            is dc_y.dc_value_tokens())


# ----------------------------------------------------------------------
# (iii) fuzz: damaged files through both decoders
# ----------------------------------------------------------------------
def _valid_jpegs():
    frames = synthetic_sequence(2, 64, 48, seed=11)
    return [encode_jpeg(frames[0], 50), encode_jpeg(frames[1], 92)]


VALID = _valid_jpegs()


@st.composite
def damaged_jpegs(draw):
    data = draw(st.sampled_from(VALID))
    # damage lands in the headers about as often as in the scan
    sos = data.index(b"\xff\xda")
    at = draw(st.one_of(st.integers(0, sos + 14),
                        st.integers(0, len(data) - 1)))
    how = draw(st.sampled_from(["truncate", "flip", "eoi", "rst"]))
    if how == "truncate":
        return data[:at]
    if how == "flip":
        byte = draw(st.integers(0, 255))
        return data[:at] + bytes([byte]) + data[at + 1:]
    return data[:at] + (b"\xff\xd9" if how == "eoi" else b"\xff\xd0") + data[at:]


def _keep_for_ci(name, data):
    """Leave the offending file where the CI job uploads artifacts from
    (each shrink step overwrites it, so the minimal example stays)."""
    out_dir = os.environ.get("CHAOS_REPRO_DIR")
    if out_dir:
        path = pathlib.Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"entropy-fuzz-{name}.jpg").write_bytes(data)


class TestFuzz:
    def _grids(self, data):
        dec = decode_to_coefficients(data)
        return np.concatenate([g.ravel() for g in dec.grids])

    @PROPERTY
    @given(damaged_jpegs())
    def test_both_decoders_agree_on_damaged_files(self, data):
        try:
            new = outcome(self._grids, data)
            with mock.patch.object(jpeg, "decode_scan", reference_decode_scan):
                ref = outcome(self._grids, data)
            assert same_outcome(new, ref), (new, ref)
        except Exception:  # a third exception type fails here too
            _keep_for_ci("damaged", data)
            raise

    def test_the_undamaged_files_decode_alike(self):
        for data in VALID:
            new = outcome(self._grids, data)
            with mock.patch.object(jpeg, "decode_scan", reference_decode_scan):
                ref = outcome(self._grids, data)
            assert new[0] == "ok" and same_outcome(new, ref)

    def test_non_prefix_dht_is_a_value_error(self):
        data = bytearray(VALID[0])
        dht = data.index(b"\xff\xc4")
        data[dht + 5] = 3  # BITS[0]: three codes of length 1
        with pytest.raises(ValueError):
            decode_to_coefficients(bytes(data))

    def test_scan_naming_a_missing_table_is_a_value_error(self):
        data = bytearray(VALID[0])
        sos = data.index(b"\xff\xda")
        data[sos + 6] = 0x33  # Y: DC table 3, AC table 3
        with pytest.raises(ValueError, match="no DHT"):
            decode_to_coefficients(bytes(data))


# ----------------------------------------------------------------------
# (iv) the signatures the workloads and the ledger call through
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fn, names", [
    (encode_scan, ["yq", "uq", "vq"]),
    (encode_from_quantized,
     ["yq", "uq", "vq", "width", "height", "qy", "qc"]),
    (decode_to_coefficients, ["data"]),
    (encode_block, ["writer", "zz", "prev_dc", "dc_table", "ac_table"]),
    (decode_block, ["reader", "prev_dc", "dc_table", "ac_table"]),
    (encode_mcus, ["zz", "plan"]),
    (decode_scan, ["scan", "mcus", "plan"]),
], ids=lambda x: getattr(x, "__name__", ""))
def test_parameter_names_are_pinned(fn, names):
    assert list(inspect.signature(fn).parameters) == names
