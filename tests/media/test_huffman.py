"""Unit + property tests for JPEG Huffman coding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.media.bitstream import BitReader, BitWriter
from repro.media.huffman import (
    HuffmanTable,
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    decode_block,
    encode_block,
    magnitude_category,
)


class TestTableConstruction:
    def test_standard_table_sizes(self):
        assert len(STD_DC_LUMA) == 12
        assert len(STD_DC_CHROMA) == 12
        assert len(STD_AC_LUMA) == 162
        assert len(STD_AC_CHROMA) == 162

    def test_codes_are_prefix_free(self):
        for table in (STD_DC_LUMA, STD_AC_LUMA, STD_AC_CHROMA):
            codes = [table.encode(s) for s in table.values]
            as_strings = [format(c, f"0{n}b") for c, n in codes]
            for i, a in enumerate(as_strings):
                for j, b in enumerate(as_strings):
                    if i != j:
                        assert not b.startswith(a)

    def test_symbol_roundtrip_through_bits(self):
        for table in (STD_DC_LUMA, STD_AC_LUMA):
            w = BitWriter(stuffing=False)
            for symbol in table.values:
                w.write_bits(*table.encode(symbol))
            w.flush()
            r = BitReader(w.getvalue(), stuffing=False)
            for symbol in table.values:
                assert table.read_symbol(r) == symbol

    def test_bits_values_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTable(bits=[1] + [0] * 15, values=[1, 2])

    def test_wrong_bits_length_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTable(bits=[0] * 10, values=[])

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            HuffmanTable(bits=[0, 2] + [0] * 14, values=[5, 5])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            STD_DC_LUMA.encode(99)

    def test_non_prefix_code_rejected(self):
        # three codes of length 1 used to be accepted as 0, 1 and 2
        with pytest.raises(ValueError, match="length 1"):
            HuffmanTable([3] + [0] * 15, [0, 1, 2])
        with pytest.raises(ValueError, match="length 3"):
            HuffmanTable([1, 1, 3] + [0] * 13, [0, 1, 2, 3, 4])

    def test_complete_code_accepted(self):
        table = HuffmanTable([1, 1, 2] + [0] * 13, [0, 1, 2, 3])
        assert table.encode(3) == (0b111, 3)

    def test_probe_table_matches_read_symbol(self):
        for table in (STD_DC_CHROMA, STD_AC_LUMA):
            probe = table.probe_table()
            assert len(probe) == 1 << 16
            for symbol in table.values:
                code, length = table.encode(symbol)
                lo = code << (16 - length)
                hi = lo + (1 << (16 - length))
                assert set(probe[lo:hi]) == {(length << 8) | symbol}
            # Annex K codes are not complete: all-ones matches nothing
            assert probe[0xFFFF] == 0

    def test_probe_table_is_shared_between_equal_tables(self):
        twin = HuffmanTable(STD_AC_LUMA.bits, STD_AC_LUMA.values)
        assert twin.probe_table() is STD_AC_LUMA.probe_table()


class TestMagnitude:
    @pytest.mark.parametrize("value,cat", [
        (0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (-3, 2),
        (4, 3), (7, 3), (255, 8), (-255, 8), (1023, 10),
    ])
    def test_categories(self, value, cat):
        assert magnitude_category(value) == cat


class TestBlockCoding:
    def _roundtrip(self, zz, prev_dc=0):
        w = BitWriter(stuffing=True)
        dc = encode_block(w, zz, prev_dc, STD_DC_LUMA, STD_AC_LUMA)
        w.flush()
        r = BitReader(w.getvalue(), stuffing=True)
        decoded, dc2 = decode_block(r, prev_dc, STD_DC_LUMA, STD_AC_LUMA)
        assert dc == dc2
        return decoded

    def test_zero_block(self):
        zz = np.zeros(64, dtype=np.int64)
        assert np.array_equal(self._roundtrip(zz), zz)

    def test_dc_only(self):
        zz = np.zeros(64, dtype=np.int64)
        zz[0] = -37
        assert np.array_equal(self._roundtrip(zz), zz)

    def test_long_zero_runs_use_zrl(self):
        zz = np.zeros(64, dtype=np.int64)
        zz[40] = 3  # 39 zeros -> two ZRL symbols + run
        assert np.array_equal(self._roundtrip(zz), zz)

    def test_trailing_nonzero_no_eob(self):
        zz = np.zeros(64, dtype=np.int64)
        zz[63] = -1
        assert np.array_equal(self._roundtrip(zz), zz)

    def test_dc_prediction_chain(self):
        w = BitWriter(stuffing=True)
        blocks = []
        dc = 0
        rng = np.random.default_rng(7)
        for _ in range(5):
            zz = np.zeros(64, dtype=np.int64)
            zz[0] = int(rng.integers(-200, 200))
            zz[5] = int(rng.integers(-50, 50))
            blocks.append(zz)
            dc = encode_block(w, zz, dc, STD_DC_LUMA, STD_AC_LUMA)
        w.flush()
        r = BitReader(w.getvalue(), stuffing=True)
        dc = 0
        for zz in blocks:
            decoded, dc = decode_block(r, dc, STD_DC_LUMA, STD_AC_LUMA)
            assert np.array_equal(decoded, zz)

    def test_out_of_range_dc_rejected(self):
        zz = np.zeros(64, dtype=np.int64)
        zz[0] = 5000
        w = BitWriter()
        with pytest.raises(ValueError):
            encode_block(w, zz, 0, STD_DC_LUMA, STD_AC_LUMA)

    def test_dc_category_over_16_rejected(self):
        wide = HuffmanTable([1] + [0] * 15, [17])
        r = BitReader(b"\x00" * 8, stuffing=True)
        with pytest.raises(ValueError, match="DC category 17"):
            decode_block(r, 0, wide, STD_AC_LUMA)

    def test_out_of_range_ac_rejected(self):
        zz = np.zeros(64, dtype=np.int64)
        zz[1] = 2000
        w = BitWriter()
        with pytest.raises(ValueError):
            encode_block(w, zz, 0, STD_DC_LUMA, STD_AC_LUMA)

    @given(hnp.arrays(np.int64, 64, elements=st.integers(-1023, 1023)))
    @settings(max_examples=60)
    def test_roundtrip_random_blocks(self, zz):
        zz[0] = int(np.clip(zz[0], -1500, 1500))
        assert np.array_equal(self._roundtrip(zz.copy()), zz)

    @given(
        hnp.arrays(np.int64, 64, elements=st.integers(-1023, 1023)),
        st.integers(-1000, 1000),
    )
    @settings(max_examples=30)
    def test_roundtrip_with_chroma_tables(self, zz, prev):
        w = BitWriter(stuffing=True)
        dc = encode_block(w, zz, prev, STD_DC_CHROMA, STD_AC_CHROMA)
        w.flush()
        r = BitReader(w.getvalue(), stuffing=True)
        decoded, dc2 = decode_block(r, prev, STD_DC_CHROMA, STD_AC_CHROMA)
        assert np.array_equal(decoded, zz)
        assert dc2 == dc == int(zz[0])
