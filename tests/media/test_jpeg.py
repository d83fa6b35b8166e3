"""Unit tests for the JPEG encoder/decoder."""

import numpy as np
import pytest

from repro.media import jpeg
from repro.media.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    encode_mcus,
)
from repro.media.jpeg import (
    blocks_to_plane,
    decode_jpeg,
    decode_to_coefficients,
    encode_from_quantized,
    encode_jpeg,
    pad_plane,
    plane_to_blocks,
    qtables_for_quality,
    quantize_plane,
)
from repro.media.yuv import YUVFrame, psnr, synthetic_sequence
from repro.media.zigzag import zigzag


def frame(w=96, h=64, seed=3):
    return synthetic_sequence(1, w, h, seed)[0]


class TestBlockHelpers:
    def test_plane_blocks_roundtrip(self):
        plane = np.arange(32 * 16).reshape(16, 32)
        blocks = plane_to_blocks(plane)
        assert blocks.shape == (2, 4, 8, 8)
        assert np.array_equal(blocks_to_plane(blocks), plane)

    def test_block_content(self):
        plane = np.arange(16 * 16).reshape(16, 16)
        blocks = plane_to_blocks(plane)
        assert np.array_equal(blocks[0, 1], plane[0:8, 8:16])

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            plane_to_blocks(np.zeros((10, 16)))

    def test_pad_plane_replicates_edges(self):
        plane = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        padded = pad_plane(plane, 8)
        assert padded.shape == (8, 8)
        assert padded[0, 7] == 2
        assert padded[7, 0] == 3
        assert padded[7, 7] == 4

    def test_pad_noop_when_aligned(self):
        plane = np.zeros((16, 16), np.uint8)
        assert pad_plane(plane, 8) is plane


class TestEncode:
    def test_produces_jfif_markers(self):
        data = encode_jpeg(frame())
        assert data[:2] == b"\xff\xd8"  # SOI
        assert data[-2:] == b"\xff\xd9"  # EOI
        assert b"JFIF\x00" in data[:32]

    def test_higher_quality_larger_file(self):
        f = frame()
        sizes = [len(encode_jpeg(f, q)) for q in (20, 50, 80, 95)]
        assert sizes == sorted(sizes)

    def test_quantize_plane_shape(self):
        qy, _ = qtables_for_quality(75)
        q = quantize_plane(frame().y.astype(float), qy)
        assert q.shape == (8, 12, 8, 8)
        assert q.dtype == np.int32

    def test_headers_are_built_once_per_size_and_tables(self):
        f = frame()
        qy, qc = qtables_for_quality(75)
        grids = [quantize_plane(pad_plane(p, m), q) for p, m, q in
                 ((f.y, 16, qy), (f.u, 8, qc), (f.v, 8, qc))]
        # the segments the encoder wrote before its header was cached
        want = b"".join([
            jpeg._marker(jpeg.SOI), jpeg._app0_segment(),
            jpeg._dqt_segment(qy, 0), jpeg._dqt_segment(qc, 1),
            jpeg._sof0_segment(f.width, f.height),
            jpeg._dht_segment(STD_DC_LUMA, 0, 0),
            jpeg._dht_segment(STD_AC_LUMA, 1, 0),
            jpeg._dht_segment(STD_DC_CHROMA, 0, 1),
            jpeg._dht_segment(STD_AC_CHROMA, 1, 1),
            jpeg._sos_segment(),
        ]) + jpeg.encode_scan(*grids) + jpeg._marker(jpeg.EOI)
        hits = jpeg._headers.cache_info().hits
        args = (f.width, f.height, qy, qc)
        assert encode_from_quantized(*grids, *args) == want
        assert encode_from_quantized(*grids, *args) == want
        assert jpeg._headers.cache_info().hits > hits
        # the same values in another dtype are the same tables
        assert encode_from_quantized(
            *grids, f.width, f.height, qy.astype(np.uint8), list(qc)
        ) == want
        # another chroma table: another second DQT, the rest alike
        other = encode_from_quantized(*grids, f.width, f.height, qy, qy)
        assert other[:200] != want[:200] and other[200:] == want[200:]


class TestDecodeRoundTrip:
    def test_psnr_reasonable_at_q75(self):
        f = frame()
        dec = decode_jpeg(encode_jpeg(f, 75))
        assert psnr(dec.frame.y, f.y) > 30.0
        assert psnr(dec.frame.u, f.u) > 30.0
        assert psnr(dec.frame.v, f.v) > 30.0

    def test_quality_improves_psnr(self):
        f = frame()
        scores = [
            psnr(decode_jpeg(encode_jpeg(f, q)).frame.y, f.y)
            for q in (10, 50, 90)
        ]
        assert scores == sorted(scores)

    def test_header_fields_roundtrip(self):
        f = frame()
        dec = decode_jpeg(encode_jpeg(f, 75))
        assert (dec.width, dec.height) == (f.width, f.height)
        assert dec.sampling == ((2, 2), (1, 1), (1, 1))
        qy, qc = qtables_for_quality(75)
        assert np.array_equal(dec.qtables[0], qy)
        assert np.array_equal(dec.qtables[1], qc)

    def test_non_mcu_aligned_dimensions(self):
        """Arbitrary sizes go through pad_plane; decode crops back."""
        y = np.tile(np.arange(60, dtype=np.uint8), (44, 1))
        u = np.full((22, 30), 90, np.uint8)
        v = np.full((22, 30), 160, np.uint8)
        f = YUVFrame(y, u, v)
        dec = decode_jpeg(encode_jpeg(f, 85))
        assert dec.frame.y.shape == (44, 60)
        assert psnr(dec.frame.y, y) > 30.0

    def test_flat_frame_compresses_tightly(self):
        y = np.full((64, 64), 128, np.uint8)
        u = np.full((32, 32), 128, np.uint8)
        v = np.full((32, 32), 128, np.uint8)
        data = encode_jpeg(YUVFrame(y, u, v), 75)
        dec = decode_jpeg(data)
        assert np.array_equal(dec.frame.y, y)
        assert len(data) < 1200  # headers dominate

    def test_gray_extremes_clip_correctly(self):
        y = np.zeros((16, 16), np.uint8)
        y[:8] = 255
        f = YUVFrame(y, np.full((8, 8), 128, np.uint8),
                     np.full((8, 8), 128, np.uint8))
        dec = decode_jpeg(encode_jpeg(f, 95))
        assert dec.frame.y.min() >= 0 and dec.frame.y.max() <= 255
        assert psnr(dec.frame.y, y) > 25.0


class TestDecodeErrors:
    def test_not_a_jpeg(self):
        with pytest.raises(ValueError):
            decode_jpeg(b"\x00\x01\x02")

    def test_truncated_headers(self):
        data = encode_jpeg(frame())
        with pytest.raises(Exception):
            decode_jpeg(data[:20])

    def test_progressive_rejected(self):
        data = bytearray(encode_jpeg(frame()))
        idx = data.find(b"\xff\xc0")
        data[idx + 1] = 0xC2  # pretend SOF2 (progressive)
        with pytest.raises(ValueError):
            decode_jpeg(bytes(data))


def _clean_64x48():
    """A 4:2:0 64x48 file (4 x 3 = 12 MCUs) and its coefficient grids."""
    data = encode_jpeg(frame(64, 48, seed=7), 80)
    return data, decode_to_coefficients(data)


def _same_grids(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.grids, b.grids))


class TestStreamEnd:
    """Header parsing resumes at the marker that ends the scan and stops
    at EOI or at the end of the data."""

    def test_bytes_after_eoi_are_ignored(self):
        data, clean = _clean_64x48()
        assert _same_grids(decode_to_coefficients(data + b"\x00" * 3), clean)

    def test_fill_bytes_before_eoi(self):
        data, clean = _clean_64x48()
        filled = data[:-2] + b"\xff\xff\xff" + data[-2:]
        assert _same_grids(decode_to_coefficients(filled), clean)

    def test_a_missing_eoi_ends_at_the_data(self):
        data, clean = _clean_64x48()
        assert data.endswith(b"\xff\xd9")
        assert _same_grids(decode_to_coefficients(data[:-2]), clean)
        assert _same_grids(decode_to_coefficients(data[:-1]), clean)


class TestRestartInterval:
    """A DRI segment is parsed: intervals that split the scan are named
    as unsupported instead of failing at the first RSTn."""

    PLAN = [(0, STD_DC_LUMA, STD_AC_LUMA)] * 4 + [
        (1, STD_DC_CHROMA, STD_AC_CHROMA),
        (2, STD_DC_CHROMA, STD_AC_CHROMA),
    ]

    @staticmethod
    def _mcus(dec):
        """The grids back in MCU order, zig-zag: Y00 Y01 Y10 Y11 Cb Cr."""
        y, u, v = dec.grids
        cbh, cbw = u.shape[:2]
        n = cbh * cbw
        luma = y.reshape(cbh, 2, cbw, 2, 8, 8).swapaxes(1, 2)
        return zigzag(np.concatenate(
            [luma.reshape(n, 4, 8, 8), u.reshape(n, 1, 8, 8),
             v.reshape(n, 1, 8, 8)],
            axis=1,
        ))

    @staticmethod
    def _with_dri(data, interval, scan=None):
        """``data`` with a DRI segment before SOS (and ``scan`` in place
        of its entropy-coded segment)."""
        sos = data.index(b"\xff\xda")
        head = sos + 2 + int.from_bytes(data[sos + 2 : sos + 4], "big")
        dri = b"\xff\xdd\x00\x04" + interval.to_bytes(2, "big")
        if scan is None:
            scan = data[head:-2]
        return data[:sos] + dri + data[sos:head] + scan + b"\xff\xd9"

    def test_intervals_inside_the_scan_are_a_named_value_error(self):
        data, clean = _clean_64x48()
        zz = self._mcus(clean)
        assert zz.shape == (12, 6, 64)
        whole = encode_mcus(zz, self.PLAN)
        assert data.endswith(whole + b"\xff\xd9")
        # every 4 MCUs the DC predictors reset and RST0, RST1 follow
        scan = (
            encode_mcus(zz[0:4], self.PLAN)
            + b"\xff\xd0" + encode_mcus(zz[4:8], self.PLAN)
            + b"\xff\xd1" + encode_mcus(zz[8:12], self.PLAN)
        )
        with pytest.raises(ValueError, match="restart interval"):
            decode_to_coefficients(self._with_dri(data, 4, scan))

    @pytest.mark.parametrize("interval", [0, 12, 100])
    def test_an_interval_that_does_not_split_the_scan_decodes(self, interval):
        data, clean = _clean_64x48()
        dec = decode_to_coefficients(self._with_dri(data, interval))
        assert _same_grids(dec, clean)
