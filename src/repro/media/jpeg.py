"""Baseline JPEG encoder and decoder (ISO/IEC 10918-1 subset).

The encoder produces interchange-format JFIF files for 4:2:0 YUV input
using the Annex-K quantization and Huffman tables; the decoder parses
everything the encoder emits (and generic baseline 3-component scans),
so every encode is verified by a real decode + PSNR check rather than by
trusting the bit-writer.

The stage split mirrors the paper's MJPEG kernels: block preparation and
DCT/quantization (:func:`quantize_plane`) are what the ``yDCT``/
``uDCT``/``vDCT`` kernels do per macro-block, and the entropy scan
(:func:`encode_scan`, driven from :func:`encode_from_quantized`) is the
``VLC + write`` kernel.  Both directions hand the whole scan to
:mod:`repro.media.huffman` (``encode_mcus`` / ``decode_scan``) as
zig-zag blocks in MCU order; this module only converts between that
order and the raster block grids.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dct import dct2_blocks, idct2_blocks
from .huffman import (
    HuffmanTable,
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    decode_scan,
    encode_mcus,
)
from .quant import (
    STD_CHROMA_QTABLE,
    STD_LUMA_QTABLE,
    dequantize,
    quantize,
    scale_qtable,
)
from .yuv import YUVFrame
from .zigzag import inverse_zigzag, zigzag

__all__ = [
    "encode_jpeg",
    "decode_jpeg",
    "decode_to_coefficients",
    "reconstruct_plane",
    "encode_from_quantized",
    "quantize_plane",
    "pad_plane",
    "plane_to_blocks",
    "blocks_to_plane",
    "qtables_for_quality",
    "DecodedJPEG",
    "DecodedCoefficients",
]

# Marker bytes
SOI = 0xD8
EOI = 0xD9
SOF0 = 0xC0
DHT = 0xC4
DQT = 0xDB
SOS = 0xDA
DRI = 0xDD
APP0 = 0xE0
COM = 0xFE

#: The end of an entropy-coded segment: its first marker other than a
#: stuffed 0xFF (``FF 00``) or RST0-7.
_SCAN_END = re.compile(rb"\xff[^\x00\xd0-\xd7]")


# ----------------------------------------------------------------------
# Block helpers
# ----------------------------------------------------------------------
def pad_plane(plane: np.ndarray, multiple: int) -> np.ndarray:
    """Edge-replicate ``plane`` so both dimensions are multiples of
    ``multiple`` (JPEG pads partial blocks; replication minimizes ringing
    at the padded border)."""
    h, w = plane.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if not ph and not pw:
        return plane
    return np.pad(plane, ((0, ph), (0, pw)), mode="edge")


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Tile an (H, W) plane (H, W multiples of 8) into (H/8, W/8, 8, 8)."""
    h, w = plane.shape
    if h % 8 or w % 8:
        raise ValueError(f"plane {plane.shape} not a multiple of 8")
    return (
        plane.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2)
    )


def blocks_to_plane(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`plane_to_blocks`."""
    bh, bw = blocks.shape[:2]
    return blocks.swapaxes(1, 2).reshape(bh * 8, bw * 8)


def quantize_plane(
    plane: np.ndarray, qtable: np.ndarray, method: str = "matrix"
) -> np.ndarray:
    """Level-shift, DCT and quantize a plane; returns an int32 block grid
    (H/8, W/8, 8, 8).  This is exactly the per-macro-block work of the
    paper's DCT kernels."""
    blocks = plane_to_blocks(
        np.asarray(plane, dtype=np.float64) - 128.0
    )
    coeffs = dct2_blocks(blocks, method=method)
    return quantize(coeffs, qtable)


def qtables_for_quality(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """(luma, chroma) quantization tables at a libjpeg-style quality."""
    return (
        scale_qtable(STD_LUMA_QTABLE, quality),
        scale_qtable(STD_CHROMA_QTABLE, quality),
    )


# ----------------------------------------------------------------------
# Header emission
# ----------------------------------------------------------------------
def _marker(code: int, payload: bytes = b"") -> bytes:
    if payload:
        return struct.pack(">BBH", 0xFF, code, len(payload) + 2) + payload
    return struct.pack(">BB", 0xFF, code)


def _dqt_segment(table: np.ndarray, table_id: int) -> bytes:
    zz = zigzag(np.asarray(table, dtype=np.int64)).astype(np.uint8)
    return _marker(DQT, bytes([table_id]) + zz.tobytes())


def _dht_segment(table: HuffmanTable, table_class: int, table_id: int) -> bytes:
    payload = bytes([(table_class << 4) | table_id])
    payload += bytes(table.bits)
    payload += bytes(table.values)
    return _marker(DHT, payload)


def _sof0_segment(width: int, height: int) -> bytes:
    payload = struct.pack(">BHHB", 8, height, width, 3)
    payload += bytes([1, 0x22, 0])  # Y: 2x2 sampling, qtable 0
    payload += bytes([2, 0x11, 1])  # Cb: 1x1, qtable 1
    payload += bytes([3, 0x11, 1])  # Cr: 1x1, qtable 1
    return _marker(SOF0, payload)


def _sos_segment() -> bytes:
    payload = bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])
    return _marker(SOS, payload)


def _app0_segment() -> bytes:
    return _marker(
        APP0, b"JFIF\x00" + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1)
        + bytes([0, 0])
    )


# ----------------------------------------------------------------------
# Scan encoding
# ----------------------------------------------------------------------
#: One 4:2:0 MCU: four luma blocks, then Cb, then Cr.
_PLAN_420 = (
    [(0, STD_DC_LUMA, STD_AC_LUMA)] * 4
    + [(1, STD_DC_CHROMA, STD_AC_CHROMA), (2, STD_DC_CHROMA, STD_AC_CHROMA)]
)


def _grid_values(grid: np.ndarray) -> tuple[np.ndarray, bool]:
    """A block grid's coefficients as one flat array, and whether they
    are in raster order: a grid is read without a copy when it is
    C-contiguous (block by block) or a :func:`plane_to_blocks` view of a
    C-contiguous plane (row by row)."""
    if not grid.flags.c_contiguous:
        plane = grid.swapaxes(1, 2)
        if plane.flags.c_contiguous:
            return plane.reshape(-1), True
    return np.ascontiguousarray(grid).reshape(-1), False


@lru_cache(maxsize=8)
def _mcu_order(
    luma: tuple[int, int], chroma: tuple[int, int], raster: tuple[bool, ...]
) -> np.ndarray:
    """Where each coefficient of the 4:2:0 MCU stream — ``(mcus, 6, 64)``,
    Y00 Y01 Y10 Y11 Cb Cr, zig-zag — sits in the three grids' values laid
    end to end (:func:`_grid_values`, ``raster`` per grid)."""
    grids = []
    first = 0
    for (bh, bw), rows in zip((luma, chroma, chroma), raster):
        ids = np.arange(first, first + bh * bw * 64)
        grids.append(
            ids.reshape(bh, 8, bw, 8).swapaxes(1, 2) if rows
            else ids.reshape(bh, bw, 8, 8)
        )
        first += ids.size
    yq, uq, vq = grids
    cbh, cbw = chroma
    mcus = cbh * cbw
    blocks = np.concatenate(
        [
            yq.reshape(cbh, 2, cbw, 2, 8, 8).swapaxes(1, 2).reshape(
                mcus, 4, 8, 8
            ),
            uq.reshape(mcus, 1, 8, 8),
            vq.reshape(mcus, 1, 8, 8),
        ],
        axis=1,
    )
    return zigzag(blocks)


def encode_scan(
    yq: np.ndarray, uq: np.ndarray, vq: np.ndarray
) -> bytes:
    """Entropy-encode quantized block grids as one interleaved 4:2:0
    baseline scan.  ``yq`` is (BH, BW, 8, 8) with BH, BW even; chroma
    grids are (BH/2, BW/2, 8, 8).  The grids reach MCU order in one
    gather through an index cached per grid geometry."""
    grids = [np.asarray(g) for g in (yq, uq, vq)]
    if any(g.ndim != 4 or g.shape[2:] != (8, 8) for g in grids):
        raise ValueError("block grids must be (rows, columns, 8, 8)")
    ybh, ybw = grids[0].shape[:2]
    if ybh % 2 or ybw % 2:
        raise ValueError(
            f"luma block grid {ybh}x{ybw} must be even for 4:2:0 MCUs"
        )
    chroma = grids[1].shape[:2]
    if chroma != (ybh // 2, ybw // 2) or grids[2].shape[:2] != chroma:
        raise ValueError("chroma block grids must be half the luma grid")
    values, raster = zip(*map(_grid_values, grids))
    index = _mcu_order((ybh, ybw), chroma, raster)
    values = np.concatenate(values)
    zz = np.empty(index.shape, dtype=values.dtype)
    # the index is in range by construction: "wrap" only spares the
    # buffered bounds check a raising take makes into ``out``
    np.take(values, index, out=zz, mode="wrap")
    return encode_mcus(zz, _PLAN_420)


@lru_cache(maxsize=16)
def _headers(
    width: int, height: int, qy: tuple, qc: tuple
) -> bytes:
    """SOI through SOS for :func:`encode_from_quantized`; ``qy`` / ``qc``
    are ``(shape, int64 bytes)`` of the quantization tables."""
    qy, qc = (
        np.frombuffer(data, dtype=np.int64).reshape(shape)
        for shape, data in (qy, qc)
    )
    return b"".join([
        _marker(SOI),
        _app0_segment(),
        _dqt_segment(qy, 0),
        _dqt_segment(qc, 1),
        _sof0_segment(width, height),
        _dht_segment(STD_DC_LUMA, 0, 0),
        _dht_segment(STD_AC_LUMA, 1, 0),
        _dht_segment(STD_DC_CHROMA, 0, 1),
        _dht_segment(STD_AC_CHROMA, 1, 1),
        _sos_segment(),
    ])


def _table_key(table: np.ndarray) -> tuple:
    table = np.asarray(table, dtype=np.int64)
    return table.shape, table.tobytes()


def encode_from_quantized(
    yq: np.ndarray,
    uq: np.ndarray,
    vq: np.ndarray,
    width: int,
    height: int,
    qy: np.ndarray,
    qc: np.ndarray,
) -> bytes:
    """Assemble a complete JFIF file from already-quantized block grids
    (the ``VLC + write`` kernel's job in the P2G pipeline).  The headers
    are built once per size and pair of tables."""
    head = _headers(width, height, _table_key(qy), _table_key(qc))
    return head + encode_scan(yq, uq, vq) + _marker(EOI)


def encode_jpeg(
    frame: YUVFrame, quality: int = 75, method: str = "matrix"
) -> bytes:
    """Encode one YUV 4:2:0 frame to a baseline JFIF byte string."""
    qy, qc = qtables_for_quality(quality)
    ypad = pad_plane(frame.y, 16)
    upad = pad_plane(frame.u, 8)
    vpad = pad_plane(frame.v, 8)
    yq = quantize_plane(ypad, qy, method)
    uq = quantize_plane(upad, qc, method)
    vq = quantize_plane(vpad, qc, method)
    return encode_from_quantized(
        yq, uq, vq, frame.width, frame.height, qy, qc
    )


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------
@dataclass
class _Component:
    comp_id: int
    h: int
    v: int
    qtable_id: int
    dc_table_id: int = 0
    ac_table_id: int = 0


@dataclass
class DecodedJPEG:
    """Decoder output: reconstructed frame plus the parsed tables (used
    by the tests to confirm header round-trips)."""

    frame: YUVFrame
    qtables: dict[int, np.ndarray]
    width: int
    height: int
    sampling: tuple[tuple[int, int], ...]


@dataclass
class DecodedCoefficients:
    """Entropy-decode output *before* dequantization/IDCT: quantized
    coefficient block grids per component, plus the tables needed to
    finish reconstruction.  This is the hand-off point between the P2G
    MJPEG decoder's serial VLD kernel and its data-parallel IDCT
    kernels."""

    grids: list[np.ndarray]  #: per component: (BH, BW, 8, 8) int64
    qtables: dict[int, np.ndarray]
    qtable_ids: tuple[int, ...]  #: per component
    width: int
    height: int
    sampling: tuple[tuple[int, int], ...]

    def component_size(self, index: int) -> tuple[int, int]:
        """(height, width) of a component's visible pixels."""
        hmax = max(h for h, _v in self.sampling)
        vmax = max(v for _h, v in self.sampling)
        h, v = self.sampling[index]
        return (
            math.ceil(self.height * v / vmax),
            math.ceil(self.width * h / hmax),
        )


def decode_to_coefficients(data: bytes) -> DecodedCoefficients:
    """Parse headers and entropy-decode a baseline, 3-component,
    interleaved-scan JFIF file to quantized coefficient grids.

    Supports the encoder's 4:2:0 output and, generically, any baseline
    sampling whose chroma planes subsample both directions equally.
    Parsing stops at EOI or at the end of the data, so bytes after EOI
    and a missing EOI are both accepted.  Restart intervals are not
    supported: a DRI interval that splits the scan is a ``ValueError``.
    """
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], HuffmanTable] = {}
    comps: list[_Component] = []
    width = height = 0
    restart = 0
    scan_data = b""
    while pos < len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"expected marker at offset {pos}")
        pos += 1
        while pos < len(data) and data[pos] == 0xFF:
            pos += 1  # fill bytes before a marker (B.1.1.2)
        if pos == len(data):
            raise ValueError("truncated marker")
        code = data[pos]
        pos += 1
        if code == EOI:
            break
        if code in (SOI,) or 0xD0 <= code <= 0xD7:
            continue  # parameterless markers
        seg_len = int.from_bytes(data[pos : pos + 2], "big")
        if seg_len < 2 or pos + seg_len > len(data):
            raise ValueError(f"truncated segment at offset {pos}")
        payload = data[pos + 2 : pos + seg_len]
        pos += seg_len
        if code == DQT:
            off = 0
            while off < len(payload):
                pq_tq = payload[off]
                if pq_tq >> 4:
                    raise ValueError("16-bit quant tables not baseline")
                if len(payload) - off < 65:
                    raise ValueError("truncated DQT segment")
                zz = np.frombuffer(
                    payload[off + 1 : off + 65], dtype=np.uint8
                ).astype(np.int64)
                qtables[pq_tq & 0x0F] = inverse_zigzag(zz).astype(np.int32)
                off += 65
        elif code == DHT:
            off = 0
            while off < len(payload):
                tc_th = payload[off]
                bits = list(payload[off + 1 : off + 17])
                n = sum(bits)
                values = list(payload[off + 17 : off + 17 + n])
                htables[(tc_th >> 4, tc_th & 0x0F)] = HuffmanTable(
                    bits, values
                )
                off += 17 + n
        elif code == SOF0:
            if len(payload) != 15:
                raise ValueError("only 8-bit 3-component baseline supported")
            precision, height, width, ncomp = struct.unpack(
                ">BHHB", payload[:6]
            )
            if precision != 8 or ncomp != 3:
                raise ValueError("only 8-bit 3-component baseline supported")
            comps = []
            for i in range(ncomp):
                cid, hv, tq = payload[6 + 3 * i : 9 + 3 * i]
                comps.append(_Component(cid, hv >> 4, hv & 0x0F, tq))
            if len({c.comp_id for c in comps}) != ncomp or not all(
                1 <= c.h <= 4 and 1 <= c.v <= 4 for c in comps
            ):
                raise ValueError("invalid component id or sampling factor")
        elif code == DRI:
            if len(payload) != 2:
                raise ValueError("truncated DRI segment")
            restart = int.from_bytes(payload, "big")
        elif code in (0xC1, 0xC2, 0xC3):
            raise ValueError("non-baseline SOF not supported")
        elif code == SOS:
            ns = payload[0] if payload else 0
            if len(payload) != 4 + 2 * ns:
                raise ValueError("truncated SOS segment")
            for i in range(ns):
                cid = payload[1 + 2 * i]
                tdta = payload[2 + 2 * i]
                for comp in comps:
                    if comp.comp_id == cid:
                        comp.dc_table_id = tdta >> 4
                        comp.ac_table_id = tdta & 0x0F
            # entropy data runs until the next marker that is not RSTn
            # (EOI here), or to the end of a file that lacks it
            end = _SCAN_END.search(data, pos)
            end = end.start() if end else len(data)
            scan_data = data[pos:end]
            pos = end
        # other segments (APP0, COM, ...) are skipped
    if not comps or not scan_data:
        raise ValueError("incomplete JPEG (missing SOF/SOS)")

    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    mcus_x = math.ceil(width / (8 * hmax))
    mcus_y = math.ceil(height / (8 * vmax))
    if 0 < restart < mcus_x * mcus_y:
        raise ValueError(
            f"restart intervals are not supported (DRI every {restart} "
            f"of {mcus_x * mcus_y} MCUs)"
        )
    try:
        plan = [
            (i, htables[(0, c.dc_table_id)], htables[(1, c.ac_table_id)])
            for i, c in enumerate(comps)
            for _ in range(c.h * c.v)
        ]
    except KeyError as exc:
        raise ValueError(
            f"scan selects Huffman table {exc.args[0]} with no DHT"
        ) from None
    zz = decode_scan(scan_data, mcus_x * mcus_y, plan)
    # MCU order -> raster block grid, per component
    grids = []
    first = 0
    for c in comps:
        blocks = zz[:, first : first + c.h * c.v].reshape(
            mcus_y, mcus_x, c.v, c.h, 64
        )
        first += c.h * c.v
        grids.append(
            inverse_zigzag(
                blocks.swapaxes(1, 2).reshape(mcus_y * c.v, mcus_x * c.h, 64)
            )
        )

    return DecodedCoefficients(
        grids=grids,
        qtables=qtables,
        qtable_ids=tuple(c.qtable_id for c in comps),
        width=width,
        height=height,
        sampling=tuple((c.h, c.v) for c in comps),
    )


def reconstruct_plane(
    grid: np.ndarray, qtable: np.ndarray, size: tuple[int, int]
) -> np.ndarray:
    """Dequantize + IDCT + level-shift one coefficient grid and crop to
    the visible ``(height, width)`` — the P2G IDCT kernels' math."""
    coeffs = dequantize(grid, qtable)
    pix = idct2_blocks(coeffs) + 128.0
    plane = blocks_to_plane(np.clip(np.round(pix), 0, 255))
    return plane[: size[0], : size[1]].astype(np.uint8)


def decode_jpeg(data: bytes) -> DecodedJPEG:
    """Fully decode a baseline JFIF file (see
    :func:`decode_to_coefficients` for supported features)."""
    dec = decode_to_coefficients(data)
    planes = [
        reconstruct_plane(
            grid, dec.qtables[dec.qtable_ids[i]], dec.component_size(i)
        )
        for i, grid in enumerate(dec.grids)
    ]
    return DecodedJPEG(
        frame=YUVFrame(planes[0], planes[1], planes[2]),
        qtables=dec.qtables,
        width=dec.width,
        height=dec.height,
        sampling=dec.sampling,
    )
