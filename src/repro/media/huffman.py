"""JPEG Huffman entropy coding (ISO/IEC 10918-1, Annex K.3 tables).

Implements canonical Huffman code construction from the (BITS, HUFFVAL)
representation used by the DHT marker, the standard luminance and
chrominance DC/AC tables, and the run-length + magnitude coding of
quantized zig-zag coefficients (the "VLC" in the paper's ``VLC + write``
kernel) at two granularities:

* :func:`encode_mcus` / :func:`decode_scan` code a whole scan — a few
  NumPy passes and one token-table lookup per token on encode, one
  table probe per one or two coefficients on decode.  These are what
  :mod:`repro.media.jpeg` runs.
* :func:`encode_block` / :func:`decode_block` follow the spec's
  per-block procedures over a :class:`BitWriter` / :class:`BitReader`.
  They are the reference the scan routines are tested against; the
  package calls :func:`encode_block` only to name the error of a scan
  :func:`encode_mcus` has found it cannot code.
"""

from __future__ import annotations

import re
from array import array
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bitstream import BitReader, BitWriter

__all__ = [
    "HuffmanTable",
    "STD_DC_LUMA",
    "STD_DC_CHROMA",
    "STD_AC_LUMA",
    "STD_AC_CHROMA",
    "magnitude_category",
    "encode_block",
    "decode_block",
    "encode_mcus",
    "decode_scan",
]


class HuffmanTable:
    """A canonical JPEG Huffman table.

    Parameters
    ----------
    bits:
        16 counts — number of codes of length 1..16 (DHT ``BITS``).
    values:
        Symbols in code order (DHT ``HUFFVAL``).
    """

    def __init__(self, bits: Sequence[int], values: Sequence[int]) -> None:
        bits = list(bits)
        values = list(values)
        if len(bits) != 16:
            raise ValueError(f"BITS must have 16 entries, got {len(bits)}")
        if sum(bits) != len(values):
            raise ValueError(
                f"BITS claims {sum(bits)} codes but {len(values)} values "
                f"were given"
            )
        self.bits = tuple(bits)
        self.values = tuple(values)
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._lists: tuple[list[int], list[int]] | None = None
        # Canonical code assignment (spec C.2): codes of equal length are
        # consecutive; moving to the next length left-shifts.
        self._encode: dict[int, tuple[int, int]] = {}
        code = 0
        k = 0
        #: per length (1-based): (min_code, max_code, first_value_index)
        self._decode: list[tuple[int, int, int] | None] = [None] * 17
        for length in range(1, 17):
            n = bits[length - 1]
            if n:
                self._decode[length] = (code, code + n - 1, k)
                for _ in range(n):
                    symbol = values[k]
                    if not 0 <= symbol <= 255:
                        raise ValueError(f"symbol {symbol} is not a byte")
                    if symbol in self._encode:
                        raise ValueError(f"duplicate symbol {symbol:#x}")
                    self._encode[symbol] = (code, length)
                    code += 1
                    k += 1
                if code > 1 << length:
                    raise ValueError(
                        f"BITS is not a prefix code: {n} codes of length "
                        f"{length} do not fit"
                    )
            code <<= 1

    def encode(self, symbol: int) -> tuple[int, int]:
        """(code, bit length) for ``symbol``."""
        try:
            return self._encode[symbol]
        except KeyError:
            raise ValueError(
                f"symbol {symbol:#x} not in Huffman table"
            ) from None

    def code_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, lengths)`` indexed by symbol value (0..255).

        A zero length marks a symbol absent from the table.  Cached —
        the encoder's token tables (:meth:`ac_value_tokens`) are built
        from it.
        """
        if self._arrays is None:
            codes = np.zeros(256, dtype=np.int64)
            lengths = np.zeros(256, dtype=np.int64)
            for symbol, (code, length) in self._encode.items():
                codes[symbol] = code
                lengths[symbol] = length
            self._arrays = (codes, lengths)
        return self._arrays

    def code_lists(self) -> tuple[list[int], list[int]]:
        """:meth:`code_arrays` as plain lists — O(1) int indexing with
        no per-element NumPy scalar boxing, which is what the block
        encoder's hot loop wants."""
        if self._lists is None:
            codes, lengths = self.code_arrays()
            self._lists = (codes.tolist(), lengths.tolist())
        return self._lists

    def probe_table(self) -> array:
        """65 536 entries of ``(length << 8) | symbol``, indexed by the
        next 16 stream bits; 0 marks a window no code is a prefix of.
        Shared between equal tables (a DHT is re-parsed every frame)."""
        return _probe_table(self.bits, self.values)

    def dc_tokens(self) -> tuple[array, tuple[tuple[int, int], ...]]:
        """The DC *token table*: ``tokens[ids[window]]`` is ``(bits,
        difference)`` for the code and magnitude the 16-bit ``window``
        starts with, or ``(0, entry)`` with the window's
        :meth:`probe_table` entry where they do not fit in it (or no
        code matches).  Shared between equal tables, like
        :meth:`probe_table`.
        """
        return _dc_tokens(self.bits, self.values)

    def ac_tokens(self) -> tuple[array, tuple[tuple[int, ...], ...]]:
        """The AC *token table*: ``tokens[ids[window]]`` is ``(bits, run,
        value, run2, value2, bits1)``.  The window starts with a
        coefficient ``run`` zeros on, its code and magnitude ``bits1``
        bits long; ``run == -1`` is an EOB of ``bits`` bits and ``run ==
        -2`` a window holding no plain token (ZRL, over 16 bits, no
        code), with its :meth:`probe_table` entry as ``value``.
        ``run2`` places what the rest of the window holds: a second
        coefficient ``value2`` at offset ``run2`` from where the first
        one's run starts, or ``65`` for an EOB, ``64`` for neither.
        ``bits`` counts both tokens.

        ``ids`` is an ``array('H')`` over the 65 536 windows and
        ``tokens`` the table's distinct tokens: a few thousand tuples
        rather than one per window.  Shared between equal tables."""
        return _ac_tokens(self.bits, self.values)

    def dc_value_tokens(self) -> np.ndarray:
        """The encoder's DC token table: 4 095 ``uint32`` tokens, the
        one for difference ``d`` at ``d + 2047`` — ``(code << cat |
        magnitude bits) << 5 | length``, 0 where the table lacks the
        difference's category.  Shared between equal tables, like
        :meth:`probe_table`; built on first use."""
        return _dc_value_tokens(self.bits, self.values)

    def ac_value_tokens(self) -> tuple[np.ndarray, int, int]:
        """``(tokens, eob, zrl)``: the encoder's AC token table and the
        EOB and ZRL tokens (0 where the table lacks them).  ``tokens``
        holds 16 rows of 2 048 ``uint32`` tokens: the one for a non-zero
        ``value`` after ``run`` zeros at ``((run + 1) & 15) * 2048 +
        value + 1024``, laid out like :meth:`dc_value_tokens`; 0 for a
        zero value, one beyond ±1023 or a symbol the table lacks.
        Shared between equal tables; built on first use."""
        return _ac_value_tokens(self.bits, self.values)

    def read_symbol(self, reader: BitReader) -> int:
        """Decode one symbol bit by bit (spec F.2.2.3 DECODE procedure)."""
        code = 0
        for length in range(1, 17):
            code = (code << 1) | reader.read_bit()
            rng = self._decode[length]
            if rng is not None and rng[0] <= code <= rng[1]:
                return self.values[rng[2] + (code - rng[0])]
        raise ValueError("invalid Huffman code in stream")

    def __len__(self) -> int:
        return len(self.values)


# ----------------------------------------------------------------------
# Annex K.3 standard tables
# ----------------------------------------------------------------------
STD_DC_LUMA = HuffmanTable(
    bits=[0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    values=list(range(12)),
)

STD_DC_CHROMA = HuffmanTable(
    bits=[0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    values=list(range(12)),
)

STD_AC_LUMA = HuffmanTable(
    bits=[0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    values=[
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)

STD_AC_CHROMA = HuffmanTable(
    bits=[0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    values=[
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)


# ----------------------------------------------------------------------
# Coefficient coding (spec F.1.2 / F.2.2)
# ----------------------------------------------------------------------
def magnitude_category(value: int) -> int:
    """SSSS — number of bits needed for the magnitude of ``value``."""
    return int(abs(int(value))).bit_length()


def _extend(bits: int, category: int) -> int:
    """Magnitude bits back to the signed value (spec EXTEND procedure)."""
    if category == 0:
        return 0
    if bits < (1 << (category - 1)):
        return bits - (1 << category) + 1
    return bits


def encode_block(
    writer: BitWriter,
    zz: np.ndarray,
    prev_dc: int,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
) -> int:
    """Entropy-encode one zig-zag block; returns the block's DC value
    (the caller threads it as the next block's predictor).

    Spec F.1.2 per block — the reference :func:`encode_mcus` is tested
    against.  The block converts to native ints in one batch, symbol
    codes/lengths come from the table's flat lookup lists, and the
    block's bits accumulate into one integer emitted with a single
    ``write_bits`` call.
    """
    zz = np.asarray(zz, dtype=np.int64)
    if zz.shape != (64,):
        raise ValueError(f"expected 64 zig-zag coefficients, got {zz.shape}")
    vals = zz.tolist()
    dc = vals[0]
    diff = dc - prev_dc
    cat = abs(diff).bit_length()
    if cat > 11:
        raise ValueError(f"DC difference {diff} out of baseline range")
    acc, nbits = dc_table.encode(cat)
    if cat:
        acc = (acc << cat) | (
            diff if diff >= 0 else (diff - 1) & ((1 << cat) - 1)
        )
        nbits += cat

    ac_codes, ac_lens = ac_table.code_lists()
    run = 0
    for coef in vals[1:]:
        if coef == 0:
            run += 1
            continue
        while run > 15:
            zrl_code, zrl_len = ac_table.encode(0xF0)  # ZRL: 16 zeros
            acc = (acc << zrl_len) | zrl_code
            nbits += zrl_len
            run -= 16
        cat = (coef if coef >= 0 else -coef).bit_length()
        if cat > 10:
            raise ValueError(
                f"AC coefficient {coef} out of baseline range"
            )
        symbol = (run << 4) | cat
        length = ac_lens[symbol]
        if not length:
            raise ValueError(f"symbol {symbol:#x} not in Huffman table")
        acc = (
            (acc << (length + cat))
            | (ac_codes[symbol] << cat)
            | (coef if coef >= 0 else (coef - 1) & ((1 << cat) - 1))
        )
        nbits += length + cat
        run = 0
    if run:
        code, length = ac_table.encode(0x00)  # EOB
        acc = (acc << length) | code
        nbits += length
    writer.write_bits(acc, nbits)
    return dc


def decode_block(
    reader: BitReader,
    prev_dc: int,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
) -> tuple[np.ndarray, int]:
    """Decode one block; returns (zig-zag coefficients, DC value).

    Spec F.2.2 bit by bit — the reference :func:`decode_scan` is tested
    against."""
    zz = np.zeros(64, dtype=np.int64)
    cat = dc_table.read_symbol(reader)
    if cat > 16:
        raise ValueError(f"DC category {cat} out of range")
    diff = _extend(reader.read_bits(cat), cat) if cat else 0
    dc = prev_dc + diff
    zz[0] = dc
    k = 1
    while k < 64:
        symbol = ac_table.read_symbol(reader)
        if symbol == 0x00:  # EOB
            break
        if symbol == 0xF0:  # ZRL
            k += 16
            continue
        run = symbol >> 4
        cat = symbol & 0x0F
        k += run
        if k >= 64:
            raise ValueError("AC run overflows block")
        zz[k] = _extend(reader.read_bits(cat), cat)
        k += 1
    return zz, dc


# ----------------------------------------------------------------------
# Whole-scan coding
# ----------------------------------------------------------------------
#: A scan's *plan* lists the blocks of one MCU in stream order, each as
#: ``(component, dc_table, ac_table)``; ``component`` selects the DC
#: predictor.
Plan = Sequence[tuple[int, HuffmanTable, HuffmanTable]]

#: EXTEND as two lookups: magnitude bits below ``_HALF[cat]`` stand for
#: the negative ``bits + _NEG[cat]`` (category 0 maps 0 to 0).
_HALF = tuple(0 if c == 0 else 1 << (c - 1) for c in range(17))
_NEG = tuple(1 - (1 << c) for c in range(17))

#: A block reads at most 32 bits of DC and 63 AC symbols of 16 + 15
#: bits; zero-padding the window array by this many bytes lets the
#: decoder check for the end of the data once per block.
_BLOCK_PAD = 256

_MARKER = re.compile(rb"\xff(?!\x00)")


@lru_cache(maxsize=32)
def _probe_table(bits: tuple[int, ...], values: tuple[int, ...]) -> array:
    """:meth:`HuffmanTable.probe_table`."""
    return array("H", _probe_lut(bits, values).tobytes())


def _probe_lut(bits: tuple[int, ...], values: tuple[int, ...]) -> np.ndarray:
    """The probe table as ``uint16`` for a table ``__init__`` has
    validated: every window that starts with a code maps to it."""
    lut = np.zeros(1 << 16, dtype=np.uint16)
    code = k = 0
    for length, n in enumerate(bits, start=1):
        shift = 16 - length
        for _ in range(n):
            lut[code << shift : (code + 1) << shift] = (
                (length << 8) | values[k]
            )
            code += 1
            k += 1
        code <<= 1
    return lut


#: :meth:`HuffmanTable.ac_tokens` ``run`` codes for a first token that
#: is not a coefficient.
_EOB = -1
_PROBE = -2


def _window_tokens(
    lut: np.ndarray, windows: np.ndarray, ac: bool
) -> tuple[np.ndarray, ...]:
    """``(entry, nbits, value, plain)`` of the token each 16-bit window
    starts with: its probe-table entry, code plus magnitude bits, and the
    signed value when ``plain`` (a coefficient or DC difference that fits
    in the window)."""
    entry = lut[windows].astype(np.int32)
    length = entry >> 8
    symbol = entry & 0xFF
    cat = symbol & 0x0F if ac else symbol
    nbits = length + cat
    plain = (length > 0) & (nbits <= 16)
    if ac:
        plain &= (symbol != 0x00) & (symbol != 0xF0)
    cat = np.where(plain, cat, 0)
    mag = (windows >> np.where(plain, 16 - nbits, 0)) & ((1 << cat) - 1)
    value = np.where(mag < (1 << cat) >> 1, mag + 1 - (1 << cat), mag)
    return entry, nbits, value, plain


def _distinct(columns: list[np.ndarray], widths: list[int]) -> tuple:
    """``(ids, tokens)``: the distinct rows of ``columns`` (one value per
    window each) as tuples, and per window its row's index as
    ``array('H')``.  ``widths`` bound each column's bits after it is
    offset to non-negative, for one int64 key per row."""
    key = np.zeros(1 << 16, dtype=np.int64)
    for column, width in zip(columns, widths):
        key = (key << width) | (column + (1 << (width - 1)))
    _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    rows = np.stack([column[first] for column in columns], axis=1)
    return (
        array("H", ids.astype(np.uint16).tobytes()),
        tuple(map(tuple, rows.tolist())),
    )


@lru_cache(maxsize=32)
def _dc_tokens(bits: tuple[int, ...], values: tuple[int, ...]) -> tuple:
    """:meth:`HuffmanTable.dc_tokens`."""
    entry, nbits, value, plain = _window_tokens(
        _probe_lut(bits, values), np.arange(1 << 16, dtype=np.int32), False
    )
    return _distinct(
        [np.where(plain, nbits, 0), np.where(plain, value, entry)], [6, 18]
    )


@lru_cache(maxsize=32)
def _ac_tokens(bits: tuple[int, ...], values: tuple[int, ...]) -> tuple:
    """:meth:`HuffmanTable.ac_tokens`."""
    lut = _probe_lut(bits, values)
    windows = np.arange(1 << 16, dtype=np.int32)
    entry, nbits, value, plain = _window_tokens(lut, windows, True)
    eob = (entry > 0xFF) & ((entry & 0xFF) == 0x00)
    bits1 = np.where(plain, nbits, np.where(eob, entry >> 8, 0))
    run = np.where(plain, (entry >> 4) & 0x0F, np.where(eob, _EOB, _PROBE))
    value1 = np.where(plain, value, np.where(eob, 0, entry))
    # what the rest of the window holds, read as if it started there
    rest = np.where(plain, 16 - nbits, 0)
    entry, nbits, value, plain2 = _window_tokens(
        lut, (windows << (16 - rest)) & 0xFFFF, True
    )
    fits = plain & (entry > 0xFF) & (nbits <= rest)
    plain2 &= fits
    eob = fits & ((entry & 0xFF) == 0x00)
    return _distinct(
        [
            bits1 + np.where(plain2 | eob, nbits, 0),
            run,
            value1,
            np.where(
                plain2, run + 1 + ((entry >> 4) & 0x0F),
                np.where(eob, 65, 64),
            ),
            np.where(plain2, value, 0),
            bits1,
        ],
        [6, 6, 18, 8, 18, 6],
    )


def _bit_windows(data: bytes) -> array:
    """The 16 bits starting at *every* bit offset of ``data`` followed
    by ``_BLOCK_PAD`` zero bytes."""
    padded = np.zeros(len(data) + _BLOCK_PAD + 2, dtype=np.uint32)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    n = len(data) + _BLOCK_PAD
    word = (padded[:n] << 16) | (padded[1 : n + 1] << 8) | padded[2 : n + 2]
    shifts = np.arange(8, 0, -1, dtype=np.uint32)
    # 24 bits from each byte on, shifted to each of its 8 bit offsets;
    # the cast keeps the low 16
    windows = (word[:, None] >> shifts).astype(np.uint16)
    return array("H", windows.tobytes())


#: The encoder's *tokens*: a Huffman code with the value's magnitude bits
#: behind it, as ``uint32`` ``bits << 5 | length`` (at most 16 + 11 = 27
#: bits; 0 marks a symbol the table lacks).  An AC token table has a row
#: of 2 048 = 1 << 11 values (index ``value + 1024``) per ``(run + 1) &
#: 15``: the distance from the block's previous coded entry, mod 16.
_AC_TABLE = 16 * 2048
_DC_TABLE = 2 * 2047 + 1  # index ``difference + 2047``


def _value_tokens(
    table: HuffmanTable, values: np.ndarray, run: np.ndarray | int = 0
) -> np.ndarray:
    """The token of each value after ``run`` zeros: the code of symbol
    ``run << 4 | category``, then the value's magnitude bits."""
    codes, lengths = table.code_arrays()
    cat = np.frexp(np.abs(values))[1]  # SSSS: the bit length of |value|
    symbols = (run << 4) | cat
    low = (values - (values < 0)) & ((1 << cat) - 1)
    length = lengths[symbols]
    tokens = (((codes[symbols] << cat) | low) << 5) | (length + cat)
    return np.where(length > 0, tokens, 0).astype(np.uint32)


@lru_cache(maxsize=32)
def _dc_value_tokens(bits: tuple[int, ...], values: tuple[int, ...]):
    """:meth:`HuffmanTable.dc_value_tokens`."""
    return _value_tokens(HuffmanTable(bits, values), np.arange(-2047, 2048))


@lru_cache(maxsize=32)
def _ac_value_tokens(bits: tuple[int, ...], values: tuple[int, ...]):
    """:meth:`HuffmanTable.ac_value_tokens`."""
    table = HuffmanTable(bits, values)
    value = np.arange(-1024, 1024)
    tokens = _value_tokens(table, value, (np.arange(16)[:, None] - 1) & 15)
    tokens[:, (value == 0) | (value == -1024)] = 0
    eob, zrl = _value_tokens(table, np.zeros(2, dtype=int), np.array([0, 15]))
    return tokens.ravel(), int(eob), int(zrl)


class _ScanTables:
    """What :func:`encode_mcus` looks up for one plan: the token tables
    of its distinct tables back to back, and per plan column where its
    tables start, its EOB and ZRL tokens and where its DC predictor
    sits (as an offset in blocks)."""

    def __init__(self, plan: tuple) -> None:
        dcs = list({id(dc): dc for _c, dc, _ac in plan}.values())
        acs = list({id(ac): ac for _c, _dc, ac in plan}.values())
        self.dc = np.concatenate([t.dc_value_tokens() for t in dcs])
        self.ac = np.concatenate([t.ac_value_tokens()[0] for t in acs])
        self.dc_base = np.array(
            [dcs.index(dc) * _DC_TABLE + 2047 for _c, dc, _ac in plan]
        )
        self.ac_base = np.array(
            [acs.index(ac) * _AC_TABLE + 1024 for _c, _dc, ac in plan]
        )
        eob, zrl = zip(*(ac.ac_value_tokens()[1:] for _c, _dc, ac in plan))
        self.eob = np.array(eob, dtype=np.uint32)
        self.zrl = np.array(zrl, dtype=np.uint32)
        # the previous block of the column's component: earlier in the
        # MCU, or the component's last column one MCU back
        comps = [c for c, _dc, _ac in plan]
        offsets = []
        for j, comp in enumerate(comps):
            same = [i for i, c in enumerate(comps) if c == comp]
            k = same.index(j)
            offsets.append(same[k - 1] - j - (len(plan) if k == 0 else 0))
        self.predecessor = np.array(offsets)


@lru_cache(maxsize=8)
def _scan_tables(plan: tuple) -> _ScanTables:
    return _ScanTables(plan)


def encode_mcus(zz: np.ndarray, plan: Plan) -> bytes:
    """Entropy-encode ``(mcus, len(plan), 64)`` zig-zag blocks as one
    interleaved baseline scan: stuffed, 1-padded to a byte, no markers.

    Byte-identical to threading :func:`encode_block` over the blocks in
    order.  Where that raises — a DC difference beyond ±2047, an AC
    coefficient beyond ±1023, a symbol a table lacks that a block needs —
    this raises the same ``ValueError`` (:func:`_block_error` names it)
    before any bit is produced.  ``zz`` is not modified.

    A few NumPy passes: one ``flatnonzero`` lists every coded entry —
    each block's DC (column 0 is forced in) and its non-zero AC
    coefficients — in stream order, and one gather from the plan's
    token tables (:meth:`HuffmanTable.ac_value_tokens`) reads each
    entry's whole token.  EOBs and ZRLs are *leads*: tokens in front of
    the entry they precede (the next block's DC for an EOB), whose bits
    one cumulative sum counts in.  :func:`_pack` places every token at
    its bit offset.
    """
    zz = np.asarray(zz)
    if zz.dtype != np.int32:  # int32 is what quantize emits
        zz = zz.astype(np.int64, copy=False)
    if zz.ndim != 3 or zz.shape[1:] != (len(plan), 64):
        raise ValueError(
            f"expected (mcus, {len(plan)}, 64) coefficients, got {zz.shape}"
        )
    if not zz.size:
        return b""
    mcus, width = zz.shape[:2]
    tables = _scan_tables(tuple(plan))
    flat = zz.reshape(-1)
    coded = flat != 0
    coded[::64] = True
    pos = np.flatnonzero(coded)  # block << 6 | zig-zag index
    value = flat[pos]
    dc_at = np.flatnonzero((pos & 63) == 0)  # one per block

    dc = np.zeros(dc_at.size + 1, dtype=np.int64)  # [-1]: the first's 0
    dc[:-1] = value[dc_at]
    predecessor = (
        np.arange(dc_at.size).reshape(mcus, width) + tables.predecessor
    )
    predecessor[predecessor < 0] = -1
    diff = dc[:-1] - dc[predecessor.ravel()]
    value[dc_at] = 0
    # an int64 difference can wrap into range only next to a DC value
    # within 2047 of ±2**63: the steps to it from 0 take 2**52 blocks,
    # or one that is out of range and caught here
    if (
        diff.max() > 2047 or diff.min() < -2047
        or value.max() > 1023 or value.min() < -1023
    ):
        raise _block_error(zz, plan)
    step = np.zeros_like(pos)  # the distance to the previous entry
    np.subtract(pos[1:], pos[:-1], out=step[1:])
    step[dc_at] = 0
    index = np.tile(tables.ac_base, mcus)[pos >> 6]
    index += (step & 15) << 11
    index += value
    tokens = tables.ac[index]
    dc_index = diff.reshape(mcus, width) + tables.dc_base
    tokens[dc_at] = tables.dc[dc_index.ravel()]

    # leads: an EOB after every block whose coefficient 63 is zero (in
    # front of the next block's DC, or of the end), (step - 1) >> 4 ZRLs
    # before a coefficient 17 or more on from the previous entry
    n = tokens.size
    eob = np.flatnonzero(flat[63::64] == 0)
    zrl = np.flatnonzero(step > 16)
    at = np.concatenate((np.append(dc_at[1:], n)[eob], zrl))
    count = np.concatenate((np.ones_like(eob), (step[zrl] - 1) >> 4))
    lead = np.concatenate(
        (tables.eob[eob % width], tables.zrl[(pos[zrl] >> 6) % width])
    )
    if not (tokens.all() and lead.all()):
        raise _block_error(zz, plan)

    bits = np.zeros(n + 1, dtype=np.int64)  # [n]: what follows the last
    bits[:n] = tokens & 31
    lead_len = (lead & 31).astype(np.int64)
    bits[at] += count * lead_len
    end = np.cumsum(bits)
    # a lead's ``count`` tokens fill the bits from the previous entry's
    # end to where the entry's own token starts
    start = end[at - 1]
    lead_tokens, lead_ends = [lead], [start + lead_len]
    for j in range(2, int(count.max(initial=1)) + 1):  # further ZRLs
        more = count >= j
        lead_tokens.append(lead[more])
        lead_ends.append(start[more] + j * lead_len[more])
    return _pack(
        np.concatenate([tokens, *lead_tokens]),
        np.concatenate([end[:n], *lead_ends]),
        int(end[-1]),
    )


def _block_error(zz: np.ndarray, plan: Plan) -> ValueError:
    """The ``ValueError`` :func:`encode_block` raises first threading the
    blocks of ``zz`` in stream order — what :func:`encode_mcus` reports
    once its whole-scan checks have found that one does."""
    writer = BitWriter()
    prev: dict[int, int] = {}
    for mcu in zz:
        for block, (comp, dc_table, ac_table) in zip(mcu, plan):
            try:
                prev[comp] = encode_block(
                    writer, block, prev.get(comp, 0), dc_table, ac_table
                )
            except ValueError as exc:
                return exc
    raise AssertionError("encode_block coded every block")


def _pack(tokens: np.ndarray, end: np.ndarray, total: int) -> bytes:
    """``tokens`` placed to end at the bit offsets ``end``, most
    significant bit first; ``total`` bits, 1-padded to a byte, stuffed.

    The stream is cut into 16-bit units.  A token shifted left by the
    free bits behind it in the unit of its last bit spans that unit and
    at most two before it (≤ 27 + 15 = 42 bits), so one float64
    ``bincount`` by that unit sums every unit's tokens exactly: they
    share no bit, so the sum is their OR and stays below 2**42."""
    last = (end - 1) >> 4
    window = (tokens >> 5).astype(np.int64) << (-end & 15)
    units = (total + 15) >> 4
    sums = np.bincount(last, weights=window, minlength=units + 2)
    sums = sums.astype(np.int64)
    # a unit's bits: its own sum's low 16, then the 16 above them in
    # the next unit's, then what lies above bit 32 in the one after
    words = sums[:units] & 0xFFFF
    words |= (sums[1 : units + 1] >> 16) & 0xFFFF
    words |= sums[2 : units + 2] >> 32
    data = words.astype(">u2").view(np.uint8)[: (total + 7) >> 3]
    data[-1] |= (1 << (-total % 8)) - 1
    return data.tobytes().replace(b"\xff", b"\xff\x00")


def _scan_error(end: int, nbits: int, at_marker: bool, why: str) -> Exception:
    """What the bit-by-bit reader raises for a failure whose symbol ends
    at bit ``end``: it runs dry before it can see a bad code."""
    if end <= nbits:
        return ValueError(why)
    return EOFError(
        "marker encountered in entropy data" if at_marker
        else "bitstream exhausted"
    )


def decode_scan(scan: bytes, mcus: int, plan: Plan) -> np.ndarray:
    """Entropy-decode ``mcus`` MCUs of an interleaved baseline scan.

    ``scan`` is the entropy-coded segment as it sits in the file
    (stuffed; it ends at its first marker).  Returns the zig-zag
    coefficients, ``(mcus, len(plan), 64)`` int64.  Raises what the
    per-block :func:`decode_block` loop raises: ``ValueError`` for a
    window no code matches, an AC run past the block or a DC category
    over 16, ``EOFError`` when the blocks need more bits than the scan
    holds.

    One probe of a table's token table (:meth:`HuffmanTable.ac_tokens`)
    reads the one or two tokens a 16-bit window holds; a window holding
    none (ZRL, a token over 16 bits, no code at all) decodes one symbol
    from the probe-table entry its token carries.
    """
    marker = _MARKER.search(scan)
    if marker:
        scan = scan[: marker.start()]
    data = scan.replace(b"\xff\x00", b"\xff")
    nbits = 8 * len(data)
    at_marker = marker is not None
    win = _bit_windows(data)
    luts = [
        (comp, *dc.dc_tokens(), *ac.ac_tokens(), ac)
        for comp, dc, ac in plan
    ]
    prev_dc = [0] * (1 + max(comp for comp, _dc, _ac in plan))
    half, neg = _HALF, _NEG
    out = array("q", [0]) * (64 * mcus * len(plan))
    pos = 0
    base = 0
    for _ in range(mcus):
        for comp, dc_ids, dc_tok, ac_ids, ac_tok, ac in luts:
            n, diff = dc_tok[dc_ids[win[pos]]]
            if n:
                pos += n
            else:
                entry = diff
                if not entry:
                    raise _scan_error(
                        pos + 16, nbits, at_marker,
                        "invalid Huffman code in stream",
                    )
                pos += entry >> 8
                cat = entry & 0xFF
                if cat > 16:
                    raise _scan_error(
                        pos, nbits, at_marker,
                        f"DC category {cat} out of range",
                    )
                bits = win[pos] >> (16 - cat)
                pos += cat
                diff = bits if bits >= half[cat] else bits + neg[cat]
            dc = prev_dc[comp] + diff
            prev_dc[comp] = dc
            out[base] = dc
            k = base + 1
            last = base + 63
            while k <= last:
                n, run, value, run2, value2, n1 = ac_tok[ac_ids[win[pos]]]
                j = k + run2
                if j <= last:  # two coefficients, both in the block
                    out[k + run] = value
                    out[j] = value2
                    k = j + 1
                    pos += n
                elif run >= 0:
                    k += run
                    if k > last:
                        raise _scan_error(
                            pos + (ac.probe_table()[win[pos]] >> 8), nbits,
                            at_marker, "AC run overflows block",
                        )
                    out[k] = value
                    k += 1
                    # an EOB behind it ends the block unless the value
                    # took coefficient 63: then the next DC starts here
                    if run2 > 64 and k <= last:
                        pos += n
                        break
                    pos += n1
                elif run == _EOB:
                    pos += n
                    break
                else:
                    entry = value
                    if not entry:
                        raise _scan_error(
                            pos + 16, nbits, at_marker,
                            "invalid Huffman code in stream",
                        )
                    pos += entry >> 8
                    symbol = entry & 0xFF
                    if symbol == 0xF0:  # ZRL
                        k += 16
                        continue
                    k += symbol >> 4
                    if k > last:
                        raise _scan_error(
                            pos, nbits, at_marker, "AC run overflows block"
                        )
                    cat = symbol & 0x0F
                    bits = win[pos] >> (16 - cat)
                    pos += cat
                    out[k] = bits if bits >= half[cat] else bits + neg[cat]
                    k += 1
            if pos > nbits:
                raise _scan_error(pos, nbits, at_marker, "")
            base += 64
    return np.frombuffer(out, dtype=np.int64).reshape(mcus, len(plan), 64)
