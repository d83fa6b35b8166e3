"""Bit-level I/O with JPEG byte stuffing.

JPEG entropy-coded segments are written MSB-first; any 0xFF byte in the
coded data must be followed by a stuffed 0x00 so decoders can distinguish
data from markers (ISO/IEC 10918-1, B.1.1.5).
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits MSB-first into a byte string.

    With ``stuffing=True`` (the JPEG entropy segment), every emitted 0xFF
    data byte is followed by 0x00.  :meth:`flush` pads the final partial
    byte with 1-bits, as JPEG requires.
    """

    def __init__(self, stuffing: bool = True) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0
        self._stuffing = stuffing

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low bits of ``value``, MSB first."""
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        if nbits == 0:
            return
        if value < 0 or value >= (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            byte = (self._acc >> self._nbits) & 0xFF
            self._out.append(byte)
            if self._stuffing and byte == 0xFF:
                self._out.append(0x00)
        self._acc &= (1 << self._nbits) - 1

    def flush(self) -> None:
        """Pad to a byte boundary with 1-bits (JPEG convention)."""
        if self._nbits:
            pad = 8 - self._nbits
            self.write_bits((1 << pad) - 1, pad)

    def getvalue(self) -> bytes:
        """The bytes written so far (flush first for a byte boundary)."""
        return bytes(self._out)

    @property
    def bit_length(self) -> int:
        """Total bits written, including the unflushed remainder."""
        return len(self._out) * 8 + self._nbits

    def __len__(self) -> int:
        return len(self._out)


class BitReader:
    """Reads bits MSB-first, transparently removing stuffed 0x00 bytes
    after 0xFF when ``stuffing=True``."""

    def __init__(self, data: bytes, stuffing: bool = True) -> None:
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0
        self._stuffing = stuffing

    def _pull_byte(self) -> int:
        if self._pos >= len(self._data):
            raise EOFError("bitstream exhausted")
        b = self._data[self._pos]
        self._pos += 1
        if self._stuffing and b == 0xFF:
            if self._pos < len(self._data) and self._data[self._pos] == 0x00:
                self._pos += 1  # swallow the stuffed zero
            else:
                # A real marker inside entropy data (e.g. EOI reached via
                # padding); signal end of stream.
                self._pos -= 1
                raise EOFError("marker encountered in entropy data")
        return b

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` bits as an unsigned integer."""
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        while self._nbits < nbits:
            self._acc = (self._acc << 8) | self._pull_byte()
            self._nbits += 8
        self._nbits -= nbits
        value = (self._acc >> self._nbits) & ((1 << nbits) - 1)
        self._acc &= (1 << self._nbits) - 1
        return value

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read_bits(1)

    def bits_remaining(self) -> int:
        """Lower bound (ignores future stuffed bytes)."""
        return self._nbits + 8 * (len(self._data) - self._pos)
