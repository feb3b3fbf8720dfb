"""Deterministic binary/multi-symbol range coder.

The range coder of G. N. N. Martin ("Range encoding", 1979) in the
carry-in-output form of LZMA: 32-bit ``low`` and ``range`` registers.
Every event narrows the range to a cumulative interval ``[c_lo, c_hi)`` of
2^16, at ``(range * c) >> 16``; a bit under the fixed-point probability p1
of a one is the two-symbol table ``[0, 2^16 - p1)`` / ``[2^16 - p1, 2^16)``.
While ``range < 2^24`` the encoder shifts the top byte of ``low`` out, so
it renormalizes a byte, not a bit, at a time.  A carry out of ``low`` is
added into the bytes already emitted, walking back over their trailing
0xFF run.  ``finish`` writes one byte: the top byte of the multiple of
2^24 inside the final interval.  Each side has one loop for binary events
(``encode_bits`` / ``decode_bits``) and one for the symbols of a
:class:`FrequencyTable` (``encode_symbols`` / ``decode_symbols``), with
the registers in locals; ``encode_bit`` / ``decode_bit`` code one event.
:func:`mask_table` turns a chain of eight binary stages into the table of
an 8-bit child mask.

Streams are not self-delimiting: the container records each payload's byte
length, and the event count is known from the geometry.  The decoder keeps
its code relative to ``low`` and reads payload bytes directly.  A healthy
payload reads exactly 3 zero bytes past its end; at the first read beyond
them the decoder stops, and its ``truncated`` property gives the caller the
verdict.  An empty payload therefore decodes no event.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DecodeError, NumericError

PROB_BITS = 16
PROB_ONE = 1 << PROB_BITS
PROB_MAX = PROB_ONE - 1

_FULL = 1 << 32  # the whole interval [0, 1) in register units
_PAD = 3  # zero bytes past the payload that a healthy decode reads


def quantize_probability(p: float) -> int:
    """Fixed-point probability of bit=1: clamp(round(p * 2^16), 1, 65535)."""
    if not math.isfinite(p):
        raise NumericError(f"probability is not finite: {p}")
    return min(max(int(math.floor(p * PROB_ONE + 0.5)), 1), PROB_MAX)


def quantize_probabilities(p: np.ndarray) -> np.ndarray:
    """Vectorized :func:`quantize_probability`."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise NumericError("probabilities contain non-finite values")
    q = np.floor(p * PROB_ONE + 0.5).astype(np.int64)
    return np.clip(q, 1, PROB_MAX)


def _carry(out: bytearray) -> None:
    """Add one to the bytes already emitted: the 0xFF run at the end turns
    to zeros and the byte before it grows by one.  The coded value stays
    below 1, so the output never consists of 0xFF bytes alone."""
    i = len(out) - 1
    while out[i] == 0xFF:
        out[i] = 0
        i -= 1
    out[i] += 1


# The coding loops write their constants as literals, each one constant
# load where a module name is a dictionary lookup: 0xFFFFFFFF masks
# ``low`` to 32 bits, the range renormalizes while below 0x1000000 (2^24),
# and 16 is PROB_BITS.


class RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _FULL
        self._out = bytearray()
        self._done = False

    def encode_bits(self, p1, bits) -> None:
        """Code ``bits[k]`` under fixed-point probability ``p1[k]`` of bit=1:
        a 0 keeps the cut ``(range * (2^16 - p1)) >> 16`` as its range, a 1
        the rest of the interval above it."""
        cuts = PROB_ONE - np.asarray(p1, dtype=np.int64)
        bits = np.asarray(bits).astype(bool)
        if cuts.shape != bits.shape:
            raise ValueError("need one probability per bit")
        self._encode_bits(cuts.tolist(), bits.tolist())

    def encode_bit(self, p1: int, bit: int) -> None:
        """One-event :meth:`encode_bits`."""
        self._encode_bits((PROB_ONE - p1,), (bit,))

    def _encode_bits(self, cuts, bits) -> None:
        """The loop of :meth:`encode_bits`, on Python ints: a bit under
        cut 2^16 - p1 each."""
        low, rng = self.low, self.range
        out = self._out
        for cut, s in zip(cuts, bits):
            split = (rng * cut) >> 16
            if s:
                low += split
                rng -= split
                if low > 0xFFFFFFFF:
                    low &= 0xFFFFFFFF
                    _carry(out)
            else:
                rng = split
            while rng < 0x1000000:
                out.append(low >> 24)
                low = (low << 8) & 0xFFFFFFFF
                rng <<= 8
        self.low, self.range = low, rng

    def encode_symbols(self, table: "FrequencyTable", symbols) -> None:
        """Code each symbol s as the interval ``[cum[s], cum[s + 1])`` of
        ``table``."""
        s = np.asarray(symbols, dtype=np.int64)
        if s.size and (s.min() < 0 or s.max() >= len(table.freq)):
            raise ValueError("symbol outside the table")
        cum = table.cum.tolist()
        low, rng = self.low, self.range
        out = self._out
        for s in s.tolist():
            lo = (rng * cum[s]) >> 16
            rng = ((rng * cum[s + 1]) >> 16) - lo
            if lo:
                low += lo
                if low > 0xFFFFFFFF:
                    low &= 0xFFFFFFFF
                    _carry(out)
            while rng < 0x1000000:
                out.append(low >> 24)
                low = (low << 8) & 0xFFFFFFFF
                rng <<= 8
        self.low, self.range = low, rng

    def finish(self) -> bytes:
        """Terminate the stream with one byte: the top byte of the multiple
        of 2^24 in ``[low, low + range)``, which exists as range >= 2^24."""
        if self._done:
            raise RuntimeError("finish() called twice")
        self._done = True
        v = -(-self.low >> 24)
        if v > 0xFF:
            v = 0
            _carry(self._out)
        self._out.append(v)
        return bytes(self._out)


class RangeDecoder:
    def __init__(self, data: bytes):
        # The payload, then the 3 zero bytes its last register fill reads.
        self._data = bytes(data) + bytes(_PAD)
        self._pos = 4 if data else len(self._data) + 1
        self.range = _FULL
        # The coded value minus the encoder's low, so 0 <= code < range.
        self.code = int.from_bytes(self._data[:4], "big")

    @property
    def bits_consumed(self) -> int:
        """Source bits read so far, including zero padding past the end.
        A healthy stream reads exactly its 3 padding bytes; decoding stops
        at the first read beyond them, and then this is one bit more."""
        return min(8 * self._pos, 8 * len(self._data) + 1)

    @property
    def truncated(self) -> bool:
        """True once decoding has read past the padding: the stream ended
        before its events did."""
        return self.bits_consumed > 8 * len(self._data)

    def decode_bits(self, p1) -> np.ndarray:
        """Decode one bit per fixed-point probability ``p1[k]`` of bit=1, as
        :meth:`RangeEncoder.encode_bits` coded it; fewer if the stream
        proves truncated."""
        cuts = (PROB_ONE - np.asarray(p1, dtype=np.int64)).tolist()
        return np.frombuffer(self._decode_bits(cuts), dtype=np.uint8).astype(np.int64)

    def decode_bit(self, p1: int) -> int:
        """One-event :meth:`decode_bits`; raises once the stream is truncated."""
        bit = self._decode_bits((PROB_ONE - p1,))
        if not bit:
            raise DecodeError("payload truncated")
        return bit[0]

    def _decode_bits(self, cuts) -> bytearray:
        """The loop of :meth:`decode_bits`, on Python ints; one byte 0 or
        1 per bit."""
        data, pos = self._data, self._pos
        if pos > len(data):
            return bytearray()
        rng, code = self.range, self.code
        out = bytearray(len(cuts))
        done = len(cuts)
        k = 0
        try:
            for k, cut in enumerate(cuts):
                split = (rng * cut) >> 16
                if code < split:
                    rng = split
                else:
                    code -= split
                    rng -= split
                    out[k] = 1
                while rng < 0x1000000:
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
        except IndexError:  # data[pos] past the padding: truncated
            pos = len(data) + 1
            done = k
        self.range, self.code, self._pos = rng, code, pos
        del out[done:]
        return out

    def decode_symbols(self, table: "FrequencyTable", count: int) -> np.ndarray:
        """Decode ``count`` symbols of ``table``, as
        :meth:`RangeEncoder.encode_symbols` coded them; fewer if the stream
        proves truncated."""
        data, pos = self._data, self._pos
        if pos > len(data):
            return np.zeros(0, dtype=np.int64)
        cum, symbol_of = table.cum.tolist(), table.symbol_of
        rng, code = self.range, self.code
        out = [0] * count
        done = count
        k = 0
        try:
            for k in range(count):
                # The largest target t with (rng * t) >> 16 <= code:
                # ((code + 1) * 2^16 - 1) // rng, below 2^16 as code < rng.
                s = symbol_of[(code << 16 | 0xFFFF) // rng]
                lo = (rng * cum[s]) >> 16
                code -= lo
                rng = ((rng * cum[s + 1]) >> 16) - lo
                while rng < 0x1000000:
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
                out[k] = s
        except IndexError:  # data[pos] past the padding: truncated
            pos = len(data) + 1
            done = k
        self.range, self.code, self._pos = rng, code, pos
        return np.array(out[:done], dtype=np.int64)


class FrequencyTable:
    """Integer frequencies of symbols 0..n-1, each at least 1, summing to
    2^16, and their cumulative table ``cum`` (``cum[s]`` is the total below
    symbol s).  The decoder's index from a 16-bit target to its symbol is
    built once per table, on first use."""

    def __init__(self, freq):
        freq = np.asarray(freq, dtype=np.int64)
        if freq.ndim != 1 or not freq.size or freq.min() < 1 or freq.sum() != PROB_ONE:
            raise ValueError("frequencies must be >= 1 and sum to 2^16")
        self.freq = freq
        self.cum = np.concatenate(([0], np.cumsum(freq)))
        self._symbol_of = None

    @property
    def symbol_of(self) -> list:
        """Symbol s at each of the 2^16 targets in ``[cum[s], cum[s + 1])``."""
        if self._symbol_of is None:
            self._symbol_of = np.repeat(np.arange(len(self.freq), dtype=np.uint16),
                                        self.freq).tolist()
        return self._symbol_of

    def ideal_bits(self, symbols) -> float:
        """Cross-entropy of the data under this table, in bits."""
        return float(-np.log2(self.freq[np.asarray(symbols)] / PROB_ONE).sum())


def mask_table(p1) -> FrequencyTable:
    """The table of the 8-bit child masks 1..255, as symbols 0..254, under a
    chain of eight binary stages.

    ``p1[j][r]`` is the fixed-point probability that bit j is set given
    bits 0..j-1 equal to r, for every r < 2^j.  The chain gives mask m the
    integer weight P(m), the product over j of ``p1[j][m & (2^j - 1)]`` or
    2^16 minus it, as bit j of m is set or not.  Mask 0 is left out, and
    the other weights are renormalized to 2^16 with a floor of 1 as in
    :class:`LaplaceTable`; the largest weight takes the remainder.  Only
    Python integers are involved, so every CPU builds the same table.
    """
    weights = [1]
    for j, p in enumerate(p1):
        p = [int(v) for v in p]
        if len(p) != 1 << j:
            raise ValueError(f"stage {j} needs {1 << j} probabilities")
        nxt = weights + weights  # bit j clear in the lower half, set above
        for r, w in enumerate(weights):
            one = w * p[r]
            nxt[r] = w * PROB_ONE - one
            nxt[r + len(weights)] = one
        weights = nxt
    if len(weights) != 256:
        raise ValueError("a mask table needs eight stages")
    weights = weights[1:]
    total = sum(weights)
    budget = PROB_ONE - len(weights)
    freq = [1 + w * budget // total for w in weights]
    freq[weights.index(max(weights))] += PROB_ONE - sum(freq)
    return FrequencyTable(freq)


class LaplaceTable(FrequencyTable):
    """Frequency table for symbols 0..2^bits-1 under a Laplace density.

    The density is integrated over unit bins, renormalized to a total of
    2^16 with a per-symbol floor of 1, so every symbol stays codable even
    in the degenerate b -> 0 case.
    """

    def __init__(self, mu: float, b: float, bits: int):
        if not 1 <= bits <= 16:
            raise ValueError("symbol width must be between 1 and 16 bits")
        n = 1 << bits
        mass = self._bin_masses(float(mu), float(b), n)
        freq = np.ones(n, dtype=np.int64)
        budget = PROB_ONE - n
        if budget > 0:
            freq += np.floor(mass / mass.sum() * budget).astype(np.int64)
            freq[int(np.argmax(mass))] += PROB_ONE - int(freq.sum())
        super().__init__(freq)

    @staticmethod
    def _bin_masses(mu: float, b: float, n: int) -> np.ndarray:
        if not (b > 0) or not math.isfinite(b) or not math.isfinite(mu):
            center = min(max(int(math.floor(mu + 0.5)), 0), n - 1)
            mass = np.zeros(n)
            mass[center] = 1.0
            return mass
        edges = np.arange(n + 1) - 0.5
        half_tail = 0.5 * np.exp(-np.abs(edges - mu) / b)
        cdf = np.where(edges < mu, half_tail, 1.0 - half_tail)
        mass = np.diff(cdf)
        if mass.sum() <= 0:
            return LaplaceTable._bin_masses(mu, 0.0, n)
        return mass
