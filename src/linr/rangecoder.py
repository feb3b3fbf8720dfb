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
2^24 inside the final interval.  Each side is one loop (``_encode``,
``_decode``) with its registers in locals, behind the batch calls
``encode_bits`` / ``decode_bits`` and ``encode_symbols`` /
``decode_symbols`` and the one-event ``encode_bit`` / ``decode_bit``.

Streams are not self-delimiting: the container records each payload's byte
length, and the event count is known from the geometry.  The decoder keeps
its code relative to ``low`` and reads payload bytes directly.  A healthy
payload reads exactly 3 zero bytes past its end; at the first read beyond
them the decoder stops, and its ``truncated`` property gives the caller the
verdict.  An empty payload therefore decodes no event.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DecodeError, NumericError

PROB_BITS = 16
PROB_ONE = 1 << PROB_BITS
PROB_MAX = PROB_ONE - 1

_FULL = 1 << 32  # the whole interval [0, 1) in register units
_MASK = _FULL - 1
_TOP = 1 << 24  # renormalize while range is below this
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


class RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _FULL
        self._out = bytearray()
        self._done = False

    def _encode(self, events, cum=None) -> None:
        """Code each ``(cut, symbol)``: a bit under cut 2^16 - p1, or with
        cut ``None`` a symbol of the table ``cum``."""
        low, rng = self.low, self.range
        out = self._out
        for cut, s in events:
            if cut is None:
                lo = (rng * cum[s]) >> PROB_BITS
                low += lo
                rng = ((rng * cum[s + 1]) >> PROB_BITS) - lo
            else:
                split = (rng * cut) >> PROB_BITS
                if s:
                    low += split
                    rng -= split
                else:
                    rng = split
            if low > _MASK:
                low &= _MASK
                _carry(out)
            while rng < _TOP:
                out.append(low >> 24)
                low = (low << 8) & _MASK
                rng <<= 8
        self.low, self.range = low, rng

    def encode_bits(self, p1, bits) -> None:
        """Code ``bits[k]`` under fixed-point probability ``p1[k]`` of bit=1."""
        cuts = PROB_ONE - np.asarray(p1, dtype=np.int64)
        bits = np.asarray(bits).astype(bool)
        if cuts.shape != bits.shape:
            raise ValueError("need one probability per bit")
        self._encode(zip(cuts.tolist(), bits.tolist()))

    def encode_bit(self, p1: int, bit: int) -> None:
        """One-event :meth:`encode_bits`."""
        self._encode(((PROB_ONE - p1, bit),))

    def encode_symbols(self, cum, symbols) -> None:
        """Code symbols under a cumulative table with cum[-1] == 2^16."""
        cum = np.asarray(cum, dtype=np.int64)
        s = np.asarray(symbols, dtype=np.int64)
        if s.size and (s.min() < 0 or s.max() >= len(cum) - 1):
            raise ValueError("symbol outside the table")
        self._encode(zip(itertools.repeat(None), s.tolist()), cum.tolist())

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

    def _decode(self, cuts, cum=None, symbol_of=None) -> list:
        """Decode one event per cut, as :meth:`RangeEncoder._encode` coded
        it; a table symbol is ``symbol_of[target]``.  Returns the symbols,
        cut short if the stream proves truncated."""
        data, pos = self._data, self._pos
        if pos > len(data):
            return []
        rng, code = self.range, self.code
        out = []
        try:
            for cut in cuts:
                if cut is None:
                    # 0 <= code < rng holds, so 0 <= target < 2^16.
                    s = symbol_of[(((code + 1) << PROB_BITS) - 1) // rng]
                    lo = (rng * cum[s]) >> PROB_BITS
                    code -= lo
                    rng = ((rng * cum[s + 1]) >> PROB_BITS) - lo
                else:
                    split = (rng * cut) >> PROB_BITS
                    if code < split:
                        s = 0
                        rng = split
                    else:
                        s = 1
                        code -= split
                        rng -= split
                while rng < _TOP:
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
                out.append(s)
        except IndexError:  # data[pos] past the padding: truncated
            pos = len(data) + 1
        self.range, self.code, self._pos = rng, code, pos
        return out

    def decode_bits(self, p1) -> np.ndarray:
        """Decode one bit per fixed-point probability ``p1[k]`` of bit=1,
        fewer if the stream proves truncated."""
        cuts = (PROB_ONE - np.asarray(p1, dtype=np.int64)).tolist()
        return np.array(self._decode(cuts), dtype=np.int64)

    def decode_bit(self, p1: int) -> int:
        """One-event :meth:`decode_bits`; raises once the stream is truncated."""
        bit = self._decode((PROB_ONE - p1,))
        if not bit:
            raise DecodeError("payload truncated")
        return bit[0]

    def decode_symbols(self, cum, count: int) -> np.ndarray:
        """Decode ``count`` symbols under a cumulative table with
        cum[0] == 0 and cum[-1] == 2^16, fewer if the stream proves
        truncated."""
        cum = np.asarray(cum, dtype=np.int64)
        if cum[0] != 0 or cum[-1] != PROB_ONE:
            raise ValueError("cumulative table must run from 0 to 2^16")
        symbol_of = np.repeat(np.arange(len(cum) - 1), np.diff(cum)).tolist()
        return np.array(self._decode(itertools.repeat(None, count),
                                     cum.tolist(), symbol_of), dtype=np.int64)


class LaplaceTable:
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
        self.freq = freq
        self.cum = np.concatenate(([0], np.cumsum(freq)))

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

    def ideal_bits(self, symbols: np.ndarray) -> float:
        """Cross-entropy of the data under this table, in bits."""
        return float(-np.log2(self.freq[np.asarray(symbols)] / PROB_ONE).sum())
