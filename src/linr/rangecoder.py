"""Deterministic binary/multi-symbol arithmetic coder.

The coder of Witten, Neal & Cleary (CACM 1987): 32-bit low/high registers,
bit-wise renormalization with pending-bit (underflow) tracking.  Every
event narrows ``[low, high]`` to a cumulative interval ``[c_lo, c_hi)`` of
2^16; a bit under the fixed-point probability p1 of a one is the
two-symbol table ``[0, 2^16 - p1)`` / ``[2^16 - p1, 2^16)``.  Each side is
one loop (``_encode``, ``_decode``) with its registers in locals, behind
the batch calls ``encode_bits`` / ``decode_bits`` and ``encode_symbols`` /
``decode_symbols`` and the one-event ``encode_bit`` / ``decode_bit``.

Streams are not self-delimiting: the container records each payload's byte
length, and the event count is known from the geometry.  The decoder reads
zero bits past the end, as the terminator needs, but at most 32: at the
33rd it stops, and its ``truncated`` property gives the caller the verdict.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DecodeError, NumericError

PROB_BITS = 16
PROB_ONE = 1 << PROB_BITS
PROB_MAX = PROB_ONE - 1

_MASK = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTERS = _HALF + _QUARTER


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


class RangeEncoder:
    def __init__(self):
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self._bits = bytearray()  # one byte per output bit
        self._done = False

    def _encode(self, events, cum=None) -> None:
        """Code each ``(cut, symbol)``: a bit under cut 2^16 - p1, or with
        cut ``None`` a symbol of the table ``cum``."""
        low, high, pending = self.low, self.high, self.pending
        out = self._bits
        for cut, s in events:
            span = high - low + 1
            if cut is None:
                lo = (span * cum[s]) >> PROB_BITS
                hi = (span * cum[s + 1]) >> PROB_BITS
            else:
                split = (span * cut) >> PROB_BITS
                lo, hi = (split, span) if s else (0, split)
            high = low + hi - 1
            low += lo
            while True:
                if high < _HALF:
                    out += b"\x00" + b"\x01" * pending
                    pending = 0
                elif low >= _HALF:
                    out += b"\x01" + bytes(pending)
                    pending = 0
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
        self.low, self.high, self.pending = low, high, pending

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
        """Terminate the stream; at most 2 bits plus byte padding."""
        if self._done:
            raise RuntimeError("finish() called twice")
        self._done = True
        pending = self.pending + 1
        self._bits += (b"\x00" + b"\x01" * pending if self.low < _QUARTER
                       else b"\x01" + bytes(pending))
        return np.packbits(np.frombuffer(self._bits, dtype=np.uint8)).tobytes()


class RangeDecoder:
    def __init__(self, data: bytes):
        # One byte per source bit, plus the 32 zero bits of lookahead.
        padded = bytes(data) + bytes(4)
        self._bits = np.unpackbits(np.frombuffer(padded, dtype=np.uint8)).tobytes()
        self._bitpos = 32
        self.low = 0
        self.high = _MASK
        self.code = int.from_bytes(padded[:4], "big")

    @property
    def bits_consumed(self) -> int:
        """Source bits read so far, including zero padding past the end.
        A healthy stream reads at most 32 bits past its end (the register
        lookahead); decoding stops at the first bit beyond them."""
        return self._bitpos

    @property
    def truncated(self) -> bool:
        """True once decoding has read past the 32 padding bits: the
        stream ended before its events did."""
        return self.bits_consumed > len(self._bits)

    def _decode(self, cuts, cum=None, symbol_of=None) -> list:
        """Decode one event per cut, as :meth:`RangeEncoder._encode` coded
        it; a table symbol is ``symbol_of[target]``.  Returns the symbols,
        cut short if the stream proves truncated."""
        bits, pos = self._bits, self._bitpos
        if pos > len(bits):
            return []
        low, high, code = self.low, self.high, self.code
        out = []
        try:
            for cut in cuts:
                span = high - low + 1
                if cut is None:
                    # low <= code <= high holds, so 0 <= target < 2^16.
                    s = symbol_of[(((code - low + 1) << PROB_BITS) - 1) // span]
                    lo = (span * cum[s]) >> PROB_BITS
                    hi = (span * cum[s + 1]) >> PROB_BITS
                else:
                    split = (span * cut) >> PROB_BITS
                    if code - low < split:
                        s, lo, hi = 0, 0, split
                    else:
                        s, lo, hi = 1, split, span
                high = low + hi - 1
                low += lo
                while True:
                    if high < _HALF:
                        pass
                    elif low >= _HALF:
                        low -= _HALF
                        high -= _HALF
                        code -= _HALF
                    elif low >= _QUARTER and high < _THREE_QUARTERS:
                        low -= _QUARTER
                        high -= _QUARTER
                        code -= _QUARTER
                    else:
                        break
                    low <<= 1
                    high = (high << 1) | 1
                    code = (code << 1) | bits[pos]
                    pos += 1
                out.append(s)
        except IndexError:  # bits[pos] past the padding: truncated
            pos = len(bits) + 1
        self.low, self.high, self.code, self._bitpos = low, high, code, pos
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
