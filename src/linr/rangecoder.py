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
A :class:`CountModel` is an adaptive table, rebuilt from integer counts
of the symbols coded so far (``encode_adaptive`` / ``decode_adaptive``).
:class:`ContextCounts` gives adaptive binary probabilities from integer
counts per context: the encoder computes a run's probabilities in closed
form and codes them with ``encode_bits``, the decoder decodes the run bit
by bit (``decode_counted``).  Both read the counts; the caller counts the
run in afterwards (``update``).

Streams are not self-delimiting: the container records each payload's byte
length, and the event count is known from the geometry.  The decoder keeps
its code relative to ``low`` and reads payload bytes directly.  A healthy
payload reads exactly 3 zero bytes past its end; at the first read beyond
them the decoder stops, and its ``truncated`` property gives the caller the
verdict.  An empty payload therefore decodes no event.  After its last
event a payload must also end as ``finish`` ends it (``ended``), so a
changed bit that leaves every event as it was is still caught.
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
RESCALE = 256  # symbols an adaptive table codes before it is rebuilt


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


def _cumulative(freq: np.ndarray) -> list:
    """The cumulative frequencies of a table as the symbol loops take them:
    ``cum[s]`` is the total below symbol s, ``cum[-1]`` the sum."""
    return [0, *freq.cumsum().tolist()]


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
        self._encode_symbols(table.cum.tolist(), s.tolist())

    def _encode_symbols(self, cum, symbols) -> None:
        """The loop of :meth:`encode_symbols`, on Python ints: symbol s
        takes ``[cum[s], cum[s + 1])``."""
        low, rng = self.low, self.range
        out = self._out
        for s in symbols:
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

    def encode_adaptive(self, model: "CountModel", symbols) -> np.ndarray:
        """Code ``symbols`` under ``model``'s table, rebuilt every
        :data:`RESCALE` symbols, and count them in.  Returns each symbol's
        frequency in the table it was coded under."""
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= len(model.weights)):
            raise ValueError("symbol outside the table")
        listed = symbols.tolist()
        freqs = [symbols[:0]]
        for start in range(0, len(symbols), RESCALE):
            run = symbols[start:start + RESCALE]
            freq = model.frequencies()
            self._encode_symbols(_cumulative(freq), listed[start:start + RESCALE])
            model.update(run)
            freqs.append(freq[run])
        return np.concatenate(freqs)

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

    @property
    def ended(self) -> bool:
        """True when the events so far end the payload as
        :meth:`RangeEncoder.finish` ends it: every byte was read, up to the
        padding, and the code is below 2^24, as the finishing byte leaves
        it.  A changed payload bit that decodes to the same events moves
        the code by at least 2^24, so this rejects it."""
        return self.bits_consumed == 8 * len(self._data) and self.code < 0x1000000

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
        # The symbol of each of the 2^16 targets, as a view of uint16s: a
        # few microseconds to build per table, where a list of them takes
        # about half a millisecond and a bisection of ``cum`` per symbol
        # made the loop about 40% slower.
        symbol_of = memoryview(np.repeat(np.arange(len(table.freq), dtype=np.uint16),
                                         table.freq))
        out = [0] * count
        done = self._decode_symbols(symbol_of, table.cum.tolist(), out, 0, count)
        return np.array(out[:done], dtype=np.int64)

    def _decode_symbols(self, symbol_of, cum, out, start: int, stop: int) -> int:
        """The loop of :meth:`decode_symbols`, on Python ints: decodes into
        ``out[start:stop]`` the symbols of the table with cumulative
        frequencies ``cum`` and target-to-symbol view ``symbol_of``.
        Returns the end of what it decoded, ``stop`` unless the stream
        proves truncated."""
        data, pos = self._data, self._pos
        if pos > len(data):
            return start
        rng, code = self.range, self.code
        done = stop
        k = start
        try:
            for k in range(start, stop):
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
        return done

    def decode_adaptive(self, model: "CountModel", count: int):
        """Decode ``count`` symbols as :meth:`RangeEncoder.encode_adaptive`
        coded them, fewer if the stream proves truncated; returns them and
        each one's frequency in the table it was decoded under.

        The symbols go into one byte buffer, so each run of
        :data:`RESCALE` is counted in through a view of it."""
        out = bytearray(count)
        symbols = np.frombuffer(out, dtype=np.uint8)
        ids = np.arange(len(model.weights), dtype=np.uint8)
        freqs = []
        done = 0
        for start in range(0, count, RESCALE):
            freq = model.frequencies()
            freqs.append(freq)
            stop = min(start + RESCALE, count)
            done = self._decode_symbols(memoryview(np.repeat(ids, freq)), _cumulative(freq),
                                        out, start, stop)
            model.update(symbols[start:done])
            if done < stop:  # a truncated stream
                break
        symbols = symbols[:done].astype(np.int64)
        runs = [freq[symbols[start:start + RESCALE]]
                for start, freq in zip(range(0, done, RESCALE), freqs)]
        return symbols, np.concatenate([symbols[:0], *runs])

    def decode_counted(self, counts: "ContextCounts", contexts) -> np.ndarray:
        """Decode one bit per context ``contexts[k]``, each under the
        probability of a one that ``counts`` gives that context after the
        bits before it, as :meth:`ContextCounts.probabilities` computes them
        for :meth:`RangeEncoder.encode_bits`; fewer if the stream proves
        truncated.  Leaves ``counts`` as it was.

        The loop holds its own ``2 * ones + 1`` and ``2 * total + 2`` per
        context, the numerator and denominator of the probability."""
        data, pos = self._data, self._pos
        contexts = np.asarray(contexts, dtype=np.int64)
        if pos > len(data) or not len(contexts):
            return np.zeros(0, dtype=np.int64)
        # The loop works on the span of contexts it reads.
        lo, hi = int(contexts.min()), int(contexts.max()) + 1
        num = (2 * counts.ones[lo:hi] + 1).tolist()
        den = (2 * counts.total[lo:hi] + 2).tolist()
        contexts = (contexts - lo).tolist()
        rng, code = self.range, self.code
        out = bytearray(len(contexts))
        done = len(contexts)
        k = 0
        try:
            for k, c in enumerate(contexts):
                a = num[c]
                t = den[c]
                split = (rng * (0x10000 - ((a << 16) // t or 1))) >> 16
                den[c] = t + 2
                if code < split:
                    rng = split
                else:
                    code -= split
                    rng -= split
                    out[k] = 1
                    num[c] = a + 2
                while rng < 0x1000000:
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
        except IndexError:  # data[pos] past the padding: truncated
            pos = len(data) + 1
            done = k
        self.range, self.code, self._pos = rng, code, pos
        del out[done:]
        return np.frombuffer(out, dtype=np.uint8).astype(np.int64)


class FrequencyTable:
    """Integer frequencies of symbols 0..n-1, each at least 1, summing to
    2^16, and their cumulative table ``cum`` (``cum[s]`` is the total below
    symbol s)."""

    def __init__(self, freq):
        freq = np.asarray(freq, dtype=np.int64)
        cum = np.zeros(freq.size + 1, dtype=np.int64)
        np.cumsum(freq, out=cum[1:])
        if freq.ndim != 1 or not freq.size or freq.min() < 1 or cum[-1] != PROB_ONE:
            raise ValueError("frequencies must be >= 1 and sum to 2^16")
        self.freq = freq
        self.cum = cum

    def ideal_bits(self, symbols) -> float:
        """Cross-entropy of the data under this table, in bits."""
        return float(-np.log2(self.freq[np.asarray(symbols)] / PROB_ONE).sum())


class CountModel:
    """An adaptive table over symbols 0..n-1, n <= 256 (Krichevsky &
    Trofimov, 1981):
    symbol s weighs ``weights[s] = 2 * count(s) + prior[s]``, where
    count(s) counts the symbols s coded so far and ``prior`` is a positive
    integer per symbol.  :meth:`frequencies` renormalizes the weights to
    2^16 with a floor of 1, each symbol its share rounded down and the first
    largest weight the remainder, in integer arithmetic alone, so every
    CPU builds the same table.  Encoder and decoder update it alike
    (``encode_adaptive`` / ``decode_adaptive``)."""

    __slots__ = ("weights",)

    def __init__(self, prior):
        self.weights = np.array(prior, dtype=np.int64)
        if not 1 <= len(self.weights) <= 256:
            raise ValueError("a count model has 1 to 256 symbols")

    def frequencies(self) -> np.ndarray:
        """The table's frequency of each symbol: each at least 1, summing
        to 2^16."""
        w = self.weights
        freq = w * (PROB_ONE - len(w))
        freq //= int(w.sum())
        freq += 1
        freq[int(w.argmax())] += PROB_ONE - int(freq.sum())
        return freq

    def update(self, symbols) -> None:
        self.weights += 2 * np.bincount(symbols, minlength=len(self.weights))


class ContextCounts:
    """Adaptive binary probabilities from integer counts (the sequential
    estimate of Krichevsky & Trofimov, 1981): per context c, ``total[c]``
    bits were counted in and ``ones[c]`` of them were ones.  The
    fixed-point probability of a one is ``clamp(((2 * ones + 1) << 16) //
    (2 * total + 2), 1, 65535)``, in integer arithmetic alone, so every CPU
    computes the same.  The upper clamp never binds: the quotient is below
    2^16 as ones <= total.  Only :meth:`update` changes the counts."""

    __slots__ = ("ones", "total")

    def __init__(self, size: int):
        if not 1 <= size <= 1 << 16:
            raise ValueError("context counts take 1 to 2^16 contexts")
        self.ones = np.zeros(size, dtype=np.int64)
        self.total = np.zeros(size, dtype=np.int64)

    def probabilities(self, contexts, bits) -> np.ndarray:
        """The probability of a one of each event ``bits[k]`` in context
        ``contexts[k]``, under the counts after the events before it, in
        closed form: a stable sort by context, then each event's counts are
        its context's counts plus the events before it in its context's
        run.  :meth:`RangeDecoder.decode_counted` decodes them one by one."""
        contexts = np.asarray(contexts)
        order = np.argsort(contexts.astype(np.uint16), kind="stable")  # a radix sort
        c = contexts[order]
        b = np.asarray(bits, dtype=np.int64)[order]
        sizes = np.bincount(c, minlength=len(self.total))
        starts = np.cumsum(sizes) - sizes  # per context, its run's first event
        first = starts[c]
        ones_before = np.zeros(len(b) + 1, dtype=np.int64)
        np.cumsum(b, out=ones_before[1:])
        ones = self.ones[c] + ones_before[:-1] - ones_before[first]
        total = self.total[c] + np.arange(len(c)) - first
        p1 = np.empty(len(c), dtype=np.int64)
        p1[order] = np.maximum(((2 * ones + 1) << PROB_BITS) // (2 * total + 2), 1)
        return p1

    def update(self, contexts, bits) -> None:
        """Count in the event ``bits[k]`` in context ``contexts[k]``."""
        size = len(self.total)
        self.total += np.bincount(contexts, minlength=size)
        self.ones += np.bincount(contexts, weights=bits, minlength=size).astype(np.int64)


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
