"""Arithmetic coder tests: exact roundtrips and near-optimal stream lengths.

The length oracle is the empirical cross-entropy of the coded sequence,
computed directly from the probabilities fed to the coder.
"""
import hashlib

import numpy as np
import pytest

from linr import rangecoder
from linr.errors import DecodeError, LinrError, NumericError
from linr.rangecoder import (
    PROB_ONE,
    RESCALE,
    ContextCounts,
    CountModel,
    LaplaceTable,
    RangeDecoder,
    RangeEncoder,
    quantize_probability,
    quantize_probabilities,
)


def roundtrip_bits(bits, probs):
    enc = RangeEncoder()
    for p, bit in zip(probs, bits):
        enc.encode_bit(p, bit)
    payload = enc.finish()
    dec = RangeDecoder(payload)
    decoded = [dec.decode_bit(p) for p in probs]
    return payload, decoded


class TestQuantizeProbability:
    def test_half(self):
        assert quantize_probability(0.5) == 32768

    def test_clamp_floor(self):
        assert quantize_probability(1e-9) == 1
        assert quantize_probability(0.0) == 1

    def test_clamp_ceiling(self):
        assert quantize_probability(0.999999) == 65535
        assert quantize_probability(1.0) == 65535

    def test_non_finite(self):
        with pytest.raises(NumericError):
            quantize_probability(float("nan"))
        with pytest.raises(NumericError):
            quantize_probabilities(np.array([0.5, float("inf")]))

    def test_vectorized_agrees(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, size=1000)
        vec = quantize_probabilities(p)
        assert vec.tolist() == [quantize_probability(x) for x in p]


class TestBinaryRoundtrip:
    def test_four_bits_at_half(self):
        bits = [1, 0, 1, 1]
        payload, decoded = roundtrip_bits(bits, [32768] * 4)
        assert decoded == bits

    def test_random_streams(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(1, 2000))
            probs = quantize_probabilities(rng.uniform(0.02, 0.98, size=n))
            bits = (rng.uniform(size=n) < probs / PROB_ONE).astype(int)
            _, decoded = roundtrip_bits(bits.tolist(), probs.tolist())
            assert decoded == bits.tolist()

    def test_million_bit_roundtrip(self):
        # Acceptance-scale roundtrip: one million randomized trials in bulk.
        rng = np.random.default_rng(2)
        total = 0
        chunk = 0
        while total < 1_000_000:
            n = 50_000
            probs = quantize_probabilities(rng.uniform(0.01, 0.99, size=n))
            bits = (rng.uniform(size=n) < probs / PROB_ONE).astype(int)
            _, decoded = roundtrip_bits(bits.tolist(), probs.tolist())
            assert decoded == bits.tolist()
            total += n
            chunk += 1
        assert chunk >= 20

    def test_extreme_probabilities(self):
        bits = [1] * 64 + [0] * 64
        probs = [65535] * 64 + [1] * 64
        _, decoded = roundtrip_bits(bits, probs)
        assert decoded == bits

    def test_carry_through_ff_run(self, monkeypatch):
        # Seeded events, then a 0 that leaves the interval's top one unit
        # above a byte boundary, then unlikely 1s that climb across it.
        rng = np.random.default_rng(8)
        p1 = rng.integers(1, PROB_ONE, size=4000)
        bits = (rng.integers(0, PROB_ONE, size=4000) < p1).astype(int)
        p1 = np.concatenate((p1[:1595], [60977, 1, 1, 1, 1]))
        bits = np.concatenate((bits[:1595], [0, 1, 1, 1, 1]))
        carried = []

        def counting_carry(out):
            carried.append(len(out) - len(bytes(out).rstrip(b"\xff")))
            carry(out)

        carry = rangecoder._carry
        monkeypatch.setattr(rangecoder, "_carry", counting_carry)
        enc = RangeEncoder()
        enc.encode_bits(p1, bits)
        payload = enc.finish()
        assert max(carried) >= 3
        assert RangeDecoder(payload).decode_bits(p1).tolist() == bits.tolist()

    def test_empty_payload_decodes_nothing(self):
        dec = RangeDecoder(b"")
        assert len(dec.decode_bits([1, 32768, 65535])) == 0
        assert len(dec.decode_symbols(LaplaceTable(3.0, 1.0, 4), 5)) == 0
        with pytest.raises(DecodeError):
            dec.decode_bit(32768)


class TestStreamLength:
    def test_cross_entropy_bound(self):
        rng = np.random.default_rng(3)
        n = 10_000
        probs = quantize_probabilities(rng.uniform(0.05, 0.95, size=n))
        bits = (rng.uniform(size=n) < probs / PROB_ONE).astype(int)
        payload, decoded = roundtrip_bits(bits.tolist(), probs.tolist())
        assert decoded == bits.tolist()
        p1 = probs / PROB_ONE
        ideal = -np.where(bits == 1, np.log2(p1), np.log2(1.0 - p1)).sum()
        assert len(payload) * 8 <= 1.02 * ideal + 32

    def test_all_ones_near_certain(self):
        enc = RangeEncoder()
        for _ in range(1000):
            enc.encode_bit(65535, 1)
        payload = enc.finish()
        # Analytic content ~ n * 2.2e-5 bits plus termination.
        assert len(payload) * 8 <= 48
        dec = RangeDecoder(payload)
        assert all(dec.decode_bit(65535) == 1 for _ in range(1000))

    def test_mismatched_probability_costs_more(self):
        # Coding at the true probability beats a mismatched one on average.
        rng = np.random.default_rng(4)
        n = 20_000
        true_p = 0.2
        bits = (rng.uniform(size=n) < true_p).astype(int).tolist()
        sizes = {}
        for label, p in [("true", true_p), ("mismatched", 0.7)]:
            enc = RangeEncoder()
            q = quantize_probability(p)
            for bit in bits:
                enc.encode_bit(q, bit)
            sizes[label] = len(enc.finish()) * 8
        # 3-sigma margin: per-bit cost gap is ~1.07 bits for this pair.
        assert sizes["true"] + 3 * np.sqrt(n) < sizes["mismatched"]

    def test_payload_within_sixteen_bits_of_ideal(self):
        # Extreme probabilities with outcomes drawn at even odds, so the
        # unlikely outcome is coded about as often as the likely one.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(0, 401))
            p1 = rng.choice([1, 65535, 0], size=n)
            p1[p1 == 0] = rng.integers(1, PROB_ONE, size=int((p1 == 0).sum()))
            bits = rng.integers(0, 2, size=n)
            width = int(rng.choice([1, 4, 8]))
            table = LaplaceTable(rng.uniform(0, (1 << width) - 1),
                                 (1 << width) / 7.0, width)
            symbols = rng.integers(0, 1 << width, size=int(rng.integers(0, 50)))
            enc = RangeEncoder()
            enc.encode_bits(p1, bits)
            enc.encode_symbols(table, symbols)
            payload = enc.finish()
            q = p1 / PROB_ONE
            ideal = (-np.where(bits == 1, np.log2(q), np.log2(1 - q)).sum()
                     + table.ideal_bits(symbols))
            assert 8 * len(payload) <= ideal + 16

    def test_deterministic_output(self):
        rng = np.random.default_rng(5)
        probs = quantize_probabilities(rng.uniform(0.1, 0.9, size=500)).tolist()
        bits = (rng.uniform(size=500) < 0.5).astype(int).tolist()
        a, _ = roundtrip_bits(bits, probs)
        b, _ = roundtrip_bits(bits, probs)
        assert a == b


class TestSymbolCoding:
    def test_edge_symbols_roundtrip(self):
        for mu in (-50.0, 0.0, 255.0, 500.0):
            table = LaplaceTable(mu, 2.0, bits=8)
            enc = RangeEncoder()
            enc.encode_symbols(table, [0, 255])
            payload = enc.finish()
            dec = RangeDecoder(payload)
            assert dec.decode_symbols(table, 2).tolist() == [0, 255]

    def test_degenerate_scale_roundtrips(self):
        table = LaplaceTable(128.0, 0.0, bits=8)
        assert table.freq[128] == PROB_ONE - 255
        enc = RangeEncoder()
        enc.encode_symbols(table, [128, 0, 255, 128, 7])
        dec = RangeDecoder(enc.finish())
        assert dec.decode_symbols(table, 5).tolist() == [128, 0, 255, 128, 7]

    def test_sampled_distribution_near_ideal(self):
        rng = np.random.default_rng(6)
        table = LaplaceTable(127.5, 9.0, bits=8)
        symbols = rng.choice(256, size=3000, p=table.freq / PROB_ONE)
        enc = RangeEncoder()
        enc.encode_symbols(table, symbols)
        payload = enc.finish()
        ideal = table.ideal_bits(symbols)
        assert len(payload) * 8 <= 1.02 * ideal + 32
        dec = RangeDecoder(payload)
        decoded = dec.decode_symbols(table, 3000).tolist()
        assert decoded == symbols.tolist()

    def test_symbol_roundtrip_bulk(self):
        rng = np.random.default_rng(7)
        for bits in (1, 4, 8, 12):
            n_sym = 1 << bits
            table = LaplaceTable((n_sym - 1) / 2.0, n_sym / 5.0, bits=bits)
            symbols = rng.integers(0, n_sym, size=2000)
            enc = RangeEncoder()
            enc.encode_symbols(table, symbols)
            dec = RangeDecoder(enc.finish())
            assert dec.decode_symbols(table, 2000).tolist() == symbols.tolist()


def golden_runs():
    """A seeded event sequence: runs of binary events at p1 in {1, 2^15,
    65535} and at random values, each followed by Laplace symbols of width
    1, 8 or 16 (first three symbols: both ends and the middle)."""
    rng = np.random.default_rng(20261018)
    runs = []
    for width in (1, 8, 16):
        n = 600
        p1 = rng.choice([1, 1 << 15, 65535], size=n)
        p1[::2] = rng.integers(1, 65536, size=(n + 1) // 2)
        bits = rng.integers(0, 2, size=n)
        runs.append(("bits", p1, bits))
        levels = 1 << width
        table = LaplaceTable(rng.uniform(0, levels - 1), levels / 7.0, width)
        symbols = rng.choice(levels, size=300, p=table.freq / table.freq.sum())
        symbols[:3] = (0, levels - 1, levels // 2)
        runs.append(("symbols", table, symbols))
    return runs


def encode_per_event(runs):
    enc = RangeEncoder()
    for kind, model, values in runs:
        if kind == "bits":
            for p1, bit in zip(model.tolist(), values.tolist()):
                enc.encode_bit(p1, bit)
        else:
            for s in values.tolist():
                enc.encode_symbols(model, [s])
    return enc.finish()


def encode_batch(runs):
    enc = RangeEncoder()
    for kind, model, values in runs:
        if kind == "bits":
            enc.encode_bits(model, values)
        else:
            enc.encode_symbols(model, values)
    return enc.finish()


def decode_per_event(payload, runs):
    """Every run decoded one event per call; stops at the first error."""
    dec = RangeDecoder(payload)
    got = []
    try:
        for kind, model, values in runs:
            for k in range(len(values)):
                if kind == "bits":
                    got.append(dec.decode_bit(int(model[k])))
                else:
                    got.extend(dec.decode_symbols(model, 1).tolist())
    except LinrError:
        pass
    return got, dec.bits_consumed


def decode_batch(payload, runs):
    dec = RangeDecoder(payload)
    got = []
    for kind, model, values in runs:
        if kind == "bits":
            got.extend(dec.decode_bits(model).tolist())
        else:
            got.extend(dec.decode_symbols(model, len(values)).tolist())
    return got, dec.bits_consumed


class TestGoldenStream:
    # The coder is pure integer arithmetic, so these bytes hold on every CPU.
    SHA256 = "15c6646a79993b0fed2a5852027c1dbc2942c7d355ece19524e68fe82cd67518"

    def test_payload_pinned(self):
        payload = encode_per_event(golden_runs())
        assert len(payload) == 1711
        assert hashlib.sha256(payload).hexdigest() == self.SHA256

    def test_batch_calls_give_identical_bytes(self):
        runs = golden_runs()
        assert encode_batch(runs) == encode_per_event(runs)

    def test_roundtrip(self):
        runs = golden_runs()
        payload = encode_batch(runs)
        want = [v for _, _, values in runs for v in values.tolist()]
        for decode in (decode_per_event, decode_batch):
            got, consumed = decode(payload, runs)
            assert got == want
            assert consumed <= 8 * len(payload) + 32

    def test_junk_payloads_decode_alike(self):
        rng = np.random.default_rng(11)
        runs = golden_runs()
        for n in (0, 1, 7, 64, 400, 3000):
            junk = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            batch, consumed = decode_batch(junk, runs)
            assert decode_per_event(junk, runs) == (batch, consumed)

    def test_truncated_payload_stops_at_once(self):
        dec = RangeDecoder(b"")
        assert len(dec.decode_bits([32768] * 10**6)) == 0
        assert dec.bits_consumed == 25
        assert dec.truncated
        with pytest.raises(DecodeError):
            dec.decode_bit(32768)
        # A healthy stream may read into the padding, but not past it.
        enc = RangeEncoder()
        enc.encode_bits([65535] * 100, [1] * 100)
        payload = enc.finish()
        dec = RangeDecoder(payload)
        assert dec.decode_bits([65535] * 100).tolist() == [1] * 100
        assert dec.bits_consumed > 8 * len(payload)
        assert not dec.truncated


class TestLaplaceTable:
    def test_total_and_floor(self):
        for mu, b, bits in [(127.5, 9.0, 8), (0.0, 0.1, 8), (3.0, 100.0, 4), (7.7, 2.0, 1)]:
            table = LaplaceTable(mu, b, bits)
            assert int(table.freq.sum()) == PROB_ONE
            assert int(table.freq.min()) >= 1
            assert np.all(np.diff(table.cum) >= 1)

    def test_sixteen_bit_is_uniform(self):
        table = LaplaceTable(100.0, 5.0, bits=16)
        assert np.all(table.freq == 1)

    def test_matches_direct_integration(self):
        # Oracle: per-bin mass from the closed-form Laplace CDF.
        mu, b = 100.0, 12.0
        table = LaplaceTable(mu, b, bits=8)

        def cdf(x):
            return 0.5 * np.exp((x - mu) / b) if x < mu else 1.0 - 0.5 * np.exp(-(x - mu) / b)

        masses = np.array([cdf(s + 0.5) - cdf(s - 0.5) for s in range(256)])
        expect = np.argsort(masses)[::-1][:20]
        got = np.argsort(table.freq)[::-1][:20]
        assert set(expect[:10]) <= set(got)
        peak = int(np.argmax(table.freq))
        assert abs(peak - mu) <= 1


def reference_table(weights):
    """The count model's table from Python integers alone: each weight's
    share of 2^16 - n rounded down, plus 1, and the remainder to the first
    largest weight."""
    weights = [int(w) for w in weights]
    budget = PROB_ONE - len(weights)
    freq = [1 + w * budget // sum(weights) for w in weights]
    freq[weights.index(max(weights))] += PROB_ONE - sum(freq)
    return freq


def reference_adaptive(prior, symbols):
    """Each symbol's frequency under the table in force when it is coded:
    rebuilt from ``2 * counts + prior`` before every RESCALE-th symbol."""
    counts = [0] * len(prior)
    out = []
    for k, s in enumerate(symbols):
        if k % RESCALE == 0:
            freq = reference_table([2 * c + p for c, p in zip(counts, prior)])
        out.append(freq[s])
        counts[s] += 1
    return out


def skewed_symbols(rng, n, size=255):
    """Mostly the eight single-child masks (as symbols mask - 1), some of
    every other."""
    single = (1 << rng.integers(0, 8, size=n)) - 1
    return np.where(rng.random(n) < 0.9, single, rng.integers(0, size, size=n))


class TestMaskTable:
    """The count model that codes isolated parents' child masks, symbols
    0..254 for masks 1..255."""

    # First 16 hex digits of the SHA-256 of one seeded table's frequencies.
    SHA256 = "4ddd3d6738fd3dac"

    def test_total_floor_and_no_zero_mask(self):
        rng = np.random.default_rng(50)
        prior = rng.integers(1, 40, size=255)
        for counts in (np.zeros(255), rng.integers(0, 3, size=255),
                       np.where(np.arange(255) == 7, 10**9, 0),
                       rng.integers(0, 10**6, size=255)):
            model = CountModel(prior)
            model.weights += 2 * counts.astype(np.int64)
            freq = model.frequencies()
            assert freq.shape == (255,)  # masks 1..255 as symbols 0..254
            assert int(freq.sum()) == PROB_ONE
            assert int(freq.min()) >= 1
            cum = rangecoder._cumulative(freq)
            assert cum[0] == 0 and cum[-1] == PROB_ONE and len(cum) == 256
            assert freq.tolist() == reference_table(2 * counts + prior)

    def test_shares_follow_the_weights(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            model = CountModel(rng.integers(1, 64, size=255))
            model.update(skewed_symbols(rng, 3000))
            weights = model.weights
            want = PROB_ONE * weights / weights.sum()
            err = np.abs(model.frequencies() - want)
            # The floors of 1 take 255 units from the proportional share,
            # then each rounds down; the largest takes the remainder.
            bound = 2.0 + 255.0 * want / PROB_ONE
            top = int(np.argmax(weights))
            assert np.all(np.delete(err <= bound, top))
            assert err[top] <= 256.0

    def test_same_integers_same_bytes(self):
        rng = np.random.default_rng(52)
        prior = rng.integers(1, 40, size=255)
        symbols = skewed_symbols(rng, 2000)
        tables = []
        for p in (prior, prior.tolist()):
            model = CountModel(p)
            model.update(symbols)
            tables.append(model.frequencies().tolist())
        assert tables[0] == tables[1]
        # Pure integer arithmetic: this table holds on every CPU.
        freq = np.array(tables[0], dtype=np.int64)
        assert hashlib.sha256(freq.tobytes()).hexdigest()[:16] == self.SHA256
        payloads = []
        for p in (prior, prior.tolist()):
            enc = RangeEncoder()
            freqs = enc.encode_adaptive(CountModel(p), symbols)
            assert freqs.tolist() == reference_adaptive(prior, symbols.tolist())
            payloads.append(enc.finish())
        assert payloads[0] == payloads[1]
        ideal = -np.log2(freqs / PROB_ONE).sum()
        assert 8 * len(payloads[0]) <= ideal + 16
        dec = RangeDecoder(payloads[0])
        got, got_freqs = dec.decode_adaptive(CountModel(prior), len(symbols))
        assert got.tolist() == symbols.tolist()
        assert got_freqs.tolist() == freqs.tolist()
        assert dec.ended and not dec.truncated

    def test_model_carries_over_calls(self):
        # Two calls on one model code what one call codes, when the first
        # ends on a rebuild.
        rng = np.random.default_rng(53)
        prior = rng.integers(1, 40, size=255)
        symbols = skewed_symbols(rng, 3 * RESCALE + 17)
        whole, split = RangeEncoder(), RangeEncoder()
        whole.encode_adaptive(CountModel(prior), symbols)
        model = CountModel(prior)
        split.encode_adaptive(model, symbols[:2 * RESCALE])
        split.encode_adaptive(model, symbols[2 * RESCALE:])
        assert whole.finish() == split.finish()
        assert model.weights.tolist() == (2 * np.bincount(symbols, minlength=255)
                                          + prior).tolist()

    def test_truncated_adaptive_stream_stops(self):
        rng = np.random.default_rng(54)
        prior = np.ones(255, dtype=np.int64)
        symbols = rng.integers(0, 255, size=1000)
        enc = RangeEncoder()
        enc.encode_adaptive(CountModel(prior), symbols)
        payload = enc.finish()
        dec = RangeDecoder(payload[:len(payload) // 2])
        got, freqs = dec.decode_adaptive(CountModel(prior), len(symbols))
        assert dec.truncated and len(got) == len(freqs) < len(symbols)
        assert got.tolist() == symbols[:len(got)].tolist()


def kt_reference(ones, total, contexts, bits):
    """Sequential Krichevsky-Trofimov probabilities of a one in Python
    integers: each event under its context's counts so far, then counted
    in; ``ones`` and ``total`` (lists) are updated in place."""
    out = []
    for c, b in zip(contexts, bits):
        out.append(min(max(((2 * ones[c] + 1) << 16) // (2 * total[c] + 2), 1),
                       PROB_ONE - 1))
        ones[c] += b
        total[c] += 1
    return out


def skewed_bits(rng, n, size):
    """``n`` (context, bit) events over ``size`` contexts, each context with
    its own probability of a one, some near 0 or 1."""
    contexts = rng.integers(0, size, size=n)
    p = rng.choice([0.001, 0.05, 0.3, 0.5, 0.9, 0.999], size=size)
    return contexts, (rng.uniform(size=n) < p[contexts]).astype(np.int64)


def counts_of(ones, total):
    """A :class:`ContextCounts` holding the lists ``ones`` and ``total``."""
    counts = ContextCounts(len(total))
    counts.ones[:], counts.total[:] = ones, total
    return counts


class TestContextCounts:
    """The encoder's closed-form probabilities and the decoder's loop both
    equal a sequential reference, event for event; only ``update`` counts
    the events in."""

    def test_closed_form_equals_sequential_reference(self):
        rng = np.random.default_rng(70)
        counts = ContextCounts(40)
        ones, total = [0] * 40, [0] * 40
        for n in (0, 1, 500, 3000):  # counts carry from run to run
            contexts, bits = skewed_bits(rng, n, 40)
            want = kt_reference(ones, total, contexts.tolist(), bits.tolist())
            assert counts.probabilities(contexts.astype(np.uint8), bits).tolist() == want
            counts.update(contexts, bits)
            assert counts.ones.tolist() == ones and counts.total.tolist() == total

    def test_reads_leave_the_counts_unchanged(self):
        rng = np.random.default_rng(74)
        ones, total = [0] * 20, [0] * 20
        kt_reference(ones, total, *skewed_bits(rng, 300, 20))
        counts = counts_of(ones, total)
        contexts, bits = skewed_bits(rng, 1000, 20)
        p1 = counts.probabilities(contexts, bits)
        assert counts.ones.tolist() == ones and counts.total.tolist() == total
        enc = RangeEncoder()
        enc.encode_bits(p1, bits)
        dec = RangeDecoder(enc.finish())
        assert dec.decode_counted(counts, contexts).tolist() == bits.tolist()
        assert counts.ones.tolist() == ones and counts.total.tolist() == total

    def test_clamp_at_large_counts(self):
        # After 40,000 zeros a context's one is below 2^-16: p1 clamps to 1.
        counts = ContextCounts(1)
        p1 = counts.probabilities(np.zeros(40_000, dtype=np.uint8),
                                  np.zeros(40_000, dtype=np.int64))
        assert p1[0] == PROB_ONE // 2 and p1[-1] == 1 and p1.min() >= 1
        assert kt_reference([0], [0], [0] * 40_000, [0] * 40_000)[-1] == 1

    def test_decoder_loop_equals_reference_event_for_event(self):
        # Decoded one event per call, the loop leaves the registers where a
        # per-event decode under the reference probability leaves them, so
        # every event was decoded under the reference's probability.
        rng = np.random.default_rng(71)
        ones, total = [0] * 20, [0] * 20
        kt_reference(ones, total, *skewed_bits(rng, 200, 20))  # counts so far
        start = (ones[:], total[:])
        contexts, bits = skewed_bits(rng, 1500, 20)
        p1 = kt_reference(ones, total, contexts.tolist(), bits.tolist())
        enc = RangeEncoder()
        enc.encode_bits(counts_of(*start).probabilities(contexts, bits), bits)
        payload = enc.finish()
        counts = counts_of(*start)
        loop, reference = RangeDecoder(payload), RangeDecoder(payload)
        for c, b, p in zip(contexts.tolist(), bits.tolist(), p1):
            assert loop.decode_counted(counts, [c]).tolist() == [b]
            counts.update([c], [b])
            assert reference.decode_bit(p) == b
            assert (loop.range, loop.code) == (reference.range, reference.code)
        assert loop.ended
        assert counts.ones.tolist() == ones and counts.total.tolist() == total
        # One call decodes the same bits; counted in, they give the same counts.
        counts = counts_of(*start)
        dec = RangeDecoder(payload)
        assert dec.decode_counted(counts, contexts).tolist() == bits.tolist()
        assert dec.ended
        counts.update(contexts, bits)
        assert counts.ones.tolist() == ones and counts.total.tolist() == total

    def test_payload_near_ideal(self):
        rng = np.random.default_rng(72)
        contexts, bits = skewed_bits(rng, 20_000, 30)
        p1 = ContextCounts(30).probabilities(contexts, bits)
        enc = RangeEncoder()
        enc.encode_bits(p1, bits)
        payload = enc.finish()
        ideal = -np.log2(np.where(bits == 1, p1, PROB_ONE - p1) / PROB_ONE).sum()
        assert 8 * len(payload) <= 1.001 * ideal + 32

    def test_sizes_bounded(self):
        # Contexts sort as uint16s, and decode_adaptive decodes mask symbols
        # into bytes.
        ContextCounts(1 << 16)
        for size in (0, (1 << 16) + 1):
            with pytest.raises(ValueError):
                ContextCounts(size)
        CountModel([1] * 256)
        for prior in ([], [1] * 257):
            with pytest.raises(ValueError):
                CountModel(prior)

    def test_truncated_stream_stops(self):
        rng = np.random.default_rng(73)
        contexts, bits = skewed_bits(rng, 2000, 10)
        enc = RangeEncoder()
        enc.encode_bits(ContextCounts(10).probabilities(contexts, bits), bits)
        payload = enc.finish()
        dec = RangeDecoder(payload[:len(payload) // 2])
        got = dec.decode_counted(ContextCounts(10), contexts)
        assert dec.truncated and len(bits) // 4 < len(got) < len(bits)
        # The events decoded from the zero padding past the cut may differ.
        assert got[:len(bits) // 4].tolist() == bits[:len(bits) // 4].tolist()


class TestCanonicalEnd:
    """After its last event a payload must end as ``finish`` ends it, so
    every bit flip either changes what decodes or fails the end check."""

    def payloads(self):
        rng = np.random.default_rng(55)
        p1 = rng.integers(1, PROB_ONE, size=300)
        bits = (rng.integers(0, PROB_ONE, size=300) < p1).astype(int)
        table = LaplaceTable(7.0, 3.0, 4)
        symbols = rng.choice(16, size=200, p=table.freq / PROB_ONE)
        out = []
        for kind, model, values in (("bits", p1, bits), ("symbols", table, symbols),
                                    ("bits", np.full(40, 65000), np.ones(40, int))):
            enc = RangeEncoder()
            if kind == "bits":
                enc.encode_bits(model, values)
            else:
                enc.encode_symbols(model, values)
            out.append((kind, model, values, enc.finish()))
        return out

    def decode(self, kind, model, values, payload):
        dec = RangeDecoder(payload)
        if kind == "bits":
            got = dec.decode_bits(model)
        else:
            got = dec.decode_symbols(model, len(values))
        return got.tolist(), dec

    def test_healthy_payloads_end(self):
        for kind, model, values, payload in self.payloads():
            got, dec = self.decode(kind, model, values, payload)
            assert got == values.tolist()
            assert dec.ended
        # An empty stream ends at once: one zero byte.
        enc = RangeEncoder()
        payload = enc.finish()
        assert payload == b"\x00" and RangeDecoder(payload).ended

    def test_every_bit_flip_changes_the_events_or_fails_the_end(self):
        checked = caught_by_end = 0
        payloads = self.payloads()
        for kind, model, values, payload in payloads:
            for pos in range(len(payload)):
                for bit in range(8):
                    corrupt = bytearray(payload)
                    corrupt[pos] ^= 1 << bit
                    got, dec = self.decode(kind, model, values, bytes(corrupt))
                    assert got != values.tolist() or not dec.ended, (kind, pos, bit)
                    caught_by_end += got == values.tolist()
                    checked += 1
        assert checked == 8 * sum(len(p) for *_, p in payloads)
        # Flips in the slack of the last bytes decode to the same events.
        assert caught_by_end > 0

    def test_appended_byte_fails_the_end(self):
        for kind, model, values, payload in self.payloads():
            for extra in (b"\x00", b"\x01\x00"):
                got, dec = self.decode(kind, model, values, payload + extra)
                assert not dec.ended
