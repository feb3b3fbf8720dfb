"""The coder layer: binary range coding against model probabilities, and the
Laplace symbol model used for the network parameters.

Run:  python3 demos/03_arithmetic_coding.py
"""
import numpy as np

from linr.rangecoder import (
    PROB_ONE,
    LaplaceTable,
    RangeDecoder,
    RangeEncoder,
    quantize_probabilities,
)

rng = np.random.default_rng(0)

# Code 50k bits, each under its own probability, and compare the stream to
# the information-theoretic floor.
n = 50_000
probs = quantize_probabilities(rng.uniform(0.05, 0.95, size=n))
bits = (rng.uniform(size=n) < probs / PROB_ONE).astype(int)

enc = RangeEncoder()
enc.encode_bits(probs, bits)
payload = enc.finish()

p1 = probs / PROB_ONE
ideal = float(-np.where(bits == 1, np.log2(p1), np.log2(1 - p1)).sum())
print(f"{n} bits coded into {8 * len(payload)} bits; "
      f"cross-entropy floor {ideal:.0f} bits "
      f"(overhead {100 * (8 * len(payload) / ideal - 1):.3f}%)")

dec = RangeDecoder(payload)
decoded = dec.decode_bits(probs)
print(f"roundtrip exact: {np.array_equal(decoded, bits)}")

# Near-certain bits cost almost nothing.
enc = RangeEncoder()
enc.encode_bits([PROB_ONE - 1] * 10_000, [1] * 10_000)
print(f"\n10k near-certain bits -> {len(enc.finish())} bytes total")

# The parameter coder discretizes a Laplace density into a 2^16 frequency
# table with per-symbol floors, so every byte value stays codable.
table = LaplaceTable(mu=127.5, b=9.0, bits=8)
print(f"\nLaplace(127.5, 9) table: peak freq {table.freq.max()}, "
      f"floor {table.freq.min()}, total {table.freq.sum()}")
symbols = rng.choice(256, size=5000, p=table.freq / PROB_ONE)
enc = RangeEncoder()
enc.encode_symbols(table.cum, symbols)
coded = enc.finish()
print(f"5000 symbols: {8 * len(coded)} bits vs table entropy "
      f"{table.ideal_bits(symbols):.0f} bits "
      f"({8 * len(coded) / symbols.size:.2f} bits/symbol against raw 8)")
