"""What happens to the network weights on their way into the bitstream:
8-bit adaptive quantization, the Laplace fit, entropy coding, and the
delta block of a warm-started group.

Run:  python3 demos/04_parameter_compression.py
"""
import numpy as np

from linr.params import (
    BLOCK_HEADER_SIZE,
    KIND_NAMES,
    compress_params,
    decompress_params,
    dequantize,
    fit_laplace,
    quantize,
)
from linr.pipeline import GopConfig, train_gop
from linr.plyio import generate_fixture

# Overfit a small model; the L2 penalty keeps the weights clustered, which
# is exactly what makes the Laplace model effective afterwards.
frame = generate_fixture("random", 400, seed=1)
trained = train_gop([frame], GopConfig(gop_size=1, seed=1, l2_coeff=1e-4),
                    epochs=6)
vec = trained.model.flatten()
print(f"trained parameter vector: {vec.size} values in "
      f"[{vec.min():.3f}, {vec.max():.3f}]")

header, q = quantize(vec, bits=8)
err = np.abs(dequantize(header, q) - vec)
step = (header.max - header.min) / 255
print(f"8-bit quantization: worst error {err.max():.2e} "
      f"(half a step is {step / 2:.2e})")

side = fit_laplace(q)
print(f"Laplace fit over the integers: mu={side.mu:.2f}, b={side.b:.2f}")
hist = np.bincount(q, minlength=256)
peak = hist.argmax()
for row in range(max(0, peak - 4), min(256, peak + 5)):
    print(f"  q={row:3d}  {'#' * int(60 * hist[row] / hist.max())}")

payload = compress_params(q, side, bits=8)
raw_bits = header.raw_bits
print(f"\nentropy-coded: {8 * len(payload)} bits vs raw {raw_bits} bits "
      f"(ratio {8 * len(payload) / raw_bits:.3f})")
assert np.array_equal(decompress_params(payload, header, side), q)
print("decompress(compress(q)) == q: True")

# Reloading the dequantized values is what keeps the codec lossless: the
# encoder's coding passes then run on exactly the decoder's parameters.
before = trained.model.flatten().copy()
from linr.params import reload_dequantized

reload_dequantized(trained.model, header, q)
after = trained.model.flatten()
print(f"reloaded model differs from the full-precision one by at most "
      f"{np.abs(after - before).max():.2e}, and re-quantizing reproduces "
      f"the same integers: {np.array_equal(quantize(after, 8)[1], q)}")

# A warm group continues training from the vector the decoder now holds,
# with the first group's optimizer state, as encode_sequence does, and
# ships only its change from it: a delta block, in steps of the group's own
# range.
held = trained.model.flatten()
warm = train_gop([generate_fixture("random", 400, seed=1, offset=1)],
                 GopConfig(gop_size=1, seed=1, l2_coeff=1e-4),
                 epochs=1, resume=trained).model.flatten()
for reference in (None, held):
    h, q = quantize(warm, bits=8, reference=reference)
    s = fit_laplace(q)
    size = BLOCK_HEADER_SIZE + len(compress_params(q, s, bits=8))
    err = np.abs(dequantize(h, q, reference) - warm).max()
    print(f"warm group, {KIND_NAMES[h.kind]:>8} block: {size} bytes "
          f"(worst error {err:.2e}, half a step {h.step / 2:.2e})")
