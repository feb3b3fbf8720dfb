"""End to end: encode a short sequence through the library API, break the
bitstream down section by section, and prove the decode is exact.

Run:  python3 demos/05_full_codec.py
"""
import numpy as np

from linr.pipeline import (
    GopConfig,
    container_summary,
    decode_sequence,
    encode_sequence,
    verify,
)
from linr.plyio import generate_fixture

# Eight frames of a drifting sphere shell, coded as two groups of four.
frames = [generate_fixture("sphere-shell", 20, offset=k) for k in range(8)]
config = GopConfig(gop_size=4, epochs_first=4, epochs_rest=1, bits=8, seed=0)
data, report = encode_sequence(frames, config)

points = report.total_points
print(f"{len(frames)} frames, {points} points -> {len(data)} bytes "
      f"({report.bpp:.3f} bpp)")
print(f"encode {report.encode_seconds:.2f}s, of which training "
      f"{report.training_seconds:.2f}s; epochs per group: {report.epochs_used}")

alloc = report.allocation()
print("\nbitstream allocation:")
print(f"  decoder parameters {100 * alloc['decoder_params']:6.2f}%  "
      f"(coded once per group, amortized over its frames)")
print(f"  lowest-scale coords{100 * alloc['lowest_scale']:6.2f}%")
print(f"  occupancy payloads {100 * alloc['occupancy']:6.2f}%")
for scale, bits in sorted(report.occupancy_by_scale().items(), reverse=True):
    print(f"    scale {scale}: {bits:8d} bits")

print("\nper-frame bits per point (parameters amortized):")
for f in report.frames:
    print(f"  frame {f.frame_index}: {f.bpp:7.3f} bpp "
          f"(group {f.gop_index})")

summary = container_summary(data)
assert summary["file_bytes"] == len(data)
decoded, stats = decode_sequence(data)
print(f"\ndecode {stats.total_seconds:.2f}s "
      f"(parameters {stats.param_seconds:.3f}s)")
result = verify(data, frames)
print(f"verify: {result.message}")
exact = all(np.array_equal(a.coords, b.coords)
            for a, b in zip(decoded, frames))
print(f"decoded coordinates identical to the originals: {exact}")
