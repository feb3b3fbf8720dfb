"""Codec benchmark: encode, decode and verify one workload for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload sphere-train --seed 1 --seconds 45 --trace 0

Prints every metric with its unit, writes the full record (environment,
samples, container SHA-256, self-time tables) to
perfbench/out/BENCH_<workload>_seed<seed>_trace<trace>.json, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced, with times scaled to the core's reference speed (see README.md);
with --trace 1 they are its per_layer list.  Exits 1 when any
frame is not decoded coordinate-exact or a container's SHA-256 differs
between repeats, after reporting the run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("sphere-train", "random-sparse", "multi-gop")


def _limit_blas_threads() -> None:
    """Keep OpenBLAS at no more threads than this process may run on.

    Must run before numpy is imported.  bpp and container bytes depend on
    the thread count, which the result file records.
    """
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "linr" / "__init__.py").is_file():
        print(f"error: no linr sources under {src}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import harness

    record = harness.run(harness.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    env, loss = record["environment"], record["lossless"]
    print(f"workload {args.workload}  seed {args.seed}  repeats {record['repeats']}"
          f"  traced repeats {record['traced_repeats']}  points {record['points']}")
    print(f"blas {env['blas_runtime_config']}  threads {env['blas_threads']}"
          f"  nproc {env['nproc']}  numpy {env['numpy']}  python {env['python']}")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if "probe" in record:
        values, probe = record["all_values"], record["probe"]
        print("unscaled wall medians: " + "  ".join(
            f"{name} {values['wall_' + name]:.4g} s"
            for name in ("encode_s", "decode_s", "cpu_s")))
        print(f"core speed probe: {probe['samples']} samples,"
              f" median {1e3 * probe['median_s']:.4g} ms,"
              f" 5th percentile {1e3 * probe['p5_s']:.4g} ms")
    print(f"{'lossless_fail_ratio':36s} {loss['lossless_fail_ratio']:.6g}"
          f"  ({loss['failed']} of {loss['attempted']} frame and container checks)")
    for error in loss["errors"]:
        print(f"decode error: {error}", file=sys.stderr)
    print(f"container sha256 {record['container']['sha256']}"
          f"  {record['container']['bytes']} bytes"
          f"  (comparable only at blas threads {env['blas_threads']})")
    if args.trace:
        for phase, table in record["self_time"].items():
            print(f"{phase}: span self times sum to {table['self_sum_s']:.4f} s"
                  f" of {table['top_span_s']:.4f} s traced")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps(harness.summary(record)))
    return 0 if loss["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
