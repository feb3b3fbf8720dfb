"""Workloads, the measurement loop and the lossless gate of the codec benchmark.

One run encodes and decodes one workload's generated frames repeatedly for
a fixed time, checks every decode coordinate-exact against the input and
every container's SHA-256 against the first, and reports the medians of the
repeats.  An untraced repeat decodes its container twice, and its times
are scaled to the core's reference speed by a :class:`SpeedProbe`.  A
traced run alternates untraced and traced repeats, so the tracing overhead
is measured in the same process.  Metric names and units come from
BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import linr
from linr import EncodeReport, GopConfig, decode_sequence, encode_sequence, generate_fixture
from linr.pipeline import DecodeStats
from speedprobe import SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # a generate_fixture kind
    size: int
    frames: int
    gop: int
    epochs_first: int
    epochs_rest: int
    stop_at: int = 64

    def make_frames(self, seed: int) -> list:
        """The workload's input; ``seed`` alone decides it."""
        if self.kind == "random":
            return [generate_fixture("random", self.size, seed=seed, offset=k)
                    for k in range(self.frames)]
        # A base translation moves the shape against the octree grid, which
        # changes every pyramid level.
        base = seed % 64
        return [generate_fixture(self.kind, self.size, offset=base + k)
                for k in range(self.frames)]

    def config(self) -> GopConfig:
        return GopConfig(gop_size=self.gop, epochs_first=self.epochs_first,
                         epochs_rest=self.epochs_rest, stop_at=self.stop_at)


# Why each workload exists is in README.md; the sizes follow it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere-train", "sphere-shell", 40, frames=4, gop=4,
                 epochs_first=2, epochs_rest=1),
        Workload("random-sparse", "random", 20000, frames=1, gop=1,
                 epochs_first=1, epochs_rest=1),
        Workload("multi-gop", "sphere-shell", 24, frames=8, gop=2,
                 epochs_first=2, epochs_rest=1),
    )
}


def metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment ---------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    return ctypes.CDLL(paths[0]) if paths else None


def _openblas_call(lib, stem: str, restype):
    for name in (f"scipy_openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def environment() -> dict:
    """What the numbers depend on.  bpp and the container SHA-256 are only
    comparable between runs with equal ``blas_threads`` (and BLAS kernel)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = _openblas()
    threads = _openblas_call(lib, "get_num_threads", ctypes.c_int) if lib else None
    runtime = _openblas_call(lib, "get_config", ctypes.c_char_p) if lib else None
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        "blas_runtime_config": runtime.decode() if runtime else None,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "linr": linr.__file__,
    }


# -- set-up ----------------------------------------------------------------------

_SETUP_PROBE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
import speedprobe
with speedprobe.SpeedProbe() as probe:
    t0 = time.perf_counter()
    import harness
    harness.Workload(**json.loads(sys.argv[3])).make_frames(int(sys.argv[4]))
    t1 = time.perf_counter()
print(probe.scaled(t0, t1, t1 - t0))
"""


def setup_seconds(workload: Workload, seed: int) -> list:
    """Import plus fixture generation, each sample in a fresh interpreter
    and scaled to the reference speed by its own :class:`SpeedProbe`."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(BENCH_DIR),
           json.dumps(asdict(workload)), str(seed)]
    return [
        float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=120).stdout)
        for _ in range(SETUP_SAMPLES)
    ]


# -- one encode/decode cycle -------------------------------------------------------


def decode_checked(data: bytes, frames, decode=decode_sequence,
                   collect_stats: bool = False):
    """Decode ``data`` and count the frames not reproduced coordinate-exact.

    Returns (failed frames, decode seconds, DecodeStats or None, error text
    or None).  A container that does not decode fails every frame; its error
    is returned, so a corrupt stream is counted rather than ending the run.
    """
    t0 = time.perf_counter()
    try:
        decoded, stats = decode(data, collect_stats=collect_stats)
    except Exception:  # any decoder failure is a lossless miss to report
        return len(frames), time.perf_counter() - t0, None, traceback.format_exc(limit=2)
    elapsed = time.perf_counter() - t0
    if len(decoded) != len(frames):
        return len(frames), elapsed, stats, f"{len(decoded)} frames decoded, {len(frames)} encoded"
    failed = sum(not np.array_equal(got.coords, want.coords)
                 for got, want in zip(decoded, frames))
    return failed, elapsed, stats, None


@dataclass
class Cycle:
    start: float  # perf_counter() when the encode began
    encode_s: float
    decode_s: float
    cpu_s: float
    sha256: str
    data: bytes
    failed_frames: int
    error: Optional[str]
    report: EncodeReport
    stats: Optional[DecodeStats] = None
    trace: Optional[tuple] = None  # (encode Trace, decode Trace) when traced


def run_cycle(frames, config: GopConfig, tracer: Optional[Tracer] = None) -> Cycle:
    """Encode, decode and check once; traced spans cover exactly the two calls."""
    encode, decode = encode_sequence, decode_sequence
    if tracer is not None:
        encode = functools.partial(tracer.call, "pipeline.encode", encode_sequence)
        decode = functools.partial(tracer.call, "pipeline.decode", decode_sequence)
    c0 = time.process_time()
    t0 = time.perf_counter()
    data, report = encode(frames, config)
    encode_s = time.perf_counter() - t0
    encode_trace = tracer.take() if tracer is not None else None
    failed, decode_s, stats, error = decode_checked(
        data, frames, decode, collect_stats=tracer is not None)
    cycle = Cycle(t0, encode_s, decode_s, time.process_time() - c0,
                  hashlib.sha256(data).hexdigest(), data, failed, error,
                  report, stats)
    if tracer is not None:
        cycle.trace = (encode_trace, tracer.take())
    return cycle


# -- metrics -------------------------------------------------------------------------


def _traced_values(cycle: Cycle) -> dict:
    encode, decode = cycle.trace
    values = encode.merged(decode).layer_metrics()
    report, stats = cycle.report, cycle.stats
    stage_records = [s for f in report.frames for s in f.stages]
    values.update({
        "pipeline.train_s": report.training_seconds,
        "pipeline.coding_s": report.coding_seconds,
        "params.bits": sum(report.gop_param_bits),
        "params.share": report.allocation()["decoder_params"],
        "rangecoder.overhead_ratio": (
            sum(s.payload_bits for s in stage_records)
            / sum(s.estimated_bits for s in stage_records)),
        "trace.encode_s": cycle.encode_s,
        "trace.decode_s": cycle.decode_s,
    })
    if stats is not None:
        values["pipeline.decode_param_s"] = stats.param_seconds
        for i, seconds in stats.scale_seconds.items():
            values[f"pipeline.decode_scale_s.{i}"] = seconds
    return values


def _self_table(trace, top: str) -> dict:
    """Self time per span; within ``top`` the self times sum to its duration."""
    spans = sorted(trace.spans.items(), key=lambda kv: -kv[1][2])
    return {
        "top_span_s": trace.total(top),
        "self_sum_s": sum(own for _, (_, _, own) in spans),
        "spans": {name: {"calls": calls, "inclusive_s": total, "self_s": own}
                  for name, (calls, total, own) in spans},
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full result record."""
    setup = setup_seconds(workload, seed) if not trace else []
    frames = workload.make_frames(seed)
    config = workload.config()
    plain, traced = [], []
    redecodes = []  # (start, seconds, failed frames, error) of second decodes
    probe = None if trace else SpeedProbe()
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        while True:
            cycle = run_cycle(frames, config)
            plain.append(cycle)
            if trace:
                with Tracer() as tracer:
                    traced.append(run_cycle(frames, config, tracer))
            else:
                # Decode is the shorter half of a repeat and the noisier one;
                # a second decode doubles its samples for a fifth to a third
                # more time per repeat.
                t0 = time.perf_counter()
                failed_frames, decode_s, _, error = decode_checked(cycle.data, frames)
                redecodes.append((t0, decode_s, failed_frames, error))
            # Two repeats at least, for the determinism check.
            elapsed = time.perf_counter() - start
            next_end = elapsed + elapsed / len(plain)
            if len(plain) >= 2 and next_end > seconds:
                break

    cycles = plain + traced
    first = plain[0].sha256
    sha_misses = sum(c.sha256 != first for c in cycles)
    frame_misses = (sum(c.failed_frames for c in cycles)
                    + sum(r[2] for r in redecodes))
    attempted = len(cycles) * (len(frames) + 1) + len(redecodes) * len(frames)
    failed = frame_misses + sha_misses
    errors = {c.error for c in cycles} | {r[3] for r in redecodes}
    points = sum(len(f) for f in frames)

    wall = {
        "encode_s": [c.encode_s for c in plain],
        "decode_s": [c.decode_s for c in plain] + [r[1] for r in redecodes],
        "cpu_s": [c.cpu_s for c in plain],
    }
    spec = metric_spec()
    if trace:
        per_cycle = [_traced_values(c) for c in traced]
        values = {name: statistics.median([v[name] for v in per_cycle]) for name in per_cycle[0]}
        values["trace.encode_overhead_s"] = (
            values["trace.encode_s"] - statistics.median(wall["encode_s"]))
        values["trace.decode_overhead_s"] = (
            values["trace.decode_s"] - statistics.median(wall["decode_s"]))
        listed = spec["per_layer"]
        scaled = {}
    else:
        scaled = {
            "encode_s": [probe.scaled(c.start, c.start + c.encode_s, c.encode_s)
                         for c in plain],
            "decode_s": [probe.scaled(c.start + c.encode_s, c.start + c.encode_s + c.decode_s,
                                      c.decode_s) for c in plain]
                        + [probe.scaled(t0, t0 + decode_s, decode_s)
                           for t0, decode_s, _, _ in redecodes],
            "cpu_s": [probe.scaled(c.start, c.start + c.encode_s + c.decode_s, c.cpu_s)
                      for c in plain],
        }
        values = {name: statistics.median(v) for name, v in scaled.items()}
        values.update({
            "setup_s": statistics.median(setup),
            "bpp": 8 * len(plain[0].data) / points,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        values.update({f"wall_{name}": statistics.median(v) for name, v in wall.items()})
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": asdict(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "points": points,
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "container": {"sha256": first, "bytes": len(plain[0].data)},
        "lossless": {
            "attempted": attempted,
            "failed": failed,
            "lossless_fail_ratio": failed / attempted,
            "frame_misses": frame_misses,
            "sha256_misses": sha_misses,
            "errors": sorted(e for e in errors if e),
        },
        "samples": {"setup_s": setup, "wall": wall, "scaled": scaled},
        "metrics": metrics,
        "all_values": values,
    }
    if probe is not None:
        record["probe"] = {
            "samples": len(probe.durations),
            "median_s": statistics.median(probe.durations),
            "p5_s": float(np.percentile(probe.durations, 5)),
        }
    if trace:
        record["self_time"] = {
            "encode": _self_table(traced[-1].trace[0], "pipeline.encode"),
            "decode": _self_table(traced[-1].trace[1], "pipeline.decode"),
        }
    return record


def summary(record: dict) -> dict:
    """The one-line result object."""
    loss = record["lossless"]
    return {
        "correct": loss["failed"] == 0,
        "attempted": loss["attempted"],
        "failed": loss["failed"],
        "metrics": record["metrics"],
    }
