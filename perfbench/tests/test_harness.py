"""Self-test of the benchmark harness on a workload that runs in seconds.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import signal
import struct
import subprocess
import sys

import pytest

import harness
from harness import Workload
from linr import autodiff, network, params, pipeline, rangecoder, voxel
from tracer import Tracer

# Four scale transitions, so every decode_scale_s.<i> metric exists.
TINY = Workload("tiny", "sphere-shell", 8, frames=2, gop=2, epochs_first=1,
                epochs_rest=1, stop_at=8)


def _snapshot():
    owners = (autodiff, network, params, pipeline, rangecoder, voxel,
              autodiff.Tensor, autodiff.Adam, network.OccupancyModel,
              voxel.SparseVoxelSet)
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


@pytest.mark.parametrize("trace,listed", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, listed):
    record = harness.run(TINY, seed=3, seconds=0, trace=trace)
    # The speed probe's timer and handler are gone after the run.
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    result = harness.summary(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = harness.metric_spec()[listed]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert math.isfinite(emitted["value"])
    json.dumps(result)
    if trace:
        # Self times of all spans inside a phase add up to the phase.
        for table in record["self_time"].values():
            assert table["self_sum_s"] == pytest.approx(table["top_span_s"], rel=1e-9)
        assert result["metrics"]["autodiff.sparse_conv_calls"]["value"] > 0
        assert result["metrics"]["params.compress_s"]["value"] > 0
        assert result["metrics"]["rangecoder.decode_s"]["value"] > 0


def test_tracer_leaves_no_patched_attribute_behind():
    before = _snapshot()
    with Tracer():
        assert pipeline.compress_params is not params.compress_params
        assert pipeline.RangeEncoder is not rangecoder.RangeEncoder
        assert "kernel_pairs" in vars(voxel.SparseVoxelSet)
    assert _snapshot() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("traced code failed")
    assert _snapshot() == before
    frames = TINY.make_frames(0)
    with Tracer() as tracer:
        harness.run_cycle(frames, TINY.config(), tracer)
    assert _snapshot() == before


def _flip_first_occupancy_byte(data: bytes) -> bytes:
    """Invert the first byte of the first non-empty occupancy payload."""
    pos = params.unpack_param_block(data, pipeline.HEADER_SIZE)[3]
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4 + 6 * count
    while True:
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if length:
            return data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1:]


def test_flipped_payload_byte_is_a_counted_failure(monkeypatch):
    frames = TINY.make_frames(0)
    data, _ = pipeline.encode_sequence(frames, TINY.config())
    failed, _, _, _ = harness.decode_checked(_flip_first_occupancy_byte(data), frames)
    assert failed >= 1

    encode = harness.encode_sequence

    def corrupting_encode(frames, config):
        data, report = encode(frames, config)
        return _flip_first_occupancy_byte(data), report

    monkeypatch.setattr(harness, "encode_sequence", corrupting_encode)
    record = harness.run(TINY, seed=0, seconds=0, trace=False)
    result = harness.summary(record)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_cli_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
