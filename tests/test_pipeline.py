"""Pipeline tests: training orchestration, container framing, losslessness.

The cardinal oracle is the roundtrip itself: decode(encode(x)) must equal x
coordinate-exactly.  Structural cases parse the container with an
independent walker built from the documented layout.
"""
import copy
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from linr import autodiff as ad
from linr import params, pipeline
from linr.errors import CountMismatchError, DecodeError, LinrError
from linr.network import NUM_STAGES, ModelConfig, OccupancyModel
from linr.params import (BLOCK_HEADER_SIZE, decompress_params, quantize,
                         unpack_param_block)
from linr.plyio import generate_fixture
from linr.pipeline import (
    GopConfig,
    HEADER_SIZE,
    _coding_pass,
    _stage_decoder,
    _stage_encoder,
    container_summary,
    decode_sequence,
    encode_sequence,
    train_gop,
    verify,
)
from linr.rangecoder import (PROB_ONE, ContextCounts, RangeDecoder, RangeEncoder,
                             quantize_probabilities)
from linr.voxel import SparseVoxelSet, build_pyramid, reconstruct_children


def random_frame(rng, n=300, hi=256):
    return SparseVoxelSet(rng.integers(0, hi, size=(n, 3)))


# The isolated parents' mask prior as the format states it: 32 for the
# eight single-child masks, 1 for the other masks, symbol mask - 1.
MASK_PRIOR = [32 if m & (m - 1) == 0 else 1 for m in range(1, 256)]


def count_table(counts):
    """The count table of the isolated parents' masks from Python integers:
    weights 2 * count + prior, each one's share of 2^16 - 255 rounded down
    plus 1, the remainder to the first largest weight."""
    weights = [2 * c + p for c, p in zip(counts, MASK_PRIOR)]
    budget = PROB_ONE - len(weights)
    freq = [1 + w * budget // sum(weights) for w in weights]
    freq[weights.index(max(weights))] += PROB_ONE - sum(freq)
    return freq


def mask_bits(pyr):
    """Per scale transition, the ideal bits of its isolated parents' masks
    under the frame's count tables: counts carry from coarse to fine, and
    the table is rebuilt at each level's start and every 256 masks.  Also
    the table in force at each folded level's start."""
    counts = [0] * 255
    bits, first_tables = {}, {}
    for i in range(pyr.num_scales - 1, -1, -1):
        rows = pyr.levels[i + 1].fold()
        if rows is pyr.levels[i + 1]:
            continue
        bits[i] = 0.0
        for k, m in enumerate(pyr.masks(i)[rows.iso].tolist()):
            if k % 256 == 0:
                freq = count_table(counts)
                first_tables.setdefault(i, freq)
            bits[i] -= np.log2(freq[m - 1] / PROB_ONE)
            counts[m - 1] += 1
    return bits, first_tables


def kt_reference(counts, contexts, bits):
    """Sequential Krichevsky-Trofimov probabilities of a one, one event at
    a time, in Python integers: each context's counts in ``counts`` (a dict
    of [ones, total], missing means zero) as they stand before the event,
    then the event counted in."""
    out = []
    for c, b in zip(contexts, bits):
        ones, total = counts.setdefault(c, [0, 0])
        out.append(min(max(((2 * ones + 1) << 16) // (2 * total + 2), 1), PROB_ONE - 1))
        counts[c] = [ones + int(b), total + 1]
    return out


def stage_bits_and_contexts(pyr, i):
    """Per stage j of transition i: j, the bits of the parents the network
    runs on (every parent, or the linked ones of a folded level), and each
    one's count context within the scale, from a set lookup: (8 j + its
    occupied earlier sibling slots) times 13 plus its occupied
    26-neighbours, capped at 12."""
    coarse = pyr.levels[i + 1]
    rows = coarse.fold()
    masks = pyr.masks(i)
    if rows is not coarse:
        masks = masks[rows.keep]
    occupied = set(map(tuple, coarse.coords.tolist()))
    coords = coarse.coords if rows is coarse else coarse.coords[rows.keep]
    neighbours = [
        min(sum((x + dx, y + dy, z + dz) in occupied
                for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                if dx or dy or dz), 12)
        for x, y, z in coords.tolist()]
    for j in range(NUM_STAGES):
        bits = ((masks >> j) & 1).tolist()
        siblings = [bin(m & ((1 << j) - 1)).count("1") for m in masks.tolist()]
        yield j, bits, [13 * (8 * j + s) + n for s, n in zip(siblings, neighbours)]


def cube_frame(size, offset=0):
    pts = [
        (x + offset, y + offset, z + offset)
        for x in range(size)
        for y in range(size)
        for z in range(size)
    ]
    return SparseVoxelSet(np.array(pts))


def read_leb128(data, pos):
    """An unsigned LEB128 number at ``pos``; returns (value, next pos)."""
    value, shift = 0, 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, pos


def leb128_size(n):
    """Bytes of minimal LEB128 for ``n``: one per started 7 bits."""
    return max(1, -(-n.bit_length() // 7))


def walk_container(data):
    """Independent container walk from the documented byte layout: a stage
    payload's prefix is 2 * length + kind.

    Returns (header fields, per-gop param block spans, per-frame byte
    spans, and per stage payload its (prefix start, payload start, payload
    end)).
    """
    magic, version, bit_depth, num_scales, gop_size, frame_count, bits = (
        struct.unpack_from("<4sBBBHIB", data, 0)
    )
    pos = HEADER_SIZE
    blocks = []
    frame_spans = []
    stage_spans = []
    remaining = frame_count
    while remaining > 0:
        in_gop = min(gop_size, remaining)
        _, _, payload, new_pos = unpack_param_block(data, pos)
        blocks.append((pos, new_pos))
        pos = new_pos
        for _ in range(in_gop):
            start = pos
            (count,) = struct.unpack_from("<I", data, pos)
            pos += 4 + 6 * count
            for _ in range(num_scales * 8):
                prefix, start = read_leb128(data, pos)
                stage_spans.append((pos, start, start + (prefix >> 1)))
                pos = start + (prefix >> 1)
            frame_spans.append((start, pos))
        remaining -= in_gop
    assert pos == len(data), "walker must account for every byte"
    header = dict(magic=magic, version=version, bit_depth=bit_depth,
                  num_scales=num_scales, gop_size=gop_size,
                  frame_count=frame_count, bits=bits)
    return header, blocks, frame_spans, stage_spans


class TestTrainGop:
    def test_zero_epochs_returns_init(self):
        rng = np.random.default_rng(0)
        frames = [random_frame(rng)]
        cfg = GopConfig(gop_size=4, seed=1)
        fresh = train_gop(frames, cfg, epochs=0)
        init = rng.normal(scale=0.1, size=fresh.model.num_parameters())
        out = train_gop(frames, cfg, init=init, epochs=0)
        np.testing.assert_array_equal(out.model.flatten(),
                                      init.astype(np.float32))
        assert len(out.losses) == 0

    def test_deterministic_training(self):
        rng = np.random.default_rng(1)
        frames = [random_frame(rng, n=150), random_frame(rng, n=150)]
        cfg = GopConfig(gop_size=4, seed=3)
        a = train_gop(frames, cfg, epochs=2)
        b = train_gop(frames, cfg, epochs=2)
        np.testing.assert_array_equal(a.model.flatten(), b.model.flatten())
        assert a.losses == b.losses

    def test_loss_history_length(self):
        rng = np.random.default_rng(2)
        frames = [random_frame(rng, n=100) for _ in range(3)]
        out = train_gop(frames, GopConfig(gop_size=4, seed=0), epochs=2)
        assert len(out.losses) == 6  # one step per frame per epoch

    def test_one_pyramid_per_frame(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return build_pyramid(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_pyramid", counted)
        rng = np.random.default_rng(2)
        frames = [random_frame(rng, n=100) for _ in range(3)]
        train_gop(frames, GopConfig(gop_size=4, seed=0), epochs=0)
        assert len(calls) == 3
        calls.clear()
        encode_sequence(frames, GopConfig(gop_size=2, epochs_first=0,
                                          epochs_rest=0))
        assert len(calls) == 3

    def test_no_grad_in_another_thread_does_not_stop_training(self):
        rng = np.random.default_rng(6)
        frames = [random_frame(rng, n=150) for _ in range(2)]
        cfg = GopConfig(gop_size=2, seed=0)
        alone = train_gop(frames, cfg, epochs=3).losses
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with ad.no_grad():
                entered.set()
                release.wait(60)

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        try:
            assert entered.wait(60)
            beside = train_gop(frames, cfg, epochs=3).losses
        finally:
            release.set()
            holder.join(60)
        assert not holder.is_alive()
        assert beside == alone

    @staticmethod
    def record_adam_steps(monkeypatch):
        """Patch Adam.step to log (optimizer, step count before the step)."""
        seen = []
        step = ad.Adam.step

        def logged(opt):
            seen.append((opt, opt.steps))
            step(opt)

        monkeypatch.setattr(ad.Adam, "step", logged)
        return seen

    def test_sequence_keeps_one_optimizer(self, monkeypatch):
        seen = self.record_adam_steps(monkeypatch)
        rng = np.random.default_rng(7)
        frames = [random_frame(rng, n=80) for _ in range(5)]
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=1, bits=8)
        _, report = encode_sequence(frames, cfg)
        assert len(report.gop_losses) == 3
        assert len(seen) == 4 + 2 + 1
        assert all(opt is seen[0][0] for opt, _ in seen)
        assert [steps for _, steps in seen] == list(range(len(seen)))

    def test_resume_matches_encoder(self):
        rng = np.random.default_rng(8)
        frames = [random_frame(rng, n=120) for _ in range(4)]
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=2, bits=8)
        _, report = encode_sequence(frames, cfg)
        first = train_gop(frames[:2], cfg, epochs=cfg.epochs_first)
        header, q = quantize(first.model.flatten(), cfg.bits)
        pipeline.reload_dequantized(first.model, header, q)
        second = train_gop(frames[2:], cfg, epochs=cfg.epochs_rest,
                           resume=first)
        assert first.losses == report.gop_losses[0]
        assert second.losses == report.gop_losses[1]
        assert second.model is first.model
        assert second.optimizer is first.optimizer
        with pytest.raises(ValueError, match="not both"):
            train_gop(frames[2:], cfg, init=q, resume=first)
        with pytest.raises(ValueError, match="scales"):
            train_gop(frames[2:], cfg, num_scales=first.num_scales + 1,
                      resume=first)

    def test_init_starts_a_fresh_optimizer(self, monkeypatch):
        rng = np.random.default_rng(9)
        frames = [random_frame(rng, n=100)]
        cfg = GopConfig(gop_size=1, seed=0)
        first = train_gop(frames, cfg, epochs=2)
        seen = self.record_adam_steps(monkeypatch)
        warm = train_gop(frames, cfg, init=first.model.flatten(),
                         num_scales=first.num_scales, epochs=2)
        assert [steps for _, steps in seen] == [0, 1]
        assert seen[0][0] is seen[1][0]
        assert warm.model is not first.model

    def test_report_carries_loss_curves(self):
        rng = np.random.default_rng(5)
        frames = [random_frame(rng, n=80) for _ in range(5)]
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=1, bits=8)
        _, report = encode_sequence(frames, cfg)
        lengths = [len(curve) for curve in report.gop_losses]
        assert lengths == [e * n for e, n in zip(report.epochs_used,
                                                  report.gop_frame_counts)]
        assert lengths == [4, 2, 1]
        assert all(np.isfinite(curve).all() for curve in report.gop_losses)
        assert report.to_dict()["gop_losses"] == report.gop_losses


class TestWarmGroupSkip:
    """A warm group whose step budget cannot move any parameter by half a
    quantization step runs no epoch and codes the all-zero delta."""

    FRAMES = [cube_frame(8, offset=k) for k in range(6)]

    @classmethod
    def encode(cls, **options):
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=1, seed=5,
                        **options)
        return encode_sequence(cls.FRAMES, cfg)

    def test_warm_groups_skip_at_four_bits(self):
        data, report = self.encode()
        assert report.epochs_used == [2, 0, 0]
        assert [len(curve) for curve in report.gop_losses] == [4, 0, 0]
        assert report.gop_param_kinds == ["absolute", "delta", "delta"]
        _, _, groups = pipeline._walk(data)
        for quant, side, payload, _ in groups[1:]:
            assert payload == b""  # an all-zero delta: no parameter moves
        res = verify(data, self.FRAMES)
        assert res.ok, res.message

    def test_skip_codes_what_training_would(self, monkeypatch):
        data, _ = self.encode()
        monkeypatch.setattr(pipeline, "zero_delta_within",
                            lambda *args: False)
        trained, report = self.encode()
        assert report.epochs_used == [2, 1, 1]
        assert len(trained) == len(data)
        skipped, full = (pipeline._walk(d)[2] for d in (data, trained))
        for (_, _, payload_a, frames_a), (_, _, payload_b, frames_b) in zip(
                skipped, full):
            assert payload_a == payload_b
            assert frames_a == frames_b  # lowest-scale blocks and payloads

    def test_eight_bits_train_every_group(self):
        _, report = self.encode(bits=8)
        assert report.epochs_used == [2, 1, 1]
        assert [len(curve) for curve in report.gop_losses] == [4, 2, 2]


class TestContainerStructure:
    def test_header_fields(self):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, n=120) for _ in range(3)]
        cfg = GopConfig(gop_size=2, epochs_first=0, epochs_rest=0,
                        bit_depth=10, bits=8)
        data, report = encode_sequence(frames, cfg)
        header, blocks, spans, _ = walk_container(data)
        assert header["magic"] == b"LNRP"
        assert header["bit_depth"] == 10
        assert header["frame_count"] == 3
        assert header["gop_size"] == 2
        assert len(blocks) == 2  # two groups: 2 + 1 frames
        assert len(spans) == 3

    def test_gop_size_fits_header(self):
        assert GopConfig(gop_size=0xFFFF).gop_size == 0xFFFF
        for bad in (0, 0x10000, 70000):
            with pytest.raises(ValueError, match="gop_size"):
                GopConfig(gop_size=bad)

    def test_total_size_accounting(self):
        rng = np.random.default_rng(4)
        frames = [random_frame(rng, n=200)]
        data, report = encode_sequence(frames, GopConfig(gop_size=4,
                                                         epochs_first=1))
        assert report.total_bits == 8 * len(data)
        alloc = report.allocation()
        assert sum(alloc.values()) == pytest.approx(1.0, abs=1e-9)

    def test_identical_frames_identical_payloads(self):
        rng = np.random.default_rng(5)
        frame = random_frame(rng, n=200)
        same = SparseVoxelSet(frame.coords.copy())
        data, _ = encode_sequence([frame, same],
                                  GopConfig(gop_size=4, epochs_first=1))
        _, _, spans, _ = walk_container(data)
        a, b = spans
        assert data[a[0]:a[1]] == data[b[0]:b[1]]

    def test_remainder_grouping(self):
        rng = np.random.default_rng(6)
        frames = [random_frame(rng, n=80) for _ in range(5)]
        cfg = GopConfig(gop_size=32, epochs_first=0)
        data, report = encode_sequence(frames, cfg)
        assert report.gop_frame_counts == [5]
        _, blocks, _, _ = walk_container(data)
        assert len(blocks) == 1

    def test_three_gop_split(self):
        rng = np.random.default_rng(7)
        frames = [random_frame(rng, n=60) for _ in range(6)]
        cfg = GopConfig(gop_size=2, epochs_first=0, epochs_rest=0)
        data, report = encode_sequence(frames, cfg)
        assert report.gop_frame_counts == [2, 2, 2]
        assert len(report.gop_param_bits) == 3

    def test_summary_matches_report_accounting(self):
        rng = np.random.default_rng(22)
        frames = [random_frame(rng, n=150) for _ in range(5)]
        cfg = GopConfig(gop_size=2, epochs_first=1, epochs_rest=0)
        data, report = encode_sequence(frames, cfg)
        summary = container_summary(data)
        assert summary["gop_count"] == 3  # 2 + 2 + 1 frames
        assert summary["frame_count"] == 5
        assert 8 * summary["param_bytes"] == sum(report.gop_param_bits)
        assert summary["lowest_bytes"] == sum(f.lowest_bits / 8
                                              for f in report.frames)
        assert sum(summary["scale_bytes"].values()) == sum(
            f.occupancy_bits / 8 for f in report.frames)
        prefix_bytes = {i: 0 for i in range(report.num_scales)}
        for f in report.frames:
            for rec in f.stages:
                prefix_bytes[rec.scale] += leb128_size(
                    2 * (rec.payload_bits // 8) + (rec.kind == "counts"))
        assert summary["scale_bytes"] == {
            i: bits / 8 + prefix_bytes[i]
            for i, bits in report.occupancy_by_scale().items()}
        assert [8 * b for b in summary["gop_param_bytes"]] == report.gop_param_bits
        assert (summary["gop_param_kinds"] == report.to_dict()["gop_param_kinds"]
                == ["absolute", "delta", "delta"])

    def test_report_and_summary_keys(self):
        rng = np.random.default_rng(4)
        frames = [random_frame(rng, n=120) for _ in range(2)]
        data, report = encode_sequence(frames, GopConfig(gop_size=1,
                                                         epochs_first=0,
                                                         epochs_rest=0))
        out = report.to_dict()
        assert list(out) == [
            "num_scales", "total_bits", "total_points", "bpp", "allocation",
            "occupancy_bits_by_scale", "count_payloads_by_scale",
            "gop_param_bits", "gop_param_kinds",
            "gop_frame_counts", "epochs_used", "gop_losses",
            "training_seconds", "coding_seconds", "encode_seconds", "frames",
        ]
        assert list(out["frames"][0]) == [
            "frame", "gop", "points", "bpp", "lowest_bits", "occupancy_bits",
            "param_bits_amortized", "stages",
        ]
        assert list(out["frames"][0]["stages"][0]) == [
            "scale", "stage", "payload_bits", "estimated_bits",
            "network_bits", "count_bits", "kind",
        ]
        assert list(container_summary(data)) == [
            "file_bytes", "header_bytes", "param_bytes", "gop_param_bytes",
            "gop_param_kinds", "lowest_bytes", "scale_bytes", "count_payloads",
            "num_scales",
            "frame_count", "gop_count", "gop_size", "bit_depth",
            "param_bits_width",
        ]

    def test_single_point_frame_minimal_container(self):
        frame = SparseVoxelSet(np.array([[0, 0, 0]]))
        data, report = encode_sequence([frame], GopConfig(gop_size=1))
        assert report.num_scales == 0
        # Header, an empty parameter block, and one 1-point lowest block.
        assert len(data) == HEADER_SIZE + BLOCK_HEADER_SIZE + 4 + 6
        decoded, _ = decode_sequence(data)
        assert decoded[0] == frame


class TestLosslessness:
    @pytest.mark.parametrize("maker", [
        lambda rng: cube_frame(6),
        lambda rng: random_frame(rng, n=500, hi=1024),
        lambda rng: random_frame(rng, n=50, hi=16),
    ])
    def test_roundtrip(self, maker):
        rng = np.random.default_rng(8)
        frames = [maker(rng) for _ in range(2)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=2, epochs_first=1))
        decoded, _ = decode_sequence(data)
        assert len(decoded) == len(frames)
        for got, want in zip(decoded, frames):
            assert got == want

    def test_roundtrip_multi_gop_warm_start(self):
        # 512 points per frame: one scale above the default stop_at, so each
        # group trains and sends a network.
        frames = [cube_frame(8, offset=k) for k in range(4)]
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=1, seed=5,
                        bits=8)
        data, report = encode_sequence(frames, cfg)
        assert report.num_scales >= 1
        assert report.gop_param_kinds == ["absolute", "delta"]
        assert report.epochs_used == [2, 1]
        res = verify(data, frames)
        assert res.ok, res.message

    def test_roundtrip_without_openblas(self, monkeypatch):
        monkeypatch.setattr(ad, "_openblas_threads", lambda: ())
        rng = np.random.default_rng(25)
        frames = [random_frame(rng, n=200)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1))
        res = verify(data, frames)
        assert res.ok, res.message

    def test_multi_group_reload_handshake(self, monkeypatch):
        # Per group: the trained vector and the one the encoder reloads,
        # then the one the decoder reloads, each seen at the reload.
        seen = {"encode": [], "decode": []}
        reload = pipeline.reload_dequantized

        def recording_reload(model, header, q, reference=None):
            before = model.flatten()
            reload(model, header, q, reference)
            seen[side].append((before, model.flatten(), header))

        monkeypatch.setattr(pipeline, "reload_dequantized", recording_reload)
        rng = np.random.default_rng(23)
        frames = [random_frame(rng, n=200) for _ in range(6)]
        cfg = GopConfig(gop_size=2, epochs_first=1, epochs_rest=1, seed=3)
        side = "encode"
        data, report = encode_sequence(frames, cfg)
        side = "decode"
        decoded, _ = decode_sequence(data)
        assert all(got == want for got, want in zip(decoded, frames))
        assert report.gop_param_kinds == ["absolute", "delta", "delta"]
        # The decoder reloads on every group with a payload; a group whose
        # delta is all zeros ships none and leaves the parameters held.
        groups = pipeline._walk(data)[2]
        assert len(seen["encode"]) == len(groups) == 3
        assert len(seen["decode"]) == sum(1 for *_, payload, _ in groups if payload)
        decoded_reloads = iter(seen["decode"])
        held = None
        for (trained, sent, header), (*_, payload, _) in zip(seen["encode"], groups):
            if payload:
                _, held, _ = next(decoded_reloads)
            assert sent.tobytes() == held.tobytes()
            # Half a step, plus the float32 rounding of the reloaded value.
            err = np.abs(sent.astype(np.float64) - trained)
            assert np.all(err <= header.step / 2 + np.spacing(np.abs(sent)))

    def test_warm_group_falls_back_to_absolute_block(self, monkeypatch):
        # Against a reference 1000 away no delta fits the 8-bit table.
        def far_reference(v, bits, reference=None):
            far = None if reference is None else reference + 1000.0
            return quantize(v, bits, reference=far)

        monkeypatch.setattr(pipeline, "quantize", far_reference)
        rng = np.random.default_rng(24)
        frames = [random_frame(rng, n=150) for _ in range(4)]
        cfg = GopConfig(gop_size=2, epochs_first=1, epochs_rest=1, seed=5)
        data, report = encode_sequence(frames, cfg)
        assert report.num_scales > 0
        assert report.gop_param_kinds == ["absolute", "absolute"]
        assert container_summary(data)["gop_param_kinds"] == ["absolute"] * 2
        res = verify(data, frames)
        assert res.ok, res.message

    def test_zero_model_payload_near_one_bit_per_slot(self):
        # Under p = 1/2 a linked parent's eight bits cost 8 bits under the
        # network; counts cost their sequential ideal bits.  An isolated
        # parent's mask costs its ideal bits under the count table in
        # either kind.
        rng = np.random.default_rng(10)
        frame = random_frame(rng, n=300)
        pyr = build_pyramid(frame, stop_at=64)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales))
        model.load_flat(np.zeros(model.num_parameters()))
        base = pyr.levels[-1]
        parts, stages = [], []
        encode_stage = _stage_encoder(pyr, parts, stages)
        for _ in _coding_pass(model, base, pyr.num_scales,
                              pipeline._sequence_counts(pyr.num_scales), encode_stage, pyr):
            pass
        iso_bits, _ = mask_bits(pyr)
        assert len(iso_bits) >= 2
        counts = {}
        costs = 0.0  # each coded child's share, as the decoder charges it
        records = iter(stages)
        for i in range(pyr.num_scales - 1, -1, -1):
            for j, bits, contexts in stage_bits_and_contexts(pyr, i):
                rec = next(records)
                iso = iso_bits.get(i, 0.0) if j == NUM_STAGES - 1 else 0.0
                p1 = kt_reference(counts, [(i, j, c) for c in contexts], bits)
                counted = sum(-np.log2((p if b else PROB_ONE - p) / PROB_ONE)
                              for p, b in zip(p1, bits))
                assert (rec.scale, rec.stage) == (i, j)
                assert rec.network_bits == pytest.approx(len(bits) + iso, rel=1e-12)
                assert rec.count_bits == pytest.approx(counted + iso, rel=1e-12)
                # The estimate is the ideal bits of the kind it was coded in,
                # the cheaper one up to its length prefix.
                ideal = {"network": rec.network_bits, "counts": rec.count_bits}
                assert rec.estimated_bits == ideal[rec.kind]
                assert rec.estimated_bits <= min(ideal.values()) + 8
                hits = [p for p, b in zip(p1, bits) if b]
                costs += (len(hits) if rec.kind == "network"
                          else sum(-np.log2(p / PROB_ONE) for p in hits)) + iso
        assert {rec.kind for rec in stages} == {"network", "counts"}
        ideal = sum(rec.estimated_bits for rec in stages)
        assert ideal < 8 * sum(len(pyr.levels[i + 1]) for i in range(pyr.num_scales))
        measured = sum(s.payload_bits for s in stages)
        streams = len(stages)
        assert measured >= ideal - 1
        assert measured <= 1.02 * ideal + 16 * streams
        # parts alternates prefixes and payloads.
        kinds = [read_leb128(prefix, 0)[0] & 1 for prefix in parts[::2]]
        assert kinds == [rec.kind == "counts" for rec in stages]
        point_costs = []
        decode_stage = _stage_decoder(zip(parts[1::2], kinds), point_costs)
        for _, level in _coding_pass(model, base, pyr.num_scales,
                                     pipeline._sequence_counts(pyr.num_scales), decode_stage):
            pass
        assert level == frame
        assert sum(c.sum() for _, _, c in point_costs) == pytest.approx(costs, rel=1e-12)

    def test_coding_pass_probabilities_match_training_pass(self, monkeypatch):
        rng = np.random.default_rng(12)
        trained = train_gop([random_frame(rng, n=300)], GopConfig(epochs_first=1))
        model, pyr = trained.model, trained.pyramids[0]
        pipeline.reload_dequantized(model, *pipeline.quantize(model.flatten(), 8))
        # Every stage's probabilities on the rows of coarse.fold(), as the
        # network computes them: every parent, or the linked ones.
        rows_seen = []
        stage_probability = model.stage_probability

        def recording(*args):
            p = stage_probability(*args)
            rows_seen.append(p.data.copy())
            return p

        monkeypatch.setattr(model, "stage_probability", recording)
        coded = {}

        def record(i, j, coarse, network, contexts, counts, mask_model):
            rows = coarse.fold()
            bits_j = ((pyr.masks(i) >> j) & 1).astype(np.int64)
            table = None
            if mask_model is not None:
                # Code the masks as the encoder does, so the counts carry.
                table = mask_model.frequencies().tolist()
                RangeEncoder().encode_adaptive(
                    mask_model, pyr.masks(i)[rows.iso].astype(np.int64) - 1)
            probs = network()
            coded[i, j] = (probs.tobytes(), quantize_probabilities(probs), table, contexts)
            return (bits_j, None) if rows is coarse else (bits_j[rows.keep], None)

        for _ in _coding_pass(model, pyr.levels[-1], pyr.num_scales,
                              pipeline._sequence_counts(pyr.num_scales), record, pyr):
            pass
        assert len(coded) == NUM_STAGES * pyr.num_scales
        _, want_tables = mask_bits(pyr)
        coding_rows = rows_seen[:]
        rows_seen.clear()
        folded = 0
        for i in range(pyr.num_scales - 1, -1, -1):
            coarse, masks = pyr.levels[i + 1], pyr.masks(i)
            probs, _ = model.predict_children(model.scale_context(coarse, i),
                                              coarse, masks)
            training_rows = rows_seen[-NUM_STAGES:]
            rows = coarse.fold()
            for j, _, want_contexts in stage_bits_and_contexts(pyr, i):
                want = training_rows[j]
                assert want.shape == (len(rows), 1)
                assert coding_rows.pop(0).tobytes() == want.tobytes()
                probs_j, quantized, table, contexts = coded[i, j]
                assert probs_j == want[:, 0].tobytes()
                assert np.array_equal(quantized, quantize_probabilities(want[:, 0]))
                assert probs[j].data.tobytes() == want.tobytes()
                assert contexts.tolist() == want_contexts
                if rows is coarse or j < NUM_STAGES - 1:
                    assert table is None
                else:
                    assert table == want_tables[i]
            if rows is not coarse:
                folded += 1
                assert len(rows.iso) > 0
        # Counts carried into a later level differ from a fresh table.
        assert folded >= 2 and not coding_rows
        assert want_tables[min(want_tables)] != count_table([0] * 255)

class TestPayloadVsEstimate:
    def test_measured_bits_track_estimates(self):
        rng = np.random.default_rng(11)
        frames = [random_frame(rng, n=400) for _ in range(2)]
        data, report = encode_sequence(frames, GopConfig(gop_size=2,
                                                         epochs_first=2))
        checked = 0
        for frame in report.frames:
            for rec in frame.stages:
                assert rec.payload_bits <= 1.02 * rec.estimated_bits + 32, (
                    frame.frame_index, rec.scale, rec.stage,
                    rec.payload_bits, rec.estimated_bits,
                )
                checked += 1
        assert checked == len(report.frames) * report.num_scales * 8


class TestDecodeRobustness:
    def make_container(self, **config):
        rng = np.random.default_rng(12)
        frames = [random_frame(rng, n=150)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1,
                                                    **config))
        return data, frames

    def test_truncation_always_detected(self):
        data, _ = self.make_container()
        for cut in [len(data) - 1, len(data) // 2, HEADER_SIZE + 3,
                    HEADER_SIZE + BLOCK_HEADER_SIZE + 1, 5]:
            with pytest.raises((DecodeError, LinrError)):
                decode_sequence(data[:cut])

    def test_dropped_interior_byte_detected(self):
        data, _ = self.make_container()
        mid = len(data) // 2
        with pytest.raises(LinrError):
            decode_sequence(data[:mid] + data[mid + 1:])

    def test_trailing_garbage_detected(self):
        data, _ = self.make_container()
        with pytest.raises(DecodeError):
            decode_sequence(data + b"\x00")

    def test_bad_magic(self):
        data, _ = self.make_container()
        with pytest.raises(DecodeError):
            decode_sequence(b"XXXX" + data[4:])

    def test_summary_rejects_unsupported_version(self):
        data, _ = self.make_container()
        # 1: the per-scale context MLPs; 2: no parameter block kind;
        # 3 and 4: payloads of the bit-wise (Witten-Neal-Cleary) coder;
        # 5: convs summed per offset on every level; 6: im2col in one
        # block on levels of at most 2,048 points only; 7: isolated
        # parents evaluated one by one, not one per coded-slot prefix;
        # 8: isolated parents' masks coded as eight binary events, u32
        # length prefixes and a payload on every delta block; 9: the
        # context MLP and global.conv_in evaluated per point; 10: the
        # isolated parents' masks coded under the stand-in rows' table;
        # 11: every payload coded under the network, the isolated parents'
        # masks after the stage's bits, and a length prefix without kind.
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13):
            corrupt = bytearray(data)
            corrupt[4] = version  # the version byte follows the 4-byte magic
            with pytest.raises(DecodeError):
                decode_sequence(bytes(corrupt))
            with pytest.raises(DecodeError):
                container_summary(bytes(corrupt))

    def test_more_scales_than_bit_depth_rejected(self):
        data, _ = self.make_container()
        corrupt = bytearray(data)
        corrupt[6] = corrupt[5] + 1  # num_scales follows the bit_depth byte
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="exceed bit depth"):
                read(bytes(corrupt))

    def test_lowest_coordinates_bounded_by_depth_less_scales(self):
        # Two children of one parent: bit depth 10, one scale, so the
        # encoder writes lowest coordinates below 2^9.
        frame = SparseVoxelSet(np.array([[0, 0, 0], [1, 0, 0]]))
        data, _ = encode_sequence([frame], GopConfig(gop_size=1, epochs_first=0,
                                                     stop_at=1))
        assert data[5:7] == bytes([10, 1])
        pos = unpack_param_block(data, HEADER_SIZE)[-1]
        assert struct.unpack_from("<I3H", data, pos) == (1, 0, 0, 0)

        def with_lowest(c):
            corrupt = bytearray(data)
            struct.pack_into("<3H", corrupt, pos + 4, c, c, c)
            return bytes(corrupt)

        frames, _ = decode_sequence(with_lowest(511))
        assert frames[0].coords.tolist() == [[1022, 1022, 1022], [1023, 1022, 1022]]
        for c in (512, 1000):
            with pytest.raises(DecodeError, match="exceed declared bit depth"):
                decode_sequence(with_lowest(c))

    def test_bit_depth_outside_encoder_range_rejected(self):
        data, _ = encode_sequence([cube_frame(3)],
                                  GopConfig(gop_size=1, epochs_first=0))
        for depth in (0, 17, 255):
            corrupt = bytearray(data)
            corrupt[5] = depth  # the bit_depth byte follows magic and version
            for read in (decode_sequence, container_summary):
                with pytest.raises(DecodeError, match="bit depth"):
                    read(bytes(corrupt))

    def test_param_width_must_match_header(self):
        data, _ = self.make_container(bits=8)
        corrupt = bytearray(data)
        corrupt[HEADER_SIZE - 1] = 3  # param_bits closes the header
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="width 8 differs"):
                read(bytes(corrupt))

    def test_unknown_param_block_kind_rejected(self):
        data, _ = self.make_container()
        for kind in (2, 255):
            corrupt = bytearray(data)
            corrupt[HEADER_SIZE + BLOCK_HEADER_SIZE - 1] = kind  # closes the block header
            for read in (decode_sequence, container_summary):
                with pytest.raises(DecodeError, match="unknown parameter block kind"):
                    read(bytes(corrupt))

    def test_delta_block_in_first_group_rejected(self):
        data, _ = self.make_container()
        corrupt = bytearray(data)
        corrupt[HEADER_SIZE + BLOCK_HEADER_SIZE - 1] = 1  # delta
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="delta parameter block in the first"):
                read(bytes(corrupt))

    def test_inflated_param_count_rejected_before_decoding(self):
        data, _ = self.make_container()
        no_scales, _ = encode_sequence([cube_frame(1)], GopConfig(gop_size=1))
        # count follows min, max, mu, b (f32 each) and bits (u8).
        at = HEADER_SIZE + 17
        (count,) = struct.unpack_from("<I", data, at)
        for container, inflated in ((data, count + 1), (data, 1_000_000),
                                    (no_scales, 1)):
            corrupt = bytearray(container)
            struct.pack_into("<I", corrupt, at, inflated)
            for read in (decode_sequence, container_summary):
                t0 = time.perf_counter()
                with pytest.raises(CountMismatchError):
                    read(bytes(corrupt))
                assert time.perf_counter() - t0 < 1.0

    def test_non_finite_or_empty_param_range_rejected_before_decoding(self):
        # The encoder writes a finite min < max (a constant vector declares
        # min + 1) and a finite Laplace mean; anything else must be refused
        # by the walker, with no model run and no numpy warning.
        data, _ = encode_sequence([generate_fixture("sphere-shell", 6)],
                                  GopConfig(gop_size=1, epochs_first=1))
        lo, hi, mu = struct.unpack_from("<fff", data, HEADER_SIZE)
        assert lo < hi
        nan, inf = float("nan"), float("inf")
        cases = ([(0, v) for v in (nan, inf, -inf, hi)]        # min
                 + [(4, v) for v in (nan, inf, -inf, lo, lo - 1.0)]  # max
                 + [(8, v) for v in (nan, inf, -inf)])          # mu
        for offset, value in cases:
            corrupt = bytearray(data)
            struct.pack_into("<f", corrupt, HEADER_SIZE + offset, value)
            for read in (decode_sequence, container_summary):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DecodeError, match="parameter range|Laplace mean"):
                        read(bytes(corrupt))
        # A b that is zero, negative or NaN still selects the point mass.
        for value in (0.0, -1.0, nan):
            corrupt = bytearray(data)
            struct.pack_into("<f", corrupt, HEADER_SIZE + 12, value)
            assert container_summary(bytes(corrupt))["file_bytes"] == len(data)
            try:
                decode_sequence(bytes(corrupt))
            except LinrError:
                pass

    def test_param_values_beyond_float32_rejected_before_decoding(self):
        # Finite ranges whose span, or whose delta reach from the values
        # the blocks before can give, leaves float32: the walker refuses
        # them, with no model run and no numpy warning.
        frames = [generate_fixture("sphere-shell", 6, offset=k) for k in range(2)]
        data, report = encode_sequence(frames, GopConfig(
            gop_size=1, epochs_first=1, epochs_rest=0))
        assert report.gop_param_kinds == ["absolute", "delta"]
        _, blocks, _, _ = walk_container(data)
        first, delta = (start for start, _ in blocks)
        cases = [
            {first: (-3e38, 3e38)},
            {delta: (-3e38, 3e38)},
            {first: (0.0, 3e38), delta: (0.0, 1e38)},
            {first: (-3e38, 0.0), delta: (-1e38, 0.0)},
        ]
        for case in cases:
            corrupt = bytearray(data)
            for start, (lo, hi) in case.items():
                struct.pack_into("<ff", corrupt, start, lo, hi)
            for read in (decode_sequence, container_summary):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DecodeError, match="float32"):
                        read(bytes(corrupt))
        # Each block alone stays inside float32 and passes the walker.
        for start, (lo, hi) in ((first, (0.0, 3e38)), (delta, (0.0, 1e38))):
            corrupt = bytearray(data)
            struct.pack_into("<ff", corrupt, start, lo, hi)
            assert container_summary(bytes(corrupt))["file_bytes"] == len(data)

    def test_empty_lowest_scale_block_rejected(self):
        # The encoder never writes one: build_pyramid rejects empty clouds.
        data, _ = self.make_container()
        pos = unpack_param_block(data, HEADER_SIZE)[-1]
        (points,) = struct.unpack_from("<I", data, pos)
        corrupt = data[:pos] + struct.pack("<I", 0) + data[pos + 4 + 6 * points:]
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="empty lowest-scale block"):
                read(corrupt)

    def test_bit_flip_never_verifies(self):
        data, frames = self.make_container()
        rng = np.random.default_rng(13)
        for _ in range(8):
            pos = int(rng.integers(HEADER_SIZE, len(data)))
            bit = int(rng.integers(8))
            corrupt = bytearray(data)
            corrupt[pos] ^= 1 << bit
            res = verify(bytes(corrupt), frames)
            assert not res.ok


def with_payload(data, span, payload, prefix=None):
    """``data`` with one stage payload and its length prefix replaced; the
    prefix keeps the payload's kind unless given."""
    if prefix is None:
        prefix = bytearray()
        n = 2 * len(payload) + (read_leb128(data, span[0])[0] & 1)
        while n >= 0x80:
            prefix.append(0x80 | (n & 0x7F))
            n >>= 7
        prefix.append(n)
    return data[:span[0]] + bytes(prefix) + payload + data[span[2]:]


def grid(n, spacing=3, base=10):
    """``n`` points at least ``spacing`` apart: none neighbours another."""
    return [(base + spacing * (k % 10), base + spacing * (k // 10 % 10),
             base + spacing * (k // 100)) for k in range(n)]


def folded_frame(rng, parents, scale=1):
    """A frame whose level one up is ``parents``, each with a random mask."""
    coarse = SparseVoxelSet(np.array(parents) * scale)
    masks = rng.integers(1, 256, size=len(coarse)).astype(np.uint8)
    return reconstruct_children(masks, coarse)


class TestIsolatedMaskSymbols:
    """On a folded level every isolated parent's mask is one symbol at the
    end of stage 7's stream."""

    CUBE = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]

    @pytest.mark.parametrize("case", ["no linked parent", "1 isolated",
                                      "129 isolated", "16-bit"])
    def test_lossless(self, case):
        rng = np.random.default_rng(60)
        if case == "no linked parent":
            frame, linked, isolated = folded_frame(rng, grid(200)), 0, 200
        elif case == "1 isolated":
            frame = folded_frame(rng, self.CUBE + grid(1))
            linked, isolated = 64, 1
        elif case == "129 isolated":
            frame = folded_frame(rng, self.CUBE + grid(129))
            linked, isolated = 64, 129
        else:  # parents up to 2^15 - 1, so children reach 2^16 - 1
            parents = [(x, y, z) for x, y, z in grid(300, spacing=109, base=0)]
            parents[-1] = ((1 << 15) - 1,) * 3
            frame, linked, isolated = folded_frame(rng, parents), 0, 300
        config = GopConfig(gop_size=1, epochs_first=1,
                           bit_depth=16 if case == "16-bit" else 10)
        pyr = build_pyramid(frame, stop_at=config.stop_at)
        rows = pyr.levels[1].fold()
        assert rows is not pyr.levels[1]
        assert (len(rows.keep), len(rows.iso)) == (linked, isolated)
        data, report = encode_sequence([frame], config)
        decoded, _ = decode_sequence(data)
        assert decoded == [frame]
        # The finest transition's stage 7 carries the symbols: at least
        # one bit under any table of 255 masks whose largest is < 2^16.
        finest = [s for s in report.frames[0].stages if s.scale == 0]
        assert finest[7].estimated_bits > isolated * np.log2(PROB_ONE / (PROB_ONE - 255))

    def test_level_without_linked_parents_runs_no_network(self, monkeypatch):
        rng = np.random.default_rng(62)
        frame = folded_frame(rng, grid(200))
        rows_run = []
        for name in ("sparse_conv", "lookup_conv"):
            conv = getattr(ad, name)

            def counted(*args, conv=conv, **kwargs):
                out = conv(*args, **kwargs)
                rows_run.append(out.data.shape[0])
                return out

            monkeypatch.setattr(ad, name, counted)
        data, _ = encode_sequence([frame], GopConfig(gop_size=1, epochs_first=1))
        assert decode_sequence(data)[0] == [frame]
        # The coarser levels of the grid are linked and run the network.
        assert rows_run and min(rows_run) > 0

    def test_truncated_stage_seven_payload_rejected(self):
        rng = np.random.default_rng(61)
        frame = folded_frame(rng, self.CUBE + grid(300))
        data, report = encode_sequence([frame], GopConfig(gop_size=1, epochs_first=1))
        assert decode_sequence(data)[0] == [frame]
        # The finest transition comes last; its stage 7 closes the frame.
        span = walk_container(data)[3][-1]
        payload = data[span[1]:span[2]]
        # The 64 linked parents' bits fill stage 6; 300 symbols fill most
        # of stage 7, so every cut below drops symbols.
        assert 8 * len(payload) > 10 * report.frames[0].stages[-2].payload_bits
        for keep in (0, len(payload) // 4, len(payload) // 2):
            with pytest.raises(DecodeError, match="truncated at scale 0 stage 7"):
                decode_sequence(with_payload(data, span, payload[:keep]))


def kinds_of(data):
    """Each stage payload's kind, from its prefix's low bit, in container
    order."""
    return [read_leb128(data, start)[0] & 1 for start, _, _ in walk_container(data)[3]]


class TestPayloadKinds:
    """Each payload is coded under the network or from counts, as its
    prefix's low bit says; counts carry across frames and groups."""

    # Shells of radius 12 in two groups of two: both kinds in every frame.
    FRAMES = [generate_fixture("sphere-shell", 12, offset=k) for k in range(4)]
    CONFIG = GopConfig(gop_size=2, epochs_first=1, epochs_rest=1)

    @pytest.fixture(scope="class")
    def mixed(self):
        return encode_sequence(self.FRAMES, self.CONFIG)

    def reference(self, num_scales):
        """Per payload, in container order: its bits, contexts and
        sequential reference probabilities, from every bit of every payload
        before it counted in."""
        counts, out = {}, []
        for frame in self.FRAMES:
            pyr = build_pyramid(frame, num_scales=num_scales)
            for i in range(num_scales - 1, -1, -1):
                for j, bits, contexts in stage_bits_and_contexts(pyr, i):
                    p1 = kt_reference(counts, [(i, c) for c in contexts], bits)
                    out.append((bits, contexts, p1))
        return out

    def test_report_and_container_agree(self, mixed):
        data, report = mixed
        records = [rec for f in report.frames for rec in f.stages]
        assert kinds_of(data) == [rec.kind == "counts" for rec in records]
        summary = container_summary(data)
        assert summary["count_payloads"] == report.count_payloads_by_scale()
        assert (report.to_dict()["count_payloads_by_scale"]
                == report.count_payloads_by_scale())
        # Both kinds in every frame of both groups.
        for f in report.frames:
            assert {rec.kind for rec in f.stages} == {"network", "counts"}
        for rec in records:
            ideal = {"network": rec.network_bits, "counts": rec.count_bits}
            assert rec.estimated_bits == ideal[rec.kind]
        assert verify(data, self.FRAMES).ok

    def test_probabilities_equal_sequential_reference(self, mixed, monkeypatch):
        data, report = mixed
        reference = self.reference(report.num_scales)
        # The encoder's closed form, for every payload of either kind.
        closed_form = []
        probabilities = ContextCounts.probabilities

        def recording(counts, contexts, bits):
            p1 = probabilities(counts, contexts, bits)
            closed_form.append((contexts.tolist(), p1.tolist()))
            return p1

        monkeypatch.setattr(ContextCounts, "probabilities", recording)
        assert encode_sequence(self.FRAMES, self.CONFIG)[0] == data
        monkeypatch.undo()
        # One call per stage, in container order.
        assert closed_form == [(contexts, p1) for _, contexts, p1 in reference]
        records = [rec for f in report.frames for rec in f.stages]
        for rec, (bits, _, p1) in zip(records, reference):
            if rec.kind == "counts" and rec.stage < NUM_STAGES - 1:
                assert rec.estimated_bits == pytest.approx(sum(
                    -np.log2((p if b else PROB_ONE - p) / PROB_ONE)
                    for p, b in zip(p1, bits)), rel=1e-12)
        # The decoder's loop, one event per call: its registers follow a
        # per-event decode under the reference probability.
        expected = iter([ref for ref, kind in zip(reference, kinds_of(data)) if kind])
        decode_counted = RangeDecoder.decode_counted
        events = 0

        def stepwise(dec, counts, contexts):
            nonlocal events
            bits, want_contexts, p1 = next(expected)
            assert contexts.tolist() == want_contexts
            ref = copy.copy(dec)
            # The coding loop counts the stage in after this call, so the
            # events are counted into a copy, one by one.
            counts = copy.deepcopy(counts)
            for c, b, p in zip(want_contexts, bits, p1):
                assert decode_counted(dec, counts, [c]).tolist() == [b]
                counts.update([c], [b])
                assert ref.decode_bit(p) == b
                assert (dec.range, dec.code, dec._pos) == (ref.range, ref.code, ref._pos)
                events += 1
            return np.array(bits, dtype=np.int64)

        monkeypatch.setattr(RangeDecoder, "decode_counted", stepwise)
        decoded, _ = decode_sequence(data)
        assert decoded == self.FRAMES
        assert next(expected, None) is None and events > 1000

    def test_encoder_and_decoder_end_with_equal_counts(self, mixed, monkeypatch):
        data, report = mixed
        made = []
        sequence_counts = pipeline._sequence_counts

        def recording(num_scales):
            made.append(sequence_counts(num_scales))
            return made[-1]

        monkeypatch.setattr(pipeline, "_sequence_counts", recording)
        assert encode_sequence(self.FRAMES, self.CONFIG)[0] == data
        assert decode_sequence(data)[0] == self.FRAMES
        encoded, decoded = made
        assert len(encoded) == len(decoded) == report.num_scales
        for enc, dec in zip(encoded, decoded):
            assert np.array_equal(enc.ones, dec.ones)
            assert np.array_equal(enc.total, dec.total)
        # Every linked parent's eight bits counted in once, whatever the kind.
        parents = sum(len(build_pyramid(f, num_scales=report.num_scales).levels[i + 1].fold())
                      for f in self.FRAMES for i in range(report.num_scales))
        assert sum(int(c.total.sum()) for c in encoded) == NUM_STAGES * parents

    def test_flipped_kind_rejected(self, mixed):
        data, _ = mixed
        spans = walk_container(data)[3]
        for start, payload_start, end in spans:
            corrupt = bytearray(data)
            corrupt[start] ^= 1  # the low bit of the prefix's first byte
            with pytest.raises(LinrError):
                decode_sequence(bytes(corrupt))

    def test_payload_without_bits_must_be_counts(self):
        # Two hundred isolated parents: the finest transition's stages code
        # no bit, so the encoder writes them as counts, and the network
        # kind is refused there.
        frame = folded_frame(np.random.default_rng(64), grid(200))
        data, report = encode_sequence([frame], GopConfig(gop_size=1, epochs_first=1))
        finest = [rec for rec in report.frames[0].stages if rec.scale == 0]
        assert [rec.kind for rec in finest] == ["counts"] * NUM_STAGES
        assert [rec.count_bits for rec in finest[:-1]] == [0.0] * (NUM_STAGES - 1)
        start = walk_container(data)[3][-2][0]  # stage 6 of the finest
        corrupt = bytearray(data)
        corrupt[start] ^= 1
        with pytest.raises(DecodeError, match="has no bits but is not of kind counts"):
            decode_sequence(bytes(corrupt))

    def test_network_still_learns_on_c03_input(self):
        # c03's input and settings: the network's own ideal bits, whatever
        # kind each payload takes, stay below 0.95 of 8 bits per parent.
        frame = generate_fixture("random", 500, seed=3)
        pyr = build_pyramid(frame, stop_at=64)
        baseline = 8 * sum(len(pyr.levels[i + 1]) for i in range(pyr.num_scales))
        _, report = encode_sequence([frame], GopConfig(gop_size=1, epochs_first=6,
                                                       bits=8, seed=3))
        network = sum(rec.network_bits for rec in report.frames[0].stages)
        assert network < 0.95 * baseline, (network, baseline)


_DECODE_SCRIPT = """
import sys
import numpy as np
from linr import decode_sequence
frames, _ = decode_sequence(open(sys.argv[1], "rb").read())
want = np.load(sys.argv[2])
assert len(frames) == want.shape[0]
assert all(np.array_equal(f.coords, w) for f, w in zip(frames, want))
print("lossless")
"""


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS built with DYNAMIC_ARCH, which
    ``OPENBLAS_CORETYPE`` switches between CPU kernels."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


class TestCountPayloadsOnEveryCpu:
    """A container whose payloads are all coded from counts runs no network
    on decode, so it decodes alike under every BLAS kernel; the benchmark
    still traces its encode and decode."""

    @pytest.fixture(scope="class")
    def sparse(self):
        frames = [generate_fixture("random", 8000, seed=7, offset=k) for k in range(2)]
        data, report = encode_sequence(frames, GopConfig(gop_size=2, epochs_first=1))
        return frames, data, report

    def test_all_payloads_counts_and_no_network_runs(self, sparse, monkeypatch):
        frames, data, report = sparse
        assert set(kinds_of(data)) == {1}
        assert sum(report.count_payloads_by_scale().values()) == 2 * 8 * report.num_scales

        def refused(*args, **kwargs):
            raise AssertionError("the network ran")

        for name in ("scale_context", "global_features", "stage_probability"):
            monkeypatch.setattr(OccupancyModel, name, refused)
        decoded, _ = decode_sequence(data)
        assert decoded == frames

    def test_traced_benchmark_emits_every_per_layer_metric(self, sparse, monkeypatch):
        # The tracer counts coder events through pipeline.quantize_probabilities,
        # so the encoder calls it on every stage, whatever the payload's kind.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import harness
        frames, _, _ = sparse
        workload = harness.Workload("sparse", "random", 8000, frames=2, gop=2,
                                    epochs_first=1, epochs_rest=1)
        assert workload.make_frames(7) == frames
        result = harness.summary(harness.run(workload, seed=7, seconds=0, trace=True))
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"]
                                           for m in harness.metric_spec()["per_layer"]]
        assert result["metrics"]["rangecoder.events"]["value"] > 0

    @pytest.mark.skipif(not _dynamic_arch_openblas(),
                        reason="numpy's BLAS is not DYNAMIC_ARCH OpenBLAS")
    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
    def test_lossless_under_forced_kernel(self, sparse, core, tmp_path):
        frames, data, _ = sparse
        container = tmp_path / "sparse.linr"
        container.write_bytes(data)
        coords = tmp_path / "coords.npy"
        np.save(coords, np.stack([f.coords for f in frames]))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=core)
        proc = subprocess.run([sys.executable, "-c", _DECODE_SCRIPT, str(container),
                               str(coords)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "lossless"


class TestLengthPrefix:
    @pytest.mark.parametrize("n, size", [(0, 1), (127, 1), (128, 2), (16383, 2),
                                         (16384, 3), ((1 << 28) - 1, 4)])
    def test_minimal_leb128(self, n, size):
        prefix = pipeline._leb128(n)
        assert len(prefix) == size == leb128_size(n)
        assert read_leb128(prefix, 0) == (n, size)
        assert pipeline._Reader(prefix).leb128() == n

    def test_past_four_bytes_refused(self):
        with pytest.raises(LinrError, match="4-byte length prefix"):
            pipeline._leb128(1 << 28)

    @pytest.mark.parametrize("prefix, message", [
        (b"\x80\x00", "non-minimal"),
        (b"\x85\x80\x00", "non-minimal"),
        (b"\x80\x80\x80\x80\x00", "longer than 4 bytes"),
        (b"\xff\xff\xff\xff\x0f", "longer than 4 bytes"),
        (b"\xff\xff\xff\x7f", "container truncated"),
        (b"\x90\x03", "container truncated"),  # 200 bytes: past the end
    ])
    def test_walker_rejects(self, prefix, message):
        rng = np.random.default_rng(62)
        data, _ = encode_sequence([random_frame(rng, n=300)],
                                  GopConfig(gop_size=1, epochs_first=0))
        span = walk_container(data)[3][-1]
        assert len(data) - span[1] < 200
        corrupt = with_payload(data, span, data[span[1]:span[2]], prefix)
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match=message):
                read(corrupt)


class TestZeroDelta:
    def test_empty_delta_round_trips(self, monkeypatch):
        frames = [cube_frame(8, offset=k) for k in range(4)]
        data, report = encode_sequence(frames, GopConfig(
            gop_size=2, epochs_first=2, epochs_rest=1, seed=5))
        assert report.gop_param_kinds == ["absolute", "delta"]
        assert report.epochs_used == [2, 0]
        summary = container_summary(data)
        assert summary["gop_param_bytes"][1] == BLOCK_HEADER_SIZE
        decompressed = []
        monkeypatch.setattr(pipeline, "decompress_params",
                            lambda *args: decompressed.append(1) or decompress_params(*args))
        decoded, _ = decode_sequence(data)
        assert decoded == frames
        assert len(decompressed) == 1  # the zero delta decodes no symbol

    def test_empty_payload_on_absolute_block_rejected(self):
        rng = np.random.default_rng(63)
        data, _ = encode_sequence([random_frame(rng, n=300)],
                                  GopConfig(gop_size=1, epochs_first=0))
        start = HEADER_SIZE
        end = unpack_param_block(data, start)[-1]
        # payload_len u32 follows min, max, mu, b (f32 each), bits (u8)
        # and count (u32).
        block = bytearray(data[start:start + BLOCK_HEADER_SIZE])
        struct.pack_into("<I", block, 21, 0)
        corrupt = data[:start] + bytes(block) + data[end:]
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="absolute parameter block without"):
                read(corrupt)

    def test_payload_without_parameters_rejected(self):
        data, _ = encode_sequence([cube_frame(1)], GopConfig(gop_size=1))
        assert data[5:7] == bytes([10, 0])  # no scales: no parameters
        block = bytearray(data[HEADER_SIZE:HEADER_SIZE + BLOCK_HEADER_SIZE])
        struct.pack_into("<I", block, 21, 1)
        corrupt = (data[:HEADER_SIZE] + bytes(block) + b"\x00"
                   + data[HEADER_SIZE + BLOCK_HEADER_SIZE:])
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="payload without parameters"):
                read(corrupt)


BLOCK_FIELDS = ("min", "max", "mu", "b", "bits", "count", "payload_len", "kind")


def field_offsets(fmt, names, base=0):
    """Each named field of the struct format ``fmt``: its byte offset plus
    ``base``, and its own format."""
    codes = re.findall(r"\d*[a-zA-Z]", fmt[1:])
    assert len(codes) == len(names)
    return {name: (base + struct.calcsize(fmt[0] + "".join(codes[:i])), fmt[0] + code)
            for i, (name, code) in enumerate(zip(names, codes))}


class TestFieldInflation:
    """Every header and parameter-block field, the lowest-scale point count
    and a stage payload length, each at its largest value."""

    # The first stage payload's length prefix: 2^28 - 1, the largest a
    # 4-byte LEB128 holds.
    LEB128_MAX = b"\xff\xff\xff\x7f"

    @pytest.fixture(scope="class")
    def container(self):
        rng = np.random.default_rng(12)
        frames = [random_frame(rng, n=150)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1))
        return data, frames

    @staticmethod
    def fields(data):
        """name -> (offset, format) of every field of the first group's
        header and block and of the first frame's point count."""
        out = field_offsets(pipeline._HEADER_FMT, pipeline._Header._fields)
        out.update(field_offsets(params._BLOCK_FMT, BLOCK_FIELDS, HEADER_SIZE))
        payload_len = struct.unpack_from(out["payload_len"][1], data,
                                         out["payload_len"][0])[0]
        out["point_count"] = (HEADER_SIZE + BLOCK_HEADER_SIZE + payload_len, "<I")
        return out

    def inflated(self, data, name, fill=None):
        """``data`` with field ``name`` set to ``fill``, by default all ones:
        an integer's largest value, a float's NaN."""
        fields = self.fields(data)
        if name == "stage_length":
            offset, count_fmt = fields["point_count"]
            n = struct.unpack_from(count_fmt, data, offset)[0]
            start = offset + struct.calcsize(count_fmt) + 6 * n
            end = start + 1
            while data[end - 1] & 0x80:
                end += 1
            return data[:start] + self.LEB128_MAX + data[end:]
        offset, fmt = fields[name]
        if fill is None:
            fill = b"\xff" * struct.calcsize(fmt)
        return data[:offset] + fill + data[offset + len(fill):]

    def test_fields_cover_both_structs(self, container):
        data, _ = container
        fields = self.fields(data)
        assert fields["param_bits"][0] + 1 == HEADER_SIZE
        assert fields["kind"][0] + 1 == HEADER_SIZE + BLOCK_HEADER_SIZE

    @pytest.mark.parametrize("name", [
        "magic", "version", "bit_depth", "num_scales", "frame_count",
        "param_bits", "min", "max", "mu", "bits", "count", "payload_len",
        "kind", "point_count", "stage_length"])
    def test_rejected_before_allocating(self, container, name):
        data, _ = container
        bad = self.inflated(data, name)
        # container_summary walks the layout and decodes nothing, so the
        # walker alone rejects the field.
        with pytest.raises(LinrError):
            container_summary(bad)
        tracemalloc.start()
        try:
            with pytest.raises(LinrError):
                decode_sequence(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The walker builds the network (about 60 kB of float32 parameters)
        # and runs none of it.
        assert peak < 1 << 20

    def test_largest_group_size_is_a_valid_layout(self, container):
        # One group of up to 65,535 frames holds the one frame there is.
        data, frames = container
        result = verify(self.inflated(data, "gop_size"), frames)
        assert result.ok, result.message

    @pytest.mark.parametrize("name, fill", [
        ("max", struct.pack("<f", np.finfo(np.float32).max)),
        ("mu", struct.pack("<f", np.finfo(np.float32).max)),
        ("b", struct.pack("<f", np.finfo(np.float32).max)),
        ("b", None),
    ])
    def test_inflated_values_fail_verify(self, container, name, fill):
        # A finite range end, a Laplace mean or a Laplace scale (a b that is
        # not a positive finite number selects the point mass) is a value
        # of the layout; the parameters it decodes to code other geometry.
        data, frames = container
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = verify(self.inflated(data, name, fill), frames)
        assert not result.ok

    def test_translated_lowest_block_decodes_and_fails_verify(self, container):
        # The network sees no coordinate, so lowest-scale coordinates moved
        # by one decode to the whole frame moved by 2^num_scales.
        data, frames = container
        fields = self.fields(data)
        bit_depth, num_scales = data[fields["bit_depth"][0]], data[fields["num_scales"][0]]
        offset = fields["point_count"][0]
        n = struct.unpack_from("<I", data, offset)[0]
        coords = np.frombuffer(data, "<u2", count=3 * n, offset=offset + 4).reshape(n, 3)
        axis = int(np.argmin(coords.max(axis=0)))
        assert coords[:, axis].max() + 1 < 1 << (bit_depth - num_scales)
        moved = coords.astype(np.int64)
        moved[:, axis] += 1
        bad = (data[:offset + 4] + moved.astype("<u2").tobytes()
               + data[offset + 4 + 6 * n:])
        decoded, _ = decode_sequence(bad)
        shift = np.zeros(3, dtype=np.int64)
        shift[axis] = 1 << num_scales
        assert np.array_equal(decoded[0].coords, frames[0].coords + shift)
        result = verify(bad, frames)
        assert not result.ok and "first mismatch at row 0" in result.message

class TestMutationFuzz:
    """Seeded mutations of a real two-group container: every case must be
    rejected with a codec error or decode to some frames, and quickly."""

    BUDGET_S = 5.0

    @staticmethod
    def mutations(data, seed=20, per_kind=20):
        rng = np.random.default_rng(seed)
        for k in range(per_kind):
            corrupt = bytearray(data)
            for _ in range(int(rng.integers(1, 4))):
                corrupt[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
            yield f"flip {k}", bytes(corrupt)
            corrupt = bytearray(data)
            struct.pack_into("<I", corrupt, int(rng.integers(len(data) - 3)),
                             int(rng.integers(1 << 32)))
            yield f"u32 {k}", bytes(corrupt)
            yield f"cut {k}", data[:int(rng.integers(len(data)))]

    def test_mutated_containers_fail_cleanly(self):
        frames = [generate_fixture("sphere-shell", 6, offset=k) for k in range(3)]
        data, report = encode_sequence(
            frames, GopConfig(gop_size=2, epochs_first=1, epochs_rest=1))
        assert report.gop_param_kinds == ["absolute", "delta"]
        assert report.num_scales == 2
        cases = list(self.mutations(data))
        assert len(cases) == 60
        for name, corrupt in cases:
            for read in (decode_sequence, container_summary):
                t0 = time.perf_counter()
                try:
                    out = read(corrupt)
                except LinrError:
                    pass
                else:
                    if read is decode_sequence:
                        assert all(isinstance(f, SparseVoxelSet)
                                   for f in out[0]), name
                elapsed = time.perf_counter() - t0
                assert elapsed < self.BUDGET_S, (name, read.__name__, elapsed)


class TestVerify:
    def test_honest_encode_verifies(self):
        rng = np.random.default_rng(14)
        frames = [random_frame(rng, n=100) for _ in range(2)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=2, epochs_first=1))
        res = verify(data, frames)
        assert res.ok and "2 frames" in res.message

    def test_reordered_frames_reported(self):
        rng = np.random.default_rng(15)
        frames = [random_frame(rng, n=100) for _ in range(2)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=2, epochs_first=1))
        res = verify(data, frames[::-1])
        assert not res.ok
        assert "frame 0" in res.message

    def test_wrong_frame_count(self):
        rng = np.random.default_rng(16)
        frames = [random_frame(rng, n=100)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1))
        res = verify(data, frames * 2)
        assert not res.ok and "frame count" in res.message


class TestDeterminism:
    def test_byte_identical_encodes(self):
        rng = np.random.default_rng(17)
        frames = [random_frame(rng, n=200) for _ in range(2)]
        cfg = GopConfig(gop_size=2, epochs_first=2, seed=11)
        a, _ = encode_sequence(frames, cfg)
        b, _ = encode_sequence(frames, cfg)
        assert a == b

    def test_seed_changes_stream(self):
        rng = np.random.default_rng(18)
        frames = [random_frame(rng, n=200)]
        a, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1, seed=1))
        b, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1, seed=2))
        assert a != b


# Two frames of an r=24 sphere shell, three epochs: run on the caller's two
# BLAS threads, training splits some 24-channel weight gradients across
# them, which changes float32 sums and the container bytes.
_ENCODE_SCRIPT = """
import hashlib
from linr import GopConfig, encode_sequence, generate_fixture
frames = [generate_fixture("sphere-shell", 24, offset=1 + k) for k in range(2)]
data, _ = encode_sequence(frames, GopConfig(gop_size=2, epochs_first=3))
print(hashlib.sha256(data).hexdigest())
"""


@pytest.mark.skipif(not ad._openblas_threads(),
                    reason="numpy's BLAS is not OpenBLAS")
class TestBlasThreads:
    @pytest.fixture
    def two_threads(self):
        """Set the process's BLAS thread count to 2 for the test."""
        get, set_ = ad._openblas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_bytes_independent_of_caller_thread_count(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", _ENCODE_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_public_calls_run_on_one_thread_and_restore(self, two_threads,
                                                        monkeypatch):
        get = two_threads
        inside = []
        coding_pass, adam_step = pipeline._coding_pass, ad.Adam.step

        def recording_pass(*args):
            inside.append(get())
            return coding_pass(*args)

        def recording_step(opt):
            inside.append(get())
            adam_step(opt)

        monkeypatch.setattr(pipeline, "_coding_pass", recording_pass)
        monkeypatch.setattr(ad.Adam, "step", recording_step)
        rng = np.random.default_rng(24)
        frames = [random_frame(rng, n=200)]
        cfg = GopConfig(gop_size=1, epochs_first=1)
        data, _ = encode_sequence(frames, cfg)
        assert get() == 2
        decoded, _ = decode_sequence(data)
        assert get() == 2 and decoded[0] == frames[0]
        train_gop(frames, cfg)
        assert get() == 2
        with pytest.raises(DecodeError):
            decode_sequence(data[:-5])
        assert get() == 2
        assert inside and set(inside) == {1}

    def test_concurrent_uses_restore_the_caller_count(self, two_threads):
        get = two_threads
        inside = []
        interval = sys.getswitchinterval()

        def worker():
            for _ in range(2000):
                with ad.one_blas_thread():
                    with ad.one_blas_thread():
                        inside.append(get())

        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(inside) == 8000 and set(inside) == {1}
        assert get() == 2


class TestParameterWidth:
    def test_sixteen_bit_changes_stream_size(self):
        rng = np.random.default_rng(20)
        frames = [random_frame(rng, n=250)]
        base = dict(gop_size=1, epochs_first=2, seed=9)
        data8, r8 = encode_sequence(frames, GopConfig(bits=8, **base))
        data16, r16 = encode_sequence(frames, GopConfig(bits=16, **base))
        assert verify(data8, frames).ok and verify(data16, frames).ok
        assert r8.gop_param_bits != r16.gop_param_bits
        assert r8.bpp != r16.bpp

    def test_param_share_shrinks_with_group_size(self):
        rng = np.random.default_rng(21)
        frames = [random_frame(rng, n=250) for _ in range(4)]
        _, split = encode_sequence(frames, GopConfig(gop_size=2, epochs_first=0,
                                                     epochs_rest=0))
        _, whole = encode_sequence(frames, GopConfig(gop_size=4, epochs_first=0))
        share_split = split.allocation()["decoder_params"]
        share_whole = whole.allocation()["decoder_params"]
        assert share_whole < share_split


class TestDecodeStats:
    def test_stats_cover_all_scales(self):
        rng = np.random.default_rng(19)
        frames = [random_frame(rng, n=200)]
        data, report = encode_sequence(frames, GopConfig(gop_size=1,
                                                         epochs_first=1))
        decoded, stats = decode_sequence(data, collect_stats=True)
        assert decoded[0] == frames[0]
        assert sorted(stats.scale_seconds) == list(range(report.num_scales))
        total_listed = sum(c[0].shape[0] for c in stats.point_costs)
        expected = sum(
            len(lv)
            for lv in build_pyramid(frames[0], stop_at=64).levels[:-1]
        )
        assert total_listed == expected

    def test_timings_without_point_costs(self):
        rng = np.random.default_rng(19)
        frames = [random_frame(rng, n=200)]
        data, report = encode_sequence(frames, GopConfig(gop_size=1,
                                                         epochs_first=0))
        decoded, stats = decode_sequence(data)
        assert decoded[0] == frames[0]
        assert sorted(stats.scale_seconds) == list(range(report.num_scales))
        assert stats.param_seconds > 0 and stats.lowest_seconds > 0
        assert stats.total_seconds >= (stats.param_seconds + stats.lowest_seconds
                                       + sum(stats.scale_seconds.values()))
        assert stats.point_costs == []
