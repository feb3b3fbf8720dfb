"""Pipeline tests: training orchestration, container framing, losslessness.

The cardinal oracle is the roundtrip itself: decode(encode(x)) must equal x
coordinate-exactly.  Structural cases parse the container with an
independent walker built from the documented layout.
"""
import struct
import time

import numpy as np
import pytest

from linr import pipeline
from linr.errors import CountMismatchError, DecodeError, LinrError
from linr.network import NUM_STAGES, ModelConfig, OccupancyModel
from linr.params import BLOCK_HEADER_SIZE, unpack_param_block
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
from linr.voxel import SparseVoxelSet, build_pyramid


def random_frame(rng, n=300, hi=256):
    return SparseVoxelSet(rng.integers(0, hi, size=(n, 3)))


def cube_frame(size, offset=0):
    pts = [
        (x + offset, y + offset, z + offset)
        for x in range(size)
        for y in range(size)
        for z in range(size)
    ]
    return SparseVoxelSet(np.array(pts))


def walk_container(data):
    """Independent container walk from the documented byte layout.

    Returns (header fields, per-gop param block spans, per-frame byte spans).
    """
    magic, version, bit_depth, num_scales, gop_size, frame_count, bits = (
        struct.unpack_from("<4sBBBHIB", data, 0)
    )
    pos = HEADER_SIZE
    blocks = []
    frame_spans = []
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
                (plen,) = struct.unpack_from("<I", data, pos)
                pos += 4 + plen
            frame_spans.append((start, pos))
        remaining -= in_gop
    assert pos == len(data), "walker must account for every byte"
    header = dict(magic=magic, version=version, bit_depth=bit_depth,
                  num_scales=num_scales, gop_size=gop_size,
                  frame_count=frame_count, bits=bits)
    return header, blocks, frame_spans


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
        assert out.steps == 0

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
        assert out.steps == 6  # one step per frame per epoch

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

    def test_report_carries_loss_curves(self):
        rng = np.random.default_rng(5)
        frames = [random_frame(rng, n=80) for _ in range(5)]
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=1)
        _, report = encode_sequence(frames, cfg)
        lengths = [len(curve) for curve in report.gop_losses]
        assert lengths == [e * n for e, n in zip(report.epochs_used,
                                                  report.gop_frame_counts)]
        assert lengths == [4, 2, 1]
        assert all(np.isfinite(curve).all() for curve in report.gop_losses)
        assert report.to_dict()["gop_losses"] == report.gop_losses


class TestContainerStructure:
    def test_header_fields(self):
        rng = np.random.default_rng(3)
        frames = [random_frame(rng, n=120) for _ in range(3)]
        cfg = GopConfig(gop_size=2, epochs_first=0, epochs_rest=0,
                        bit_depth=10, bits=8)
        data, report = encode_sequence(frames, cfg)
        header, blocks, spans = walk_container(data)
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
        _, _, spans = walk_container(data)
        a, b = spans
        assert data[a[0]:a[1]] == data[b[0]:b[1]]

    def test_remainder_grouping(self):
        rng = np.random.default_rng(6)
        frames = [random_frame(rng, n=80) for _ in range(5)]
        cfg = GopConfig(gop_size=32, epochs_first=0)
        data, report = encode_sequence(frames, cfg)
        assert report.gop_frame_counts == [5]
        _, blocks, _ = walk_container(data)
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
        assert summary["scale_bytes"] == {
            i: bits / 8 + 4 * NUM_STAGES * len(frames)
            for i, bits in report.occupancy_by_scale().items()}

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
        rng = np.random.default_rng(9)
        frames = [cube_frame(4, offset=k) for k in range(4)]
        cfg = GopConfig(gop_size=2, epochs_first=2, epochs_rest=1, seed=5)
        data, report = encode_sequence(frames, cfg)
        assert report.epochs_used == [2, 1]
        res = verify(data, frames)
        assert res.ok, res.message

    def test_zero_model_payload_near_one_bit_per_slot(self):
        rng = np.random.default_rng(10)
        frame = random_frame(rng, n=300)
        pyr = build_pyramid(frame, stop_at=64)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales))
        model.zero_()
        base = pyr.levels[-1]
        parts, stages = [], []
        encode_stage = _stage_encoder(pyr, parts, stages)
        for _ in _coding_pass(model, base, pyr.num_scales, encode_stage, pyr):
            pass
        parents = sum(len(pyr.levels[i + 1]) for i in range(pyr.num_scales))
        measured = sum(s.payload_bits for s in stages)
        streams = len(stages)
        assert measured >= 8 * parents
        assert measured <= 1.02 * 8 * parents + 16 * streams
        # parts alternates length prefixes and payloads.
        decode_stage = _stage_decoder(parts[1::2], None)
        for _, level in _coding_pass(model, base, pyr.num_scales, decode_stage):
            pass
        assert level == frame

    def test_coding_pass_probabilities_match_training_pass(self):
        rng = np.random.default_rng(12)
        trained = train_gop([random_frame(rng, n=300)], GopConfig(epochs_first=1))
        model, pyr = trained.model, trained.pyramids[0]
        pipeline.reload_dequantized(model, *pipeline.quantize(model.flatten(), 8))
        coded = {}

        def record(i, j, coarse, probs, quantized):
            coded[i, j] = probs.tobytes()
            return ((pyr.masks(i) >> j) & 1).astype(np.int64)

        for _ in _coding_pass(model, pyr.levels[-1], pyr.num_scales, record, pyr):
            pass
        assert len(coded) == NUM_STAGES * pyr.num_scales
        for i in range(pyr.num_scales):
            coarse = pyr.levels[i + 1]
            probs, _ = model.predict_children(model.scale_context(coarse, i),
                                              coarse, pyr.masks(i))
            for j in range(NUM_STAGES):
                assert probs[j].data[:, 0].tobytes() == coded[i, j]


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
    def make_container(self):
        rng = np.random.default_rng(12)
        frames = [random_frame(rng, n=150)]
        data, _ = encode_sequence(frames, GopConfig(gop_size=1, epochs_first=1))
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
        for version in (1, 9):  # 1: the per-scale context MLPs
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

    def test_param_width_must_match_header(self):
        data, _ = self.make_container()
        corrupt = bytearray(data)
        corrupt[HEADER_SIZE - 1] = 3  # param_bits closes the header
        for read in (decode_sequence, container_summary):
            with pytest.raises(DecodeError, match="width 8 differs"):
                read(bytes(corrupt))

    def test_inflated_param_count_rejected_before_decoding(self):
        data, _ = self.make_container()
        corrupt = bytearray(data)
        # count follows min, max, mu, b (f32 each) and bits (u8).
        struct.pack_into("<I", corrupt, HEADER_SIZE + 17, 1_000_000)
        t0 = time.perf_counter()
        with pytest.raises(CountMismatchError):
            decode_sequence(bytes(corrupt))
        assert time.perf_counter() - t0 < 1.0

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
