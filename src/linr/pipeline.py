"""Group-of-frames orchestration and the bitstream container.

Encoding a sequence: freeze the scale count from the first frame, split the
frames into groups, overfit one network per group (warm-started from the
previous group's pre-quantization parameters), quantize and reload the
network so both sides run identical arithmetic, then range-code every
child-occupancy bit under the network's predictions.

Encoder and decoder share one coding loop, :func:`_coding_pass`: per scale
transition, coarse to fine, it computes the scale context and the global
features, then each of the eight stages' quantized probabilities exactly
once.  Only the source of each stage's bits differs: the encoder hands in
the ground truth and range-codes it, the decoder range-decodes the bits
from the payload.  Whatever the decoder computes, the encoder computed
from the same values in the same order.

Container layout (`.linr`, all integers little-endian):

    magic "LNRP", version u8, bit_depth u8, num_scales u8, gop_size u16,
    frame_count u32, param_bits u8
    per group:  parameter block (see params.pack_param_block)
    per frame:  lowest-scale block (point_count u32, then 3 x u16 per point)
                per scale transition, coarse to fine, per stage 0..7:
                a u32 length prefix plus the occupancy payload

One walker, :func:`_walk`, reads and validates this layout for both
:func:`decode_sequence` and :func:`container_summary`.
"""
from __future__ import annotations

import struct
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import CountMismatchError, DecodeError, LinrError
from .network import ModelConfig, NUM_STAGES, OccupancyModel
from .params import (
    BLOCK_HEADER_SIZE,
    LaplaceSideInfo,
    QuantHeader,
    compress_params,
    decompress_params,
    fit_laplace,
    pack_param_block,
    quantize,
    reload_dequantized,
    unpack_param_block,
)
from .rangecoder import RangeDecoder, RangeEncoder, quantize_probabilities
from .voxel import (
    CHILD_OFFSETS,
    ScalePyramid,
    SparseVoxelSet,
    build_pyramid,
    pack_coords,
    reconstruct_children,
)

MAGIC = b"LNRP"
VERSION = 2
FILE_EXTENSION = ".linr"

_HEADER_FMT = "<4sBBBHIB"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_Header = namedtuple("_Header", "magic version bit_depth num_scales gop_size "
                                "frame_count param_bits")


@dataclass
class GopConfig:
    """Sequence-level coding configuration."""

    gop_size: int = 32
    epochs_first: int = 6
    epochs_rest: int = 1
    bits: int = 8
    seed: int = 0
    bit_depth: int = 10
    stop_at: int = 64
    l2_coeff: float = 1e-4

    def __post_init__(self):
        if not 1 <= self.gop_size <= 0xFFFF:  # the header's u16
            raise ValueError("gop_size must be in [1, 65535]")
        if self.epochs_first < 0 or self.epochs_rest < 0:
            raise ValueError("epoch counts must be >= 0")
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must be in [1, 16]")


@dataclass
class TrainResult:
    model: OccupancyModel
    losses: list
    num_scales: int
    pyramids: list  # one per frame, in order: the training data

    @property
    def steps(self) -> int:
        return len(self.losses)


@dataclass
class StageRecord:
    """Measured vs estimated size of one per-stage payload."""

    scale: int
    stage: int
    payload_bits: int
    estimated_bits: float


@dataclass
class FrameRecord:
    frame_index: int
    gop_index: int
    point_count: int
    lowest_bits: int
    occupancy_bits: int
    param_bits_amortized: float
    stages: list

    @property
    def bpp(self) -> float:
        total = self.lowest_bits + self.occupancy_bits + self.param_bits_amortized
        return total / self.point_count

    def occupancy_bits_by_scale(self) -> dict:
        out: dict = {}
        for rec in self.stages:
            out[rec.scale] = out.get(rec.scale, 0) + rec.payload_bits
        return out


@dataclass
class EncodeReport:
    num_scales: int
    header_bits: int
    gop_param_bits: list
    gop_frame_counts: list
    epochs_used: list
    # Per group, the training loss of every optimizer step in bits: one per
    # frame per epoch, in training order (empty when there are no scales).
    gop_losses: list
    frames: list
    training_seconds: float
    coding_seconds: float
    encode_seconds: float

    @property
    def total_points(self) -> int:
        return sum(f.point_count for f in self.frames)

    @property
    def total_bits(self) -> int:
        return (
            self.header_bits
            + sum(self.gop_param_bits)
            + sum(f.lowest_bits + f.occupancy_bits for f in self.frames)
        )

    @property
    def bpp(self) -> float:
        return self.total_bits / self.total_points

    def allocation(self) -> dict:
        """Fractions of the categorized stream (container header excluded)."""
        params = sum(self.gop_param_bits)
        lowest = sum(f.lowest_bits for f in self.frames)
        occupancy = sum(f.occupancy_bits for f in self.frames)
        total = params + lowest + occupancy
        return {
            "decoder_params": params / total,
            "lowest_scale": lowest / total,
            "occupancy": occupancy / total,
        }

    def occupancy_by_scale(self) -> dict:
        out: dict = {}
        for f in self.frames:
            for scale, bits in f.occupancy_bits_by_scale().items():
                out[scale] = out.get(scale, 0) + bits
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "num_scales": self.num_scales,
            "total_bits": self.total_bits,
            "total_points": self.total_points,
            "bpp": self.bpp,
            "allocation": self.allocation(),
            "occupancy_bits_by_scale": self.occupancy_by_scale(),
            "gop_param_bits": list(self.gop_param_bits),
            "gop_frame_counts": list(self.gop_frame_counts),
            "epochs_used": list(self.epochs_used),
            "gop_losses": [list(curve) for curve in self.gop_losses],
            "training_seconds": self.training_seconds,
            "coding_seconds": self.coding_seconds,
            "encode_seconds": self.encode_seconds,
            "frames": [
                {
                    "frame": f.frame_index,
                    "gop": f.gop_index,
                    "points": f.point_count,
                    "bpp": f.bpp,
                    "lowest_bits": f.lowest_bits,
                    "occupancy_bits": f.occupancy_bits,
                    "param_bits_amortized": f.param_bits_amortized,
                    "stages": [
                        {
                            "scale": s.scale,
                            "stage": s.stage,
                            "payload_bits": s.payload_bits,
                            "estimated_bits": s.estimated_bits,
                        }
                        for s in f.stages
                    ],
                }
                for f in self.frames
            ],
        }


@dataclass
class DecodeStats:
    param_seconds: float = 0.0
    lowest_seconds: float = 0.0
    scale_seconds: dict = field(default_factory=dict)
    total_seconds: float = 0.0
    # Per decoded point: (x, y, z, scale, coded bits of its occupancy event).
    point_costs: list = field(default_factory=list)


@dataclass
class VerifyResult:
    ok: bool
    message: str
    decode_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


class _Reader:
    """Cursor over the container with hard bounds checking."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise DecodeError(
                f"container truncated: wanted {n} bytes at offset {self.pos}"
            )
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def train_gop(frames, config: GopConfig, init: Optional[np.ndarray] = None,
              num_scales: Optional[int] = None,
              epochs: Optional[int] = None) -> TrainResult:
    """Overfit one network to a group of frames.

    A frame is a voxel set, or its pyramid when the caller has built it
    already with ``num_scales`` transitions.  One epoch is one optimizer
    step per frame, in container order.  When ``init`` is given it is
    loaded verbatim before training (the warm start); ``epochs=0`` returns
    it untouched.
    """
    if not frames:
        raise ValueError("train_gop needs at least one frame")
    if num_scales is None:
        frames = [build_pyramid(frames[0], stop_at=config.stop_at), *frames[1:]]
        num_scales = frames[0].num_scales
    pyramids = [_pyramid(f, num_scales=num_scales) for f in frames]
    model = OccupancyModel(ModelConfig(num_scales=num_scales), seed=config.seed)
    if init is not None:
        model.load_flat(init)
    if epochs is None:
        epochs = config.epochs_first
    opt = ad.Adam(model.parameters())
    losses = []
    for _ in range(epochs):
        for pyr in pyramids:
            opt.zero_grad()
            loss = model.frame_loss(pyr, l2_coeff=config.l2_coeff)
            loss.backward()
            opt.step()
            losses.append(loss.item())
    return TrainResult(model=model, losses=losses, num_scales=num_scales,
                       pyramids=pyramids)


def _pyramid(frame, **how) -> ScalePyramid:
    """``frame`` if it is a pyramid already, else ``build_pyramid(frame, **how)``."""
    if isinstance(frame, ScalePyramid):
        return frame
    return build_pyramid(frame, **how)


def _coords_from_wire(raw: bytes, bit_depth: int) -> SparseVoxelSet:
    coords = np.frombuffer(raw, dtype="<u2").reshape(-1, 3).astype(np.int64)
    if len(coords) and coords.max() >= (1 << bit_depth):
        raise DecodeError("lowest-scale coordinates exceed declared bit depth")
    keys = pack_coords(coords)
    if len(coords) > 1 and np.any(np.diff(keys) <= 0):
        raise DecodeError("lowest-scale coordinates not sorted and unique")
    return SparseVoxelSet(coords, assume_sorted=True)


def _coding_pass(model: Optional[OccupancyModel], level: SparseVoxelSet,
                 num_scales: int, stage_bits, pyramid=None):
    """The scale loop of one frame, shared by encoder and decoder.

    From the lowest ``level`` up, each scale transition ``i`` computes the
    scale context and runs the model's eight-stage ``transition`` without
    gradients.  Each stage ``j`` quantizes its probabilities once and calls
    ``stage_bits(i, j, coarse, probs, quantized)``.  That returns the
    stage's 0/1 bits, one int64 per parent: the ground truth on encode,
    the range-decoded bits on decode.  The bits condition the later stages
    and form the child masks.

    Yields ``(i, finer level)`` after each transition.  The finer level is
    rebuilt from the masks, unless the encoder passes the ``pyramid`` it
    trained on, whose levels already carry their kernel pairs.
    """
    for i in range(num_scales - 1, -1, -1):
        coarse = level

        def next_bits(j, p):
            probs = p.data[:, 0]
            return stage_bits(i, j, coarse, probs, quantize_probabilities(probs))

        with ad.no_grad():
            masks = model.transition(model.scale_context(coarse, i), coarse,
                                     next_bits)
        if pyramid is not None:
            level = pyramid.levels[i]
        else:
            level = reconstruct_children(masks, coarse)
        yield i, level


def _stage_encoder(pyramid, parts: list, records: list):
    """Stage callback of the encoder: range-codes the ground-truth bits,
    appending each length-prefixed payload to ``parts``."""

    def encode_stage(i, j, coarse, probs, quantized):
        bits_j = ((pyramid.masks(i) >> j) & 1).astype(np.int64)
        enc = RangeEncoder()
        enc.encode_bits(quantized, bits_j)
        payload = enc.finish()
        parts.append(struct.pack("<I", len(payload)))
        parts.append(payload)
        records.append(
            StageRecord(
                scale=i,
                stage=j,
                payload_bits=8 * len(payload),
                estimated_bits=float(ad.cross_entropy_bits(
                    probs.astype(np.float64), bits_j.astype(np.float64))),
            )
        )
        return bits_j

    return encode_stage


def _stage_decoder(payloads: list, stats: Optional[DecodeStats]):
    """Stage callback of the decoder: range-decodes the next payload."""
    payloads = iter(payloads)

    def decode_stage(i, j, coarse, probs, quantized):
        payload = next(payloads)
        dec = RangeDecoder(payload)
        bits_j = dec.decode_bits(quantized)
        if dec.bits_consumed > 8 * len(payload) + 32:
            raise DecodeError(
                f"occupancy payload truncated at scale {i} stage {j}"
            )
        if stats is not None and bits_j.any():
            hit = bits_j == 1
            child = (coarse.coords[hit] << 1) + CHILD_OFFSETS[j]
            cost = -np.log2(quantized[hit] / 65536.0)
            stats.point_costs.append((child, i, cost))
        return bits_j

    return decode_stage


def encode_sequence(frames, config: GopConfig):
    """Encode a frame sequence; returns (container bytes, EncodeReport)."""
    if not frames:
        raise ValueError("encode_sequence needs at least one frame")
    for f in frames:
        f.check_bit_depth(config.bit_depth)
    t_begin = time.perf_counter()
    # The first frame's pyramid fixes the scale count of every frame; it is
    # built once and reused as that frame's training and coding pyramid.
    frames = [build_pyramid(frames[0], stop_at=config.stop_at), *frames[1:]]
    num_scales = frames[0].num_scales

    header = struct.pack(
        _HEADER_FMT, MAGIC, VERSION, config.bit_depth, num_scales,
        config.gop_size, len(frames), config.bits,
    )
    parts = [header]

    gop_param_bits = []
    gop_frame_counts = []
    epochs_used = []
    gop_losses = []
    frame_records = []
    training_seconds = 0.0
    coding_seconds = 0.0
    prev_params = None

    groups = [
        frames[k : k + config.gop_size]
        for k in range(0, len(frames), config.gop_size)
    ]
    for gop_index, gop_frames in enumerate(groups):
        epochs = config.epochs_first if gop_index == 0 else config.epochs_rest
        if num_scales > 0:
            t0 = time.perf_counter()
            trained = train_gop(gop_frames, config, init=prev_params,
                                num_scales=num_scales, epochs=epochs)
            training_seconds += time.perf_counter() - t0
            model, pyramids = trained.model, trained.pyramids
            gop_losses.append(trained.losses)
            # Warm starts continue from the full-precision parameters, but
            # coding always runs on the reloaded transmitted values.
            prev_params = model.flatten()
            q_header, q = quantize(prev_params, config.bits)
            side = fit_laplace(q)
            payload = compress_params(q, side, config.bits)
            reload_dequantized(model, q_header, q)
            block = pack_param_block(q_header, side, payload)
        else:
            model = None
            gop_losses.append([])
            pyramids = [_pyramid(f, num_scales=0) for f in gop_frames]
            block = pack_param_block(
                QuantHeader(min=0.0, max=0.0, bits=config.bits, count=0),
                LaplaceSideInfo(mu=0.0, b=0.0),
                b"",
            )
        parts.append(block)
        gop_param_bits.append(8 * len(block))
        gop_frame_counts.append(len(gop_frames))
        epochs_used.append(epochs)

        t0 = time.perf_counter()
        for pyr in pyramids:
            base = pyr.levels[-1]
            lowest = (struct.pack("<I", len(base))
                      + base.coords.astype("<u2").tobytes())
            parts.append(lowest)
            stages: list = []
            encode_stage = _stage_encoder(pyr, parts, stages)
            for _ in _coding_pass(model, base, num_scales, encode_stage, pyr):
                pass
            frame_records.append(
                FrameRecord(
                    frame_index=len(frame_records),
                    gop_index=gop_index,
                    point_count=len(pyr.levels[0]),
                    lowest_bits=8 * len(lowest),
                    occupancy_bits=sum(s.payload_bits + 32 for s in stages),
                    param_bits_amortized=8 * len(block) / len(gop_frames),
                    stages=stages,
                )
            )
        coding_seconds += time.perf_counter() - t0

    report = EncodeReport(
        num_scales=num_scales,
        header_bits=8 * HEADER_SIZE,
        gop_param_bits=gop_param_bits,
        gop_frame_counts=gop_frame_counts,
        epochs_used=epochs_used,
        gop_losses=gop_losses,
        frames=frame_records,
        training_seconds=training_seconds,
        coding_seconds=coding_seconds,
        encode_seconds=time.perf_counter() - t_begin,
    )
    data = b"".join(parts)
    if 8 * len(data) != report.total_bits:
        raise LinrError("container accounting mismatch")
    return data, report


def _walk(data: bytes):
    """Split a container into its sections, validating the layout.

    The only reader of the container format.  Checks the header (magic,
    version, frame and group counts, no more scales than bits of depth),
    that every parameter block has the header's width ``param_bits``,
    bounds every block and payload length by the bytes present, and rejects
    trailing bytes; decodes no parameters and no geometry.  Returns
    ``(header, groups)``: each group is ``(QuantHeader, LaplaceSideInfo,
    parameter payload, frames)``, each frame ``(lowest-scale coordinate
    bytes, occupancy payloads)`` with the payloads in container order.
    """
    reader = _Reader(data)
    header = _Header._make(struct.unpack(_HEADER_FMT, reader.take(HEADER_SIZE)))
    if header.magic != MAGIC:
        raise DecodeError("not a LNRP container")
    if header.version != VERSION:
        raise DecodeError(f"unsupported container version {header.version}")
    if header.frame_count < 1 or header.gop_size < 1:
        raise DecodeError("invalid frame or group count")
    if header.num_scales > header.bit_depth:
        raise DecodeError(
            f"{header.num_scales} scales exceed bit depth {header.bit_depth}"
        )
    groups = []
    remaining = header.frame_count
    while remaining > 0:
        quant, side, payload, reader.pos = unpack_param_block(data, reader.pos)
        if quant.bits != header.param_bits:
            raise DecodeError(f"parameter block width {quant.bits} differs "
                              f"from the header's {header.param_bits}")
        if header.num_scales == 0 and quant.count != 0:
            raise DecodeError("parameter block present but no scales to decode")
        frames = []
        for _ in range(min(header.gop_size, remaining)):
            coords = reader.take(6 * reader.u32())
            payloads = [reader.take(reader.u32())
                        for _ in range(header.num_scales * NUM_STAGES)]
            frames.append((coords, payloads))
        groups.append((quant, side, payload, frames))
        remaining -= len(frames)
    if reader.pos != len(data):
        raise DecodeError(
            f"{len(data) - reader.pos} trailing bytes after the last frame"
        )
    return header, groups


def decode_sequence(data: bytes, collect_stats: bool = False):
    """Decode a container; returns (frames, DecodeStats or None)."""
    t_begin = time.perf_counter()
    header, groups = _walk(data)
    num_scales = header.num_scales
    stats = DecodeStats() if collect_stats else None
    model = None
    if num_scales > 0:
        model = OccupancyModel(ModelConfig(num_scales=num_scales))

    frames = []
    for quant, side, payload, blocks in groups:
        t0 = time.perf_counter()
        if model is not None:
            # The symbol loop runs ``count`` times, so check the untrusted
            # count before it starts.
            if quant.count != model.num_parameters():
                raise CountMismatchError(
                    f"block carries {quant.count} parameters, "
                    f"model has {model.num_parameters()}"
                )
            q = decompress_params(payload, quant, side)
            reload_dequantized(model, quant, q)
        if stats is not None:
            stats.param_seconds += time.perf_counter() - t0
        for coords, payloads in blocks:
            t0 = time.perf_counter()
            level = _coords_from_wire(coords, header.bit_depth)
            if stats is not None:
                stats.lowest_seconds += time.perf_counter() - t0
            decode_stage = _stage_decoder(payloads, stats)
            t_scale = time.perf_counter()
            for i, level in _coding_pass(model, level, num_scales, decode_stage):
                if stats is not None:
                    now = time.perf_counter()
                    stats.scale_seconds[i] = (
                        stats.scale_seconds.get(i, 0.0) + now - t_scale
                    )
                    t_scale = now
            frames.append(level)
    if stats is not None:
        stats.total_seconds = time.perf_counter() - t_begin
    return frames, stats


def container_summary(data: bytes) -> dict:
    """Byte accounting of a container without decoding any geometry.

    Rejects every container whose layout :func:`decode_sequence` rejects.
    Returns totals per section plus per-scale occupancy bytes (length
    prefixes included in their sections).
    """
    header, groups = _walk(data)
    num_scales = header.num_scales
    blocks = [block for *_, frames in groups for block in frames]
    scale_bytes = {i: 0 for i in range(num_scales)}
    for _, payloads in blocks:
        for k, payload in enumerate(payloads):
            scale_bytes[num_scales - 1 - k // NUM_STAGES] += 4 + len(payload)
    return {
        "file_bytes": len(data),
        "header_bytes": HEADER_SIZE,
        "param_bytes": sum(BLOCK_HEADER_SIZE + len(payload)
                           for _, _, payload, _ in groups),
        "lowest_bytes": sum(4 + len(coords) for coords, _ in blocks),
        "scale_bytes": scale_bytes,
        "num_scales": num_scales,
        "frame_count": header.frame_count,
        "gop_count": len(groups),
        "gop_size": header.gop_size,
        "bit_depth": header.bit_depth,
        "param_bits_width": header.param_bits,
    }


def verify(data: bytes, original_frames) -> VerifyResult:
    """Decode and compare against the originals, coordinate-exact."""
    t0 = time.perf_counter()
    try:
        decoded, _ = decode_sequence(data)
    except LinrError as exc:
        return VerifyResult(False, f"decode failed: {exc}")
    elapsed = time.perf_counter() - t0
    if len(decoded) != len(original_frames):
        return VerifyResult(
            False,
            f"frame count differs: container {len(decoded)}, "
            f"input {len(original_frames)}",
            elapsed,
        )
    for k, (got, want) in enumerate(zip(decoded, original_frames)):
        if len(got) != len(want):
            return VerifyResult(
                False,
                f"frame {k}: {len(got)} points decoded, {len(want)} expected",
                elapsed,
            )
        if not np.array_equal(got.coords, want.coords):
            row = int(np.nonzero(np.any(got.coords != want.coords, axis=1))[0][0])
            return VerifyResult(
                False,
                f"frame {k}: first mismatch at row {row}: "
                f"{got.coords[row].tolist()} != {want.coords[row].tolist()}",
                elapsed,
            )
    return VerifyResult(True, f"{len(decoded)} frames bit-exact", elapsed)
