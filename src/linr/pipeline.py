"""Group-of-frames orchestration and the bitstream container.

Encoding a sequence: freeze the scale count from the first frame, split the
frames into groups, overfit the network to each group, quantize and reload
the network so both sides run identical arithmetic, then range-code every
child-occupancy bit under the network's predictions.  One model and one
Adam run serve the whole sequence: every group after the first continues
training from the previous group's transmitted (dequantized) parameters,
which the decoder holds too, with the optimizer's moments and step count
carried over, and ships its parameters as a delta block against them when
every change fits the symbol table.  A warm group whose step budget
provably cannot move any parameter by half a quantization step
(:meth:`Adam.max_displacement`) runs no epoch and ships the all-zero delta.

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
    per group:  parameter block (see params.pack_param_block): absolute,
                or delta against the previous group's parameters (never in
                the first group); an all-zero delta has an empty payload
    per frame:  lowest-scale block (point_count u32, then 3 x u16 per point,
                each below 2^(bit_depth - num_scales))
                per scale transition, coarse to fine, per stage 0..7:
                the payload's length as minimal LEB128 (at most 4 bytes),
                then the occupancy payload: the stage's bits of every
                parent, or on a folded level of every linked parent; on a
                folded level stage 7's stream goes on with one mask symbol
                per isolated parent, in ``FoldedLevel.iso`` order

One walker, :func:`_walk`, reads and validates this layout for both
:func:`decode_sequence` and :func:`container_summary`.  Every decode times
its parameter, lowest-scale and per-scale work (:class:`DecodeStats`); only
the per-point bit costs are collected on request.
"""
from __future__ import annotations

import math
import struct
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import CountMismatchError, DecodeError, LinrError
from .network import ModelConfig, NUM_STAGES, OccupancyModel
from .params import (
    BLOCK_HEADER_SIZE,
    DELTA,
    KIND_NAMES,
    LaplaceSideInfo,
    QuantHeader,
    compress_params,
    decompress_params,
    fit_laplace,
    pack_param_block,
    quantize,
    reload_dequantized,
    unpack_param_block,
    zero_delta_within,
)
from .rangecoder import (PROB_ONE, RangeDecoder, RangeEncoder, mask_table,
                         quantize_probabilities)
from .voxel import (
    CHILD_OFFSETS,
    MAX_BIT_DEPTH,
    ScalePyramid,
    SparseVoxelSet,
    build_pyramid,
    pack_coords,
    reconstruct_children,
)

MAGIC = b"LNRP"
VERSION = 10
FILE_EXTENSION = ".linr"

# The largest finite float32: no transmitted parameter may exceed it in magnitude.
_F32_MAX = float(np.finfo(np.float32).max)

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
    bits: int = 4
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
    optimizer: ad.Adam  # steps ``model``; ``train_gop(resume=...)`` continues it
    losses: list
    num_scales: int
    pyramids: list  # one per frame, in order: the training data


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


@dataclass
class EncodeReport:
    num_scales: int
    gop_param_bits: list
    gop_param_kinds: list  # per group, "absolute" or "delta"
    gop_frame_counts: list
    epochs_used: list  # per group, the epochs it ran: 0 for a skipped warm group
    # Per group, the training loss of every optimizer step in bits: one per
    # frame per epoch, in training order (empty without scales or epochs).
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
            8 * HEADER_SIZE
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
            for rec in f.stages:
                out[rec.scale] = out.get(rec.scale, 0) + rec.payload_bits
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
            "gop_param_kinds": list(self.gop_param_kinds),
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
                    "stages": [asdict(s) for s in f.stages],
                }
                for f in self.frames
            ],
        }


@dataclass
class DecodeStats:
    """Where a decode spent its time; the per-point costs on request."""

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

    def leb128(self) -> int:
        """A length prefix as :func:`_leb128` writes it: minimal, at most 4
        bytes."""
        n = 0
        for k in range(4):
            byte = self.take(1)[0]
            n |= (byte & 0x7F) << (7 * k)
            if not byte & 0x80:
                if byte == 0 and k:
                    raise DecodeError(f"non-minimal length prefix at offset {self.pos - 1}")
                return n
        raise DecodeError(f"length prefix longer than 4 bytes at offset {self.pos}")


@ad.one_blas_thread()
def train_gop(frames, config: GopConfig, init: Optional[np.ndarray] = None,
              num_scales: Optional[int] = None,
              epochs: Optional[int] = None,
              resume: Optional[TrainResult] = None) -> TrainResult:
    """Overfit one network to a group of frames.

    A frame is a voxel set, or its pyramid when the caller has built it
    already with ``num_scales`` transitions.  One epoch is one optimizer
    step per frame, in container order.  When ``init`` is given it is
    loaded verbatim before training (the warm start); ``epochs=0`` returns
    it untouched.  ``resume`` continues an earlier result instead: its
    model, with whatever values it holds now, and its optimizer, whose
    moments and step count carry on.  That result's model is trained in
    place and shared with the one returned.
    """
    if not frames:
        raise ValueError("train_gop needs at least one frame")
    if resume is not None:
        if init is not None:
            raise ValueError("train_gop takes init or resume, not both")
        if num_scales not in (None, resume.num_scales):
            raise ValueError(f"resume has {resume.num_scales} scales, "
                             f"not {num_scales}")
        num_scales = resume.num_scales
    if num_scales is None:
        frames = [build_pyramid(frames[0], stop_at=config.stop_at), *frames[1:]]
        num_scales = frames[0].num_scales
    pyramids = [_pyramid(f, num_scales=num_scales) for f in frames]
    if resume is not None:
        model, opt = resume.model, resume.optimizer
    else:
        model = OccupancyModel(ModelConfig(num_scales=num_scales),
                               seed=config.seed)
        if init is not None:
            model.load_flat(init)
        opt = ad.Adam(model.parameters())
    if epochs is None:
        epochs = config.epochs_first
    losses = []
    for _ in range(epochs):
        for pyr in pyramids:
            opt.zero_grad()
            loss = model.frame_loss(pyr, l2_coeff=config.l2_coeff)
            opt.step()
            losses.append(loss.item())
    return TrainResult(model=model, optimizer=opt, losses=losses,
                       num_scales=num_scales, pyramids=pyramids)


def _pyramid(frame, **how) -> ScalePyramid:
    """``frame`` if it is a pyramid already, else ``build_pyramid(frame, **how)``."""
    if isinstance(frame, ScalePyramid):
        return frame
    return build_pyramid(frame, **how)


def _coords_from_wire(raw: bytes, bit_depth: int, num_scales: int) -> SparseVoxelSet:
    """The lowest level of a frame.  Its coordinates were halved
    ``num_scales`` times from ``bit_depth`` bits, so each fits in
    ``bit_depth - num_scales`` bits; a larger one would decode to points
    outside the declared depth."""
    coords = np.frombuffer(raw, dtype="<u2").reshape(-1, 3).astype(np.int64)
    if len(coords) and coords.max() >= (1 << (bit_depth - num_scales)):
        raise DecodeError("lowest-scale coordinates exceed declared bit depth")
    keys = pack_coords(coords)
    if len(coords) > 1 and np.any(np.diff(keys) <= 0):
        raise DecodeError("lowest-scale coordinates not sorted and unique")
    return SparseVoxelSet(coords, assume_sorted=True)


def _coding_pass(model: Optional[OccupancyModel], level: SparseVoxelSet,
                 num_scales: int, stage_bits, pyramid=None):
    """The scale loop of one frame, shared by encoder and decoder.

    From the lowest ``level`` up, each scale transition ``i`` computes the
    scale context and global features, then the model's eight-stage
    ``transition``, all without gradients.  Each stage ``j`` quantizes the
    probabilities of the parents the network conditions on (every parent,
    or the linked ones of a folded level) once and calls ``stage_bits(i,
    j, coarse, probs, quantized, table)``.  That returns the stage's 0/1
    bits of those parents, one int64 each: the ground truth on encode, the
    range-decoded bits on decode.  The bits condition the later stages and
    form the child masks.

    On a folded level (:meth:`SparseVoxelSet.fold`) an isolated parent's
    mask is one symbol.  Each stage quantizes the probabilities of the
    stand-ins of its 2^j prefixes too, and stage 7 passes the
    :func:`mask_table` they build as ``table`` (None otherwise); with it,
    ``stage_bits`` codes every isolated parent's mask in the same stream,
    after the stage's bits, and returns those masks as a second value.

    Yields ``(i, finer level)`` after each transition.  The finer level is
    rebuilt from the masks, unless the encoder passes the ``pyramid`` it
    trained on, whose levels already carry their kernel pairs.
    """
    for i in range(num_scales - 1, -1, -1):
        coarse = level
        rows = coarse.fold()
        linked = len(rows.keep) if rows is not coarse else len(coarse)
        stand_ins = []
        isolated = None

        def next_bits(j, p):
            nonlocal isolated
            table = None
            if rows is not coarse:
                stand_ins.append(quantize_probabilities(p.data[linked:linked + (1 << j), 0]))
                if j == NUM_STAGES - 1:
                    table = mask_table(stand_ins)
            probs = p.data[:linked, 0]
            bits_j, masks = stage_bits(i, j, coarse, probs,
                                       quantize_probabilities(probs), table)
            if masks is not None:
                isolated = masks
            return bits_j

        with ad.no_grad():
            g = model.global_features(model.scale_context(coarse, i), coarse)
            masks = model.transition(g, coarse, next_bits)
        if pyramid is not None:
            level = pyramid.levels[i]
        else:
            if rows is not coarse:
                masks = rows.unfold(masks, isolated)
            level = reconstruct_children(masks, coarse)
        yield i, level


def _leb128(n: int) -> bytes:
    """``n`` as minimal unsigned LEB128: seven bits a byte, low first, the
    top bit set on every byte but the last; at most 4 bytes."""
    if not 0 <= n < 1 << 28:
        raise LinrError(f"payload of {n} bytes exceeds a 4-byte length prefix")
    out = bytearray()
    while n >= 0x80:
        out.append(0x80 | (n & 0x7F))
        n >>= 7
    out.append(n)
    return bytes(out)


def _stage_encoder(pyramid, parts: list, records: list):
    """Stage callback of the encoder: range-codes the ground-truth bits,
    and with a ``table`` the isolated parents' masks, appending each
    length-prefixed payload to ``parts``."""

    def encode_stage(i, j, coarse, probs, quantized, table):
        masks = pyramid.masks(i)
        rows = coarse.fold()
        bits_j = ((masks >> j) & 1).astype(np.int64)
        if rows is not coarse:
            bits_j = bits_j[rows.keep]
        enc = RangeEncoder()
        enc.encode_bits(quantized, bits_j)
        estimated = float(ad.cross_entropy_bits(probs.astype(np.float64),
                                                bits_j.astype(np.float64)))
        if table is not None:
            symbols = masks[rows.iso].astype(np.int64) - 1
            enc.encode_symbols(table, symbols)
            estimated += table.ideal_bits(symbols)
        payload = enc.finish()
        parts.append(_leb128(len(payload)))
        parts.append(payload)
        records.append(StageRecord(scale=i, stage=j, payload_bits=8 * len(payload),
                                   estimated_bits=estimated))
        return bits_j, None

    return encode_stage


def _stage_decoder(payloads: list, point_costs: Optional[list]):
    """Stage callback of the decoder: range-decodes the next payload, and
    appends each decoded child's coded bits to ``point_costs`` if given.
    A child of an isolated parent is charged an equal share of its
    parent's mask symbol."""
    payloads = iter(payloads)

    def decode_stage(i, j, coarse, probs, quantized, table):
        rows = coarse.fold()
        dec = RangeDecoder(next(payloads))
        bits_j = dec.decode_bits(quantized)
        masks = None
        if table is not None:
            symbols = dec.decode_symbols(table, len(rows.iso))
            masks = (symbols + 1).astype(np.uint8)
        if dec.truncated:
            raise DecodeError(
                f"occupancy payload truncated at scale {i} stage {j}"
            )
        if point_costs is not None:
            parents = coarse.coords if rows is coarse else coarse.coords[rows.keep]
            hit = bits_j == 1
            if hit.any():
                child = (parents[hit] << 1) + CHILD_OFFSETS[j]
                point_costs.append((child, i, -np.log2(quantized[hit] / PROB_ONE)))
            if masks is not None:
                iso, slot = np.nonzero((masks[:, None] >> np.arange(8)) & 1)
                child = (coarse.coords[rows.iso[iso]] << 1) + CHILD_OFFSETS[slot]
                bits = -np.log2(table.freq[symbols] / PROB_ONE)
                point_costs.append((child, i, bits[iso] / np.bincount(iso)[iso]))
        return bits_j, masks

    return decode_stage


@ad.one_blas_thread()
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
    gop_param_kinds = []
    gop_frame_counts = []
    epochs_used = []
    gop_losses = []
    frame_records = []
    training_seconds = 0.0
    coding_seconds = 0.0
    trained = None  # the sequence's one model and optimizer, once built
    prev_params = None

    groups = [
        frames[k : k + config.gop_size]
        for k in range(0, len(frames), config.gop_size)
    ]
    for gop_index, gop_frames in enumerate(groups):
        epochs = config.epochs_first if gop_index == 0 else config.epochs_rest
        if num_scales > 0:
            # A warm group whose step budget cannot move any parameter by
            # half a step of its delta block would code R unchanged: it
            # skips training, keeping Adam's moments, and codes that delta.
            if prev_params is not None and zero_delta_within(
                    prev_params,
                    trained.optimizer.max_displacement(epochs * len(gop_frames)),
                    config.bits):
                epochs = 0
            t0 = time.perf_counter()
            trained = train_gop(gop_frames, config, num_scales=num_scales,
                                epochs=epochs, resume=trained)
            training_seconds += time.perf_counter() - t0
            model, pyramids = trained.model, trained.pyramids
            gop_losses.append(trained.losses)
            # The previous group's transmitted values, which the model held
            # when this group's training began, are the reference of its
            # delta block.
            q_header, q = quantize(model.flatten(), config.bits,
                                   reference=prev_params)
            side = fit_laplace(q)
            # An all-zero delta leaves R as it is: it ships no payload.
            zero = q_header.kind == DELTA and np.all(q == 1 << (config.bits - 1))
            payload = b"" if zero else compress_params(q, side, config.bits)
            reload_dequantized(model, q_header, q, prev_params)
            prev_params = model.flatten()
            block = pack_param_block(q_header, side, payload)
        else:
            model = None
            gop_losses.append([])
            pyramids = [_pyramid(f, num_scales=0) for f in gop_frames]
            q_header = QuantHeader(min=0.0, max=0.0, bits=config.bits, count=0)
            block = pack_param_block(q_header, LaplaceSideInfo(mu=0.0, b=0.0),
                                     b"")
        parts.append(block)
        gop_param_bits.append(8 * len(block))
        gop_param_kinds.append(KIND_NAMES[q_header.kind])
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
                    occupancy_bits=sum(
                        s.payload_bits + 8 * len(_leb128(s.payload_bits // 8))
                        for s in stages),
                    param_bits_amortized=8 * len(block) / len(gop_frames),
                    stages=stages,
                )
            )
        coding_seconds += time.perf_counter() - t0

    report = EncodeReport(
        num_scales=num_scales,
        gop_param_bits=gop_param_bits,
        gop_param_kinds=gop_param_kinds,
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
    version, frame and group counts, a bit depth in [1, 16] as the encoder
    writes, no more scales than bits of depth), that every parameter block
    has the header's width ``param_bits``, a known kind and a finite
    Laplace mean, that the first is not a delta block, and that each
    carries exactly as many parameters as the model the header's scale
    count builds (none without scales), with a finite range whose max is
    above its min when it carries any; that range must be no wider than
    float32 holds, and a delta block must not reach past float32 from any
    value the blocks before it can give; that an absolute block with
    parameters has a payload and a block without has none;
    rejects an empty lowest-scale block, bounds every block and payload
    length by the bytes present, rejects a length prefix that is not
    minimal LEB128 of at most 4 bytes, and rejects trailing bytes; decodes no
    parameters and no geometry.  Returns ``(header, model, groups)``: the
    model is that freshly built network (None without scales), each group
    is ``(QuantHeader, LaplaceSideInfo, parameter payload, frames)``, each
    frame ``(lowest-scale coordinate bytes, occupancy payloads)`` with the
    payloads in container order.
    """
    reader = _Reader(data)
    header = _Header._make(struct.unpack(_HEADER_FMT, reader.take(HEADER_SIZE)))
    if header.magic != MAGIC:
        raise DecodeError("not a LNRP container")
    if header.version != VERSION:
        raise DecodeError(f"unsupported container version {header.version}")
    if header.frame_count < 1 or header.gop_size < 1:
        raise DecodeError("invalid frame or group count")
    if not 1 <= header.bit_depth <= MAX_BIT_DEPTH:
        raise DecodeError(f"invalid bit depth {header.bit_depth}")
    if header.num_scales > header.bit_depth:
        raise DecodeError(
            f"{header.num_scales} scales exceed bit depth {header.bit_depth}"
        )
    model = None
    if header.num_scales > 0:
        model = OccupancyModel(ModelConfig(num_scales=header.num_scales))
    # The decoder's symbol loop runs ``count`` times, so the untrusted count
    # is checked before any block is decoded.
    count = model.num_parameters() if model is not None else 0
    # Bounds |value| of every parameter the blocks so far can decode to.
    reach = 0.0
    groups = []
    remaining = header.frame_count
    while remaining > 0:
        quant, side, payload, reader.pos = unpack_param_block(data, reader.pos)
        if quant.bits != header.param_bits:
            raise DecodeError(f"parameter block width {quant.bits} differs "
                              f"from the header's {header.param_bits}")
        if quant.kind == DELTA and not groups:
            raise DecodeError("delta parameter block in the first group")
        if quant.count != count:
            raise CountMismatchError(f"block carries {quant.count} "
                                     f"parameters, model has {count}")
        # What the encoder writes: a constant vector declares min + 1, and a
        # block without parameters [0, 0]; a b that is not positive selects
        # the point mass.
        if count and not (math.isfinite(quant.min) and math.isfinite(quant.max)
                          and quant.max > quant.min):
            raise DecodeError(f"invalid parameter range "
                              f"[{quant.min}, {quant.max}]")
        if count:
            if quant.max - quant.min > _F32_MAX:
                raise DecodeError(f"parameter range [{quant.min}, {quant.max}] "
                                  f"is wider than float32 holds")
            if quant.kind == DELTA:
                reach += quant.step * (1 << (quant.bits - 1))
            else:
                reach = max(abs(quant.min), abs(quant.max))
            if reach > _F32_MAX:
                raise DecodeError("delta parameter block reaches past float32")
        if not math.isfinite(side.mu):
            raise DecodeError(f"non-finite Laplace mean {side.mu}")
        # Only a delta block may leave its payload empty (no change); a
        # block without parameters has nothing to code.
        if count and quant.kind != DELTA and not payload:
            raise DecodeError("absolute parameter block without a payload")
        if not count and payload:
            raise DecodeError("parameter payload without parameters")
        frames = []
        for _ in range(min(header.gop_size, remaining)):
            num_points = reader.u32()
            if num_points == 0:
                raise DecodeError("empty lowest-scale block")
            coords = reader.take(6 * num_points)
            payloads = [reader.take(reader.leb128())
                        for _ in range(header.num_scales * NUM_STAGES)]
            frames.append((coords, payloads))
        groups.append((quant, side, payload, frames))
        remaining -= len(frames)
    if reader.pos != len(data):
        raise DecodeError(
            f"{len(data) - reader.pos} trailing bytes after the last frame"
        )
    return header, model, groups


@ad.one_blas_thread()
def decode_sequence(data: bytes, collect_stats: bool = False):
    """Decode a container; returns (frames, DecodeStats).

    The stats always carry the timings; ``collect_stats`` also fills
    ``point_costs``.
    """
    t_begin = time.perf_counter()
    header, model, groups = _walk(data)
    num_scales = header.num_scales
    stats = DecodeStats()
    point_costs = stats.point_costs if collect_stats else None

    frames = []
    for quant, side, payload, blocks in groups:
        t0 = time.perf_counter()
        if payload:  # an empty delta block keeps the parameters
            q = decompress_params(payload, quant, side)
            reference = model.flatten() if quant.kind == DELTA else None
            reload_dequantized(model, quant, q, reference)
        stats.param_seconds += time.perf_counter() - t0
        for coords, payloads in blocks:
            t0 = time.perf_counter()
            level = _coords_from_wire(coords, header.bit_depth, num_scales)
            t1 = time.perf_counter()
            stats.lowest_seconds += t1 - t0
            decode_stage = _stage_decoder(payloads, point_costs)
            for i, level in _coding_pass(model, level, num_scales, decode_stage):
                t0, t1 = t1, time.perf_counter()
                stats.scale_seconds[i] = stats.scale_seconds.get(i, 0.0) + t1 - t0
            # The frame runs no conv; its link would keep level 1 alive.
            level.unlink()
            frames.append(level)
    stats.total_seconds = time.perf_counter() - t_begin
    return frames, stats


def container_summary(data: bytes) -> dict:
    """Byte accounting of a container without decoding any geometry.

    Rejects every container whose layout :func:`decode_sequence` rejects.
    Returns totals per section plus per-scale occupancy bytes (length
    prefixes included in their sections) and each group's parameter block
    bytes and kind.
    """
    header, _, groups = _walk(data)
    num_scales = header.num_scales
    blocks = [block for *_, frames in groups for block in frames]
    scale_bytes = {i: 0 for i in range(num_scales)}
    gop_param_bytes = [BLOCK_HEADER_SIZE + len(payload)
                       for _, _, payload, _ in groups]
    for _, payloads in blocks:
        for k, payload in enumerate(payloads):
            scale_bytes[num_scales - 1 - k // NUM_STAGES] += (
                len(_leb128(len(payload))) + len(payload))
    return {
        "file_bytes": len(data),
        "header_bytes": HEADER_SIZE,
        "param_bytes": sum(gop_param_bytes),
        "gop_param_bytes": gop_param_bytes,
        "gop_param_kinds": [KIND_NAMES[quant.kind] for quant, *_ in groups],
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
    try:
        decoded, _ = decode_sequence(data)
    except LinrError as exc:
        return VerifyResult(False, f"decode failed: {exc}")
    if len(decoded) != len(original_frames):
        return VerifyResult(
            False,
            f"frame count differs: container {len(decoded)}, "
            f"input {len(original_frames)}",
        )
    for k, (got, want) in enumerate(zip(decoded, original_frames)):
        if len(got) != len(want):
            return VerifyResult(
                False,
                f"frame {k}: {len(got)} points decoded, {len(want)} expected",
            )
        if not np.array_equal(got.coords, want.coords):
            row = int(np.nonzero(np.any(got.coords != want.coords, axis=1))[0][0])
            return VerifyResult(
                False,
                f"frame {k}: first mismatch at row {row}: "
                f"{got.coords[row].tolist()} != {want.coords[row].tolist()}",
            )
    return VerifyResult(True, f"{len(decoded)} frames bit-exact")
