"""Quantization and entropy coding of the transmitted network parameters.

The whole learned parameter vector is quantized against one min/max range,
then arithmetic-coded under a Laplace model fitted to the quantized
integers.  Both sides rebuild the model from float32 side info, so the
decoder reconstructs exactly the integers the encoder produced, and the
encoder reloads itself with the dequantized values so its coding passes
run on precisely the parameters the decoder will hold.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CountMismatchError, DecodeError, NumericError
from .rangecoder import LaplaceTable, RangeDecoder, RangeEncoder

# min f32, max f32, mu f32, b f32, bits u8, count u32, payload_len u32
_BLOCK_FMT = "<ffffBII"
BLOCK_HEADER_SIZE = struct.calcsize(_BLOCK_FMT)


@dataclass(frozen=True)
class QuantHeader:
    min: float
    max: float
    bits: int
    count: int

    @property
    def raw_bits(self) -> int:
        """Size of a plain fixed-width integer dump, in bits."""
        return self.bits * self.count


@dataclass(frozen=True)
class LaplaceSideInfo:
    mu: float
    b: float


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _f32_bound(value: float, upper: bool) -> float:
    """Round to float32 such that the result still bounds ``value``."""
    r = np.float32(value)
    if upper and r < value:
        r = np.nextafter(r, np.float32(np.inf))
    elif not upper and r > value:
        r = np.nextafter(r, np.float32(-np.inf))
    return float(r)


def quantize(params: np.ndarray, bits: int = 8):
    """Uniform quantization of a parameter vector to ``bits``-wide integers.

    Values are min/max normalized to [0, 1], scaled by 2^bits - 1, and
    rounded half away from zero.  Returns the header (float32 range) and
    the integer vector.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be between 1 and 16")
    v = np.asarray(params, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot quantize an empty parameter vector")
    if not np.all(np.isfinite(v)):
        raise NumericError("parameters contain non-finite values")
    lo = _f32_bound(float(v.min()), upper=False)
    hi = _f32_bound(float(v.max()), upper=True)
    if hi <= lo:
        # Constant vector: declare a unit range and all-zero symbols, which
        # dequantizes back to the constant exactly.
        header = QuantHeader(min=lo, max=float(np.float32(lo + 1.0)), bits=bits,
                             count=v.size)
        return header, np.zeros(v.size, dtype=np.int64)
    levels = (1 << bits) - 1
    q = _round_half_away((v - lo) / (hi - lo) * levels)
    q = np.clip(q, 0, levels).astype(np.int64)
    return QuantHeader(min=lo, max=hi, bits=bits, count=v.size), q


def dequantize(header: QuantHeader, q: np.ndarray) -> np.ndarray:
    """Map quantized integers back to reals; exact at both endpoints."""
    q = np.asarray(q, dtype=np.int64)
    levels = (1 << header.bits) - 1
    if q.size and (q.min() < 0 or q.max() > levels):
        raise DecodeError("quantized symbol out of range")
    return q / levels * (header.max - header.min) + header.min


def fit_laplace(q: np.ndarray) -> LaplaceSideInfo:
    """Sample mean and mean absolute deviation, rounded to float32.

    The float32 rounding happens here so the encoder builds its coding
    table from exactly the side info the decoder will parse.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.size == 0:
        raise ValueError("cannot fit an empty vector")
    mu = q.mean()
    b = np.abs(q - mu).mean()
    return LaplaceSideInfo(mu=float(np.float32(mu)), b=float(np.float32(b)))


def compress_params(q: np.ndarray, side: LaplaceSideInfo, bits: int) -> bytes:
    enc = RangeEncoder()
    enc.encode_symbols(LaplaceTable(side.mu, side.b, bits).cum, q)
    return enc.finish()


def decompress_params(payload: bytes, header: QuantHeader,
                      side: LaplaceSideInfo) -> np.ndarray:
    dec = RangeDecoder(payload)
    q = dec.decode_symbols(LaplaceTable(side.mu, side.b, header.bits).cum,
                           header.count)
    if dec.bits_consumed > len(payload) * 8 + 32:
        raise DecodeError("parameter payload truncated")
    return q


def pack_param_block(header: QuantHeader, side: LaplaceSideInfo,
                     payload: bytes) -> bytes:
    head = struct.pack(
        _BLOCK_FMT, header.min, header.max, side.mu, side.b,
        header.bits, header.count, len(payload),
    )
    return head + payload


def unpack_param_block(buf: bytes, offset: int = 0):
    """Parse one parameter block; returns (header, side, payload, new_offset)."""
    end = offset + BLOCK_HEADER_SIZE
    if end > len(buf):
        raise DecodeError("parameter block header truncated")
    lo, hi, mu, b, bits, count, payload_len = struct.unpack_from(
        _BLOCK_FMT, buf, offset
    )
    if not 1 <= bits <= 16:
        raise DecodeError(f"invalid parameter bit width {bits}")
    if end + payload_len > len(buf):
        raise DecodeError("parameter block payload truncated")
    payload = bytes(buf[end : end + payload_len])
    header = QuantHeader(min=lo, max=hi, bits=bits, count=count)
    return header, LaplaceSideInfo(mu=mu, b=b), payload, end + payload_len


def reload_dequantized(model, header: QuantHeader, q: np.ndarray) -> None:
    """Overwrite the model with transmitted-precision parameter values."""
    if header.count != model.num_parameters():
        raise CountMismatchError(
            f"block carries {header.count} parameters, "
            f"model has {model.num_parameters()}"
        )
    model.load_flat(dequantize(header, q))
