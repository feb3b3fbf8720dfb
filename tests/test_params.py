"""Parameter quantization and compression tests.

Expected values for the worked examples are frozen from direct evaluation
of the normalize/round/dequantize formulas; entropy bounds come from an
ideal-entropy oracle over the coding table.
"""
import numpy as np
import pytest

from linr.errors import DecodeError, NumericError
from linr.params import (
    ABSOLUTE,
    BLOCK_HEADER_SIZE,
    DELTA,
    LaplaceSideInfo,
    compress_params,
    decompress_params,
    dequantize,
    fit_laplace,
    pack_param_block,
    quantize,
    unpack_param_block,
)
from linr.rangecoder import LaplaceTable


class TestQuantize:
    def test_worked_example(self):
        header, q = quantize(np.array([-1.0, 0.0, 1.0]), bits=8)
        assert header.min == -1.0 and header.max == 1.0
        # (0 - (-1)) / 2 * 255 = 127.5, half away from zero -> 128
        assert q.tolist() == [0, 128, 255]

    def test_endpoints_map_to_extremes(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=1000)
        header, q = quantize(v, bits=8)
        assert q[np.argmin(v)] == 0
        assert q[np.argmax(v)] == 255

    def test_constant_vector(self):
        header, q = quantize(np.array([3.25, 3.25, 3.25]), bits=8)
        assert q.tolist() == [0, 0, 0]
        assert np.allclose(dequantize(header, q), 3.25)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            quantize(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            quantize(np.array([1.0, np.inf]))

    def test_range_rule(self):
        header, q = quantize(np.array([0.0, 10.0]), bits=4)
        assert q.tolist() == [0, 15]


class TestDequantize:
    def test_worked_example(self):
        header, _ = quantize(np.array([-1.0, 0.0, 1.0]), bits=8)
        got = dequantize(header, np.array([128]))[0]
        assert got == pytest.approx(128 / 255 * 2 - 1, abs=1e-12)
        assert got == pytest.approx(0.00392156862745097, abs=1e-12)

    def test_endpoints_exact(self):
        header, _ = quantize(np.array([-1.0, 0.5, 1.0]), bits=8)
        out = dequantize(header, np.array([0, 255]))
        assert out[0] == header.min
        assert out[1] == header.max

    def test_symbol_out_of_range(self):
        header, _ = quantize(np.array([0.0, 1.0]), bits=8)
        with pytest.raises(DecodeError):
            dequantize(header, np.array([256]))

    def test_error_bound_random_vectors(self):
        rng = np.random.default_rng(1)
        total = 0
        while total < 100_000:
            n = 5000
            v = rng.normal(scale=rng.uniform(0.01, 10), size=n)
            header, q = quantize(v, bits=8)
            err = np.abs(dequantize(header, q) - v)
            assert err.max() <= (header.max - header.min) / 510
            total += n


class TestDeltaQuantize:
    def test_worked_example(self):
        # Range [0, 2.55] at 8 bits: step 0.01, symbols offset by 128.
        v = np.array([0.0, 1.0, 2.55])
        ref = np.array([0.02, 1.0, 2.5])
        header, q = quantize(v, bits=8, reference=ref)
        assert header.kind == DELTA
        assert header.step == pytest.approx(0.01, rel=1e-6)
        assert q.tolist() == [126, 128, 133]
        assert np.allclose(dequantize(header, q, ref), v, atol=header.step / 2)

    def test_error_bound_random_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.normal(scale=rng.uniform(0.01, 10), size=5000)
            ref = v + rng.normal(scale=np.ptp(v) / 200, size=v.size)
            header, q = quantize(v, bits=8, reference=ref)
            assert header.kind == DELTA
            err = np.abs(dequantize(header, q, ref) - v)
            assert err.max() <= header.step / 2 * (1 + 1e-9)

    def test_far_reference_falls_back_to_absolute(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=1000)
        header, q = quantize(v, bits=8, reference=v + 1000.0)
        assert header.kind == ABSOLUTE
        plain_header, plain_q = quantize(v, bits=8)
        assert header == plain_header and np.array_equal(q, plain_q)
        # One value out of reach is enough.
        ref = v.copy()
        ref[17] += 200 * (np.ptp(v) / 255)
        assert quantize(v, bits=8, reference=ref)[0].kind == ABSOLUTE

    def test_delta_needs_reference(self):
        v = np.array([0.0, 1.0])
        header, q = quantize(v, bits=8, reference=v)
        assert q.tolist() == [128, 128]
        assert np.array_equal(dequantize(header, q, v), v)
        with pytest.raises(DecodeError):
            dequantize(header, q)

    def test_kind_survives_block_roundtrip(self):
        v = np.linspace(-1, 1, 50)
        header, q = quantize(v, bits=8, reference=v)
        side = fit_laplace(q)
        blob = pack_param_block(header, side, compress_params(q, side, 8))
        h2, _, _, end = unpack_param_block(blob)
        assert end == len(blob) and h2.kind == DELTA
        bad = bytearray(blob)
        bad[BLOCK_HEADER_SIZE - 1] = 2
        with pytest.raises(DecodeError, match="kind"):
            unpack_param_block(bytes(bad))


class TestFitLaplace:
    def test_worked_example(self):
        side = fit_laplace(np.array([0, 128, 255]))
        mu = (0 + 128 + 255) / 3
        b = (abs(0 - mu) + abs(128 - mu) + abs(255 - mu)) / 3
        assert side.mu == pytest.approx(mu, rel=1e-6)
        assert side.b == pytest.approx(b, rel=1e-6)
        assert side.mu == pytest.approx(127.667, abs=1e-3)
        assert side.b == pytest.approx(85.111, abs=1e-3)

    def test_constant_vector(self):
        side = fit_laplace(np.full(10, 42))
        assert side.mu == 42.0 and side.b == 0.0

    def test_symmetric_midpoint(self):
        side = fit_laplace(np.array([0, 100]))
        assert side.mu == 50.0


class TestCompression:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        q = rng.integers(0, 256, size=4000)
        side = fit_laplace(q)
        payload = compress_params(q, side, bits=8)
        got = decompress_params(payload, _header(q.size), side)
        assert np.array_equal(got, q)

    def test_laplace_data_compresses_well(self):
        rng = np.random.default_rng(3)
        # Integer symbols with a true Laplace(b=8) shape around mid-range.
        raw = rng.laplace(loc=127.5, scale=8.0, size=5000)
        q = np.clip(np.round(raw), 0, 255).astype(np.int64)
        side = fit_laplace(q)
        payload = compress_params(q, side, bits=8)
        raw_bytes = q.size  # 8 bits per symbol
        assert len(payload) <= 0.8 * raw_bytes
        # Sanity vs the ideal-entropy oracle for the fitted table.
        table = LaplaceTable(side.mu, side.b, 8)
        assert len(payload) * 8 <= 1.02 * table.ideal_bits(q) + 32

    def test_adversarial_uniform_bounded(self):
        rng = np.random.default_rng(4)
        q = rng.integers(0, 256, size=1000)
        side = fit_laplace(q)
        payload = compress_params(q, side, bits=8)
        raw_bits = 8 * q.size
        header_bits = 8 * BLOCK_HEADER_SIZE
        assert len(payload) * 8 <= 1.02 * raw_bits + header_bits
        got = decompress_params(payload, _header(q.size), side)
        assert np.array_equal(got, q)

    def test_truncated_payload_detected(self):
        rng = np.random.default_rng(5)
        q = rng.integers(0, 256, size=2000)
        side = fit_laplace(q)
        payload = compress_params(q, side, bits=8)
        with pytest.raises(DecodeError):
            decompress_params(payload[: len(payload) // 2], _header(q.size), side)


class TestParamBlock:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=500)
        header, q = quantize(v, bits=8)
        side = fit_laplace(q)
        payload = compress_params(q, side, bits=8)
        blob = pack_param_block(header, side, payload)
        h2, s2, p2, end = unpack_param_block(blob)
        assert end == len(blob)
        assert h2.bits == 8 and h2.count == 500
        assert np.float32(h2.min) == np.float32(header.min)
        assert np.float32(h2.max) == np.float32(header.max)
        assert np.float32(s2.mu) == np.float32(side.mu)
        assert np.float32(s2.b) == np.float32(side.b)
        assert p2 == payload
        assert np.array_equal(decompress_params(p2, h2, s2), q)

    def test_truncated_block_raises(self):
        blob = pack_param_block(_header(10), LaplaceSideInfo(5.0, 1.0), b"\x00" * 4)
        with pytest.raises(DecodeError):
            unpack_param_block(blob[:10])
        with pytest.raises(DecodeError):
            unpack_param_block(blob[:-1])

    def test_side_info_survives_f32_rounding(self):
        # Decoder must rebuild the identical table from the parsed block.
        rng = np.random.default_rng(7)
        q = rng.integers(0, 256, size=777)
        side = fit_laplace(q)
        blob = pack_param_block(_header(q.size), side, b"")
        _, s2, _, _ = unpack_param_block(blob)
        t1 = LaplaceTable(side.mu, side.b, 8)
        t2 = LaplaceTable(s2.mu, s2.b, 8)
        assert np.array_equal(t1.freq, t2.freq)


def _header(count, bits=8):
    from linr.params import QuantHeader

    return QuantHeader(min=0.0, max=255.0, bits=bits, count=count)
