"""Autodiff engine tests.

Every differentiable op is checked against central finite differences at
64-bit precision; the finite-difference probe is the oracle and never calls
into the backward pass it verifies.
"""
import copy

import numpy as np
import pytest

from linr import autodiff as ad
from linr.errors import ShapeError
from linr.voxel import SparseVoxelSet


def finite_diff(build_loss, param, index, h=1e-5):
    """Central finite difference of build_loss() w.r.t. one param entry."""
    flat = param.data.reshape(-1)
    orig = flat[index]
    flat[index] = orig + h
    plus = build_loss().item()
    flat[index] = orig - h
    minus = build_loss().item()
    flat[index] = orig
    return (plus - minus) / (2.0 * h)


def check_gradients(build_loss, params, rng, probes=5, rel_tol=1e-4):
    """Compare analytic gradients of build_loss() against finite differences.

    The relative-error denominator is floored at 1e-3: below that scale a
    central difference is dominated by float64 cancellation noise
    (~eps * |loss| / h), so tiny entries are held to an absolute bound.
    """
    for p in params:
        p.grad[...] = 0
    loss = build_loss()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        size = p.data.size
        if probes is None or probes >= size:
            idxs = range(size)
        else:
            idxs = rng.choice(size, size=probes, replace=False)
        for i in idxs:
            fd = finite_diff(build_loss, p, i)
            an = analytic[p.name].reshape(-1)[i]
            denom = max(abs(fd), abs(an), 1e-3)
            assert abs(fd - an) / denom < rel_tol, (
                f"{p.name}[{i}]: analytic {an}, finite-diff {fd}"
            )


def random_voxels(rng, n, hi=8):
    return SparseVoxelSet(rng.integers(0, hi, size=(n, 3)))


class TestSparseConv:
    def test_identity_kernel_one(self):
        rng = np.random.default_rng(0)
        pc = SparseVoxelSet(np.array([[3, 3, 3]]))
        layer = ad.SparseConvLayer(rng, "c", 4, 4, kernel_size=1, dtype=np.float64)
        layer.weight.data[0] = np.eye(4)
        x = ad.constant(rng.normal(size=(1, 4)))
        out = layer(x, pc)
        assert np.array_equal(out.data, x.data)

    def test_isolated_point_sees_only_center(self):
        rng = np.random.default_rng(1)
        pc = SparseVoxelSet(np.array([[5, 5, 5]]))
        layer = ad.SparseConvLayer(rng, "c", 3, 2, kernel_size=3, dtype=np.float64)
        x = ad.constant(rng.normal(size=(1, 3)))
        out = layer(x, pc)
        expect = x.data @ layer.weight.data[13] + layer.bias.data
        np.testing.assert_array_equal(out.data, expect)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(2)
        pc = SparseVoxelSet(np.array([[0, 0, 0]]))
        layer = ad.SparseConvLayer(rng, "c", 3, 2, kernel_size=1)
        with pytest.raises(ShapeError):
            layer(ad.constant(np.ones((1, 5), dtype=np.float32)), pc)

    @pytest.mark.parametrize("kernel_size", [1, 3])
    @pytest.mark.parametrize("extra_rows", [-1, 17])
    def test_row_count_mismatch(self, kernel_size, extra_rows):
        rng = np.random.default_rng(17)
        pc = random_voxels(rng, 40)
        layer = ad.SparseConvLayer(rng, "c", 4, 4, kernel_size=kernel_size)
        x = np.ones((len(pc) + extra_rows, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            layer(ad.constant(x), pc)

    def test_gradients_every_weight(self):
        rng = np.random.default_rng(3)
        pc = random_voxels(rng, 20)
        layer = ad.SparseConvLayer(rng, "c", 2, 3, kernel_size=3, dtype=np.float64)
        feats = rng.normal(size=(len(pc), 2))

        def loss():
            return ad.square_sum(layer(ad.constant(feats), pc))

        check_gradients(loss, layer.parameters(), rng, probes=None)

    def test_gradient_flows_to_input(self):
        rng = np.random.default_rng(4)
        pc = random_voxels(rng, 15)
        layer = ad.SparseConvLayer(rng, "c", 2, 2, kernel_size=3, dtype=np.float64)
        feats = ad.Parameter("x", rng.normal(size=(len(pc), 2)))

        def loss():
            return ad.square_sum(layer(feats, pc))

        check_gradients(loss, [feats], rng, probes=10)


def reference_sparse_conv(x, w, b, pairs, g, x_grad):
    """Fancy-index forward and ``np.add.at`` backward: the plain formulation
    that the per-offset path of ``sparse_conv`` must reproduce bit for bit."""
    n = x.shape[0]
    out = np.empty((n, w.shape[2]), dtype=x.dtype)
    out[:] = b
    for k, (out_rows, in_rows) in enumerate(pairs):
        if len(out_rows) == n:
            out += x[in_rows] @ w[k]
        elif len(out_rows):
            out[out_rows] += x[in_rows] @ w[k]
    w_grad = np.zeros_like(w)
    for k, (out_rows, in_rows) in enumerate(pairs):
        if len(out_rows):
            gk = g[out_rows]
            w_grad[k] += x[in_rows].T @ gk
            np.add.at(x_grad, in_rows, gk @ w[k].T)
    return out, x_grad, w_grad, np.zeros_like(b) + np.ones(n, g.dtype) @ g


def im2col_reference(x, w, b, pairs, g, x_grad):
    """Padded neighbour tables, then per block of ``IM2COL_BLOCK_ROWS`` rows
    one gather and one GEMM forward, and one gather of ``g`` used by both
    gradient GEMMs: the formulation that the im2col path of ``sparse_conv``
    must reproduce bit for bit."""
    n = x.shape[0]
    k, c_in, c_out = w.shape
    gather = np.full((n, k), n)
    scatter = np.full((n, k), n)
    for j, (out_rows, in_rows) in enumerate(pairs):
        gather[out_rows, j] = in_rows
        scatter[in_rows, j] = out_rows

    def cols(a, table, s, e):
        padded = np.concatenate([a, np.zeros((1, a.shape[1]), a.dtype)])
        return padded[table[s:e]].reshape(e - s, -1)

    blocks = [(s, min(s + ad.IM2COL_BLOCK_ROWS, n))
              for s in range(0, n, ad.IM2COL_BLOCK_ROWS)]
    out = np.empty((n, c_out), x.dtype)
    for s, e in blocks:
        out[s:e] = cols(x, gather, s, e) @ w.reshape(k * c_in, c_out)
    out += b
    w_sum = np.zeros((c_in, k * c_out), x.dtype)
    w_t = w.transpose(0, 2, 1).reshape(k * c_out, c_in)
    for s, e in blocks:
        g_cols = cols(g, scatter, s, e)
        w_sum += x[s:e].T @ g_cols
        x_grad[s:e] += g_cols @ w_t
    w_grad = np.zeros_like(w) + w_sum.reshape(c_in, k, c_out).transpose(1, 0, 2)
    return out, x_grad, w_grad, np.zeros_like(b) + np.ones(n, g.dtype) @ g


def mixed_offset_voxels():
    """A line along x plus a 3x3 patch in a far z-plane: the centre offset
    is full, the in-plane offsets partial, every offset with dz != 0 empty."""
    line = [(x, 0, 0) for x in range(6)]
    patch = [(x, y, 10) for x in range(3) for y in range(3)]
    return SparseVoxelSet(np.array(line + patch))


def shifted_offset_pairs(n=7):
    """A hand-built map with no mirror symmetry: a full-length offset whose
    in_rows is not the identity cannot come from kernel_pairs."""
    identity = np.arange(n, dtype=np.int64)
    return [
        (identity, identity),
        (identity, np.roll(identity, 2)),
        (identity[1:4], identity[3:6]),
        (identity[:0], identity[:0]),
    ]


def force_per_offset(monkeypatch):
    """No level is small, and none is dense: no map has 28 pairs per point."""
    monkeypatch.setattr(ad, "DENSE_MAX_POINTS", 0)
    monkeypatch.setattr(ad, "SPARSE_PAIRS_PER_POINT", 28)


@pytest.fixture
def per_offset(monkeypatch):
    """Every conv takes the per-offset path, whatever its size and density."""
    force_per_offset(monkeypatch)


def run_conv(pairs, n, c_in, c_out, x_grad_exists, seed, order="C",
             dtype=np.float32):
    """One forward and backward pass of ``sparse_conv`` on random values;
    returns the inputs and the results (out, x.grad, w.grad, b.grad)."""
    rng = np.random.default_rng(seed)
    k = len(pairs)
    xv = rng.normal(size=(n, c_in)).astype(dtype)
    w = ad.Parameter("w", rng.normal(size=(k, c_in, c_out)).astype(dtype))
    b = ad.Parameter("b", rng.normal(size=c_out).astype(dtype))
    x = ad.Tensor(xv.copy(order=order), requires_grad=True)
    start = rng.normal(size=(n, c_in)).astype(dtype)
    if x_grad_exists:
        x.grad = start.copy()
    g = rng.normal(size=(n, c_out)).astype(dtype)
    out = ad.sparse_conv(x, w, b, pairs)
    out._backward(g)
    x_grad = start.copy() if x_grad_exists else np.zeros_like(xv)
    return (xv, w.data, b.data, pairs, g, x_grad), (out.data, x.grad, w.grad, b.grad)


class TestSparseConvExact:
    def check(self, reference, pairs, n, c_in, c_out, x_grad_exists, seed,
              order="C"):
        """Compares every result with ``reference``; returns ``x.grad``."""
        inputs, got = run_conv(pairs, n, c_in, c_out, x_grad_exists, seed, order)
        for value, expect in zip(got, reference(*inputs)):
            assert value.dtype == expect.dtype
            assert np.array_equal(value, expect)
        return got[1]

    @pytest.mark.parametrize("x_grad_exists", [False, True])
    @pytest.mark.parametrize("kernel_size", [1, 3])
    def test_matches_reference_on_voxel_set(self, per_offset, kernel_size,
                                            x_grad_exists):
        pc = mixed_offset_voxels()
        pairs = pc.kernel_pairs(kernel_size)
        sizes = {len(out_rows) for out_rows, _ in pairs}
        if kernel_size == 3:
            assert 0 in sizes and len(pc) in sizes and len(sizes) > 2
        self.check(reference_sparse_conv, pairs, len(pc), 5, 3, x_grad_exists,
                   seed=kernel_size)

    def test_matches_reference_on_fortran_order_input(self, per_offset):
        # Every gradient buffer is C-ordered, whatever the input's order, so
        # the scatter into a Fortran-order input's gradient is a row write.
        pc = mixed_offset_voxels()
        x_grad = self.check(reference_sparse_conv, pc.kernel_pairs(3), len(pc),
                            5, 3, False, seed=9, order="F")
        assert x_grad.flags.c_contiguous

    @pytest.mark.parametrize("x_grad_exists", [False, True])
    def test_matches_reference_on_full_shifted_offset(self, per_offset,
                                                      x_grad_exists):
        # Gathered and scattered like any other non-identity offset.
        self.check(reference_sparse_conv, shifted_offset_pairs(), 7, 4, 6,
                   x_grad_exists, seed=7)

    @pytest.mark.parametrize("x_grad_exists", [False, True])
    @pytest.mark.parametrize("kernel_size", [1, 3])
    def test_dense_matches_im2col_reference_on_voxel_set(self, kernel_size,
                                                         x_grad_exists):
        # A 1x1 conv stays per offset, where one offset is one GEMM too.
        pc = mixed_offset_voxels()
        self.check(im2col_reference, pc.kernel_pairs(kernel_size), len(pc), 5, 3,
                   x_grad_exists, seed=kernel_size)

    def test_dense_matches_im2col_reference_on_fortran_order_input(self):
        pc = mixed_offset_voxels()
        x_grad = self.check(im2col_reference, pc.kernel_pairs(3), len(pc), 5, 3,
                            False, seed=9, order="F")
        assert x_grad.flags.c_contiguous

    @pytest.mark.parametrize("x_grad_exists", [False, True])
    def test_dense_matches_im2col_reference_on_full_shifted_offset(
            self, x_grad_exists):
        # The scatter table comes from the pairs, not from a mirror offset.
        self.check(im2col_reference, shifted_offset_pairs(), 7, 4, 6,
                   x_grad_exists, seed=7)

    @pytest.mark.parametrize("x_grad_exists", [False, True])
    @pytest.mark.parametrize("n", [511, 512, 513, 1025])
    def test_blocks_match_im2col_reference(self, n, x_grad_exists):
        # Block boundaries: one short block, one full, one full plus one
        # row, and two full plus one row.
        pc = random_voxels(np.random.default_rng(n), 3 * n, hi=12)
        coords = pc.coords[:n]
        pairs = SparseVoxelSet(coords).kernel_pairs(3)
        assert len(pairs[13][0]) == n
        self.check(im2col_reference, pairs, n, 4, 5, x_grad_exists, seed=n)

    @pytest.mark.parametrize("x_grad_exists", [False, True])
    @pytest.mark.parametrize("maps", ["voxel-set", "random-set", "shifted",
                                      "three-blocks"])
    def test_paths_agree_in_float64(self, monkeypatch, maps, x_grad_exists):
        if maps == "shifted":
            pairs, n = shifted_offset_pairs(), 7
        else:
            pc = (mixed_offset_voxels() if maps == "voxel-set"
                  else random_voxels(np.random.default_rng(12), 300, hi=9)
                  if maps == "random-set"
                  else random_voxels(np.random.default_rng(14), 2000, hi=14))
            pairs, n = pc.kernel_pairs(3), len(pc)
        if maps == "three-blocks":
            assert n > 2 * ad.IM2COL_BLOCK_ROWS
        args = (pairs, n, 5, 3, x_grad_exists, 11, "C", np.float64)
        _, dense = run_conv(*args)
        force_per_offset(monkeypatch)
        _, per_offset = run_conv(*args)
        for a, b in zip(dense, per_offset):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel_size, extra, dense", [
        (3, 0, True), (3, 1, False), (1, 0, False)])
    def test_dense_up_to_dense_max_points(self, monkeypatch, kernel_size, extra,
                                          dense):
        n = ad.DENSE_MAX_POINTS + extra
        pc = SparseVoxelSet(np.stack([np.arange(n), np.arange(n) % 2,
                                      np.zeros(n, dtype=np.int64)], axis=1))
        calls = []
        im2col = ad._im2col_conv
        monkeypatch.setattr(ad, "_im2col_conv",
                            lambda *args: calls.append(1) or im2col(*args))
        pairs = pc.kernel_pairs(kernel_size)
        rng = np.random.default_rng(13)
        layer = ad.SparseConvLayer(rng, "c", 2, 2, kernel_size=kernel_size)
        x = ad.Tensor(rng.normal(size=(n, 2)).astype(np.float32),
                      requires_grad=True)
        layer(x, pc).backward(np.ones((n, 2), dtype=np.float32))
        layer(x, pc)
        assert len(calls) == 2 * dense
        # The dense path builds its tables once per map and caches them there.
        assert (pairs.tables is not None) == dense
        if dense:
            tables = pairs.tables
            layer(x, pc)
            assert pairs.tables is tables

    @pytest.mark.parametrize("rows, im2col", [
        (1, False),  # a line: 3 pairs per point, centre included
        (2, True),   # a two-row strip: 6 pairs per point
    ])
    def test_large_levels_take_im2col_when_dense(self, monkeypatch, rows,
                                                 im2col):
        n = ad.DENSE_MAX_POINTS + 2
        x_len = n // rows
        pc = SparseVoxelSet(np.stack([np.arange(n) % x_len, np.arange(n) // x_len,
                                      np.zeros(n, dtype=np.int64)], axis=1))
        pairs = pc.kernel_pairs(3)
        per_point = sum(len(out_rows) for out_rows, _ in pairs) / n
        assert (per_point >= ad.SPARSE_PAIRS_PER_POINT) == im2col
        calls = []
        conv = ad._im2col_conv
        monkeypatch.setattr(ad, "_im2col_conv",
                            lambda *args: calls.append(1) or conv(*args))
        rng = np.random.default_rng(15)
        layer = ad.SparseConvLayer(rng, "c", 2, 2, kernel_size=3)
        layer(ad.Tensor(rng.normal(size=(n, 2)).astype(np.float32)), pc)
        assert len(calls) == im2col

    def test_kernel_map_counts_its_pairs(self):
        # Counted once when the map is built; both conv ops read the count
        # for their path and the identity offset's length for the row check.
        pc = mixed_offset_voxels()
        for kernel_size in (1, 3):
            pairs = pc.kernel_pairs(kernel_size)
            assert pairs.pair_rows == sum(len(out_rows) for out_rows, _ in pairs)
            assert pairs.points == len(pc)
        no_identity = ad.KernelMap(shifted_offset_pairs()[1:])
        assert no_identity.points is None and no_identity.pair_rows == 10

    def test_kernel_pair_rows_unique_per_offset(self):
        rng = np.random.default_rng(8)
        pc = random_voxels(rng, 200, hi=7)
        for out_rows, in_rows in pc.kernel_pairs(3):
            assert len(np.unique(out_rows)) == len(out_rows)
            assert len(np.unique(in_rows)) == len(in_rows)


class TestMlp:
    @pytest.mark.parametrize("rows", [7, 300, 20000])
    def test_one_output_column_input_gradient_equals_gemm(self, rows):
        # As the stage heads' outer layers: 24 hidden channels, one logit.
        rng = np.random.default_rng(rows)
        layer = ad.AffineLayer(rng, "a", 24, 1)
        x = ad.Tensor(rng.normal(size=(rows, 24)).astype(np.float32),
                      requires_grad=True)
        g = rng.normal(size=(rows, 1)).astype(np.float32)
        layer(x).backward(g)
        assert x.grad.tobytes() == (g @ layer.weight.data.T).tobytes()

    def test_zero_weights_constant_bias(self):
        rng = np.random.default_rng(5)
        layer = ad.AffineLayer(rng, "a", 3, 2, dtype=np.float64)
        layer.weight.data[...] = 0
        layer.bias.data[...] = [1.5, -2.0]
        out = layer(ad.constant(rng.normal(size=(7, 3))))
        assert np.array_equal(out.data, np.tile([1.5, -2.0], (7, 1)))

    def test_identity_passthrough(self):
        rng = np.random.default_rng(6)
        layer = ad.AffineLayer(rng, "a", 4, 4, dtype=np.float64)
        layer.weight.data[...] = np.eye(4)
        layer.bias.data[...] = 0
        x = rng.normal(size=(5, 4))
        assert np.array_equal(layer(ad.constant(x)).data, x)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        mlp = ad.Mlp(rng, "m", 3, 24, 2, dtype=np.float64)
        x = rng.normal(size=(10, 3))

        def loss():
            return ad.square_sum(mlp(ad.constant(x)))

        check_gradients(loss, mlp.parameters(), rng)


class TestScaleEmbedding:
    def test_returns_initialized_row(self):
        rng = np.random.default_rng(8)
        emb = ad.ScaleEmbedding(rng, "e", 4, 8, dtype=np.float64)
        out = emb(2, 5)
        assert out.data.shape == (5, 8)
        for row in out.data:
            np.testing.assert_array_equal(row, emb.table.data[2])

    def test_gradient_only_into_selected_row(self):
        rng = np.random.default_rng(9)
        emb = ad.ScaleEmbedding(rng, "e", 4, 8, dtype=np.float64)
        loss = ad.square_sum(emb(1, 3))
        loss.backward()
        g = emb.table.grad
        assert np.all(g[1] != 0)
        assert np.all(g[[0, 2, 3]] == 0)

    def test_out_of_range(self):
        rng = np.random.default_rng(10)
        emb = ad.ScaleEmbedding(rng, "e", 2, 8)
        with pytest.raises(IndexError):
            emb(2, 1)

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        emb = ad.ScaleEmbedding(rng, "e", 3, 8, dtype=np.float64)

        def loss():
            return ad.square_sum(emb(0, 4))

        check_gradients(loss, emb.parameters(), rng, probes=None)


class TestBceLoss:
    def test_uncertain_bit_costs_one(self):
        p = ad.constant(np.array([[0.5]]))
        assert ad.bce_bits(p, np.array([[1.0]])).item() == 1.0

    def test_quarter_probability(self):
        # Direct evaluation: -log2(1 - 0.25) = 0.4150374992788438 bits.
        p = ad.constant(np.array([[0.25]]))
        got = ad.bce_bits(p, np.array([[0.0]])).item()
        assert got == pytest.approx(0.4150374992788438, rel=1e-12)

    def test_clamped_certainty_near_zero(self):
        p = ad.constant(np.array([[1.0]]))
        got = ad.bce_bits(p, np.array([[1.0]])).item()
        assert 0.0 <= got < 2e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        p = ad.constant(rng.uniform(0, 1, size=(100, 1)))
        t = (rng.uniform(size=(100, 1)) < 0.5).astype(float)
        assert ad.bce_bits(p, t).item() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.bce_bits(ad.constant(np.ones((2, 1))), np.ones((3, 1)))

    def test_gradient(self):
        rng = np.random.default_rng(13)
        p = ad.Parameter("p", rng.uniform(0.05, 0.95, size=(20, 1)))
        t = (rng.uniform(size=(20, 1)) < 0.5).astype(float)

        def loss():
            return ad.bce_bits(p, t)

        check_gradients(loss, [p], rng, probes=10)


class TestSigmoid:
    @staticmethod
    def masked_sigmoid(x):
        # The two-branch form with boolean masks: exp(-x) on x >= 0, exp(x)
        # below, so neither branch overflows.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_masked_form(self, dtype):
        special = [0.0, -0.0, 1e-8, -1e-8, 88.7, -88.7, 104.0, -104.0,
                   np.inf, -np.inf, np.nan, -np.nan]
        normals = np.random.default_rng(18).normal(size=20_000) * 6.0
        x = np.concatenate([special, normals]).astype(dtype)
        got = ad._sigmoid_values(x)
        with np.errstate(over="ignore", invalid="ignore"):
            expect = self.masked_sigmoid(x)
        assert got.dtype == dtype
        assert got.tobytes() == expect.tobytes()


class TestCompositeOps:
    def test_sigmoid_concat_add_gradients(self):
        rng = np.random.default_rng(14)
        a = ad.Parameter("a", rng.normal(size=(6, 3)))
        b = ad.Parameter("b", rng.normal(size=(6, 2)))
        t = (rng.uniform(size=(6, 5)) < 0.5).astype(float)

        def loss():
            merged = ad.concat_channels([ad.sigmoid(a), b])
            doubled = ad.add(merged, merged)
            return ad.bce_bits(ad.sigmoid(doubled), t)

        check_gradients(loss, [a, b], rng, probes=None)

    def test_forward_determinism(self):
        rng = np.random.default_rng(15)
        pc = random_voxels(rng, 30)
        layer = ad.SparseConvLayer(rng, "c", 4, 4, kernel_size=3)
        x = rng.normal(size=(len(pc), 4)).astype(np.float32)
        out1 = layer(ad.constant(x), pc).data.tobytes()
        out2 = layer(ad.constant(x), pc).data.tobytes()
        assert out1 == out2

    def test_no_grad_skips_graph(self):
        rng = np.random.default_rng(16)
        p = ad.Parameter("p", rng.normal(size=(3, 3)))
        with ad.no_grad():
            out = ad.relu(p)
        assert out._backward is None and not out.requires_grad

    def test_backward_releases_interior_nodes(self):
        rng = np.random.default_rng(17)
        mlp = ad.Mlp(rng, "m", 3, 5, 2, dtype=np.float64)
        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        hidden = ad.relu(mlp.inner(x))
        loss = ad.square_sum(mlp.outer(hidden))
        loss.backward()
        assert hidden.grad is None and hidden._backward is None
        assert hidden._prev == () and loss._prev == ()
        assert x.grad is not None and x.grad.shape == (4, 3)
        for p in mlp.parameters():
            assert np.any(p.grad != 0)


class TestBackwardRoot:
    def test_scalar_root_seeds_one(self):
        x = ad.Parameter("x", np.array([1.5, -2.0]))
        ad.square_sum(x).backward()
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_non_scalar_root_needs_a_gradient(self):
        with pytest.raises(ShapeError):
            ad.relu(ad.Parameter("x", np.ones((3, 2)))).backward()

    def test_given_gradient_seeds_any_shape(self):
        rng = np.random.default_rng(30)
        w = ad.Parameter("w", rng.normal(size=(3, 2)))
        x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        g = rng.normal(size=(5, 2))
        ad.affine(x, w, ad.Parameter("b", np.zeros(2))).backward(g)
        assert np.array_equal(w.grad, x.data.T @ g)
        assert np.array_equal(x.grad, g @ w.data.T)
        loss = ad.square_sum(w)
        w.grad[...] = 0
        loss.backward(np.asarray(3.0))
        assert np.array_equal(w.grad, 3.0 * 2.0 * w.data)

    @pytest.mark.parametrize("shape", [(), (3,), (3, 2), (2, 3, 1)])
    def test_gradient_of_another_shape_raises(self, shape):
        y = ad.relu(ad.Parameter("x", np.ones((2, 3))))
        with pytest.raises(ShapeError):
            y.backward(np.ones(shape))


class TestRecycling:
    @staticmethod
    def step(rng, layers, x, pc):
        """One conv + MLP pass from a fresh upstream gradient; returns the
        gradient bytes of every parameter and of the input."""
        conv, mlp = layers
        params = conv.parameters() + mlp.parameters()
        for p in params:
            p.grad[...] = 0
        x.grad = None
        y = mlp(ad.relu(conv(x, pc)))
        y.backward(rng.normal(size=y.data.shape).astype(np.float32))
        return [p.grad.tobytes() for p in params] + [x.grad.tobytes()]

    def test_same_gradients_as_fresh_buffers(self):
        rng = np.random.default_rng(32)
        pc = random_voxels(rng, 40)
        layers = (ad.SparseConvLayer(rng, "c", 4, 6, kernel_size=3),
                  ad.Mlp(rng, "m", 6, 5, 3))
        x = ad.Tensor(rng.normal(size=(len(pc), 4)).astype(np.float32),
                      requires_grad=True)
        expect = [self.step(np.random.default_rng(k), layers, x, pc)
                  for k in range(3)]
        with ad.recycling():
            got = [self.step(np.random.default_rng(k), layers, x, pc)
                   for k in range(3)]
            assert ad._free.stacks  # the later passes had buffers to reuse
        assert got == expect
        assert ad._free.stacks is None

    @pytest.mark.parametrize("dense_max_points", [0, ad.DENSE_MAX_POINTS])
    def test_conv_input_gradient_outlives_later_passes(self, monkeypatch,
                                                       dense_max_points):
        # A leaf keeps its gradient: the temporaries of a conv's backward
        # pass go to the free list, the buffer it leaves in x.grad must not.
        monkeypatch.setattr(ad, "DENSE_MAX_POINTS", dense_max_points)
        rng = np.random.default_rng(33)
        pc = random_voxels(rng, 40)
        conv = ad.SparseConvLayer(rng, "c", 4, 4, kernel_size=3)

        def leaf():
            return ad.Tensor(rng.normal(size=(len(pc), 4)).astype(np.float32),
                             requires_grad=True)

        x = leaf()
        with ad.recycling():
            conv(x, pc).backward(np.ones((len(pc), 4), dtype=np.float32))
            expect = x.grad.copy()
            for _ in range(2):
                conv(leaf(), pc).backward(
                    rng.normal(size=(len(pc), 4)).astype(np.float32))
            assert x.grad.tobytes() == expect.tobytes()

    def test_first_gradient_is_zero_plus_g(self):
        # A first gradient is formed as 0 + g, in and out of recycling: x
        # receives +0.0 * -1 = -0.0 and must hold +0.0, and the root's
        # gradient, taken from the buffer the previous pass left behind,
        # must hold no stale value.
        rng = np.random.default_rng(31)
        x = ad.Tensor(rng.normal(size=(6, 3)).astype(np.float32),
                      requires_grad=True)

        def input_grad(upstream):
            x.grad = None
            ad.scale(x, -1.0).backward(np.asarray(upstream, dtype=np.float32))
            return x.grad

        zeros = np.zeros((6, 3), dtype=np.float32)
        assert np.signbit(zeros * np.float32(-1.0)).all()
        out = input_grad(zeros)
        with ad.recycling():
            input_grad(rng.normal(size=(6, 3)))  # leaves its root's buffer
            inside = input_grad(zeros)
        assert out.tobytes() == zeros.tobytes()
        assert inside.tobytes() == zeros.tobytes()


class TestAdam:
    def test_zero_gradients_leave_params(self):
        p = ad.Parameter("p", np.array([1.0, -2.0]))
        opt = ad.Adam([p])
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_single_step_moves_toward_optimum(self):
        p = ad.Parameter("p", np.array([1.0]))
        opt = ad.Adam([p])
        p.grad[...] = p.data  # f = theta^2 / 2
        opt.step()
        assert 0.0 < p.data[0] < 1.0

    def test_converges_on_quadratic_bowl(self):
        # Closed-form optimum is c; the codec's own schedule reaches it in
        # 500 steps.
        c = np.array([0.3, -0.7, 1.2])
        p = ad.Parameter("p", c + 0.5)
        opt = ad.Adam([p])
        for _ in range(500):
            p.grad[...] = p.data - c
            opt.step()
        assert np.abs(p.data - c).max() < 1e-3

    def test_lr_schedule(self):
        p = ad.Parameter("p", np.zeros(1))
        opt = ad.Adam([p])
        assert opt.lr() == 0.01
        opt.steps = 31
        assert opt.lr() == 0.01
        opt.steps = 32
        assert opt.lr() == pytest.approx(0.01 * 0.992)
        opt.steps = 10 ** 6
        assert opt.lr() == 0.0004

    def test_lr_never_below_floor(self):
        p = ad.Parameter("p", np.zeros(1))
        opt = ad.Adam([p])
        for k in range(0, 20000, 640):
            opt.steps = k
            assert opt.lr() >= 0.0004

    # Gradient magnitudes 1e-8 to 1e3, one per parameter.
    MAGNITUDES = 10.0 ** np.linspace(-8, 3, 12)
    # Growth per step that makes the Cauchy-Schwarz step bound tight.
    RISE = ad.ADAM_BETA2 / ad.ADAM_BETA1

    @classmethod
    def gradient(cls, kind, rng, k, start):
        """Step ``k``'s gradient of a seeded stream; ``start`` is the step
        count at which the bound is taken."""
        mags = cls.MAGNITUDES
        if kind == "constant":
            return mags * rng.uniform(0.5, 1.5, mags.size)
        if kind == "alternating":
            return (-1) ** k * mags * rng.uniform(0.5, 1.5, mags.size)
        if kind == "random":
            return mags * rng.standard_normal(mags.size)
        if kind == "spikes":  # 1e-8 everywhere, every seventh step the full size
            size = mags if k % 7 == 6 else np.full(mags.size, 1e-8)
            return size * rng.choice([-1.0, 1.0], mags.size)
        if kind == "zeros":
            return np.zeros(mags.size)
        # "rising": positive, growing by RISE from 60 steps before ``start``
        if k < start - 60:
            return np.zeros(mags.size)
        return mags * cls.RISE ** (k - start)

    @classmethod
    def moves(cls, kind, start, budgets):
        """Per budget s: (max_displacement(s) at step count ``start``, each
        parameter's move over the next s steps of the stream)."""
        rng = np.random.default_rng(23)
        values = rng.uniform(-2, 2, cls.MAGNITUDES.size)
        values[::2] *= 1000  # where float32 rounds each update by ~1e-4
        p = ad.Parameter("p", values.astype(np.float32))
        opt = ad.Adam([p])
        for k in range(start):
            p.grad[...] = cls.gradient(kind, rng, k, start)
            opt.step()
        out = []
        for s in budgets:
            run = copy.deepcopy(opt)
            param = run.params[0]
            bound = run.max_displacement(s)
            before = param.data.astype(np.float64)
            stream = copy.deepcopy(rng)
            for k in range(start, start + s):
                param.grad[...] = cls.gradient(kind, stream, k, start)
                run.step()
            assert run.steps == start + s
            out.append((bound, np.abs(param.data - before)))
        return out

    @pytest.mark.parametrize("start", [0, 31, 32, 33, 1000, 4096])
    @pytest.mark.parametrize("kind", ["constant", "alternating", "random",
                                      "spikes", "zeros", "rising"])
    def test_max_displacement_bounds_every_stream(self, kind, start):
        for bound, move in self.moves(kind, start, (1, 2, 5, 64)):
            assert np.all(move <= bound), (move.max(), bound)

    @pytest.mark.parametrize("kind, start", [
        ("constant", 0), ("rising", 0), ("rising", 31), ("rising", 32),
        ("rising", 33), ("rising", 1000), ("rising", 4096),
    ])
    def test_max_displacement_is_reached(self, kind, start):
        # Constant-sign gradients come within a factor of two of the bound
        # wherever ADAM_EPS is small against them.
        for bound, move in self.moves(kind, start, (1, 2, 5, 64)):
            assert np.all(move[self.MAGNITUDES >= 1e-5] >= 0.5 * bound)

    def test_max_displacement_of_no_steps_is_zero(self):
        p = ad.Parameter("p", np.ones(3, dtype=np.float32))
        assert ad.Adam([p]).max_displacement(0) == 0.0
