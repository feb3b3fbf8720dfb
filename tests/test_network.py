"""Occupancy network tests.

The staged-loss oracle recomputes the estimated bits outside the autodiff
tape (plain numpy on the probability values); finite differences provide
the gradient oracle for the full context + prediction composite.
"""
import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from linr import autodiff as ad
from linr.autodiff import BCE_EPS
from linr.errors import (
    MissingGroundTruthError,
    ScaleMismatchError,
    ShapeError,
)
from linr.network import (
    CONV_CHANNELS,
    MLP_HIDDEN,
    ModelConfig,
    NUM_STAGES,
    OccupancyModel,
)
from linr.plyio import generate_fixture
from linr.voxel import (
    FACE_PATTERNS,
    SparseVoxelSet,
    build_pyramid,
    neighbor_channels,
    neighbor_occupancy,
    reconstruct_children,
)


def toy_pyramid(rng, n=60, hi=16, num_scales=None):
    """Random points, dense enough that most parents of every transition
    are linked: the network runs on those."""
    pc = SparseVoxelSet(rng.integers(0, hi, size=(n, 3)))
    return build_pyramid(pc, stop_at=8, num_scales=num_scales)


def bce_oracle(probs, bits):
    p = np.clip(np.asarray(probs, dtype=np.float64).reshape(-1), BCE_EPS, 1 - BCE_EPS)
    t = np.asarray(bits, dtype=np.float64).reshape(-1)
    return float(-(t * np.log2(p) + (1 - t) * np.log2(1 - p)).sum())


class TestScaleContext:
    def test_zeroed_mlp_outputs_bias(self):
        model = OccupancyModel(ModelConfig(num_scales=2), seed=0)
        mlp = model.context_mlp
        for layer in (mlp.inner, mlp.outer):
            layer.weight.data[...] = 0
        mlp.inner.bias.data[...] = 0
        mlp.outer.bias.data[...] = np.arange(24, dtype=np.float32)
        coarse = SparseVoxelSet(np.array([[3, 3, 3]]))
        out = model.scale_context(coarse, 1)
        np.testing.assert_array_equal(
            out.data, np.tile(np.arange(24, dtype=np.float32), (FACE_PATTERNS, 1)))

    def test_distinct_scales_differ(self):
        model = OccupancyModel(ModelConfig(num_scales=3), seed=1)
        coarse = SparseVoxelSet(np.array([[1, 1, 1], [5, 1, 2]]))
        a = model.scale_context(coarse, 0).data
        b = model.scale_context(coarse, 2).data
        assert not np.array_equal(model.embedding.table.data[0],
                                  model.embedding.table.data[2])
        assert not np.array_equal(a, b)

    def test_embedding_row_is_the_only_scale_state(self):
        model = OccupancyModel(ModelConfig(num_scales=3), seed=4)
        table = model.embedding.table.data
        table[2] = table[0]
        coarse = SparseVoxelSet(np.array([[1, 1, 1], [5, 1, 2], [2, 1, 1]]))
        a, b, c = (model.scale_context(coarse, i).data for i in (0, 1, 2))
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_scale_out_of_range(self):
        model = OccupancyModel(ModelConfig(num_scales=2), seed=2)
        coarse = SparseVoxelSet(np.array([[0, 0, 0]]))
        with pytest.raises(IndexError):
            model.scale_context(coarse, 2)


FRONT_END = ("scale_mlp.", "embed.table", "global.conv_in.")


def lookup_level(kind):
    """A level for the lookup conv of ``global.conv_in`` and whether it takes
    the im2col path: every face pattern on a dense level in five blocks; a
    folded level; a per-offset level, large and sparse but unfolded, of
    three-point clusters (a face neighbour and an edge neighbour)."""
    rng = np.random.default_rng(41)
    if kind == "all-patterns":
        return SparseVoxelSet(rng.integers(0, 16, size=(3500, 3))), True
    if kind == "folded":
        cube = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
        grid = [(10 + 3 * (k % 10), 10 + 3 * (k // 10 % 10), 10 + 3 * (k // 100))
                for k in range(300)]
        return SparseVoxelSet(np.array(cube + grid)), True
    centres = 4 * rng.integers(1, 250, size=(800, 3))
    axes = np.eye(3, dtype=np.int64)[rng.integers(0, 3, size=800)]
    signs = rng.choice([-1, 1], size=(800, 1))
    points = np.concatenate([centres, centres + signs * axes,
                             centres + np.roll(axes, 1, axis=1) + axes])
    return SparseVoxelSet(points), False


def per_point_conv_in(model, coarse, i):
    """The reference: the context MLP run per point on its channels and its
    broadcast embedding row, then ``global.conv_in`` as a plain sparse
    conv.  Returns (per-point context, conv output)."""
    rows = coarse.fold()
    nb = ad.constant(neighbor_channels(neighbor_occupancy(rows), model.dtype))
    ctx = model.context_mlp(ad.concat_channels([nb, model.embedding(i, len(rows))]))
    return ctx, model.global_in(ctx, rows)


class TestLookupConv:
    """``global.conv_in`` on the 64-row context table gives, in float64, what
    the context MLP and the conv give run per point."""

    def model(self):
        model = OccupancyModel(ModelConfig(num_scales=2), seed=41, dtype=np.float64)
        # A generic point: fresh zero biases park rows on the ReLU kink.
        model.load_flat(np.random.default_rng(41).normal(
            scale=0.5, size=model.num_parameters()))
        return model

    def run(self, model, conv, g):
        """The output of ``conv`` and the front end's gradients under ``g``."""
        zero_grads(model)
        out = conv()
        out.backward(g)
        grads = {p.name: p.grad.copy() for p in model.parameters()
                 if p.name.startswith(FRONT_END)}
        return out.data, grads

    @pytest.mark.parametrize("kind", ["all-patterns", "folded", "per-offset"])
    def test_matches_per_point_reference(self, kind):
        coarse, im2col = lookup_level(kind)
        rows = coarse.fold()
        pairs = rows.kernel_pairs(3)
        patterns = neighbor_occupancy(rows)
        if kind == "all-patterns":
            assert len(np.unique(patterns)) == FACE_PATTERNS
            assert len(rows) > 4 * ad.IM2COL_BLOCK_ROWS
        if kind == "folded":
            assert rows is not coarse and len(rows) == len(rows.keep) == 64
        if kind == "per-offset":
            assert rows is coarse and len(rows) > ad.DENSE_MAX_POINTS
            assert pairs.pair_rows < ad.SPARSE_PAIRS_PER_POINT * len(rows)
        model = self.model()
        g = np.random.default_rng(42).normal(size=(len(rows), CONV_CHANNELS))
        table = model.scale_context(coarse, 1)
        assert table.data.shape == (FACE_PATTERNS, MLP_HIDDEN)
        got, got_grads = self.run(
            model, lambda: model.global_in.lookup(model.scale_context(coarse, 1),
                                                  patterns, rows), g)
        # The im2col path builds the map's neighbour tables; per offset, none.
        assert (pairs.tables is not None) == im2col
        ctx = per_point_conv_in(model, coarse, 1)[0]
        expect, expect_grads = self.run(
            model, lambda: per_point_conv_in(model, coarse, 1)[1], g)

        def assert_close(got, expect):
            np.testing.assert_allclose(got, expect, rtol=0,
                                       atol=1e-12 * np.abs(expect).max())

        assert_close(table.data[patterns], ctx.data)
        assert_close(got, expect)
        assert sorted(expect_grads) == [
            "embed.table", "global.conv_in.bias", "global.conv_in.weight",
            "scale_mlp.inner.bias", "scale_mlp.inner.weight",
            "scale_mlp.outer.bias", "scale_mlp.outer.weight"]
        for name, grad in expect_grads.items():
            assert grad.any(), name
            assert_close(got_grads[name], grad)

    def test_inputs_must_match(self):
        coarse, _ = lookup_level("folded")
        model = self.model()
        table = model.scale_context(coarse, 0)
        patterns = neighbor_occupancy(coarse)
        with pytest.raises(ShapeError):
            model.global_in.lookup(table, patterns[:-1], coarse)
        with pytest.raises(ShapeError):
            ad.lookup_conv(ad.constant(table.data[:, :-1]), patterns,
                           model.global_in.weight, model.global_in.bias,
                           coarse.kernel_pairs(3))
        patterns[0] = FACE_PATTERNS
        with pytest.raises(IndexError):
            model.global_in.lookup(table, patterns, coarse)


class TestStagedPrediction:
    def test_zero_model_loses_eight_bits_per_parent(self):
        rng = np.random.default_rng(3)
        pyr = toy_pyramid(rng, n=40)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=3)
        model.load_flat(np.zeros(model.num_parameters()))
        coarse = pyr.levels[1]
        ctx = model.scale_context(coarse, 0)
        probs, loss = model.predict_children(ctx, coarse, pyr.masks(0))
        rows = len(coarse.fold())
        assert rows >= 30
        for p in probs:
            assert p.data.shape == (rows, 1) and np.all(p.data == 0.5)
        assert loss.item() == 8.0 * rows

    def test_stage_one_sees_single_slot_column(self):
        model = OccupancyModel(ModelConfig(num_scales=1), seed=4)
        coarse = SparseVoxelSet(np.array([[0, 0, 0], [0, 0, 1]]))
        masks = np.array([0b00000001, 0b00000010], dtype=np.uint8)
        ctx = model.scale_context(coarse, 0)
        g = model.global_features(ctx, coarse)
        slot0 = ((masks >> 0) & 1).astype(np.float32)
        assert np.stack([slot0], axis=1).tolist() == [[1.0], [0.0]]
        p1 = model.stage_probability(1, g, [slot0], coarse)
        assert p1.data.shape == (2, 1)
        with pytest.raises(ShapeError):
            model.stage_probability(2, g, [slot0], coarse)

    def test_missing_ground_truth(self):
        model = OccupancyModel(ModelConfig(num_scales=1), seed=5)
        coarse = SparseVoxelSet(np.array([[0, 0, 0]]))
        ctx = model.scale_context(coarse, 0)
        with pytest.raises(MissingGroundTruthError):
            model.predict_children(ctx, coarse, None)

    def test_stage_zero_ignores_targets(self):
        rng = np.random.default_rng(6)
        pyr = toy_pyramid(rng, n=50)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=6)
        coarse = pyr.levels[1]
        ctx = model.scale_context(coarse, 0)
        with_truth, _ = model.predict_children(ctx, coarse, pyr.masks(0))
        ctx2 = model.scale_context(coarse, 0)
        all_set = np.full(len(coarse), 0xFF, dtype=np.uint8)
        with_fake, _ = model.predict_children(ctx2, coarse, all_set)
        np.testing.assert_array_equal(with_truth[0].data, with_fake[0].data)
        assert not np.array_equal(with_truth[7].data, with_fake[7].data)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.integers(0, 32, size=(40, 3))
        pc_sorted = SparseVoxelSet(pts)
        pc_shuffled = SparseVoxelSet(pts[rng.permutation(len(pts))])
        assert pc_sorted == pc_shuffled
        model = OccupancyModel(ModelConfig(num_scales=1), seed=8)
        a, b = (
            model.stage_probability(
                0, model.global_features(model.scale_context(pc, 0), pc), [], pc)
            for pc in (pc_sorted, pc_shuffled)
        )
        np.testing.assert_array_equal(a.data, b.data)

    def test_loss_matches_out_of_tape_oracle(self):
        rng = np.random.default_rng(9)
        pyr = toy_pyramid(rng, n=80)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=9,
                               dtype=np.float64)
        expect = 0.0
        for i in range(pyr.num_scales - 1, -1, -1):
            coarse = pyr.levels[i + 1]
            masks = pyr.masks(i)
            ctx = model.scale_context(coarse, i)
            probs, _ = model.predict_children(ctx, coarse, masks)
            rows = coarse.fold()
            if rows is not coarse:
                masks = masks[rows.keep]
            for j in range(NUM_STAGES):
                expect += bce_oracle(probs[j].data, (masks >> j) & 1)
        got = model.frame_loss(pyr).item()
        assert got == pytest.approx(expect, rel=1e-12)


class TestFrameLoss:
    def test_zero_model_baseline(self):
        rng = np.random.default_rng(10)
        pyr = toy_pyramid(rng, n=70)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=10)
        model.load_flat(np.zeros(model.num_parameters()))
        # The network codes the linked parents only.
        parents = sum(len(pyr.levels[i + 1].fold()) for i in range(pyr.num_scales))
        assert model.frame_loss(pyr).item() == 8.0 * parents

    def test_l2_of_zero_params_is_zero(self):
        rng = np.random.default_rng(11)
        pyr = toy_pyramid(rng, n=30)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=11)
        model.load_flat(np.zeros(model.num_parameters()))
        plain = model.frame_loss(pyr).item()
        with_l2 = model.frame_loss(pyr, l2_coeff=0.5).item()
        assert with_l2 == plain

    def test_l2_term_value(self):
        rng = np.random.default_rng(12)
        pyr = toy_pyramid(rng, n=30)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=12,
                               dtype=np.float64)
        lam = 1e-3
        diff = model.frame_loss(pyr, l2_coeff=lam).item() - model.frame_loss(pyr).item()
        assert diff == pytest.approx(lam * float((model.flatten() ** 2).sum()), rel=1e-9)

    def test_scale_mismatch(self):
        rng = np.random.default_rng(13)
        pyr = toy_pyramid(rng, n=30)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales + 1), seed=13)
        with pytest.raises(ScaleMismatchError):
            model.frame_loss(pyr)

    def test_loss_finite_even_with_huge_weights(self):
        rng = np.random.default_rng(14)
        pyr = toy_pyramid(rng, n=30)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=14)
        model.load_flat(np.full(model.num_parameters(), 50.0))
        assert np.isfinite(model.frame_loss(pyr).item())

    def test_training_decreases_loss(self):
        rng = np.random.default_rng(15)
        pc = SparseVoxelSet(rng.integers(0, 256, size=(200, 3)))
        pyr = build_pyramid(pc, stop_at=64)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=15)
        opt = ad.Adam(model.parameters())
        history = []
        for _ in range(50):
            opt.zero_grad()
            loss = model.frame_loss(pyr, l2_coeff=1e-4)
            history.append(loss.item())
            loss.backward()
            opt.step()
        final = model.frame_loss(pyr, l2_coeff=1e-4).item()
        assert final < history[0]
        assert final < 0.9 * history[0]


def single_tape_loss(model, pyr, l2_coeff):
    """``frame_loss`` on one tape: the transitions and the penalty summed
    with ``ad.add``, for one ``backward()`` at the end."""
    total = None
    for i in range(pyr.num_scales - 1, -1, -1):
        coarse = pyr.levels[i + 1]
        context = model.scale_context(coarse, i)
        _, bits = model.predict_children(context, coarse, pyr.masks(i))
        total = bits if total is None else ad.add(total, bits)
    penalty = None
    for name in model._flat_order:
        sq = ad.square_sum(model._params[name])
        penalty = sq if penalty is None else ad.add(penalty, sq)
    return ad.add(total, ad.scale(penalty, l2_coeff))


def per_transition_loss(model, pyr, l2_coeff):
    """``frame_loss`` with one tape per transition: each transition's eight
    stages backpropagated together once they have all run, then the
    penalty."""
    total = None
    for i in range(pyr.num_scales - 1, -1, -1):
        coarse = pyr.levels[i + 1]
        context = model.scale_context(coarse, i)
        _, bits = model.predict_children(context, coarse, pyr.masks(i))
        bits.backward()
        total = bits.data if total is None else total + bits.data
    penalty = None
    for name in model._flat_order:
        sq = ad.square_sum(model._params[name])
        penalty = sq if penalty is None else ad.add(penalty, sq)
    penalty = ad.scale(penalty, l2_coeff)
    penalty.backward()
    return total + penalty.data


def zero_grads(model):
    for p in model.parameters():
        p.grad[...] = 0


def traced_peak(model, fn):
    """``tracemalloc`` peak of ``fn()`` from zeroed gradients."""
    zero_grads(model)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBackwardPerTransition:
    """``frame_loss`` backpropagates each stage as its pass ends, and each
    transition's global features once its eight stages have run."""

    @staticmethod
    def check_single_tape_bytes(pyr, seed):
        rng = np.random.default_rng(seed)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=seed)
        model.load_flat(rng.normal(scale=0.4, size=model.num_parameters()))
        zero_grads(model)
        ref = single_tape_loss(model, pyr, 1e-4)
        ref.backward()
        expect = {p.name: p.grad.tobytes() for p in model.parameters()}
        zero_grads(model)
        loss = model.frame_loss(pyr, l2_coeff=1e-4)
        assert loss.data.dtype == np.float32
        assert loss.data.tobytes() == ref.data.tobytes()
        assert {p.name: p.grad.tobytes() for p in model.parameters()} == expect

    def test_gradient_bytes_equal_single_tape(self):
        pyr = toy_pyramid(np.random.default_rng(23), n=300, hi=256)
        assert pyr.num_scales >= 3
        self.check_single_tape_bytes(pyr, 23)

    def test_gradient_bytes_equal_single_tape_on_a_shell(self):
        pyr = build_pyramid(generate_fixture("sphere-shell", 12))
        assert pyr.num_scales >= 2 and len(pyr.levels[1]) > 100
        self.check_single_tape_bytes(pyr, 26)

    def frame_and_model(self):
        pyr = build_pyramid(generate_fixture("random", 3000, seed=5))
        assert pyr.num_scales == 8
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=5)
        with ad.no_grad():
            model.frame_loss(pyr)  # build the cached kernel maps and masks
        return pyr, model

    def test_holds_one_transition_tape(self):
        pyr, model = self.frame_and_model()
        tape = traced_peak(model, lambda: single_tape_loss(model, pyr, 1e-4).backward())
        one = traced_peak(model, lambda: model.frame_loss(pyr, l2_coeff=1e-4))
        assert one <= tape / 3, (one, tape)

    def test_holds_one_stage_tape(self):
        pyr, model = self.frame_and_model()
        transition = traced_peak(model, lambda: per_transition_loss(model, pyr, 1e-4))
        stage = traced_peak(model, lambda: model.frame_loss(pyr, l2_coeff=1e-4))
        assert stage <= transition / 2, (stage, transition)

    def test_backward_passes_per_call(self, monkeypatch):
        rng = np.random.default_rng(27)
        pyr = toy_pyramid(rng, n=80)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=27)
        roots = []
        backward = ad.Tensor.backward

        def counted(self, *args):
            roots.append(self.data.shape)
            return backward(self, *args)

        monkeypatch.setattr(ad.Tensor, "backward", counted)
        model.frame_loss(pyr, l2_coeff=1e-4)
        # Per transition, eight stages and then its global features; the
        # penalty last.
        expect = []
        for i in range(pyr.num_scales - 1, -1, -1):
            expect += [()] * NUM_STAGES + [(len(pyr.levels[i + 1].fold()), CONV_CHANNELS)]
        assert roots == expect + [()]
        roots.clear()
        with ad.no_grad():
            model.frame_loss(pyr, l2_coeff=1e-4)
        assert roots == []

    def test_no_grad_only_evaluates(self):
        rng = np.random.default_rng(24)
        pyr = toy_pyramid(rng, n=80)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=24)
        zero_grads(model)
        with ad.no_grad():
            loss = model.frame_loss(pyr, l2_coeff=1e-4)
        assert all(not p.grad.any() for p in model.parameters())
        assert loss.item() == model.frame_loss(pyr, l2_coeff=1e-4).item()

    def test_backward_on_the_loss_adds_nothing(self):
        rng = np.random.default_rng(25)
        pyr = toy_pyramid(rng, n=80)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=25)
        zero_grads(model)
        loss = model.frame_loss(pyr, l2_coeff=1e-4)
        grads = {p.name: p.grad.copy() for p in model.parameters()}
        assert any(g.any() for g in grads.values())
        loss.backward()
        for p in model.parameters():
            assert np.array_equal(p.grad, grads[p.name]), p.name


class TestParameterFlattening:
    def test_roundtrip(self):
        model = OccupancyModel(ModelConfig(num_scales=4), seed=16)
        rng = np.random.default_rng(16)
        vec = rng.normal(size=model.num_parameters()).astype(np.float32)
        model.load_flat(vec)
        assert np.array_equal(model.flatten(), vec)

    def test_order_is_lexicographic(self):
        model = OccupancyModel(ModelConfig(num_scales=2), seed=17)
        names = model._flat_order
        assert names == sorted(names)

    def test_count_mismatch(self):
        model = OccupancyModel(ModelConfig(num_scales=2), seed=18)
        with pytest.raises(ShapeError):
            model.load_flat(np.zeros(model.num_parameters() + 1))

    @pytest.mark.parametrize("num_scales", range(9))
    def test_architecture_pinned(self, num_scales):
        # The decoder rebuilds the network from the scale count alone; a
        # width change must fail here and come with a new container VERSION.
        # One embedding row of 8 values is the only per-scale parameter.
        model = OccupancyModel(ModelConfig(num_scales=num_scales))
        assert model.num_parameters() == 15004 + 8 * num_scales

    def test_stage_convs_are_shared(self):
        names = OccupancyModel(ModelConfig(num_scales=2))._flat_order
        conv_weights = [n for n in names
                        if n.startswith(("local.conv.", "head.conv."))
                        and n.endswith(".weight")]
        assert conv_weights == ["head.conv.weight", "local.conv.weight"]

    @pytest.mark.parametrize("conv, changed", [
        ("head_conv", set(range(NUM_STAGES))),
        ("local_conv", set(range(1, NUM_STAGES))),
    ])
    def test_shared_conv_reaches_its_stages(self, conv, changed):
        rng = np.random.default_rng(22)
        pyr = toy_pyramid(rng, n=60)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=22)
        # A generic parameter point: fresh zero biases park the binary slot
        # inputs on the ReLU kink, where a weight change can vanish.
        model.load_flat(rng.normal(scale=0.4, size=model.num_parameters()))
        coarse = pyr.levels[1]

        def stage_probs():
            ctx = model.scale_context(coarse, 0)
            probs, _ = model.predict_children(ctx, coarse, pyr.masks(0))
            return [p.data.copy() for p in probs]

        before = stage_probs()
        weight = getattr(model, conv).weight.data
        weight += rng.normal(scale=0.1, size=weight.shape).astype(weight.dtype)
        after = stage_probs()
        differs = {j for j in range(NUM_STAGES)
                   if not np.array_equal(before[j], after[j])}
        assert differs == changed

    def test_wire_layout_pinned(self):
        # The parameters() order fixes the finite-difference probe draws of
        # c07, the names fix the order of the transmitted vector, and the
        # hash fixes the seeded init (numpy's generator alone, no BLAS, so
        # it is the same on every CPU).
        def layer(name, weight):  # the bias takes the weight's last width
            return [(f"{name}.weight", weight), (f"{name}.bias", weight[-1:])]

        def mlp(name, c_in, hidden, c_out):
            return (layer(f"{name}.inner", (c_in, hidden))
                    + layer(f"{name}.outer", (hidden, c_out)))

        expected = (
            [("embed.table", (5, 8))] + mlp("scale_mlp", 15, 24, 24)
            + layer("global.conv_in", (27, 24, 8))
            + layer("global.conv_out", (27, 8, 8))
            + layer("global.block0.a1", (1, 8, 4))
            + layer("global.block0.a2", (27, 4, 4))
            + layer("global.block0.b", (27, 8, 4))
            + layer("global.block0.fuse", (1, 8, 8))
            + layer("local.conv", (27, 8, 8)) + layer("head.conv", (27, 8, 8))
            + [pair for k in range(1, 8) for pair in layer(f"local.lift.{k}", (k, 8))]
            + [pair for k in range(8) for pair in mlp(f"head.mlp.{k}", 8, 24, 1)]
        )
        model = OccupancyModel(ModelConfig(num_scales=5), seed=0)
        params = model.parameters()
        assert [p.name for p in params] == [name for name, _ in expected]
        assert {p.name: p.data.shape for p in params} == dict(expected)
        assert hashlib.sha256(model.flatten().tobytes()).hexdigest() == (
            "686a0559fbabdc08093d52020cea4bd2b0ea4f729c9ce8e72bfa87f7fcb5783c")

    def test_same_seed_same_init(self):
        a = OccupancyModel(ModelConfig(num_scales=3), seed=19)
        b = OccupancyModel(ModelConfig(num_scales=3), seed=19)
        assert np.array_equal(a.flatten(), b.flatten())
        c = OccupancyModel(ModelConfig(num_scales=3), seed=20)
        assert not np.array_equal(a.flatten(), c.flatten())


class TestGradientIntegrity:
    def test_full_composite_finite_difference(self):
        rng = np.random.default_rng(21)
        pyr = toy_pyramid(rng, n=25, hi=16)
        model = OccupancyModel(ModelConfig(num_scales=pyr.num_scales), seed=21,
                               dtype=np.float64)
        # Probe at a generic parameter point.  Fresh init has exact-zero
        # biases, which parks binary slot inputs exactly on the ReLU kink
        # where one-sided derivatives differ by construction.
        model.load_flat(rng.normal(scale=0.4, size=model.num_parameters()))

        def loss():
            return model.frame_loss(pyr, l2_coeff=1e-4)

        for p in model.parameters():
            p.grad[...] = 0
        loss().backward()
        analytic = {p.name: p.grad.copy() for p in model.parameters()}

        # The loss is O(10^3) bits, so central differences carry about
        # eps * |loss| / h of cancellation noise; entries below the 1e-2
        # floor are held to the matching absolute bound instead.
        # The probes only evaluate: frame_loss backpropagates unless
        # gradients are off.
        h = 1e-5
        checked = 0
        for p in model.parameters():
            flat = p.data.reshape(-1)
            count = min(3, flat.size)
            for i in rng.choice(flat.size, size=count, replace=False):
                orig = flat[i]
                with ad.no_grad():
                    flat[i] = orig + h
                    plus = loss().item()
                    flat[i] = orig - h
                    minus = loss().item()
                flat[i] = orig
                fd = (plus - minus) / (2 * h)
                an = analytic[p.name].reshape(-1)[i]
                denom = max(abs(fd), abs(an), 1e-2)
                assert abs(fd - an) / denom < 1e-4, (p.name, i, an, fd)
                checked += 1
        assert checked > 100


def folding_pyramid(rng, num_scales=2):
    """Scales whose finest transition's parents mix a dense 4x4x4 cube with
    300 isolated points."""
    cube = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    grid = [(10 + 3 * (k % 10), 10 + 3 * (k // 10 % 10), 10 + 3 * (k // 100))
            for k in range(300)]
    coarse = SparseVoxelSet(np.array(cube + grid))
    masks = rng.integers(1, 256, size=len(coarse)).astype(np.uint8)
    pyr = build_pyramid(reconstruct_children(masks, coarse), num_scales=num_scales)
    assert pyr.levels[1] == coarse and np.array_equal(pyr.masks(0), masks)
    rows = pyr.levels[1].fold()
    assert rows is not pyr.levels[1] and (len(rows.keep), len(rows.iso)) == (64, 300)
    return pyr


class TestFold:
    """On a folded level the network runs on the linked parents alone and
    gives them what running every parent gives, and what running the
    linked parents as a cloud of their own gives."""

    def run(self, kind, monkeypatch):
        rng = np.random.default_rng(31)
        pyr = folding_pyramid(rng, num_scales=1)
        if kind == "plain":
            monkeypatch.setattr(SparseVoxelSet, "fold", lambda self: self)
        if kind == "linked":
            keep = pyr.levels[1].fold().keep
            coarse = SparseVoxelSet(pyr.levels[1].coords[keep], assume_sorted=True)
            pyr = build_pyramid(reconstruct_children(pyr.masks(0)[keep], coarse),
                                num_scales=1)
            assert pyr.levels[1] == coarse and coarse.fold() is coarse
        model = OccupancyModel(ModelConfig(num_scales=1), seed=31, dtype=np.float64)
        # A generic point whose logits stay small (every probability within
        # 0.42-0.56), so that the different float order of the runs moves
        # probabilities by ulps, not by a large logit's rounding.
        model.load_flat(rng.normal(scale=0.1, size=model.num_parameters()))
        coarse = pyr.levels[1]
        with ad.no_grad():
            probs, bits = model.predict_children(model.scale_context(coarse, 0),
                                                 coarse, pyr.masks(0))
        zero_grads(model)
        loss = model.frame_loss(pyr, l2_coeff=1e-4).item()
        grads = {p.name: p.grad.copy() for p in model.parameters()}
        monkeypatch.undo()
        return [p.data for p in probs], bits.item(), loss, grads

    def test_float64_fold_matches_every_parent(self, monkeypatch):
        folded = self.run("folded", monkeypatch)
        plain = self.run("plain", monkeypatch)
        linked = self.run("linked", monkeypatch)
        keep = folding_pyramid(np.random.default_rng(31)).levels[1].fold().keep
        for j, (a, b, c) in enumerate(zip(folded[0], plain[0], linked[0])):
            assert a.shape == c.shape == (64, 1) and b.shape == (364, 1)
            np.testing.assert_allclose(a, b[keep], rtol=1e-12, atol=0, err_msg=f"stage {j}")
            np.testing.assert_allclose(a, c, rtol=1e-12, atol=0, err_msg=f"stage {j}")
        # The isolated parents' bits are the coder's, not the network's.
        assert plain[1] > folded[1] == pytest.approx(linked[1], rel=1e-12)
        assert folded[2] == pytest.approx(linked[2], rel=1e-12)
        for name, g in linked[3].items():
            assert g.any(), name
            np.testing.assert_allclose(folded[3][name], g, rtol=1e-12, atol=0,
                                       err_msg=name)

    def test_folded_level_is_freed_without_the_cyclic_collector(self):
        rng = np.random.default_rng(32)
        model = OccupancyModel(ModelConfig(num_scales=2), seed=32)
        gc.collect()
        gc.disable()
        try:
            pyr = folding_pyramid(rng)
            model.frame_loss(pyr, l2_coeff=1e-4)
            del pyr
            assert gc.collect() == 0
        finally:
            gc.enable()
