"""The overfitted occupancy-prediction network.

One model serves every scale of every frame in a group: one row per scale
of a learned scale embedding is all that tells the pyramid levels apart,
while the context MLP and the global feature extractor are shared.  Each
of the eight stages predicts, per parent voxel, the probability that one
child slot is occupied, conditioned on the slots already coded.

The stages also share their convolutions: one local conv serves stages
1-7 and one head conv serves all eight.  What is per stage is cheap and
pointwise: the lift of the k coded slot columns to conv width (stage k
reads k columns; stage 0 reads the global features alone) and the MLP
that turns the head conv's features into a probability.  The 3x3x3
convs dominate the parameter count, and the parameters travel in the
bitstream, so sharing them is what keeps the transmitted network small.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .errors import MissingGroundTruthError, ScaleMismatchError, ShapeError
from .voxel import (
    FACE_PATTERNS,
    ScalePyramid,
    SparseVoxelSet,
    neighbor_channels,
    neighbor_occupancy,
)

NEIGHBOR_CHANNELS = 7
NUM_STAGES = 8

# Layer widths.  A container records only the scale count, and the decoder
# rebuilds the network from it, so these and the layer layout are part of
# the codec version: changing either needs a new container VERSION.
MLP_HIDDEN = 24
CONV_CHANNELS = 8
EMBED_CHANNELS = 8


@dataclass(frozen=True)
class ModelConfig:
    """The one free architecture choice: the number of scale transitions."""

    num_scales: int

    def __post_init__(self):
        if self.num_scales < 0:
            raise ValueError("num_scales must be >= 0")


class OccupancyModel:
    """All learned parameters plus the forward passes of the codec.

    Parameter initialization order is fixed, so a seed fully determines the
    starting point.  The canonical flattening used on the wire is
    lexicographic by parameter name, independent of construction order.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c = CONV_CHANNELS
        self.embedding = ad.ScaleEmbedding(rng, "embed", config.num_scales,
                                           EMBED_CHANNELS, dtype)
        self.context_mlp = ad.Mlp(rng, "scale_mlp",
                                  NEIGHBOR_CHANNELS + EMBED_CHANNELS,
                                  MLP_HIDDEN, MLP_HIDDEN, dtype)
        # The global extractor; "block0" names its one residual block, since
        # parameter names fix the order of the transmitted vector.
        half = c // 2
        self.global_in = ad.SparseConvLayer(rng, "global.conv_in", MLP_HIDDEN, c, 3, dtype)
        self.global_a1 = ad.SparseConvLayer(rng, "global.block0.a1", c, half, 1, dtype)
        self.global_a2 = ad.SparseConvLayer(rng, "global.block0.a2", half, half, 3, dtype)
        self.global_b = ad.SparseConvLayer(rng, "global.block0.b", c, half, 3, dtype)
        self.global_fuse = ad.SparseConvLayer(rng, "global.block0.fuse", 2 * half, c, 1, dtype)
        self.global_out = ad.SparseConvLayer(rng, "global.conv_out", c, c, 3, dtype)
        # Stage k conditions on the k slots before it; stage 0 on none.
        self.local_lifts = {
            k: ad.AffineLayer(rng, f"local.lift.{k}", k, c, dtype)
            for k in range(1, NUM_STAGES)
        }
        self.local_conv = ad.SparseConvLayer(rng, "local.conv", c, c, 3, dtype)
        self.head_conv = ad.SparseConvLayer(rng, "head.conv", c, c, 3, dtype)
        self.head_mlps = [
            ad.Mlp(rng, f"head.mlp.{k}", c, MLP_HIDDEN, 1, dtype)
            for k in range(NUM_STAGES)
        ]
        # The order of parameters(); gradient checks draw their probes in it.
        layers = [self.embedding, self.context_mlp, self.global_in, self.global_out,
                  self.global_a1, self.global_a2, self.global_b, self.global_fuse,
                  self.local_conv, self.head_conv, *self.local_lifts.values(),
                  *self.head_mlps]
        params = [p for layer in layers for p in layer.parameters()]
        self._params = {p.name: p for p in params}
        if len(self._params) != len(params):
            raise ValueError("duplicate parameter names")
        self._flat_order = sorted(self._params)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self):
        return list(self._params.values())

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def flatten(self) -> np.ndarray:
        """All parameters as one vector, lexicographic by name path."""
        return np.concatenate(
            [self._params[name].data.reshape(-1) for name in self._flat_order]
        )

    def load_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec).reshape(-1)
        if vec.size != self.num_parameters():
            raise ShapeError(
                f"expected {self.num_parameters()} values, got {vec.size}"
            )
        pos = 0
        for name in self._flat_order:
            p = self._params[name]
            nxt = pos + p.data.size
            p.data[...] = vec[pos:nxt].reshape(p.data.shape).astype(self.dtype)
            pos = nxt

    # -- forward passes -----------------------------------------------------

    def scale_context(self, coarse: SparseVoxelSet, scale_index: int) -> ad.Tensor:
        """The context of scale ``scale_index``: the shared MLP on each
        face-neighbor pattern's channels (:func:`neighbor_channels`) plus the
        scale's embedding row, one (FACE_PATTERNS, MLP_HIDDEN) table.

        A point's context depends on its pattern alone, so the MLP runs on
        the 64 patterns, not per point; :meth:`global_features` looks each
        point's row up.  The table does not depend on ``coarse``.
        """
        if not 0 <= scale_index < self.config.num_scales:
            raise IndexError(
                f"scale {scale_index} out of range 0..{self.config.num_scales - 1}"
            )
        nb = ad.constant(neighbor_channels(np.arange(FACE_PATTERNS), self.dtype))
        emb = self.embedding(scale_index, FACE_PATTERNS)
        return self.context_mlp(ad.concat_channels([nb, emb]))

    def global_features(self, context: ad.Tensor, coarse: SparseVoxelSet) -> ad.Tensor:
        """Shared deep features of one scale, computed once for all eight
        stages, one row per row of ``coarse.fold()``: conv_in, then a
        residual block of two parallel conv branches, channel-concatenated
        and fused, then conv_out.

        ``context`` is :meth:`scale_context`'s table.  conv_in reads row i's
        input as the table row of its face-neighbor pattern
        (:func:`neighbor_occupancy`), so it runs as
        :func:`autodiff.lookup_conv` and no per-point context is built.  A
        level without rows (all of its parents isolated) runs no conv.
        """
        rows = coarse.fold()
        if not len(rows):
            return ad.constant(np.zeros((0, CONV_CHANNELS), dtype=self.dtype))
        x = ad.relu(self.global_in.lookup(context, neighbor_occupancy(rows), rows))
        branches = ad.concat_channels([self.global_a2(self.global_a1(x, rows), rows),
                                       self.global_b(x, rows)])
        h = ad.add(self.global_fuse(branches, rows), x)
        return self.global_out(h, rows)

    def stage_probability(self, j: int, g_feat: ad.Tensor, coded_slots,
                          coarse: SparseVoxelSet) -> ad.Tensor:
        """Probability (rows, 1) that child slot j is occupied, one row per
        row of ``coarse.fold()``, given the slots already coded there.  Stage
        0 sees global features only."""
        if len(coded_slots) != j:
            raise ShapeError(f"stage {j} needs {j} coded slot columns, "
                             f"got {len(coded_slots)}")
        rows = coarse.fold()
        if not len(rows):
            return ad.constant(np.zeros((0, 1), dtype=self.dtype))
        if j == 0:
            merged = g_feat
        else:
            cum = ad.constant(
                np.stack(coded_slots, axis=1).astype(self.dtype, copy=False)
            )
            local = self.local_conv(ad.relu(self.local_lifts[j](cum)), rows)
            merged = ad.add(g_feat, local)
        return ad.sigmoid(self.head_mlps[j](self.head_conv(merged, rows)))

    def transition(self, features, coarse: SparseVoxelSet, next_bits) -> np.ndarray:
        """The eight-stage loop of one scale transition; returns the child
        masks of the parents ``next_bits`` gives bits for.

        The network runs on the rows of ``coarse.fold()``, as do
        :meth:`global_features` and :meth:`stage_probability`: every parent,
        or on a folded level every linked parent.  For each stage j it calls
        ``next_bits(j, probability)``; ``probability()`` computes the
        stage's (rows, 1) probability tensor on demand, and ``features()``
        the transition's global features, at most once, when a stage first
        asks.  ``next_bits`` returns the stage's 0/1 bit of each of those
        parents (the ground truth in training and on encode, the decoded
        bits on decode).  The bits condition every later stage and set bit
        j of the masks.  A stage whose bits come without its probability
        runs no network, and a transition none of whose stages asks runs
        no global features.
        """
        slots = []
        masks = np.zeros(len(coarse.fold()), dtype=np.uint8)
        g_feat = None

        def probability(j):
            nonlocal g_feat
            if g_feat is None:
                g_feat = features()
            return self.stage_probability(j, g_feat, slots, coarse)

        for j in range(NUM_STAGES):
            bits_j = next_bits(j, partial(probability, j))
            masks |= bits_j.astype(np.uint8) << j
            slots.append(bits_j.astype(self.dtype))
        return masks

    def _stage_loss(self, j: int, p: ad.Tensor, coarse: SparseVoxelSet,
                    masks: np.ndarray):
        """Stage j's cross-entropy in bits under ``p``, on the rows of
        ``coarse.fold()``, and the stage's bits for :meth:`transition`."""
        bits_j = (masks >> j) & 1
        rows = coarse.fold()
        if rows is not coarse:
            bits_j = bits_j[rows.keep]
        return ad.bce_bits(p, bits_j[:, None]), bits_j

    def predict_children(self, context: ad.Tensor, coarse: SparseVoxelSet,
                         truth_masks):
        """Run all eight stages with ground-truth conditioning.

        Returns (per-stage probability tensors, one row per row of
        ``coarse.fold()``, and their total cross-entropy bits).  The ground
        truth doubles as the coded-slot context, which is exactly what the
        decoder reconstructs in lossless operation.
        """
        if truth_masks is None:
            raise MissingGroundTruthError("eight-stage pass needs child masks")
        masks = np.asarray(truth_masks)
        if masks.shape[0] != len(coarse):
            raise ShapeError("mask count must match parent count")
        probs = []
        loss = None

        def truth(j, probability):
            nonlocal loss
            p = probability()
            stage_loss, bits_j = self._stage_loss(j, p, coarse, masks)
            probs.append(p)
            loss = stage_loss if loss is None else ad.add(loss, stage_loss)
            return bits_j

        self.transition(lambda: self.global_features(context, coarse), coarse, truth)
        return probs, loss

    def frame_loss(self, pyramid: ScalePyramid, l2_coeff: float = 0.0) -> ad.Tensor:
        """Estimated occupancy bits of one frame plus the L2 penalty.

        Sums the eight-stage cross-entropy over every scale transition,
        coarse to fine, then the L2 penalty.  On a folded level only the
        linked parents' bits count: the coder counts the isolated parents'
        masks, which no parameter changes.  With gradients enabled each
        stage is backpropagated as soon as its forward pass ends, into a
        leaf that stands in for the transition's global features ``g``:
        the stages share nothing else, since every other input of a stage
        is ground truth.  After stage 7, ``g``'s own tape is backpropagated
        once with the leaf's summed gradient, then the penalty's.  So a
        training step holds ``g``'s tape plus one stage's, and every
        parameter's ``.grad`` receives what one tape for the whole frame
        would give it, byte for byte.  Each transition runs inside
        :func:`autodiff.recycling`: its stages have the same row count, so
        each reuses the gradient buffers the previous one's backward pass
        freed instead of handing them back to the allocator.  The returned
        loss is a constant, so ``backward()`` on it adds nothing; under
        :func:`autodiff.no_grad` this only evaluates and runs no backward
        pass.
        """
        if pyramid.num_scales != self.config.num_scales:
            raise ScaleMismatchError(
                f"pyramid has {pyramid.num_scales} scales, "
                f"model expects {self.config.num_scales}"
            )
        total = None
        for i in range(self.config.num_scales - 1, -1, -1):
            coarse = pyramid.levels[i + 1]
            masks = pyramid.masks(i)
            g = self.global_features(self.scale_context(coarse, i), coarse)
            leaf = ad.Tensor(g.data, requires_grad=g.requires_grad)
            bits = None

            def truth(j, probability):
                nonlocal bits
                stage, bits_j = self._stage_loss(j, probability(), coarse, masks)
                if stage.requires_grad:
                    stage.backward()
                bits = stage.data if bits is None else bits + stage.data
                return bits_j

            with ad.recycling():
                self.transition(lambda: leaf, coarse, truth)
                if g.requires_grad:
                    g.backward(leaf.grad)
            total = bits if total is None else total + bits
        if total is None:
            total = np.asarray(0.0, dtype=self.dtype)
        if l2_coeff > 0.0:
            penalty = None
            for name in self._flat_order:
                sq = ad.square_sum(self._params[name])
                penalty = sq if penalty is None else ad.add(penalty, sq)
            penalty = ad.scale(penalty, l2_coeff)
            if penalty.requires_grad:
                penalty.backward()
            total = total + penalty.data
        return ad.constant(np.asarray(total))
