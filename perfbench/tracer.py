"""Outside-in tracing of linr's layers.

While a :class:`Tracer` is active it replaces public functions and methods
of ``linr.autodiff``, ``network``, ``voxel``, ``params``, ``rangecoder`` and
``pipeline`` with timing wrappers, under the name each caller resolves:
``pipeline`` imports ``build_pyramid``, ``compress_params`` and the range
coders by name, so those are patched in ``linr.pipeline``, not where they
are defined.  Every patched attribute is restored on exit, also when the
traced code raises.

Spans nest: each records its inclusive time and its self time (inclusive
minus the inclusive time of the spans it encloses), so within one top-level
span the self times add up to that span's duration.  The codec itself is
not modified.
"""
from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from linr import autodiff, network, pipeline, voxel


class Trace:
    """Spans and counters of one traced phase (for example one encode)."""

    def __init__(self):
        self.spans: dict = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()
        self.loss_last = None

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def merged(self, other: "Trace") -> "Trace":
        out = Trace()
        for part in (self, other):
            for name, (calls, total, own) in part.spans.items():
                rec = out.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            out.counts.update(part.counts)
        out.loss_last = other.loss_last if other.loss_last is not None else self.loss_last
        return out

    def layer_metrics(self) -> dict:
        """Per-layer values computed from spans and counters alone."""
        m = {f"{name}_s": rec[1] for name, rec in self.spans.items()}
        for name in ("autodiff.backward", "pipeline.encode", "pipeline.decode"):
            m[f"{name}_self_s"] = self.self_time(name)
        m.update(self.counts)
        lookups = self.calls("voxel.kernel_pairs")
        builds = self.counts["voxel.kernel_pairs_builds"]
        m["voxel.kernel_pairs_hit_ratio"] = (lookups - builds) / lookups if lookups else 0.0
        events = self.counts["rangecoder.events"]
        coder_s = self.total("rangecoder.encode") + self.total("rangecoder.decode")
        m["rangecoder.ns_per_event"] = 1e9 * coder_s / events if events else 0.0
        if self.loss_last is not None:
            m["pipeline.loss_last"] = self.loss_last
        return m


class Tracer:
    """Context manager that patches the codec's layers while active."""

    def __init__(self):
        self.trace = Trace()
        self._open: list = []  # child time of each open span, innermost last
        self._patches: list = []  # (owner, name, original, owner_had_it)

    # -- spans ----------------------------------------------------------------

    def _record(self, name: str, inclusive: float, own: float) -> None:
        rec = self.trace.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += inclusive
        rec[2] += own
        if self._open:
            self._open[-1] += inclusive

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            self._record(name, elapsed, elapsed - self._open.pop())

    def leaf(self, name: str, t0: float) -> None:
        """Close a span that began at ``t0`` and enclosed no other span."""
        elapsed = perf_counter() - t0
        self._record(name, elapsed, elapsed)

    def take(self) -> Trace:
        """Return what was recorded since the last take and start afresh."""
        out, self.trace = self.trace, Trace()
        return out

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, getattr(owner, name), had))
        setattr(owner, name, replacement)

    def _timed(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span, fn, *args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, name, original, had = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _install(self) -> None:
        timed = self._timed

        conv = autodiff.sparse_conv

        def sparse_conv(x, weight, bias, pairs):
            rows = sum(len(in_rows) for _, in_rows in pairs)
            flops = 2 * rows * weight.data.shape[1] * weight.data.shape[2]
            c = self.trace.counts
            c["autodiff.sparse_conv_calls"] += 1
            c["autodiff.sparse_conv_pair_rows"] += rows
            c["autodiff.sparse_conv_flops"] += flops
            out = self.call("autodiff.sparse_conv_fwd", conv, x, weight, bias, pairs)
            closure = out._backward
            if closure is not None:
                grad_flops = (int(weight.requires_grad) + int(x.requires_grad)) * flops

                def backward(g):
                    self.trace.counts["autodiff.sparse_conv_flops"] += grad_flops
                    return self.call("autodiff.sparse_conv_bwd", closure, g)

                out._backward = backward
            return out

        affine = autodiff.affine

        def affine_traced(x, weight, bias):
            out = self.call("autodiff.affine_fwd", affine, x, weight, bias)
            if out._backward is not None:
                out._backward = self._timed("autodiff.affine_bwd", out._backward)
            return out

        adam_step = autodiff.Adam.step

        def step(opt):
            self.trace.counts["autodiff.adam_steps"] += 1
            return self.call("autodiff.adam_step", adam_step, opt)

        frame_loss = network.OccupancyModel.frame_loss

        def frame_loss_traced(model, *args, **kwargs):
            loss = self.call("network.frame_loss", frame_loss, model, *args, **kwargs)
            self.trace.counts["pipeline.train_steps"] += 1
            self.trace.loss_last = loss.item()
            return loss

        kernel_pairs = voxel.SparseVoxelSet.kernel_pairs

        def kernel_pairs_traced(voxels, kernel_size=3):
            if kernel_size not in voxels._kernel_pairs:
                self.trace.counts["voxel.kernel_pairs_builds"] += 1
            return self.call("voxel.kernel_pairs", kernel_pairs, voxels, kernel_size)

        quantize_probabilities = pipeline.quantize_probabilities

        def quantize_probabilities_counted(p):
            out = quantize_probabilities(p)
            self.trace.counts["rangecoder.events"] += len(out)
            return out

        self._patch(autodiff, "sparse_conv", sparse_conv)
        self._patch(autodiff, "affine", affine_traced)
        self._patch(autodiff.Tensor, "backward",
                    timed("autodiff.backward", autodiff.Tensor.backward))
        self._patch(autodiff.Adam, "step", step)
        model = network.OccupancyModel
        for name in ("scale_context", "global_features", "stage_probability"):
            self._patch(model, name, timed(f"network.{name}", getattr(model, name)))
        self._patch(model, "frame_loss", frame_loss_traced)
        self._patch(voxel.SparseVoxelSet, "kernel_pairs", kernel_pairs_traced)
        self._patch(network, "neighbor_occupancy",
                    timed("voxel.neighbor_occupancy", network.neighbor_occupancy))
        for name in ("build_pyramid", "reconstruct_children"):
            self._patch(pipeline, name, timed(f"voxel.{name}", getattr(pipeline, name)))
        for name, span in (("quantize", "params.quantize"),
                           ("compress_params", "params.compress"),
                           ("decompress_params", "params.decompress"),
                           ("reload_dequantized", "params.reload")):
            self._patch(pipeline, name, timed(span, getattr(pipeline, name)))
        self._patch(pipeline, "quantize_probabilities", quantize_probabilities_counted)
        self._patch(pipeline, "RangeEncoder", self._timed_encoder(pipeline.RangeEncoder))
        self._patch(pipeline, "RangeDecoder", self._timed_decoder(pipeline.RangeDecoder))

    # The binary coder is timed per instance, not per bit: an encoder from
    # construction to finish(), a decoder from construction to the caller's
    # bits_consumed check, which follows its last decode_bit.

    def _timed_encoder(self, base):
        tracer = self

        class TracedRangeEncoder(base):
            def __init__(self):
                self._trace_t0 = perf_counter()
                super().__init__()

            def finish(self):
                out = super().finish()
                tracer.leaf("rangecoder.encode", self._trace_t0)
                return out

        return TracedRangeEncoder

    def _timed_decoder(self, base):
        tracer = self

        class TracedRangeDecoder(base):
            def __init__(self, data):
                self._trace_t0 = perf_counter()
                super().__init__(data)

            @property
            def bits_consumed(self):
                if self._trace_t0 is not None:
                    tracer.leaf("rangecoder.decode", self._trace_t0)
                    self._trace_t0 = None
                return base.bits_consumed.fget(self)

        return TracedRangeDecoder
