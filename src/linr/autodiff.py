"""Minimal reverse-mode automatic differentiation for per-point features.

A Tensor wraps a dense (points x channels) value matrix plus a gradient
accumulator.  Ops record backward closures micrograd-style; calling
``backward()`` on a scalar, or ``backward(grad)`` on a tensor of any shape,
walks the graph in reverse topological order.
Only the handful of ops the occupancy network needs exist here.

Reductions run in an order fixed by the shapes (a sparse conv sums per
offset, then in point order, or in one GEMM per block of rows), and the
codec runs every BLAS call on one thread (:func:`one_blas_thread`), so a
forward pass and a training step are bit-reproducible for identical inputs
and parameters whatever the caller's BLAS thread count.  Float32 results
still depend on the CPU kernel the BLAS picks.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import sys
import threading
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ShapeError

# Probability clamp applied inside the cross-entropy loss.
BCE_EPS = 2.0 ** -20

_LN2 = float(np.log(2.0))


class _GradMode(threading.local):
    enabled = True  # the default of every thread


_grad = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction in this thread (coding passes need no
    gradients); other threads keep training."""
    prev = _grad.enabled
    _grad.enabled = False
    try:
        yield
    finally:
        _grad.enabled = prev


@functools.cache
def _openblas_threads() -> tuple:
    """``(get, set)`` of the thread count of the OpenBLAS numpy calls, or ``()``.

    Looked up in numpy's own extension module, whose symbol search also
    covers the libraries it links, so this finds the OpenBLAS numpy loaded
    and nothing else; once, at the first codec call.
    """
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):
        return ()
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return ()


_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextlib.contextmanager
def one_blas_thread():
    """Run BLAS on one thread inside; restore the caller's count on exit.

    The codec's matmuls are at most 24 channels wide, too small to gain from
    a second thread, whose worker spins a core and stalls some calls for
    milliseconds; the thread count also changes float32 sums, and with them
    the container bytes.  Nested and concurrent uses share one saved count,
    which the last to leave restores, also when an exception is raised.  A
    no-op where numpy's BLAS is not OpenBLAS.  Usable as a decorator.
    """
    global _blas_users, _blas_saved
    fns = _openblas_threads()
    if not fns:
        yield
        return
    get, set_ = fns
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            set_(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                set_(_blas_saved)


class _FreeBuffers(threading.local):
    stacks = None  # {(shape, dtype): [arrays]} inside recycling(), else None


_free = _FreeBuffers()


@contextlib.contextmanager
def recycling():
    """Reuse, in this thread, the gradient buffers that backward passes free.

    Inside, every interior gradient a backward pass releases goes to a free
    list instead of back to the allocator, and op outputs and first
    gradients take a free buffer of their shape and dtype before allocating
    a new one; on exit the list is dropped.  Released gradients are out of
    every caller's reach, so this changes no value.  A loop of backward
    passes over same-sized graphs thus stops freeing and faulting in the
    same pages each time; keep the scope to graphs of one size, or the list
    holds buffers of every size at once.
    """
    prev = _free.stacks
    _free.stacks = {}
    try:
        yield
    finally:
        _free.stacks = prev


def _empty(shape, dtype) -> np.ndarray:
    stack = _free.stacks and _free.stacks.get((shape, dtype))
    return stack.pop() if stack else np.empty(shape, dtype)


def _recycle(grad: np.ndarray) -> None:
    if _free.stacks is not None:
        _free.stacks.setdefault((grad.shape, grad.dtype), []).append(grad)


def _zeros_like(a: np.ndarray) -> np.ndarray:
    # C-ordered whatever a's order, as every gradient buffer is.
    out = _empty(a.shape, a.dtype)
    out.fill(0)
    return out


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._prev: tuple = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = _zeros_like(self.data)
        self.grad += g

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate ``grad``, the gradient of this tensor, through the
        recorded graph; without ``grad`` the root must be a scalar, whose
        gradient is 1."""
        if grad is None:
            if self.data.ndim != 0:
                raise ShapeError("backward() without grad requires a scalar root")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ShapeError(f"gradient shape {np.shape(grad)} differs from "
                             f"the root's {self.data.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(grad)
        # Release each interior node once it has propagated, so the tape's
        # gradients and closures do not live as long as the root.
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
                _recycle(node.grad)
            node.grad = node._backward = None
            node._prev = ()


class Parameter(Tensor):
    """A named leaf tensor with a persistent gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name
        self.grad = np.zeros(self.data.shape, self.data.dtype)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def constant(data) -> Tensor:
    return Tensor(data)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    out = _empty(a.data.shape, np.result_type(a.data, b.data))
    return _make(np.add(a.data, b.data, out=out), (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _make(a.data * c, (a,), backward)


def _row_sum(g: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``g`` as one matrix-vector product: at 20,000
    rows of 8 and 24 channels it takes 23 and 64 us against 403 and 501 us
    for ``g.sum(axis=0)`` (float32, 1 BLAS thread), whose float order it
    does not keep."""
    return np.ones(g.shape[0], g.dtype) @ g


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-point dense layer: x @ W + b."""
    if x.data.shape[1] != weight.data.shape[0]:
        raise ShapeError(
            f"affine expects {weight.data.shape[0]} input channels, "
            f"got {x.data.shape[1]}"
        )

    def backward(g):
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g)
        if bias.requires_grad:
            bias._accumulate(_row_sum(g))
        if x.requires_grad:
            # With one output column each product is a single multiply, so
            # the broadcast form gives the GEMM's bits in half its time
            # (20,000 rows, 24 input channels: 951 -> 450 us).
            x._accumulate(g * weight.data.T if weight.data.shape[1] == 1
                          else g @ weight.data.T)

    out = np.matmul(x.data, weight.data,
                    out=_empty((x.data.shape[0], weight.data.shape[1]),
                               np.result_type(x.data, weight.data)))
    out += bias.data
    return _make(out, (x, weight, bias), backward)


def relu(x: Tensor) -> Tensor:
    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (x.data > 0))

    return _make(np.maximum(x.data, 0, out=_empty(x.data.shape, x.data.dtype)),
                 (x,), backward)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no
    exp overflows; both branches share ``exp(-|x|)``, taken as the exp of
    ``min(x, -x)`` so that a NaN keeps its sign bit as in ``exp(x)``."""
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_values(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * y * (1.0 - y))

    return _make(y, (x,), backward)


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1:
        raise ShapeError(f"concat row counts differ: {sorted(rows)}")
    widths = [p.data.shape[1] for p in parts]
    bounds = np.cumsum([0] + widths)

    def backward(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._accumulate(g[:, lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=1), parts, backward)


def broadcast_row(table: Tensor, index: int, num_points: int) -> Tensor:
    """Tile one row of a (rows x channels) table across all points."""
    rows = table.data.shape[0]
    if not 0 <= index < rows:
        raise IndexError(f"row {index} out of range for table with {rows} rows")

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = _zeros_like(table.data)
            table.grad[index] += _row_sum(g)

    data = np.repeat(table.data[index : index + 1], num_points, axis=0)
    return _make(data, (table,), backward)


class _Rows:
    """A matrix as a 1-D array of opaque rows, for whole-row scatters.

    numpy copies a void element as one block, so ``put`` into this view
    writes whole rows.  The row dtype is built once per matrix: building
    one costs more than a small scatter.  ``dst`` must be C-contiguous, as
    op outputs and gradient buffers are.
    """

    __slots__ = ("dst", "row", "flat")

    def __init__(self, dst: np.ndarray):
        self.dst = dst
        self.row = np.dtype((np.void, dst.itemsize * dst.shape[1]))
        self.flat = dst.view(self.row)[:, 0]

    def add(self, rows: np.ndarray, src: np.ndarray) -> None:
        """``dst[rows] += src`` for ``rows`` without repeats.

        The same float operations as the fancy-index form, done as one
        gather, one in-place add and one row scatter.  A repeated row would
        keep only one of its sums, so callers pass the rows of one kernel
        offset, which never repeat.
        """
        acc = self.dst.take(rows, axis=0)
        acc += src
        self.flat.put(rows, acc.view(self.row)[:, 0])


# A conv with more than one kernel offset runs as im2col (:func:`_im2col_conv`)
# unless its level is large and sparse: more than DENSE_MAX_POINTS points and
# fewer than SPARSE_PAIRS_PER_POINT (out, in) pairs per point, centre
# included.  The per-offset path costs about 190 numpy calls per conv, but
# touches only the neighbours present; im2col multiplies all 27 rows per
# point, absent ones as zeros.  Forward plus backward, 8 -> 8 channels, 1
# BLAS thread, im2col against per offset: 1.8 against 4.2 ms on a 6,152-point
# shell level (12.5 pairs per point), 4.6 against 7.8 ms on 15,003 random
# points (12.2), 80 against 272 ms on a 248,936-point shell (10.5), and
# 6.4 against 1.0 ms on 20,000 random points (1.0), 5.9 against 2.4 ms on
# 19,261 (2.8).  On at most 2,048 points im2col wins at any density
# (forward 0.17 -> 0.016 ms at 25 points).
DENSE_MAX_POINTS = 2048
SPARSE_PAIRS_PER_POINT = 4
# im2col gathers and multiplies this many rows at a time, so that one
# block's gathered matrix (0.4 MB at 8 channels, 1.3 MB at 24) stays near
# the L2 cache: the forward pass on 15,003 points takes 1.8 ms in blocks
# against 3.0 ms with one whole-level matrix, and a 512-row product
# (216 -> 8 columns) runs at 0.057 us a row against 0.098 at 1,024 rows
# and 0.081 at 256.
IM2COL_BLOCK_ROWS = 512


class KernelMap(list):
    """The per-offset ``(out_rows, in_rows)`` pairs :func:`sparse_conv` takes,
    with their total count ``pair_rows``, the row count ``points`` of the
    identity offset (None without one), and a cache for the neighbour
    tables of the im2col path, so that they are built once per map
    (``SparseVoxelSet.kernel_pairs`` returns one)."""

    __slots__ = ("tables", "pair_rows", "points")

    def __init__(self, pairs):
        super().__init__(pairs)
        self.tables = None
        self.pair_rows = sum(out_rows.shape[0] for out_rows, _ in self)
        self.points = next((out_rows.shape[0] for out_rows, in_rows in self
                            if in_rows is out_rows), None)


def _kernel_map(pairs, n: int) -> KernelMap:
    """``pairs`` as a :class:`KernelMap`, checked against an input of n rows."""
    if not isinstance(pairs, KernelMap):
        pairs = KernelMap(pairs)
    if pairs.points is not None and pairs.points != n:
        raise ShapeError(f"conv input has {n} rows for {pairs.points} points")
    return pairs


def _takes_im2col(pairs: KernelMap, n: int) -> bool:
    """Whether a conv over ``pairs`` runs as im2col (see
    :data:`DENSE_MAX_POINTS`)."""
    return len(pairs) > 1 and (n <= DENSE_MAX_POINTS
                               or pairs.pair_rows >= SPARSE_PAIRS_PER_POINT * n)


def _neighbour_tables(pairs: KernelMap, n: int) -> tuple:
    """``(gather, scatter)``, each (n, num_offsets), of the map ``pairs``.

    ``gather[o, k]`` is the row that point o reads at offset k and
    ``scatter[i, k]`` the row that reads point i there, so ``scatter`` is
    built from the pairs and needs no mirror symmetry.  Where offsets k and
    ``num_offsets - 1 - k`` are mirrors, as in every map of
    ``SparseVoxelSet.kernel_pairs``, ``scatter`` is ``gather`` with its
    columns reversed, and is kept as that view.  An absent neighbour is
    row n, the zero row :func:`_blocks` appends.  Cached on the map, in
    the smallest integer type that holds n: the cache lives as long as the
    level, and an encode holds every level of a group's frames.
    """
    if pairs.tables is None:
        index = np.min_scalar_type(n)
        gather = np.full((n, len(pairs)), n, dtype=index)
        scatter = np.full((n, len(pairs)), n, dtype=index)
        for k, (out_rows, in_rows) in enumerate(pairs):
            gather[out_rows, k] = in_rows
            scatter[in_rows, k] = out_rows
        if np.array_equal(scatter, gather[:, ::-1]):
            scatter = gather[:, ::-1]
        pairs.tables = gather, scatter
    return pairs.tables


class _Scratch(threading.local):
    # The padded copy and the block matrix of :func:`_blocks`.
    def __init__(self):
        self.bufs = [np.empty(0, np.uint8), np.empty(0, np.uint8)]


_scratch = _Scratch()


def _scratch_array(slot: int, shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array over this thread's grow-only byte buffer
    ``slot``.  It is valid until the next call for the same slot."""
    dtype = np.dtype(dtype)
    nbytes = shape[0] * shape[1] * dtype.itemsize
    if _scratch.bufs[slot].size < nbytes:
        _scratch.bufs[slot] = np.empty(nbytes, np.uint8)
    return _scratch.bufs[slot][:nbytes].view(dtype).reshape(shape)


def _blocks(a: np.ndarray, table: np.ndarray, order=None):
    """Yield ``(s, e, cols)`` for each block of :data:`IM2COL_BLOCK_ROWS`
    rows: ``cols`` is (e - s, num_offsets * c), the rows of ``a`` plus an
    appended zero row gathered through ``table[s:e]``, offset-major columns
    per point; with ``order``, through the rows ``table[order[s:e]]``.

    The gather moves whole rows through a void view (one element of
    ``itemsize * c`` bytes per row).  The padded copy and ``cols`` live in
    this thread's two scratch buffers, which keep their pages from call to
    call, inside a :func:`recycling` scope or not: freed, blocks of this
    size would be unmapped and faulted in afresh by the next conv.  So each
    block must be used before the next is drawn, and only one of these
    loops may run at a time in a thread.
    """
    n, k = table.shape
    c = a.shape[1]
    padded = _scratch_array(0, (a.shape[0] + 1, c), a.dtype)
    padded[:-1] = a
    padded[-1] = 0
    row = np.dtype((np.void, a.itemsize * c))
    rows = padded.view(row)[:, 0]
    buf = _scratch_array(1, (min(n, IM2COL_BLOCK_ROWS), k * c), a.dtype)
    for s in range(0, n, IM2COL_BLOCK_ROWS):
        e = min(s + IM2COL_BLOCK_ROWS, n)
        cols = buf[:e - s]
        # Fancy indexing of the (possibly reversed) table: 6x faster than
        # its take().
        index = table[s:e] if order is None else table[order[s:e]]
        # Every index is in range; mode="clip" spares numpy's buffered copy.
        np.take(rows, index, out=cols.view(row), mode="clip")
        yield s, e, cols


def _im2col_conv(x: Tensor, weight: Tensor, bias: Tensor, pairs) -> Tensor:
    """:func:`sparse_conv` as one gather and one GEMM per block and direction.

    Forward: each block's gathered ``cols`` times W as a (num_offsets *
    c_in, c_out) matrix, then the bias.  Backward gathers ``g`` once per
    block, through the scatter table, and uses that block twice:
    ``x[s:e].T @ gcols`` adds to the weight gradient, summed over the
    blocks in row order, and ``gcols`` times the transposed weight is the
    input gradient of rows s..e.  Every product sums over offsets and
    channels at once, so float sums differ from the per-offset path's in
    order.
    """
    n = x.data.shape[0]
    k, c_in, c_out = weight.data.shape
    gather, scatter = _neighbour_tables(pairs, n)
    w = weight.data.reshape(k * c_in, c_out)
    out = _empty((n, c_out), x.data.dtype)
    for s, e, cols in _blocks(x.data, gather):
        np.matmul(cols, w, out=out[s:e])
    out += bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_row_sum(g))
        need_w, need_x = weight.requires_grad, x.requires_grad
        if need_w:
            w_grad = np.zeros((c_in, k * c_out), g.dtype)
        if need_x:
            if x.grad is None:
                x.grad = _zeros_like(x.data)
            w_t = weight.data.transpose(0, 2, 1).reshape(k * c_out, c_in)
        if need_w or need_x:
            for s, e, gcols in _blocks(g, scatter):
                if need_w:
                    w_grad += x.data[s:e].T @ gcols
                if need_x:
                    x.grad[s:e] += gcols @ w_t
        if need_w:
            weight._accumulate(w_grad.reshape(c_in, k, c_out).transpose(1, 0, 2))

    return _make(out, (x, weight, bias), backward)


def sparse_conv(x: Tensor, weight: Tensor, bias: Tensor, pairs) -> Tensor:
    """Submanifold sparse convolution via precomputed gather lists.

    ``weight`` is (num_offsets, c_in, c_out); ``pairs[k]`` gives the
    (out_rows, in_rows) index arrays for kernel offset k, each free of
    repeats (see ``SparseVoxelSet.kernel_pairs``).  The identity offset
    (the centre, every 1x1 conv) gives ``in_rows`` as the same array as
    ``out_rows``; it fixes the point count, which ``x`` must match row for
    row.  No other offset covers every point: the point furthest along it
    has no neighbour there.

    A map of more than one offset runs as im2col (:func:`_im2col_conv`),
    unless it has more than :data:`DENSE_MAX_POINTS` points and fewer than
    :data:`SPARSE_PAIRS_PER_POINT` pairs per point.  Otherwise offsets are
    accumulated one by one in fixed order, points in row order; the
    identity offset needs no gather and no scatter.
    """
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"conv expects {weight.data.shape[1]} input channels, "
            f"got {x.data.shape[1]}"
        )
    if len(pairs) != weight.data.shape[0]:
        raise ShapeError("kernel map does not match weight offset count")
    n = x.data.shape[0]
    pairs = _kernel_map(pairs, n)
    if _takes_im2col(pairs, n):
        return _im2col_conv(x, weight, bias, pairs)
    c_out = weight.data.shape[2]
    out = _empty((n, c_out), x.data.dtype)
    out[:] = bias.data
    out_scatter = _Rows(out)
    for k, (out_rows, in_rows) in enumerate(pairs):
        if out_rows.shape[0] == 0:
            continue
        if in_rows is out_rows:
            out += x.data @ weight.data[k]
        else:
            xk = x.data.take(in_rows, axis=0)
            out_scatter.add(out_rows, xk @ weight.data[k])

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_row_sum(g))
        need_w = weight.requires_grad
        if need_w and weight.grad is None:
            weight.grad = _zeros_like(weight.data)
        need_x = x.requires_grad
        if need_x:
            if x.grad is None:
                x.grad = _zeros_like(x.data)
            x_scatter = _Rows(x.grad)
        for k, (out_rows, in_rows) in enumerate(pairs):
            if out_rows.shape[0] == 0:
                continue
            same = in_rows is out_rows
            gk = g if same else g.take(out_rows, axis=0)
            if need_w:
                xk = x.data if same else x.data.take(in_rows, axis=0)
                weight.grad[k] += xk.T @ gk
            if need_x:
                dx = gk @ weight.data[k].T
                if same:
                    x.grad += dx
                else:
                    x_scatter.add(in_rows, dx)

    return _make(out, (x, weight, bias), backward)


def _sums_by_key(dst: np.ndarray, rows: np.ndarray, keys: np.ndarray) -> None:
    """``dst[p] +=`` the sum of the ``rows`` whose key is p; ``keys`` is
    sorted, so each key's rows are one run, which ``np.add.reduceat`` sums
    in row order."""
    starts = np.flatnonzero(keys[1:] != keys[:-1])
    starts += 1
    starts = np.concatenate(([0], starts))
    dst[keys[starts]] += np.add.reduceat(rows, starts, axis=0)


def lookup_conv(table: Tensor, patterns: np.ndarray, weight: Tensor,
                bias: Tensor, pairs) -> Tensor:
    """:func:`sparse_conv` of the input whose row i is row ``patterns[i]``
    of ``table``, without building that input.

    When n points take their inputs from a few rows of a table (the 64 rows
    of ``OccupancyModel.scale_context``), each row's product with each
    offset's matrix is taken once: ``q[k, p] = table[p] @ weight[k]``, one
    batched product.  A point's output is the bias plus ``q[k,
    patterns[i]]`` summed over its neighbours i, offsets in order.  The map
    takes the path :func:`sparse_conv` would give it: im2col gathers those
    rows per block of :data:`IM2COL_BLOCK_ROWS` points, indexed through the
    gather table and ``patterns``, and sums them per point; otherwise they
    are added per offset.

    Backward sums the output gradient per offset and pattern: ``dq[k, p]``
    adds up the rows of ``g`` that read a point of pattern p at offset k.
    The im2col path gathers ``g`` through the scatter table, in blocks of
    the points sorted by pattern, and sums each pattern's run with
    ``np.add.reduceat``; the per-offset path sorts each offset's pairs by
    pattern.  Then ``weight[k]`` gets ``table.T @ dq[k]`` and ``table`` gets
    the sum over k of ``dq[k] @ weight[k].T``.  ``patterns`` must stay
    unchanged until the backward pass has run.
    """
    m, c_in = table.data.shape
    if c_in != weight.data.shape[1]:
        raise ShapeError(f"conv expects {weight.data.shape[1]} input channels, "
                         f"got {c_in}")
    if len(pairs) != weight.data.shape[0]:
        raise ShapeError("kernel map does not match weight offset count")
    n = patterns.shape[0]
    pairs = _kernel_map(pairs, n)
    if n and patterns.max() >= m:
        raise IndexError(f"pattern {patterns.max()} out of range for a table "
                         f"with {m} rows")
    k, _, c_out = weight.data.shape
    dtype = np.result_type(table.data, weight.data)
    # Row m of each offset stands for an absent neighbour.
    q = np.zeros((k, m + 1, c_out), dtype)
    np.matmul(table.data, weight.data, out=q[:, :m])
    im2col = _takes_im2col(pairs, n)
    if im2col:
        gather, scatter = _neighbour_tables(pairs, n)
        # q as k * (m + 1) rows: offset j's row of pattern p is j * (m + 1) + p.
        index_type = np.min_scalar_type(k * (m + 1))
        shifted = np.empty(n + 1, index_type)
        shifted[:n] = patterns
        shifted[n] = m
        base = np.arange(0, k * (m + 1), m + 1, dtype=index_type)[:, None]
        row = np.dtype((np.void, q.itemsize * c_out))
        q_rows = q.reshape(k * (m + 1), c_out).view(row)[:, 0]
        out = _empty((n, c_out), dtype)
        for s in range(0, n, IM2COL_BLOCK_ROWS):
            e = min(s + IM2COL_BLOCK_ROWS, n)
            # Offset-major, so that the sum over offsets adds whole
            # (e - s, c_out) slices: 0.64 ms on 6,152 points against 0.95
            # for a GEMM with k stacked identities and 5 ms for a
            # point-major sum (float32, 1 BLAS thread).
            index = shifted.take(gather[s:e].T, mode="clip")
            index += base
            cols = _scratch_array(1, (k * (e - s), c_out), dtype)
            np.take(q_rows, index, out=cols.view(row)[:, 0].reshape(k, e - s),
                    mode="clip")
            np.add.reduce(cols.reshape(k, e - s, c_out), axis=0, out=out[s:e])
        out += bias.data
    else:
        out = _empty((n, c_out), dtype)
        out[:] = bias.data
        out_scatter = _Rows(out)
        for j, (out_rows, in_rows) in enumerate(pairs):
            if out_rows.shape[0] == 0:
                continue
            if in_rows is out_rows:
                out += q[j].take(patterns, axis=0)
            else:
                out_scatter.add(out_rows, q[j].take(patterns.take(in_rows), axis=0))

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_row_sum(g))
        if not (weight.requires_grad or table.requires_grad):
            return
        dq = np.zeros((m, k * c_out), g.dtype)
        if im2col:
            order = np.argsort(patterns, kind="stable")
            keys = patterns[order]
            for s, e, gcols in _blocks(g, scatter, order):
                _sums_by_key(dq, gcols, keys[s:e])
        else:
            for j, (out_rows, in_rows) in enumerate(pairs):
                if out_rows.shape[0] == 0:
                    continue
                keys = patterns if in_rows is out_rows else patterns.take(in_rows)
                order = np.argsort(keys, kind="stable")
                rows = g.take(order if in_rows is out_rows else out_rows.take(order),
                              axis=0)
                _sums_by_key(dq[:, j * c_out:(j + 1) * c_out], rows, keys[order])
        if weight.requires_grad:
            weight._accumulate(
                (table.data.T @ dq).reshape(c_in, k, c_out).transpose(1, 0, 2))
        if table.requires_grad:
            table._accumulate(
                dq @ weight.data.transpose(0, 2, 1).reshape(k * c_out, c_in))

    return _make(out, (table, weight, bias), backward)


def bce_bits(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy in bits (base-2 logs), summed over points.

    The probabilities are clamped to [BCE_EPS, 1 - BCE_EPS], so the result
    is finite for any input; the clamp passes no gradient.
    """
    t = np.asarray(targets, dtype=probs.data.dtype)
    if t.shape != probs.data.shape:
        raise ShapeError(f"bce shape mismatch: {t.shape} vs {probs.data.shape}")
    p = np.clip(probs.data, BCE_EPS, 1.0 - BCE_EPS)
    bits = -(t * np.log2(p) + (1.0 - t) * np.log2(1.0 - p)).sum()

    def backward(g):
        if probs.requires_grad:
            inside = (probs.data > BCE_EPS) & (probs.data < 1.0 - BCE_EPS)
            dp = (-(t / p) + (1.0 - t) / (1.0 - p)) / _LN2
            probs._accumulate(g * dp * inside)

    return _make(np.asarray(bits, dtype=probs.data.dtype), (probs,), backward)


def square_sum(x: Tensor) -> Tensor:
    """Sum of squared entries (the L2 penalty building block)."""
    val = np.asarray((x.data * x.data).sum(), dtype=x.data.dtype)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * 2.0 * x.data)

    return _make(val, (x,), backward)


# ---------------------------------------------------------------------------
# Layers


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int,
                   dtype) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class AffineLayer:
    """One dense layer with named weight and bias parameters."""

    def __init__(self, rng, name: str, c_in: int, c_out: int, dtype=np.float32):
        self.weight = Parameter(
            f"{name}.weight", glorot_uniform(rng, (c_in, c_out), c_in, c_out, dtype)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def parameters(self) -> list:
        return [self.weight, self.bias]


class Mlp:
    """Per-point affine -> ReLU -> affine chain."""

    def __init__(self, rng, name: str, c_in: int, c_hidden: int, c_out: int,
                 dtype=np.float32):
        self.inner = AffineLayer(rng, f"{name}.inner", c_in, c_hidden, dtype)
        self.outer = AffineLayer(rng, f"{name}.outer", c_hidden, c_out, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.outer(relu(self.inner(x)))

    def parameters(self) -> list:
        return self.inner.parameters() + self.outer.parameters()


class SparseConvLayer:
    """Submanifold sparse convolution with kernel size 1 or 3.

    The weight holds one (c_in x c_out) matrix per kernel offset in fixed
    lexicographic order; the output coordinate set equals the input's.
    """

    def __init__(self, rng, name: str, c_in: int, c_out: int, kernel_size: int,
                 dtype=np.float32):
        if kernel_size not in (1, 3):
            raise ValueError("kernel size must be 1 or 3")
        k = kernel_size ** 3
        self.kernel_size = kernel_size
        self.weight = Parameter(
            f"{name}.weight",
            glorot_uniform(rng, (k, c_in, c_out), c_in * k, c_out * k, dtype),
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out, dtype=dtype))

    def __call__(self, x: Tensor, voxels) -> Tensor:
        return sparse_conv(x, self.weight, self.bias, voxels.kernel_pairs(self.kernel_size))

    def lookup(self, table: Tensor, patterns: np.ndarray, voxels) -> Tensor:
        """This layer on the input whose row i is row ``patterns[i]`` of
        ``table`` (:func:`lookup_conv`)."""
        return lookup_conv(table, patterns, self.weight, self.bias,
                           voxels.kernel_pairs(self.kernel_size))

    def parameters(self) -> list:
        return [self.weight, self.bias]


class ScaleEmbedding:
    """Learnable (num_scales x channels) table broadcast per point."""

    def __init__(self, rng, name: str, num_scales: int, channels: int,
                 dtype=np.float32):
        self.table = Parameter(
            f"{name}.table",
            glorot_uniform(rng, (num_scales, channels), num_scales, channels, dtype),
        )

    def __call__(self, index: int, num_points: int) -> Tensor:
        return broadcast_row(self.table, index, num_points)

    def parameters(self) -> list:
        return [self.table]


# ---------------------------------------------------------------------------
# Optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# lr(t) = max(ADAM_LR_MIN, ADAM_LR0 * ADAM_DECAY^(t // ADAM_DECAY_EVERY)),
# with t counting completed optimizer steps.
ADAM_LR0 = 0.01
ADAM_LR_MIN = 0.0004
ADAM_DECAY = 0.992
ADAM_DECAY_EVERY = 32
# Relative slack of Adam.max_displacement for the float32 rounding of the
# moments and the update; that rounding is a few ulps per step.
ADAM_BOUND_MARGIN = 1e-3


def _adam_lr(steps: int) -> float:
    return max(ADAM_LR_MIN, ADAM_LR0 * ADAM_DECAY ** (steps // ADAM_DECAY_EVERY))


class Adam:
    """Adam with the step-decayed learning rate lr(t) above."""

    def __init__(self, params: Iterable[Parameter]):
        self.params = sorted(params, key=lambda p: p.name)
        self.steps = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def lr(self) -> float:
        return _adam_lr(self.steps)

    def max_displacement(self, steps: int) -> float:
        """The largest total move of any parameter over the next ``steps``
        steps, whatever the gradients, past and future.

        m_t and v_t weigh the same gradients, so by Cauchy-Schwarz
        |m_t| <= (1 - b1) sqrt(sum_{j<t} (b1^2/b2)^j) sqrt(v_t / (1 - b2)),
        and the step that brings the count to t moves a parameter by at
        most lr(t-1) |m_t| / (1 - b1^t) / sqrt(v_t / (1 - b2^t)) (Kingma &
        Ba, ICLR 2015, section 2.1); ADAM_EPS only shrinks it.  On top come
        ADAM_BOUND_MARGIN and, per step, the rounding of the subtraction:
        one ulp of the largest magnitude a parameter can reach.
        """
        r = ADAM_BETA1 ** 2 / ADAM_BETA2
        scale = (1.0 - ADAM_BETA1) / np.sqrt((1.0 - ADAM_BETA2) * (1.0 - r))
        move = 0.0
        for t in range(self.steps + 1, self.steps + steps + 1):
            move += (_adam_lr(t - 1) * scale * np.sqrt(1.0 - r ** t)
                     * np.sqrt(1.0 - ADAM_BETA2 ** t) / (1.0 - ADAM_BETA1 ** t))
        move *= 1.0 + ADAM_BOUND_MARGIN
        ulp = max((np.finfo(p.data.dtype).eps * (np.abs(p.data).max() + move)
                   for p in self.params if p.data.size), default=0.0)
        return float(move + steps * ulp)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0

    def step(self) -> None:
        lr = self.lr()
        self.steps += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.steps
        correct2 = 1.0 - ADAM_BETA2 ** self.steps
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            update = (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
            p.data -= lr * update
