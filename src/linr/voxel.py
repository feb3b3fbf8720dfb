"""Integer voxel sets, multiscale pyramids, and octree child occupancy.

Coordinates are non-negative integers below 2^16, ordered lexicographically
on (x, y, z).  Every operation here is exact integer arithmetic; the learned
part of the codec never touches coordinates directly, only the occupancy
features derived from them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import KernelMap
from .errors import (
    DepthError,
    EmptyCloudError,
    InvalidOccupancyError,
    PyramidMismatchError,
)

MAX_BIT_DEPTH = 16

# Component shifts for packing one (x, y, z) into a single int64 key.  The
# 21-bit lanes leave headroom above 16-bit coordinates, so adding a +-1
# neighbor offset can never borrow into the next lane.
_SHIFT_X = 42
_SHIFT_Y = 21
_LANE_MASK = (1 << 21) - 1

# The seven occupancy probes in fixed channel order; channel 6 is "self".
NEIGHBOR_OFFSETS = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (0, 0, 0),
)
# Distinct sets of occupied face neighbors (:func:`neighbor_occupancy`).
FACE_PATTERNS = 1 << (len(NEIGHBOR_OFFSETS) - 1)

# 3x3x3 kernel offsets in lexicographic order; index 13 is the center.
KERNEL_OFFSETS_3 = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
)
KERNEL_OFFSETS_1 = ((0, 0, 0),)

# Octant offset (dx, dy, dz) of child slot j = 4*dx + 2*dy + dz, one row per slot.
CHILD_OFFSETS = np.array(
    [((j >> 2) & 1, (j >> 1) & 1, j & 1) for j in range(8)], dtype=np.int64
)

# Stand-in rows of a folded level (:meth:`SparseVoxelSet.fold`): one per
# prefix of coded child slots, of which the last stage reads 7.  A level
# folds only when it has more isolated points than this.
FOLD_ROWS = 128
_PREFIXES = np.arange(FOLD_ROWS)


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack (n, 3) integer coordinates into sorted-compatible int64 keys."""
    c = coords.astype(np.int64, copy=False)
    return (c[:, 0] << _SHIFT_X) | (c[:, 1] << _SHIFT_Y) | c[:, 2]


def unpack_coords(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_coords`."""
    out = np.empty((keys.shape[0], 3), dtype=np.int64)
    out[:, 0] = keys >> _SHIFT_X
    out[:, 1] = (keys >> _SHIFT_Y) & _LANE_MASK
    out[:, 2] = keys & _LANE_MASK
    return out


def _offset_delta(offset) -> int:
    dx, dy, dz = offset
    return (dx << _SHIFT_X) + (dy << _SHIFT_Y) + dz


class SparseVoxelSet:
    """Sorted, deduplicated set of occupied voxel coordinates.

    ``coords`` is an (n, 3) int64 array, strictly increasing in
    lexicographic order.
    """

    __slots__ = ("coords", "_keys", "_kernel_pairs", "_fold")

    def __init__(self, coords: np.ndarray, *, assume_sorted: bool = False):
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {coords.shape}")
        if coords.shape[0] and coords.min() < 0:
            raise DepthError("negative voxel coordinates")
        if coords.shape[0] and coords.max() >= (1 << MAX_BIT_DEPTH):
            raise DepthError(f"coordinates exceed {MAX_BIT_DEPTH}-bit range")
        if not assume_sorted and coords.shape[0]:
            keys = pack_coords(coords)
            if np.any(np.diff(keys) <= 0):
                coords = unpack_coords(np.unique(keys))
        self.coords = coords
        self._keys: Optional[np.ndarray] = None
        self._kernel_pairs: dict = {}
        self._fold = None

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVoxelSet):
            return NotImplemented
        return self.coords.shape == other.coords.shape and bool(
            np.array_equal(self.coords, other.coords)
        )

    def __repr__(self) -> str:
        return f"SparseVoxelSet({len(self)} points)"

    @property
    def keys(self) -> np.ndarray:
        """Packed int64 keys, sorted ascending (same order as coords)."""
        if self._keys is None:
            self._keys = pack_coords(self.coords)
        return self._keys

    def check_bit_depth(self, bit_depth: int) -> None:
        if not 1 <= bit_depth <= MAX_BIT_DEPTH:
            raise DepthError(f"bit depth must be in [1, {MAX_BIT_DEPTH}]")
        if len(self) and self.coords.max() >= (1 << bit_depth):
            raise DepthError(
                f"coordinates exceed {bit_depth}-bit range "
                f"(max component {int(self.coords.max())})"
            )

    def lookup(self, coords: np.ndarray) -> np.ndarray:
        """Row index of each query coordinate, or -1 when unoccupied."""
        target = pack_coords(np.asarray(coords, dtype=np.int64))
        return self._lookup_keys(target)

    def _lookup_keys(self, target: np.ndarray) -> np.ndarray:
        keys = self.keys
        idx = np.searchsorted(keys, target)
        idx_c = np.minimum(idx, len(keys) - 1) if len(keys) else idx
        found = np.zeros(target.shape[0], dtype=bool)
        if len(keys):
            found = keys[idx_c] == target
        out = np.where(found, idx_c, -1)
        return out.astype(np.int64)

    def kernel_pairs(self, kernel_size: int = 3):
        """Gather lists for a submanifold convolution over this set.

        Returns, per kernel offset in fixed lexicographic order, a pair of
        ``int32`` index arrays ``(out_rows, in_rows)``: point ``out_rows[i]``
        sees point ``in_rows[i]`` at that offset.  Cached per kernel size,
        as a ``KernelMap``, which also caches the neighbour tables of the
        im2col conv path.  ``int32`` halves what an encode holds for the
        maps of every level of a group's frames: peak RSS of one encode
        and decode of the seed-101 benchmark frames in a fresh process
        fell from 59.2 to 57.2 MB on ``sphere-train`` and from 80.6 to
        78.7 MB on ``random-sparse``, while the per-offset conv on the
        20,000-point random levels, which converts the indices for each
        gather, took about 3-5% longer.

        ``out_rows`` is ascending, and within one offset neither array
        repeats a row: a translation maps distinct points to distinct
        points.  ``sparse_conv`` relies on this to scatter each offset with
        one plain indexed write.  The centre offset is the identity, given
        as the same array twice.

        Offset k and offset ``len(offsets) - 1 - k`` are mirrors (-d and d):
        a translation keeps key order, so ``in_rows`` of d ascends too and
        is ``out_rows`` of -d.  Only the first half of the offsets is looked
        up; each mirror takes the same two arrays, swapped.
        """
        if kernel_size not in (1, 3):
            raise ValueError("kernel size must be 1 or 3")
        cached = self._kernel_pairs.get(kernel_size)
        if cached is not None:
            return cached
        offsets = KERNEL_OFFSETS_3 if kernel_size == 3 else KERNEL_OFFSETS_1
        keys = self.keys
        half = len(offsets) // 2
        pairs = []
        for off in offsets[:half]:
            idx = self._lookup_keys(keys + _offset_delta(off))
            out_rows = np.nonzero(idx >= 0)[0].astype(np.int32)
            pairs.append((out_rows, idx[out_rows].astype(np.int32)))
        identity = np.arange(len(self), dtype=np.int32)
        pairs.append((identity, identity))
        pairs += [(in_rows, out_rows) for out_rows, in_rows in reversed(pairs[:half])]
        pairs = KernelMap(pairs)
        self._kernel_pairs[kernel_size] = pairs
        return pairs

    def fold(self):
        """The rows the occupancy network runs on: this set, or a
        :class:`FoldedLevel` when more than :data:`FOLD_ROWS` of its points
        are isolated (no point among their 26 neighbours).

        An isolated point's conv outputs depend on its own row alone, and its
        context is that of every other isolated point, so all of them share
        one row per coded-slot prefix.  Cached; the cache holds no reference
        to this set, which is thus freed without the cyclic collector.
        """
        if self._fold is None:
            pairs = self.kernel_pairs(3)
            linked = np.zeros(len(self), dtype=bool)
            for out_rows, in_rows in pairs[:len(pairs) // 2]:
                linked[out_rows] = True
                linked[in_rows] = True
            keep = np.flatnonzero(linked)
            if len(self) - len(keep) <= FOLD_ROWS:
                self._fold = False
            else:
                self._fold = FoldedLevel(keep, np.flatnonzero(~linked), pairs)
        return self if self._fold is False else self._fold


class FoldedLevel:
    """A level's linked points, in order, then :data:`FOLD_ROWS` stand-in
    rows for its isolated points (see :meth:`SparseVoxelSet.fold`).

    It offers what the network reads of a level: its row count and kernel
    maps.  Stand-ins have no coordinates, so no code can read them.  The
    3x3x3 map is the level's, renumbered through ``keep``: linked points
    neighbour only linked points, and renumbering keeps each offset's rows
    ascending, free of repeats and mirror-symmetric.  Stand-ins carry the
    identity offset alone.
    """

    __slots__ = ("keep", "iso", "_maps")

    def __init__(self, keep: np.ndarray, iso: np.ndarray, pairs):
        self.keep = keep
        self.iso = iso
        rank = np.zeros(len(keep) + len(iso), dtype=np.int32)
        rank[keep] = np.arange(len(keep), dtype=np.int32)
        half = len(pairs) // 2
        firsts = [(rank[out_rows], rank[in_rows]) for out_rows, in_rows in pairs[:half]]
        identity = np.arange(len(self), dtype=np.int32)
        mirrors = [(in_rows, out_rows) for out_rows, in_rows in reversed(firsts)]
        self._maps = {3: KernelMap(firsts + [(identity, identity)] + mirrors),
                      1: KernelMap([(identity, identity)])}

    def __len__(self) -> int:
        return len(self.keep) + FOLD_ROWS

    def kernel_pairs(self, kernel_size: int = 3):
        return self._maps[kernel_size]

    def parent_rows(self, masks: np.ndarray) -> np.ndarray:
        """The folded row of each point of the level: its own, or for an
        isolated point the stand-in of its coded-slot prefix ``masks``."""
        index = np.empty(len(self.keep) + len(self.iso), dtype=np.intp)
        index[self.keep] = np.arange(len(self.keep))
        # Cast first: uint8 plus a Python int stays uint8 under numpy 2.
        index[self.iso] = masks[self.iso].astype(np.intp) + len(self.keep)
        return index

    def fold_bits(self, bits: np.ndarray, j: int) -> np.ndarray:
        """Stage ``j``'s bits on the folded rows: ``bits`` of the linked
        points, then bit j of each stand-in's index, so that the coded
        slots of stand-in r spell out prefix r."""
        return np.concatenate([bits, (_PREFIXES >> j) & 1])

    def stand_in_counts(self, masks: np.ndarray, j: int):
        """How many isolated points read each stand-in at stage ``j`` (the
        one of their prefix ``masks & (2^j - 1)``) with bit j of ``masks``
        clear, and how many with it set: two float arrays of
        :data:`FOLD_ROWS`, zero past prefix 2^j - 1."""
        m = masks[self.iso].astype(np.intp)
        counts = np.bincount((m & ((1 << j) - 1)) + FOLD_ROWS * ((m >> j) & 1),
                             minlength=2 * FOLD_ROWS).astype(np.float64)
        return counts[:FOLD_ROWS], counts[FOLD_ROWS:]

    def unfold(self, linked: np.ndarray, isolated: np.ndarray) -> np.ndarray:
        """The level's child masks from those of its linked points and
        those of its isolated points, each in its order."""
        masks = np.empty(len(self.keep) + len(self.iso), dtype=np.uint8)
        masks[self.keep] = linked
        masks[self.iso] = isolated
        return masks


@dataclass
class ScalePyramid:
    """Chain of voxel sets from full resolution down to the coarsest level.

    ``levels[0]`` is the input cloud; ``levels[i + 1]`` is its floor-div-2
    downsampling.
    """

    levels: list
    _masks: dict = field(default_factory=dict, repr=False)

    @property
    def num_scales(self) -> int:
        """Number of scale transitions (levels minus one)."""
        return len(self.levels) - 1

    def masks(self, i: int) -> np.ndarray:
        """Child-occupancy masks of transition i (levels i+1 -> i), cached."""
        if i not in self._masks:
            self._masks[i] = child_occupancy(self.levels[i], self.levels[i + 1])
        return self._masks[i]


def downsample(pc: SparseVoxelSet) -> SparseVoxelSet:
    """Halve the resolution: floor-div-2 then deduplicate."""
    if len(pc) == 0:
        raise EmptyCloudError("cannot downsample an empty cloud")
    keys = np.unique(pack_coords(pc.coords >> 1))
    return SparseVoxelSet(unpack_coords(keys), assume_sorted=True)


def build_pyramid(pc: SparseVoxelSet, stop_at: int = 64,
                  num_scales: Optional[int] = None) -> ScalePyramid:
    """Repeatedly downsample ``pc`` into a ScalePyramid.

    Stops once a level has at most ``stop_at`` points, unless ``num_scales``
    pins the number of transitions (used so every frame of a sequence shares
    the scale count fixed by its first frame).
    """
    if len(pc) == 0:
        raise EmptyCloudError("cannot build a pyramid from an empty cloud")
    if num_scales is None and stop_at < 1:
        raise ValueError("stop_at must be >= 1")
    levels = [pc]
    while True:
        if num_scales is not None:
            if len(levels) - 1 >= num_scales:
                break
        elif len(levels[-1]) <= stop_at:
            break
        levels.append(downsample(levels[-1]))
    return ScalePyramid(levels=levels)


def child_index(coords: np.ndarray) -> np.ndarray:
    """Octant slot of each point under its parent: 4*(x&1) + 2*(y&1) + (z&1)."""
    c = np.asarray(coords, dtype=np.int64)
    return ((c[:, 0] & 1) << 2) | ((c[:, 1] & 1) << 1) | (c[:, 2] & 1)


def child_occupancy(fine: SparseVoxelSet, coarse: SparseVoxelSet) -> np.ndarray:
    """8-bit child mask per coarse point; bit j set iff child slot j exists.

    Raises PyramidMismatchError unless ``coarse`` is exactly the
    downsampling of ``fine``.
    """
    parents = coarse._lookup_keys(pack_coords(fine.coords >> 1))
    if len(fine) and parents.min() < 0:
        raise PyramidMismatchError("fine level has a point with no parent")
    masks = np.zeros(len(coarse), dtype=np.uint8)
    bits = (1 << child_index(fine.coords)).astype(np.uint8)
    np.bitwise_or.at(masks, parents, bits)
    if len(coarse) and masks.min() == 0:
        raise PyramidMismatchError("coarse level has a point with no children")
    return masks


def reconstruct_children(masks: np.ndarray, coarse: SparseVoxelSet) -> SparseVoxelSet:
    """Exact inverse of :func:`child_occupancy`; output is sorted."""
    masks = np.asarray(masks, dtype=np.uint8)
    if masks.shape[0] != len(coarse):
        raise PyramidMismatchError("mask count must match coarse point count")
    if masks.shape[0] and masks.min() == 0:
        raise InvalidOccupancyError("zero child mask")
    slots = np.arange(8, dtype=np.uint8)
    present = (masks[:, None] >> slots[None, :]) & 1  # (n, 8)
    parent_rows, slot_cols = np.nonzero(present)
    children = (coarse.coords[parent_rows] << 1) + CHILD_OFFSETS[slot_cols]
    order = np.argsort(pack_coords(children))
    return SparseVoxelSet(children[order], assume_sorted=True)


def neighbor_occupancy(pc) -> np.ndarray:
    """The face-neighbor pattern of each row of a SparseVoxelSet or
    FoldedLevel: a ``uint8`` below :data:`FACE_PATTERNS` whose bit ch is set
    when the neighbor at ``NEIGHBOR_OFFSETS[ch]`` is occupied, ch < 6.  A
    stand-in row of a FoldedLevel has pattern 0.

    :func:`neighbor_channels` spells a pattern out as the seven channels
    the context MLP reads.  Reads the cached 3x3x3 kernel map, whose
    ``out_rows`` at an offset are exactly the points with a neighbor there.
    """
    pairs = pc.kernel_pairs(3)
    out = np.zeros(len(pc), dtype=np.uint8)
    for ch, off in enumerate(NEIGHBOR_OFFSETS[:-1]):
        out[pairs[KERNEL_OFFSETS_3.index(off)][0]] |= 1 << ch
    return out


def neighbor_channels(patterns, dtype=np.float32) -> np.ndarray:
    """Seven binary channels per face-neighbor pattern, in the order of
    NEIGHBOR_OFFSETS: the six face bits, then the "self" channel, always 1."""
    patterns = np.asarray(patterns)
    out = np.ones((patterns.shape[0], len(NEIGHBOR_OFFSETS)), dtype=dtype)
    out[:, :-1] = (patterns[:, None] >> np.arange(len(NEIGHBOR_OFFSETS) - 1)) & 1
    return out
