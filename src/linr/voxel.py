"""Integer voxel sets, multiscale pyramids, and octree child occupancy.

Coordinates are non-negative integers below 2^16, ordered lexicographically
on (x, y, z).  Every operation here is exact integer arithmetic; the learned
part of the codec never touches coordinates directly, only the occupancy
features derived from them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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

# Octant offset (dx, dy, dz) of child slot j = 4*dx + 2*dy + dz, one row per slot.
CHILD_OFFSETS = np.array(
    [((j >> 2) & 1, (j >> 1) & 1, j & 1) for j in range(8)], dtype=np.int64
)

# Packed key of each child slot's octant offset: a child's key is its
# parent's key shifted left by one plus the key of its slot.
_SLOT_KEYS = (CHILD_OFFSETS[:, 0] << _SHIFT_X) | (CHILD_OFFSETS[:, 1] << _SHIFT_Y) | CHILD_OFFSETS[:, 2]
# Halving a key shifts each lane's low bit into the top of the lane below;
# the parent key clears those two bits.
_PARENT_KEY_MASK = ~((1 << (_SHIFT_Y - 1)) | (1 << (_SHIFT_X - 1)))

# Per 8-bit child mask: its number of children, and in _MASK_SLOTS[8 * m + r]
# the slot of its r-th child, slots ascending.
_MASK_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
_POPCOUNT = _MASK_BITS.sum(axis=1)
_MASK_SLOTS = np.argsort(1 - _MASK_BITS, axis=1, kind="stable").astype(np.uint8).ravel()

# The neighbour of child slot a at offset KERNEL_OFFSETS_3[k], k < 13, is
# child slot _NEIGHBOUR_SLOT[k, a] of the parent's neighbour at offset
# KERNEL_OFFSETS_3[_PARENT_OFFSET[k, a]] (Samet, "Neighbor finding in
# images represented by octrees", 1989): per axis, the child's low bit
# plus the offset is 2 * parent step + neighbour's low bit.
_AXIS_STEP = CHILD_OFFSETS[None, :, :] + np.array(KERNEL_OFFSETS_3[:13])[:, None, :]
_PARENT_OFFSET = ((_AXIS_STEP >> 1) + 1) @ np.array([9, 3, 1])
_NEIGHBOUR_SLOT = (_AXIS_STEP & 1) @ np.array([4, 2, 1])
_CENTRE = KERNEL_OFFSETS_3.index((0, 0, 0))
_SIDE_OFFSETS = np.delete(np.arange(len(KERNEL_OFFSETS_3)), _CENTRE)
# A set without a parent level searches its 3x3x3 map this many points at
# a time, which bounds the search's arrays to a few MB.
_SEARCH_CHUNK = 1 << 14


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


class SparseVoxelSet:
    """Sorted, deduplicated set of occupied voxel coordinates.

    ``coords`` is an (n, 3) int64 array, strictly increasing in
    lexicographic order.
    """

    __slots__ = ("coords", "_keys", "_kernel_pairs", "_fold", "_link", "__weakref__")

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
        self._link: Optional[_Link] = None

    @classmethod
    def _from_keys(cls, keys: np.ndarray) -> "SparseVoxelSet":
        """The set of sorted, distinct packed ``keys``."""
        out = cls(unpack_coords(keys), assume_sorted=True)
        out._keys = keys
        return out

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

    def unlink(self) -> None:
        """Drop this set's link to its parent level (see
        :func:`downsample`), so that it no longer keeps that level alive.
        A later 3x3x3 map downsamples the set afresh."""
        self._link = None

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
        is ``out_rows`` of -d.  Only the first half of the offsets is
        derived (:func:`_derived_pairs`, from the parent level's map); each
        mirror takes the same two arrays, swapped.
        """
        if kernel_size not in (1, 3):
            raise ValueError("kernel size must be 1 or 3")
        if kernel_size == 3:
            return _map3(self)
        cached = self._kernel_pairs.get(1)
        if cached is None:
            identity = np.arange(len(self), dtype=np.int32)
            cached = self._kernel_pairs[1] = KernelMap([(identity, identity)])
        return cached

    def fold(self):
        """The rows the occupancy network runs on: this set, or a
        :class:`FoldedLevel` of its linked points when any point is isolated
        (no point among its 26 neighbours).

        An isolated point's conv outputs depend on its own row alone, and its
        context is that of every other isolated point, so the network could
        learn only one distribution for all of them; the coder counts their
        masks instead.  Cached; the cache holds no reference to this set,
        which is thus freed without the cyclic collector.
        """
        if self._fold is None:
            pairs = self.kernel_pairs(3)
            linked = np.zeros(len(self), dtype=bool)
            for out_rows, in_rows in pairs[:len(pairs) // 2]:
                linked[out_rows] = True
                linked[in_rows] = True
            keep = np.flatnonzero(linked)
            if len(keep) == len(self):
                self._fold = False
            else:
                self._fold = FoldedLevel(keep, np.flatnonzero(~linked), pairs)
        return self if self._fold is False else self._fold


class FoldedLevel:
    """A level's linked points, in order (see :meth:`SparseVoxelSet.fold`);
    ``iso`` lists the rest, its isolated points.

    It offers what the network reads of a level: its row count and kernel
    maps.  The 3x3x3 map is the level's, renumbered through ``keep``: linked
    points neighbour only linked points, and renumbering keeps each
    offset's rows ascending, free of repeats and mirror-symmetric.
    """

    __slots__ = ("keep", "iso", "_maps")

    def __init__(self, keep: np.ndarray, iso: np.ndarray, pairs):
        self.keep = keep
        self.iso = iso
        rank = np.zeros(len(keep) + len(iso), dtype=np.int32)
        rank[keep] = np.arange(len(keep), dtype=np.int32)
        half = len(pairs) // 2
        firsts = [(rank[out_rows], rank[in_rows]) for out_rows, in_rows in pairs[:half]]
        identity = np.arange(len(keep), dtype=np.int32)
        mirrors = [(in_rows, out_rows) for out_rows, in_rows in reversed(firsts)]
        self._maps = {3: KernelMap(firsts + [(identity, identity)] + mirrors),
                      1: KernelMap([(identity, identity)])}

    def __len__(self) -> int:
        return len(self.keep)

    def kernel_pairs(self, kernel_size: int = 3):
        return self._maps[kernel_size]

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
        """Child-occupancy masks of transition i (levels i+1 -> i), cached;
        :func:`build_pyramid` records them as it downsamples."""
        if i not in self._masks:
            self._masks[i] = child_occupancy(self.levels[i], self.levels[i + 1])
        return self._masks[i]


class _Link(NamedTuple):
    """A level's place under its parent level: the parent, and per point of
    the level, in its order, the parent's row and the point's child slot."""

    parent: SparseVoxelSet
    rows: np.ndarray
    slots: np.ndarray


def _halve(keys: np.ndarray):
    """Parent keys (sorted, distinct) of packed ``keys``, each key's row
    among them and its child slot."""
    parent_keys, rows = np.unique((keys >> 1) & _PARENT_KEY_MASK, return_inverse=True)
    slots = ((keys >> (_SHIFT_X - 2)) & 4) | ((keys >> (_SHIFT_Y - 1)) & 2) | (keys & 1)
    return parent_keys, rows, slots.astype(np.uint8)


def downsample(pc: SparseVoxelSet) -> SparseVoxelSet:
    """Halve the resolution: floor-div-2 then deduplicate.

    Records on ``pc`` its link to the result, from which
    :func:`child_occupancy` counts the masks and
    :meth:`SparseVoxelSet.kernel_pairs` derives ``pc``'s 3x3x3 map without
    a search.  The map drops the link; :meth:`SparseVoxelSet.unlink` drops
    it sooner.
    """
    if len(pc) == 0:
        raise EmptyCloudError("cannot downsample an empty cloud")
    parent_keys, rows, slots = _halve(pc.keys)
    parent = SparseVoxelSet._from_keys(parent_keys)
    pc._link = _Link(parent, rows, slots)
    return parent


def build_pyramid(pc: SparseVoxelSet, stop_at: int = 64,
                  num_scales: Optional[int] = None) -> ScalePyramid:
    """Repeatedly downsample ``pc`` into a ScalePyramid.

    Stops once a level has at most ``stop_at`` points, unless ``num_scales``
    pins the number of transitions (used so every frame of a sequence shares
    the scale count fixed by its first frame).  Every level but ``pc`` and
    the coarsest keeps its link to the next until its 3x3x3 map is built:
    ``pc`` runs no conv, so its link would only keep ``levels[1]`` alive.
    """
    if len(pc) == 0:
        raise EmptyCloudError("cannot build a pyramid from an empty cloud")
    if num_scales is None and stop_at < 1:
        raise ValueError("stop_at must be >= 1")
    levels = [pc]
    masks = {}
    while True:
        if num_scales is not None:
            if len(levels) - 1 >= num_scales:
                break
        elif len(levels[-1]) <= stop_at:
            break
        levels.append(downsample(levels[-1]))
        masks[len(levels) - 2] = child_occupancy(levels[-2], levels[-1])
    pc.unlink()
    return ScalePyramid(levels=levels, _masks=masks)


def child_occupancy(fine: SparseVoxelSet, coarse: SparseVoxelSet) -> np.ndarray:
    """8-bit child mask per coarse point; bit j set iff child slot j exists.

    Reads ``fine``'s link when ``coarse`` is its parent; otherwise raises
    PyramidMismatchError unless ``coarse`` is exactly the downsampling of
    ``fine``.
    """
    link = fine._link
    if link is not None and link.parent is coarse:
        rows, slots = link.rows, link.slots
    else:
        parent_keys, rows, slots = _halve(fine.keys)
        if not np.array_equal(parent_keys, coarse.keys):
            raise PyramidMismatchError(
                "coarse level is not the downsampling of the fine level")
    # Each (parent, slot) occurs once, so the sum of the slot bits is their OR.
    bits = np.bincount(rows, weights=1 << slots, minlength=len(coarse))
    return bits.astype(np.uint8)


def reconstruct_children(masks: np.ndarray, coarse: SparseVoxelSet) -> SparseVoxelSet:
    """Exact inverse of :func:`child_occupancy`; output is sorted, and
    linked to ``coarse`` as :func:`downsample` links it."""
    masks = np.asarray(masks, dtype=np.uint8)
    if masks.shape[0] != len(coarse):
        raise PyramidMismatchError("mask count must match coarse point count")
    if masks.shape[0] and masks.min() == 0:
        raise InvalidOccupancyError("zero child mask")
    counts = _POPCOUNT[masks]
    rows = np.repeat(np.arange(len(masks)), counts)
    # Child r of parent p is child slot _MASK_SLOTS[8 * masks[p] + r].
    firsts = np.cumsum(counts) - counts
    slots = _MASK_SLOTS[np.repeat(8 * masks.astype(np.intp) - firsts, counts)
                        + np.arange(len(rows))]
    keys = np.repeat(coarse.keys << 1, counts) + _SLOT_KEYS[slots]
    order = np.argsort(keys)
    children = SparseVoxelSet._from_keys(keys[order])
    children._link = _Link(coarse, rows[order], slots[order])
    return children


def _map3(level: SparseVoxelSet) -> KernelMap:
    """``level``'s 3x3x3 map (:meth:`SparseVoxelSet.kernel_pairs`), built on
    first use, which drops the level's link.  A derivation reaches its
    parent's map through here, not through the method, so a benchmark
    that wraps the method sees one build per map it asked for."""
    pairs = level._kernel_pairs.get(3)
    if pairs is None:
        firsts = _derived_pairs(level)
        identity = np.arange(len(level), dtype=np.int32)
        pairs = KernelMap(firsts + [(identity, identity)]
                          + [(in_rows, out_rows) for out_rows, in_rows in reversed(firsts)])
        level._kernel_pairs[3] = pairs
        level._link = None
    return pairs


def _searched_pairs(level: SparseVoxelSet) -> list:
    """The first 13 offsets of ``level``'s 3x3x3 map by a binary search of
    each point's neighbour keys, all offsets at once, :data:`_SEARCH_CHUNK`
    points at a time."""
    offsets = np.array(KERNEL_OFFSETS_3[:_CENTRE])
    keys = level.keys
    hit_parts, row_parts = [], []
    for start in range(0, len(level), _SEARCH_CHUNK):
        coords = level.coords[None, start:start + _SEARCH_CHUNK] + offsets[:, None, :]
        inside = (coords >= 0).all(axis=2)  # (13, chunk)
        wanted = pack_coords(np.where(inside[:, :, None], coords, 0).reshape(-1, 3))
        found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit_parts.append((inside.ravel() & (keys[found] == wanted)).reshape(inside.shape))
        row_parts.append(found.reshape(inside.shape).astype(np.int32))
    hit, found = np.concatenate(hit_parts, axis=1), np.concatenate(row_parts, axis=1)
    return [(np.flatnonzero(row).astype(np.int32), rows[row])
            for row, rows in zip(hit, found)]


def _derived_pairs(level: SparseVoxelSet) -> list:
    """The first 13 offsets of ``level``'s 3x3x3 map, derived from its
    parent level's map: the neighbour of a child is a child of its parent
    or of a neighbour of its parent, fixed per slot and offset by
    :data:`_PARENT_OFFSET` and :data:`_NEIGHBOUR_SLOT`.  A level without a
    link searches its map (:func:`_searched_pairs`).
    """
    n = len(level)
    if n <= 1:
        return [(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32))] * _CENTRE
    if level._link is None:
        return _searched_pairs(level)
    parent, rows, slots = level._link
    n_parent = len(parent)
    pairs = _map3(parent)
    # ``table[27 r + d]`` is the row of parent r's neighbour at parent
    # offset d, or n_parent where there is none, and
    # ``rank[(n_parent + 1) b + p]`` the row of parent p's child in slot b,
    # or -1.  A parent whose convs ran as im2col has its gather table
    # cached on its map, in that layout (``autodiff._neighbour_tables``).
    width = len(KERNEL_OFFSETS_3)
    if pairs.tables is not None:
        table = pairs.tables[0].ravel()
        cand = np.arange(n)
        parent_rows = rows
    else:
        # Elsewhere only the children of a parent with a neighbour (an out
        # row of some offset) or a sibling can have a neighbour, and the
        # table holds the rows of their parents alone.
        side = [pair for k, pair in enumerate(pairs) if k != _CENTRE]
        out_p = np.concatenate([out_rows for out_rows, _ in side])
        in_p = np.concatenate([in_rows for _, in_rows in side])
        cols = np.repeat(_SIDE_OFFSETS, [len(out_rows) for out_rows, _ in side])
        keep = np.bincount(rows, minlength=n_parent) > 1
        keep[out_p] = True
        kept = np.flatnonzero(keep)
        pos = np.cumsum(keep) - 1
        table = np.full(width * len(kept), n_parent, dtype=np.int32)
        table[width * np.arange(len(kept)) + _CENTRE] = kept
        table[width * pos[out_p] + cols] = in_p
        cand = np.flatnonzero(keep[rows])
        parent_rows = pos[rows[cand]]
    rank = np.full(8 * (n_parent + 1), -1, dtype=np.int32)
    rank[(n_parent + 1) * np.arange(8)[slots] + rows] = np.arange(n, dtype=np.int32)
    a = slots[cand]
    found = rank[table[width * parent_rows + _PARENT_OFFSET[:, a]]
                 + (n_parent + 1) * _NEIGHBOUR_SLOT[:, a]]  # (13, candidates)
    cand = cand.astype(np.int32)
    out = []
    for row in found:
        hit = (row >= 0).nonzero()[0]
        out.append((cand[hit], row[hit]))
    return out


def neighbor_occupancy(pc) -> np.ndarray:
    """The face-neighbor pattern of each row of a SparseVoxelSet or
    FoldedLevel: a ``uint8`` below :data:`FACE_PATTERNS` whose bit ch is set
    when the neighbor at ``NEIGHBOR_OFFSETS[ch]`` is occupied, ch < 6.

    :func:`neighbor_channels` spells a pattern out as the seven channels
    the context MLP reads.  Reads the cached 3x3x3 kernel map, whose
    ``out_rows`` at an offset are exactly the points with a neighbor there.
    """
    pairs = pc.kernel_pairs(3)
    out = np.zeros(len(pc), dtype=np.uint8)
    for ch, off in enumerate(NEIGHBOR_OFFSETS[:-1]):
        out[pairs[KERNEL_OFFSETS_3.index(off)][0]] |= 1 << ch
    return out


def neighbor_count(pc) -> np.ndarray:
    """The number of occupied points among the 26 neighbours of each row of
    a SparseVoxelSet or FoldedLevel, from its cached 3x3x3 kernel map: a
    pair of the first 13 offsets links both of its points."""
    pairs = pc.kernel_pairs(3)
    rows = [np.zeros(0, dtype=np.int32)]
    for out_rows, in_rows in pairs[:_CENTRE]:
        rows += (out_rows, in_rows)
    return np.bincount(np.concatenate(rows), minlength=len(pc))


def neighbor_channels(patterns, dtype=np.float32) -> np.ndarray:
    """Seven binary channels per face-neighbor pattern, in the order of
    NEIGHBOR_OFFSETS: the six face bits, then the "self" channel, always 1."""
    patterns = np.asarray(patterns)
    out = np.ones((patterns.shape[0], len(NEIGHBOR_OFFSETS)), dtype=dtype)
    out[:, :-1] = (patterns[:, None] >> np.arange(len(NEIGHBOR_OFFSETS) - 1)) & 1
    return out
