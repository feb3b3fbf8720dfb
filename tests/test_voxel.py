"""Voxel set, pyramid, and child-occupancy tests.

Randomized cases are checked against independent brute-force oracles built
from Python sets and dicts, or against in-test references that search for
every neighbour, never against the vectorized implementation.
"""
import gc
import weakref

import numpy as np
import pytest

from linr import autodiff, pipeline, voxel
from linr.errors import (
    DepthError,
    EmptyCloudError,
    InvalidOccupancyError,
    PyramidMismatchError,
)
from linr.pipeline import GopConfig, decode_sequence, encode_sequence
from linr.plyio import generate_fixture
from linr.voxel import (
    CHILD_OFFSETS,
    FACE_PATTERNS,
    KERNEL_OFFSETS_3,
    FoldedLevel,
    SparseVoxelSet,
    build_pyramid,
    child_occupancy,
    downsample,
    neighbor_channels,
    neighbor_count,
    neighbor_occupancy,
    pack_coords,
    reconstruct_children,
)


def make_set(points):
    return SparseVoxelSet(np.array(sorted(points), dtype=np.int64))


def random_cloud(rng, n, hi=1024):
    pts = rng.integers(0, hi, size=(n, 3))
    return SparseVoxelSet(pts)


def mixed_level(isolated):
    """A dense 4x4x4 cube and a diagonal pair, all linked, plus
    ``isolated`` points three apart, none with a neighbour."""
    cube = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    grid = [(10 + 3 * (k % 10), 10 + 3 * (k // 10 % 10), 10 + 3 * (k // 100))
            for k in range(isolated)]
    return make_set(cube + grid + [(100, 100, 100), (101, 101, 100)])


def isolated_oracle(pc):
    occupied = {tuple(r) for r in pc.coords}
    near = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]
    return [row for row, (x, y, z) in enumerate(map(tuple, pc.coords))
            if not any((x + dx, y + dy, z + dz) in occupied for dx, dy, dz in near)]


def lookup_keys(pc, target):
    """Row of each packed query key in ``pc``, or -1: a binary search."""
    keys = pack_coords(pc.coords)
    idx = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
    return np.where(keys[idx] == target, idx, -1)


def lookup(pc, coords):
    return lookup_keys(pc, pack_coords(np.asarray(coords)))


def offset_key(off):
    """Key step of a +-1 offset.  Lanes are 21 bits and coordinates 16, so
    a step below 0 borrows into a lane value no point has."""
    dx, dy, dz = off
    return (dx << 42) + (dy << 21) + dz


def reference_pairs(pc):
    """The 3x3x3 map of ``pc`` found by a binary search per offset."""
    keys = pack_coords(pc.coords)
    pairs = []
    for off in KERNEL_OFFSETS_3:
        idx = lookup_keys(pc, keys + offset_key(off))
        out_rows = np.flatnonzero(idx >= 0)
        pairs.append((out_rows, idx[out_rows]))
    return pairs


def assert_same_map(got, want):
    assert len(got) == len(want) == len(KERNEL_OFFSETS_3)
    for k, ((out_rows, in_rows), (want_out, want_in)) in enumerate(zip(got, want)):
        assert out_rows.dtype == in_rows.dtype == np.int32, k
        assert np.array_equal(out_rows, want_out), k
        assert np.array_equal(in_rows, want_in), k
        mirror = got[len(got) - 1 - k]
        assert mirror[0] is in_rows and mirror[1] is out_rows, k


def assert_fold_matches_reference(pc):
    """``pc.fold()`` equals the fold of its reference map."""
    want = reference_pairs(pc)
    linked = np.zeros(len(pc), dtype=bool)
    for k, (out_rows, _) in enumerate(want):
        if KERNEL_OFFSETS_3[k] != (0, 0, 0):
            linked[out_rows] = True
    fold = pc.fold()
    if linked.all():
        assert fold is pc
        return
    ref = FoldedLevel(np.flatnonzero(linked), np.flatnonzero(~linked), want)
    assert np.array_equal(fold.keep, ref.keep) and np.array_equal(fold.iso, ref.iso)
    assert_same_map(fold.kernel_pairs(3), ref.kernel_pairs(3))


def reference_children(masks, coarse):
    """reconstruct_children as a nonzero over (n, 8) bits and an argsort."""
    present = (masks[:, None] >> np.arange(8)) & 1
    rows, slots = np.nonzero(present)
    children = (coarse.coords[rows] << 1) + CHILD_OFFSETS[slots]
    return children[np.argsort(pack_coords(children))]


def reference_masks(fine, coarse):
    """child_occupancy as an OR of each point's slot bit into its parent's
    mask, the parent found by a binary search."""
    parents = lookup(coarse, fine.coords >> 1)
    assert parents.min() >= 0
    slots = ((fine.coords[:, 0] & 1) << 2) | ((fine.coords[:, 1] & 1) << 1) | (fine.coords[:, 2] & 1)
    masks = np.zeros(len(coarse), dtype=np.uint8)
    np.bitwise_or.at(masks, parents, (1 << slots).astype(np.uint8))
    return masks


def workload_frame(name):
    """The first seed-101 frame of a benchmark workload (see perfbench)."""
    if name == "random-sparse":
        return generate_fixture("random", 20000, seed=101)
    return generate_fixture("sphere-shell", 40 if name == "sphere-train" else 24,
                            offset=101 % 64)


class TestSparseVoxelSet:
    def test_sorted_and_deduplicated(self):
        pc = SparseVoxelSet(np.array([[2, 0, 0], [0, 0, 0], [2, 0, 0]]))
        assert np.array_equal(pc.coords, [[0, 0, 0], [2, 0, 0]])

    def test_lexicographic_order(self):
        rng = np.random.default_rng(0)
        pc = random_cloud(rng, 500)
        rows = [tuple(r) for r in pc.coords]
        assert rows == sorted(rows)

    def test_rejects_negative_and_overdeep(self):
        with pytest.raises(DepthError):
            SparseVoxelSet(np.array([[-1, 0, 0]]))
        with pytest.raises(DepthError):
            SparseVoxelSet(np.array([[1 << 16, 0, 0]]))

    def test_bit_depth_check(self):
        pc = make_set([(1023, 0, 0)])
        pc.check_bit_depth(10)
        with pytest.raises(DepthError):
            pc.check_bit_depth(9)


class TestDownsample:
    def test_floor_div_dedup(self):
        pc = make_set([(0, 0, 0), (1, 1, 1), (2, 3, 5)])
        out = downsample(pc)
        assert [tuple(r) for r in out.coords] == [(0, 0, 0), (1, 1, 2)]

    def test_single_point(self):
        out = downsample(make_set([(4, 4, 4)]))
        assert [tuple(r) for r in out.coords] == [(2, 2, 2)]

    def test_empty_raises(self):
        with pytest.raises(EmptyCloudError):
            downsample(SparseVoxelSet(np.zeros((0, 3), dtype=np.int64)))

    def test_matches_brute_force_dedup(self):
        rng = np.random.default_rng(7)
        pc = random_cloud(rng, 1000)
        oracle = sorted({(x // 2, y // 2, z // 2) for x, y, z in map(tuple, pc.coords)})
        out = downsample(pc)
        assert [tuple(r) for r in out.coords] == oracle

    def test_halving_anchor(self):
        for p in [(0, 0, 0), (7, 3, 1), (1022, 513, 2)]:
            out = downsample(make_set([p]))
            assert tuple(out.coords[0]) == (p[0] >> 1, p[1] >> 1, p[2] >> 1)


class TestBuildPyramid:
    def test_single_point_is_one_level(self):
        pyr = build_pyramid(make_set([(0, 0, 0)]), stop_at=64)
        assert len(pyr.levels) == 1
        assert pyr.num_scales == 0

    def test_full_cube(self):
        pts = [(x, y, z) for x in range(8) for y in range(8) for z in range(8)]
        pyr = build_pyramid(make_set(pts), stop_at=64)
        assert [len(lv) for lv in pyr.levels] == [512, 64]
        assert pyr.num_scales == 1

    def test_forced_scale_count(self):
        pyr = build_pyramid(make_set([(5, 5, 5)]), num_scales=3)
        assert len(pyr.levels) == 4
        assert len(pyr.levels[-1]) == 1

    def test_stop_rule(self):
        rng = np.random.default_rng(11)
        pyr = build_pyramid(random_cloud(rng, 2000), stop_at=64)
        assert len(pyr.levels[-1]) <= 64
        for lv in pyr.levels[:-1]:
            assert len(lv) > 64


class TestChildOccupancy:
    def test_two_corner_children(self):
        fine = make_set([(0, 0, 0), (1, 1, 1)])
        coarse = make_set([(0, 0, 0)])
        masks = child_occupancy(fine, coarse)
        assert masks.tolist() == [0b10000001]

    def test_x_parity_is_high_bit(self):
        masks = child_occupancy(make_set([(2, 0, 0)]), make_set([(1, 0, 0)]))
        assert masks.tolist() == [0b00000001]
        masks = child_occupancy(make_set([(3, 0, 0)]), make_set([(1, 0, 0)]))
        assert masks.tolist() == [0b00010000]

    def test_mismatched_pair_raises(self):
        fine = make_set([(0, 0, 0)])
        with pytest.raises(PyramidMismatchError):
            child_occupancy(fine, make_set([(4, 4, 4)]))
        with pytest.raises(PyramidMismatchError):
            child_occupancy(fine, make_set([(0, 0, 0), (4, 4, 4)]))

    def test_popcount_matches_fine_count(self):
        rng = np.random.default_rng(5)
        pyr = build_pyramid(random_cloud(rng, 1500), stop_at=64)
        for i in range(pyr.num_scales):
            masks = child_occupancy(pyr.levels[i], pyr.levels[i + 1])
            popcount = np.unpackbits(masks).sum()
            assert popcount == len(pyr.levels[i])


class TestReconstructChildren:
    def test_single_bits(self):
        coarse = make_set([(0, 0, 0)])
        out = reconstruct_children(np.array([0b10000000], dtype=np.uint8), coarse)
        assert [tuple(r) for r in out.coords] == [(1, 1, 1)]
        out = reconstruct_children(np.array([0xFF], dtype=np.uint8), coarse)
        expect = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        assert [tuple(r) for r in out.coords] == sorted(expect)

    def test_zero_mask_raises(self):
        with pytest.raises(InvalidOccupancyError):
            reconstruct_children(np.array([0], dtype=np.uint8), make_set([(0, 0, 0)]))

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(13)
        for n in (10, 200, 3000):
            pyr = build_pyramid(random_cloud(rng, n), stop_at=8)
            for i in range(pyr.num_scales):
                masks = child_occupancy(pyr.levels[i], pyr.levels[i + 1])
                rebuilt = reconstruct_children(masks, pyr.levels[i + 1])
                assert rebuilt == pyr.levels[i]

    def test_output_sorted(self):
        rng = np.random.default_rng(17)
        pyr = build_pyramid(random_cloud(rng, 500), stop_at=64)
        masks = child_occupancy(pyr.levels[0], pyr.levels[1])
        out = reconstruct_children(masks, pyr.levels[1])
        rows = [tuple(r) for r in out.coords]
        assert rows == sorted(rows)


def channels(pc):
    """The seven occupancy channels of each point of ``pc``."""
    return neighbor_channels(neighbor_occupancy(pc))


class TestNeighborOccupancy:
    def test_isolated_point(self):
        nb = channels(make_set([(5, 5, 5)]))
        assert nb.tolist() == [[0, 0, 0, 0, 0, 0, 1]]

    def test_plus_x_neighbor(self):
        nb = channels(make_set([(0, 0, 0), (1, 0, 0)]))
        assert nb[0].tolist() == [1, 0, 0, 0, 0, 0, 1]
        assert nb[1].tolist() == [0, 1, 0, 0, 0, 0, 1]

    def test_dense_cube_center(self):
        pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        pc = make_set(pts)
        center = lookup(pc, [[1, 1, 1]])[0]
        assert channels(pc)[center].tolist() == [1] * 7

    def test_against_set_oracle(self):
        rng = np.random.default_rng(23)
        pc = random_cloud(rng, 400, hi=16)
        occupied = {tuple(r) for r in pc.coords}
        nb = channels(pc)
        offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1), (0, 0, 0)]
        for row, (x, y, z) in enumerate(map(tuple, pc.coords)):
            expect = [1.0 if (x + dx, y + dy, z + dz) in occupied else 0.0
                      for dx, dy, dz in offsets]
            assert nb[row].tolist() == expect

    def test_against_lookup_on_sparse_set(self):
        # Mostly isolated points plus a dense corner, so both empty and
        # occupied neighbors occur at every offset.  No coordinate is 0, so
        # no probe leaves the grid.
        rng = np.random.default_rng(24)
        pc = SparseVoxelSet(np.concatenate([rng.integers(1, 1024, size=(500, 3)),
                                           rng.integers(1, 7, size=(150, 3))]))
        offsets = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                            (0, 0, 1), (0, 0, -1), (0, 0, 0)])
        expect = np.stack([lookup(pc, pc.coords + off) >= 0 for off in offsets],
                          axis=1)
        assert expect.any(axis=0).all() and not expect[:, :6].all(axis=0).any()
        assert np.array_equal(channels(pc), expect.astype(np.float32))

    def test_zero_boundary(self):
        nb = channels(make_set([(0, 0, 0)]))
        assert nb.tolist() == [[0, 0, 0, 0, 0, 0, 1]]

    def test_patterns_are_face_bits(self):
        # Bit ch of a pattern is channel ch, so the 64 patterns spell out
        # every set of face neighbours once.
        nb = neighbor_channels(np.arange(FACE_PATTERNS))
        assert nb.shape == (FACE_PATTERNS, 7) and nb.dtype == np.float32
        assert np.all(nb[:, 6] == 1)
        assert np.array_equal(nb[:, :6] @ (1 << np.arange(6)), np.arange(FACE_PATTERNS))
        pc = random_cloud(np.random.default_rng(25), 400, hi=16)
        patterns = neighbor_occupancy(pc)
        assert patterns.dtype == np.uint8 and patterns.shape == (len(pc),)
        assert patterns.max() < FACE_PATTERNS


class TestKernelPairs:
    def test_center_is_identity(self):
        rng = np.random.default_rng(29)
        pc = random_cloud(rng, 100)
        pairs = pc.kernel_pairs(3)
        out_rows, in_rows = pairs[13]
        assert np.array_equal(out_rows, np.arange(100))
        assert np.array_equal(in_rows, np.arange(100))

    def test_against_dict_oracle(self):
        rng = np.random.default_rng(31)
        pc = random_cloud(rng, 200, hi=8)
        index = {tuple(r): i for i, r in enumerate(pc.coords)}
        offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                   for dz in (-1, 0, 1)]
        pairs = pc.kernel_pairs(3)
        for k, (dx, dy, dz) in enumerate(offsets):
            expect = {}
            for (x, y, z), i in index.items():
                j = index.get((x + dx, y + dy, z + dz))
                if j is not None:
                    expect[i] = j
            out_rows, in_rows = pairs[k]
            assert dict(zip(out_rows.tolist(), in_rows.tolist())) == expect

    @pytest.mark.parametrize("cloud", ["random", "shell"])
    def test_mirrored_offsets_match_a_lookup_per_offset(self, cloud):
        # Offsets past the centre are built by swapping their mirror's
        # arrays; each must equal a direct lookup at its own offset.
        if cloud == "random":
            pc = random_cloud(np.random.default_rng(37), 3000, hi=32)
        else:
            pc = generate_fixture("sphere-shell", 12)
        pairs = pc.kernel_pairs(3)
        assert len(pairs) == len(KERNEL_OFFSETS_3)
        for k, off in enumerate(KERNEL_OFFSETS_3):
            idx = lookup_keys(pc, pc.keys + offset_key(off))
            expect_out = np.nonzero(idx >= 0)[0]
            out_rows, in_rows = pairs[k]
            assert out_rows.dtype == in_rows.dtype == np.int32
            assert np.array_equal(out_rows, expect_out), off
            assert np.array_equal(in_rows, idx[expect_out]), off
            assert 0 < len(out_rows) < len(pc) or off == (0, 0, 0)

    def test_kernel_one(self):
        pc = make_set([(0, 0, 0), (9, 9, 9)])
        (pair,) = pc.kernel_pairs(1)
        assert np.array_equal(pair[0], [0, 1])
        assert np.array_equal(pair[1], [0, 1])


class TestFold:
    CENTRE = KERNEL_OFFSETS_3.index((0, 0, 0))

    def test_keep_and_iso_partition_the_rows(self):
        pc = mixed_level(200)
        fold = pc.fold()
        assert fold is not pc and pc.fold() is fold
        assert fold.iso.tolist() == isolated_oracle(pc)
        assert len(fold.iso) == 200
        assert np.all(np.diff(fold.keep) > 0)
        assert sorted(fold.keep.tolist() + fold.iso.tolist()) == list(range(len(pc)))
        assert len(fold) == len(fold.keep) == 66

    @pytest.mark.parametrize("cloud", ["mixed", "random"])
    def test_map_is_the_linked_subsets_own(self, cloud):
        if cloud == "mixed":
            pc = mixed_level(200)
        else:  # 707 of these 2,977 points have a neighbour
            pc = random_cloud(np.random.default_rng(41), 3000, hi=64)
        fold = pc.fold()
        linked = SparseVoxelSet(pc.coords[fold.keep], assume_sorted=True)
        expect = linked.kernel_pairs(3)
        got = fold.kernel_pairs(3)
        assert len(got) == len(KERNEL_OFFSETS_3)
        for k in range(len(got)):
            out_rows, in_rows = got[k]
            assert out_rows.dtype == in_rows.dtype == np.int32
            if k == self.CENTRE:
                assert in_rows is out_rows
                assert np.array_equal(out_rows[:len(fold.keep)], expect[k][0])
            else:
                assert np.array_equal(out_rows, expect[k][0]), k
                assert np.array_equal(in_rows, expect[k][1]), k
                # The mirror holds the same two arrays, swapped.
                mirror = got[len(got) - 1 - k]
                assert mirror[0] is in_rows and mirror[1] is out_rows

    def test_map_covers_the_linked_points_only(self):
        fold = mixed_level(200).fold()
        rows = np.arange(len(fold))
        for k, (out_rows, in_rows) in enumerate(fold.kernel_pairs(3)):
            if k == self.CENTRE:
                assert np.array_equal(out_rows, rows)
            else:
                assert out_rows.max() < len(fold.keep)
                assert in_rows.max() < len(fold.keep)
        (pair,) = fold.kernel_pairs(1)
        assert pair[0] is pair[1] and np.array_equal(pair[0], rows)
        patterns = neighbor_occupancy(fold)
        assert patterns.shape == (len(fold),) == (66,)
        linked = SparseVoxelSet(mixed_level(200).coords[fold.keep], assume_sorted=True)
        assert np.array_equal(patterns, neighbor_occupancy(linked))

    def test_unfold_inverts_the_split(self):
        pc = mixed_level(200)
        fold = pc.fold()
        rng = np.random.default_rng(44)
        masks = rng.integers(1, 256, size=len(pc)).astype(np.uint8)
        assert np.array_equal(fold.unfold(masks[fold.keep], masks[fold.iso]), masks)

    @pytest.mark.parametrize("isolated", [0, 1, 2, 200])
    def test_any_isolated_point_folds(self, isolated):
        pc = mixed_level(isolated)
        assert len(isolated_oracle(pc)) == isolated
        if not isolated:
            assert pc.fold() is pc and pc.fold() is pc
        else:
            assert pc.fold().iso.tolist() == isolated_oracle(pc)
            assert len(pc.fold()) == 66

    def test_all_isolated_level_folds_to_no_rows(self):
        pc = make_set([(3 * k, 0, 0) for k in range(5)])
        fold = pc.fold()
        assert len(fold) == 0 and fold.iso.tolist() == list(range(5))
        assert all(len(out_rows) == 0 for out_rows, _ in fold.kernel_pairs(3))
        assert neighbor_occupancy(fold).shape == (0,)
        single = make_set([(7, 7, 7)])
        assert single.fold() is not single and single.fold().iso.tolist() == [0]

    def test_sixteen_bit_frame_with_extreme_coordinates_round_trips(self):
        rng = np.random.default_rng(43)
        corner = (1 << 16) - 1
        pts = np.concatenate([rng.integers(0, 1 << 16, size=(300, 3)),
                              [[corner] * 3, [corner - 1, corner, corner], [0, 0, 0]]])
        frame = SparseVoxelSet(pts)
        config = GopConfig(gop_size=1, epochs_first=1, bit_depth=16)
        data, report = encode_sequence([frame], config)
        pyr = build_pyramid(frame, stop_at=config.stop_at)
        assert any(pyr.levels[i].fold() is not pyr.levels[i]
                   for i in range(1, len(pyr.levels)))
        frames, _ = decode_sequence(data)
        assert frames == [frame]
        assert frame.coords.max() == corner


class TestDerivedMaps:
    """Each level's 3x3x3 map is derived from its parent level's map; it
    must equal a binary search per offset, pair for pair."""

    @pytest.mark.parametrize("name", ["sphere-train", "random-sparse", "multi-gop"])
    def test_workload_pyramids_and_rebuilt_levels(self, name):
        frame = workload_frame(name)
        pyr = build_pyramid(frame, stop_at=64)
        for level in reversed(pyr.levels):
            assert_same_map(level.kernel_pairs(3), reference_pairs(level))
            assert_fold_matches_reference(level)
        # The decoder's levels, rebuilt from the masks, with each parent's
        # im2col gather table cached as the convs leave it.
        level = SparseVoxelSet(pyr.levels[-1].coords)
        for i in range(pyr.num_scales - 1, -1, -1):
            autodiff._neighbour_tables(level.kernel_pairs(3), len(level))
            level = reconstruct_children(pyr.masks(i), level)
            assert level == pyr.levels[i]
            assert_same_map(level.kernel_pairs(3), reference_pairs(level))
        if name == "random-sparse":
            assert sum(lv.fold() is not lv for lv in pyr.levels) >= 2

    @pytest.mark.parametrize("hi", [4, 64, 2048])
    def test_random_sets_at_three_densities(self, hi):
        rng = np.random.default_rng(hi)
        pc = random_cloud(rng, 3000, hi=hi)
        # A set built from coordinates searches its map.
        assert_same_map(pc.kernel_pairs(3), reference_pairs(pc))
        pyr = build_pyramid(random_cloud(rng, 3000, hi=hi), stop_at=8)
        for level in pyr.levels[1:]:
            assert_same_map(level.kernel_pairs(3), reference_pairs(level))

    def test_single_point(self):
        pc = make_set([(7, 0, 65535)])
        pairs = pc.kernel_pairs(3)
        assert_same_map(pairs, reference_pairs(pc))
        assert pairs.pair_rows == 1

    def test_points_on_the_lane_bounds(self):
        top = (1 << 16) - 1
        corners = [(x, y, z) for x in (0, 1, top - 1, top) for y in (0, 1, top - 1, top)
                   for z in (0, 1, top - 1, top)]
        pc = make_set(corners)
        assert_same_map(pc.kernel_pairs(3), reference_pairs(pc))
        pyr = build_pyramid(make_set(corners), stop_at=1)
        for level in pyr.levels[1:]:
            assert_same_map(level.kernel_pairs(3), reference_pairs(level))

    def test_parentless_set_searched_in_chunks(self, monkeypatch):
        # A set without a parent level searches its map a chunk of points
        # at a time; chunks that split the set give the reference map.
        monkeypatch.setattr(voxel, "_SEARCH_CHUNK", 7)
        pc = random_cloud(np.random.default_rng(5), 3000, hi=16)
        assert len(pc) % 7
        assert_same_map(pc.kernel_pairs(3), reference_pairs(pc))

    def test_pinned_scale_count(self):
        pc = random_cloud(np.random.default_rng(3), 500, hi=64)
        pyr = build_pyramid(pc, num_scales=9)
        assert len(pyr.levels[-1]) == 1
        for level in reversed(pyr.levels):
            assert_same_map(level.kernel_pairs(3), reference_pairs(level))


class TestNeighborCount:
    @pytest.mark.parametrize("make", [
        lambda: random_cloud(np.random.default_rng(30), 3000, hi=32),
        lambda: mixed_level(40),
        lambda: mixed_level(40).fold(),
        lambda: make_set([(5, 5, 5)]),
    ])
    def test_matches_set_lookup(self, make):
        pc = make()
        level = pc if isinstance(pc, SparseVoxelSet) else mixed_level(40)
        coords = level.coords if pc is level else level.coords[pc.keep]
        occupied = set(map(tuple, level.coords.tolist()))
        want = [sum((x + dx, y + dy, z + dz) in occupied
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                    if dx or dy or dz) for x, y, z in coords.tolist()]
        assert neighbor_count(pc).tolist() == want


class TestLinks:
    def test_pyramid_masks_equal_child_occupancy(self):
        for pc in (random_cloud(np.random.default_rng(8), 3000),
                   generate_fixture("sphere-shell", 12)):
            pyr = build_pyramid(pc, stop_at=8)
            for i in range(pyr.num_scales):
                want = reference_masks(pyr.levels[i], pyr.levels[i + 1])
                assert np.array_equal(pyr.masks(i), want)
                # Unlinked copies take the path that halves the keys.
                fine = SparseVoxelSet(pyr.levels[i].coords)
                coarse = SparseVoxelSet(pyr.levels[i + 1].coords)
                assert np.array_equal(child_occupancy(fine, coarse), want)

    def test_reconstruct_children_matches_nonzero_form(self):
        rng = np.random.default_rng(9)
        coarse = random_cloud(rng, 2000, hi=1 << 15)
        masks = rng.integers(1, 256, size=len(coarse)).astype(np.uint8)
        out = reconstruct_children(masks, coarse)
        assert np.array_equal(out.coords, reference_children(masks, coarse))
        assert np.array_equal(child_occupancy(out, coarse), masks)

    def test_map_drops_the_link(self):
        pyr = build_pyramid(random_cloud(np.random.default_rng(10), 2000), stop_at=64)
        assert pyr.levels[0]._link is None
        assert pyr.levels[-1]._link is None
        level = pyr.levels[1]
        assert level._link.parent is pyr.levels[2]
        level.kernel_pairs(3)
        assert level._link is None
        rebuilt = reconstruct_children(pyr.masks(1), pyr.levels[2])
        assert rebuilt._link.parent is pyr.levels[2]
        rebuilt.fold()
        assert rebuilt._link is None

    def test_decoded_frames_keep_no_coarser_level(self, monkeypatch):
        frame = generate_fixture("sphere-shell", 10)
        data, _ = encode_sequence([frame], GopConfig(gop_size=1, epochs_first=0))
        coarser = []

        def tracked(masks, coarse):
            coarser.append(weakref.ref(coarse))
            return reconstruct_children(masks, coarse)

        monkeypatch.setattr(pipeline, "reconstruct_children", tracked)
        frames, _ = decode_sequence(data)
        assert frames == [frame] and len(coarser) >= 2
        gc.collect()
        assert all(ref() is None for ref in coarser)
