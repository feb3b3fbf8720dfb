"""Walk through the geometry side of the codec: voxel sets, the downsampling
pyramid, and the exact two-layer-octree occupancy roundtrip.

Run:  python3 demos/01_multiscale_pyramid.py
"""
import numpy as np

from linr.plyio import generate_fixture
from linr.voxel import (
    build_pyramid,
    child_occupancy,
    neighbor_channels,
    neighbor_occupancy,
    reconstruct_children,
)

# A one-voxel-thick sphere shell, the classic "surface-like" test subject.
cloud = generate_fixture("sphere-shell", 24)
print(f"sphere shell r=24: {len(cloud)} occupied voxels, "
      f"bbox max {cloud.coords.max()}")

# Halve the resolution until at most 64 points remain.  Each level is the
# floor-div-2 of the previous one, deduplicated and sorted.
pyramid = build_pyramid(cloud, stop_at=64)
print(f"\npyramid with {pyramid.num_scales} scale transitions:")
for i, level in enumerate(pyramid.levels):
    print(f"  level {i}: {len(level):6d} points")

# Every transition is captured losslessly by one byte per coarse point: the
# 8-bit mask of which octree children exist.
masks = child_occupancy(pyramid.levels[0], pyramid.levels[1])
occupancy_counts = np.bincount(np.unpackbits(masks[:, None], axis=1).sum(1),
                               minlength=9)
print(f"\nchildren per parent at the finest transition:")
for k in range(1, 9):
    print(f"  {k} children: {occupancy_counts[k]:5d} parents")

rebuilt = reconstruct_children(masks, pyramid.levels[1])
print(f"\nreconstruct_children(child_occupancy(...)) exact: "
      f"{bool(np.array_equal(rebuilt.coords, pyramid.levels[0].coords))}")

# The network never sees raw coordinates, only occupancy probes like these:
# six face neighbors plus self, per point.  A point's pattern of occupied
# face neighbors is one of 64, so the context MLP runs once per pattern.
patterns = neighbor_occupancy(pyramid.levels[1])
print(f"\nface-neighbor patterns at level 1: {len(np.unique(patterns))} of 64 occur")
nb = neighbor_channels(patterns)
print(f"\nneighbor occupancy at level 1: mean fill per channel "
      f"{np.round(nb.mean(axis=0), 3)}")
