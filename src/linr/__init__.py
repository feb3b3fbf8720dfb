"""Lossless point-cloud geometry codec.

A tiny multiscale occupancy-prediction network is overfitted per group of
frames, its quantized parameters ride the bitstream, and every octree
child-occupancy bit is arithmetic-coded under the network's predictions.
Decoding rebuilds the identical network and walks the scales back up, so
the reconstruction is coordinate-exact.
"""

from .errors import (
    CountMismatchError,
    DecodeError,
    DepthError,
    EmptyCloudError,
    InvalidOccupancyError,
    LinrError,
    MissingGroundTruthError,
    NumericError,
    ParseError,
    PyramidMismatchError,
    ScaleMismatchError,
    ShapeError,
)
from .network import ModelConfig, OccupancyModel
from .pipeline import (
    FILE_EXTENSION,
    EncodeReport,
    GopConfig,
    VerifyResult,
    container_summary,
    decode_sequence,
    encode_sequence,
    train_gop,
    verify,
)
from .plyio import generate_fixture, read_cloud, read_cloud_report, write_cloud
from .voxel import (
    ScalePyramid,
    SparseVoxelSet,
    build_pyramid,
    child_occupancy,
    downsample,
    neighbor_channels,
    neighbor_occupancy,
    reconstruct_children,
)

__version__ = "0.1.0"

__all__ = [
    "CountMismatchError", "DecodeError", "DepthError", "EmptyCloudError",
    "InvalidOccupancyError", "LinrError", "MissingGroundTruthError",
    "NumericError", "ParseError", "PyramidMismatchError",
    "ScaleMismatchError", "ShapeError",
    "ModelConfig", "OccupancyModel",
    "FILE_EXTENSION", "EncodeReport", "GopConfig", "VerifyResult",
    "container_summary", "decode_sequence", "encode_sequence", "train_gop",
    "verify",
    "generate_fixture", "read_cloud", "read_cloud_report", "write_cloud",
    "ScalePyramid", "SparseVoxelSet", "build_pyramid", "child_occupancy",
    "downsample", "neighbor_channels", "neighbor_occupancy",
    "reconstruct_children",
    "__version__",
]
