"""Point-cloud file ingestion, writing, and synthetic fixtures.

Supported formats: ascii PLY, binary little-endian PLY, and plain xyz text.
Only the vertex x/y/z properties are used; other vertex properties are
strided over, and elements declared after the vertex element are ignored
with a warning.  An element before it is rejected.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DepthError, ParseError
from .voxel import MAX_BIT_DEPTH, SparseVoxelSet, pack_coords, unpack_coords

_PLY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


@dataclass
class ReadReport:
    duplicates: int


def read_cloud(path, bit_depth: int = 10, voxelize=None) -> SparseVoxelSet:
    """Load a point cloud as a sorted voxel set; see read_cloud_report."""
    pc, _ = read_cloud_report(path, bit_depth=bit_depth, voxelize=voxelize)
    return pc


def read_cloud_report(path, bit_depth: int = 10, voxelize=None):
    """Load a cloud plus a report of the duplicates it collapsed.

    Input coordinates must already be integer voxel positions unless
    ``voxelize`` gives a grid bit width, in which case the cloud is scaled
    uniformly into that grid and re-quantized.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ply":
        raw = _read_ply(path)
    elif suffix in (".xyz", ".txt"):
        raw = _read_xyz(path)
    else:
        raise ParseError(f"unsupported file extension {suffix!r}", path=path)
    if not np.all(np.isfinite(raw)):
        raise ParseError("non-finite coordinates", path=path)
    if voxelize is not None:
        coords = _voxelize(raw, voxelize)
    else:
        coords = np.rint(raw)
        if raw.size and np.abs(raw - coords).max() > 1e-6:
            raise ParseError(
                "coordinates are not integers; pass a voxelize grid size",
                path=path,
            )
        coords = coords.astype(np.int64)
    try:
        pc = SparseVoxelSet(coords)
        pc.check_bit_depth(bit_depth)
    except DepthError as exc:
        raise DepthError(f"{path}: {exc}") from None
    return pc, ReadReport(duplicates=raw.shape[0] - len(pc))


def _voxelize(raw: np.ndarray, grid_bits: int) -> np.ndarray:
    if not 1 <= grid_bits <= 16:
        raise ValueError("voxelize grid must be 1..16 bits")
    lo = raw.min(axis=0)
    extent = float((raw - lo).max())
    if extent <= 0:
        return np.zeros_like(raw, dtype=np.int64)
    scale = ((1 << grid_bits) - 1) / extent
    return np.rint((raw - lo) * scale).astype(np.int64)


_END_HEADER = re.compile(rb"^[^\S\n]*end_header[^\S\n]*$", re.MULTILINE)


def _read_ply(path: Path):
    with open(path, "rb") as fh:
        blob = fh.read()
    # The header ends at the first line whose only token is end_header; a
    # comment may mention the word.
    end_match = _END_HEADER.search(blob)
    if not blob.startswith(b"ply") or end_match is None:
        raise ParseError("missing ply/end_header framing", path=path)
    end = end_match.start()
    body_start = end_match.end() + 1
    if body_start > len(blob):
        end_line = blob.count(b"\n", 0, end) + 1
        raise ParseError("end_header is not followed by a newline", path=path,
                         location=f"line {end_line}")
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()

    fmt = None
    vertex_count = None
    properties = []  # (name, dtype) of the vertex element
    skipped_elements = []
    current_element = None
    for lineno, line in enumerate(header_lines, start=1):
        tokens = line.strip().split()
        if not tokens or tokens[0] == "comment" or tokens[0] == "ply":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise ParseError("format line names no format",
                                 path=path, location=f"line {lineno}")
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary"
            else:
                raise ParseError(f"unsupported format {tokens[1]!r}",
                                 path=path, location=f"line {lineno}")
        elif tokens[0] == "element":
            # A count like "-1" or "3.0" would reach numpy as a row count.
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise ParseError("element needs a name and a non-negative "
                                 f"integer count: {line.strip()!r}",
                                 path=path, location=f"line {lineno}")
            current_element = tokens[1]
            if current_element == "vertex":
                if vertex_count is not None:
                    raise ParseError("second vertex element: "
                                     f"{line.strip()!r}",
                                     path=path, location=f"line {lineno}")
                vertex_count = int(tokens[2])
            elif vertex_count is None:
                # Its rows would come first in the body and be read as
                # vertices.
                raise ParseError(f"element {current_element!r} precedes "
                                 "the vertex element",
                                 path=path, location=f"line {lineno}")
            else:
                skipped_elements.append(current_element)
        elif tokens[0] == "property" and current_element == "vertex":
            if len(tokens) < 3:
                raise ParseError("property needs a type and a name: "
                                 f"{line.strip()!r}",
                                 path=path, location=f"line {lineno}")
            if tokens[1] == "list":
                raise ParseError("list property in vertex element",
                                 path=path, location=f"line {lineno}")
            if tokens[1] not in _PLY_DTYPES:
                raise ParseError(f"unknown property type {tokens[1]!r}",
                                 path=path, location=f"line {lineno}")
            if any(name == tokens[2] for name, _ in properties):
                raise ParseError(f"repeated vertex property: {line.strip()!r}",
                                 path=path, location=f"line {lineno}")
            properties.append((tokens[2], _PLY_DTYPES[tokens[1]]))
    if fmt is None or vertex_count is None:
        raise ParseError("header lacks format or vertex element", path=path)
    names = [name for name, _ in properties]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ParseError(f"vertex element lacks property {axis!r}", path=path)
    skipped = [n for n in names if n not in ("x", "y", "z")]
    if skipped_elements:
        warnings.warn(
            f"{path}: ignoring non-vertex elements {skipped_elements}"
        )
    if skipped:
        warnings.warn(f"{path}: ignoring vertex properties {skipped}")

    if fmt == "binary":
        dtype = np.dtype([(name, "<" + code) for name, code in properties])
        need = vertex_count * dtype.itemsize
        if len(blob) - body_start < need:
            raise ParseError(
                f"vertex data truncated: need {need} bytes, "
                f"have {len(blob) - body_start}",
                path=path, location=f"byte {body_start}",
            )
        rows = np.frombuffer(blob, dtype=dtype, count=vertex_count,
                             offset=body_start)
        out = np.stack(
            [rows["x"], rows["y"], rows["z"]], axis=1
        ).astype(np.float64)
    else:
        text = blob[body_start:].decode("ascii", errors="replace")
        lines = text.splitlines()
        if len(lines) < vertex_count:
            raise ParseError(
                f"expected {vertex_count} vertex lines, found {len(lines)}",
                path=path,
            )
        out = np.empty((vertex_count, 3), dtype=np.float64)
        xi, yi, zi = (names.index(a) for a in ("x", "y", "z"))
        for k in range(vertex_count):
            cols = lines[k].split()
            if len(cols) < len(names):
                raise ParseError("short vertex line", path=path,
                                 location=f"vertex {k}")
            try:
                out[k] = float(cols[xi]), float(cols[yi]), float(cols[zi])
            except ValueError as exc:
                raise ParseError(str(exc), path=path,
                                 location=f"vertex {k}") from exc
    return out


def _read_xyz(path: Path) -> np.ndarray:
    rows = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            cols = body.split()
            if len(cols) < 3:
                raise ParseError("need three columns", path=path,
                                 location=f"line {lineno}")
            try:
                rows.append([float(c) for c in cols[:3]])
            except ValueError as exc:
                raise ParseError(str(exc), path=path,
                                 location=f"line {lineno}") from exc
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def write_cloud(pc: SparseVoxelSet, path, fmt: str = None) -> None:
    """Write a voxel set as PLY (binary or ascii) or xyz text.

    Coordinates are emitted as float32, which is exact below 2^24, so a
    write/read cycle is the identity for any in-range voxel set.
    """
    path = Path(path)
    if fmt is None:
        fmt = "xyz" if path.suffix.lower() in (".xyz", ".txt") else "binary"
    if fmt not in ("binary", "ascii", "xyz"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "binary":
        body = pc.coords.astype("<f4").tobytes()
    else:
        body = "".join(f"{x} {y} {z}\n" for x, y, z in pc.coords.tolist()).encode()
    if fmt != "xyz":
        header = (
            "ply\n"
            f"format {'binary_little_endian' if fmt == 'binary' else 'ascii'} 1.0\n"
            f"element vertex {len(pc)}\n"
            "property float x\n"
            "property float y\n"
            "property float z\n"
            "end_header\n"
        )
        body = header.encode() + body
    path.write_bytes(body)


def generate_fixture(kind: str, size: int, seed: int = 0,
                     offset: int = 0) -> SparseVoxelSet:
    """Deterministic synthetic clouds for tests and demos.

    kinds: ``cube`` (size^3 grid), ``sphere-shell`` (radius=size, one voxel
    thick), ``plane`` (size x size sheet), ``random`` (size unique points in
    a 10-bit cube).  ``offset`` translates the geometric shapes, handy for
    fake motion; the random kind folds it into the seed instead so frames
    stay inside the 10-bit cube.  A ``sphere-shell`` costs memory in
    proportion to its surface, not to its bounding cube.  A shape whose
    coordinates would pass 2^16 - 1 is rejected before anything is
    allocated.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if kind in ("cube", "plane", "sphere-shell"):
        # A shell's cells reach 2r: at 2r + 1 the distance is at least r + 0.5.
        top = (2 * size if kind == "sphere-shell" else size - 1) + offset
        if top >= 1 << MAX_BIT_DEPTH:
            raise ValueError(
                f"a {kind} of size {size} at offset {offset} reaches "
                f"coordinate {top}, beyond the {MAX_BIT_DEPTH}-bit limit "
                f"{(1 << MAX_BIT_DEPTH) - 1}")
    if kind == "cube":
        r = np.arange(size)
        coords = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1)
        coords = coords.reshape(-1, 3)
    elif kind == "sphere-shell":
        return SparseVoxelSet(_sphere_shell(size) + offset, assume_sorted=True)
    elif kind == "plane":
        r = np.arange(size)
        xy = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
        coords = np.concatenate([xy, np.zeros((len(xy), 1), dtype=np.int64)],
                                axis=1)
    elif kind == "random":
        if size > 1 << 30:
            raise ValueError(f"a random fixture holds at most {1 << 30} "
                             "points, the cells of the 10-bit cube")
        rng = np.random.default_rng((seed, offset))
        keys = np.empty(0, dtype=np.int64)
        while keys.size < size:
            extra = rng.integers(0, 1024, size=(2 * size, 3))
            keys = np.unique(np.concatenate([keys, pack_coords(extra)]))
        chosen = rng.permutation(keys)[:size]
        return SparseVoxelSet(unpack_coords(np.sort(chosen)), assume_sorted=True)
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return SparseVoxelSet(coords + offset)


def _sphere_shell(radius: int) -> np.ndarray:
    """Cells of [0, 2r+1]^3 whose centre distance from (r+0.5)^3 lies in
    [r-0.5, r+0.5), sorted in x, y, z order.

    Each (x, y) column tests only the z candidates of the shell's lower and
    upper caps: the closed-form interval widened by one cell on each side,
    so float rounding in the interval cannot drop a cell.  The exact float64
    test of the dense (2r+2)^3 form then picks the same cells.
    """
    center = radius + 0.5
    top = 2 * radius + 1
    span = np.arange(top + 1)
    x, y = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    h2 = (x - center) ** 2 + (y - center) ** 2
    hit = h2 < (radius + 0.5) ** 2
    x, y, h2 = x[hit], y[hit], h2[hit]
    # z - center lies in [lo, hi) on the upper cap, in (-hi, -lo] on the
    # lower one, which is the upper cap mirrored by z -> top - z.
    lo = np.sqrt(np.maximum((radius - 0.5) ** 2 - h2, 0.0))
    hi = np.sqrt((radius + 0.5) ** 2 - h2)
    up_first = np.ceil(center + lo).astype(np.int64) - 1
    up_last = np.minimum(np.floor(center + hi).astype(np.int64) + 1, top)
    low_last = top - up_first
    # Near the equator the caps' candidates meet: start the upper run past
    # the lower one, so every column lists each z once, ascending.
    first = np.stack([top - up_last, np.maximum(up_first, low_last + 1)], axis=1)
    last = np.stack([low_last, up_last], axis=1)
    counts = np.maximum(last - first + 1, 0).ravel()
    ends = np.cumsum(counts)
    z = np.arange(ends[-1]) - np.repeat(ends - counts - first.ravel(), counts)
    grid = np.stack([np.repeat(np.repeat(x, 2), counts),
                     np.repeat(np.repeat(y, 2), counts), z], axis=-1)
    dist = np.sqrt(((grid - center) ** 2).sum(axis=-1))
    shell = (dist >= radius - 0.5) & (dist < radius + 0.5)
    return grid[shell]
