"""Command-line surface: encode, decode, verify, stats, fixture.

Option precedence: command-line flag, then the LINR_SEED environment
variable (seed only, for commands that take ``--seed``), then the
``key = value`` config file, then the built-in default.  Output files are
written to a temporary sibling and renamed into place, so failures never
leave partial artifacts.

Exit codes: 0 success, 1 failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import LinrError
from .network import NUM_STAGES
from .pipeline import (
    FILE_EXTENSION,
    GopConfig,
    container_summary,
    decode_sequence,
    encode_sequence,
    verify,
)
from .plyio import generate_fixture, read_cloud_report, write_cloud

# Option name -> GopConfig field, for the options that configure coding.
_CODING_OPTIONS = {
    "gop": "gop_size",
    "epochs_first": "epochs_first",
    "epochs_rest": "epochs_rest",
    "bits": "bits",
    "seed": "seed",
    "bit_depth": "bit_depth",
    "stop_at": "stop_at",
}
# Every key a config file may set.
_FILE_KEYS = (*_CODING_OPTIONS, "voxelize")

_CLOUD_SUFFIXES = (".ply", ".xyz", ".txt")


def _integer(text: str, where: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise LinrError(f"{where}: option '{key}' needs an integer, "
                        f"not {text!r}") from None


def _parse_config_file(path: Path) -> dict:
    """The file's options; the value ``none`` leaves an option unset."""
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise LinrError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in body.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FILE_KEYS:
            raise LinrError(f"{path}:{lineno}: unknown option '{key}'")
        out[key] = (None if value == "none"
                    else _integer(value, f"{path}:{lineno}", key))
    return out


def _settings(args) -> dict:
    """Every option the user set, by precedence: flag, LINR_SEED (seed
    only, for commands with a ``--seed`` option), then the ``--config``
    file, read once.  Options left unset are absent, so their defaults
    live in one place, ``GopConfig``."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _parse_config_file(Path(args.config))
    env_seed = os.environ.get("LINR_SEED") if hasattr(args, "seed") else None
    out = {}
    for key in _FILE_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key == "seed" and env_seed is not None:
            out[key] = _integer(env_seed, "LINR_SEED", key)
        elif file_cfg.get(key) is not None:
            out[key] = file_cfg[key]
    return out


def _build_config(settings: dict) -> GopConfig:
    return GopConfig(**{field: settings[key]
                        for key, field in _CODING_OPTIONS.items()
                        if key in settings})


def _atomic_write(outputs) -> None:
    """Write each ``(path, write)`` of the list ``outputs``: ``write(tmp)``
    fills a temporary sibling of ``path``.  Every file is written before any
    is renamed into place, so a failure leaves none of them behind."""
    tmps = []
    try:
        for path, write in outputs:
            tmps.append(path.with_name(path.name + f".tmp{os.getpid()}"))
            write(tmps[-1])
        for tmp, (path, _) in zip(tmps, outputs):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _bytes_writer(data: bytes):
    return lambda tmp: tmp.write_bytes(data)


def _cloud_writer(pc, fmt: str):
    return lambda tmp: write_cloud(pc, tmp, fmt=fmt)


def _gather_frames(input_path: str, settings: dict):
    path = Path(input_path)
    if path.is_dir():
        files = sorted(
            p for p in path.iterdir() if p.suffix.lower() in _CLOUD_SUFFIXES
        )
        if not files:
            raise LinrError(f"{path}: no point-cloud files found")
    elif path.exists():
        files = [path]
    else:
        raise LinrError(f"{path}: no such file or directory")
    bit_depth = settings.get("bit_depth", GopConfig.bit_depth)
    voxelize = settings.get("voxelize")
    frames = []
    for f in files:
        pc, report = read_cloud_report(f, bit_depth=bit_depth, voxelize=voxelize)
        if report.duplicates:
            print(f"note: {f}: collapsed {report.duplicates} duplicate points",
                  file=sys.stderr)
        frames.append(pc)
    return frames, files


def _cmd_encode(args) -> int:
    settings = _settings(args)
    config = _build_config(settings)
    frames, _ = _gather_frames(args.input, settings)
    data, report = encode_sequence(frames, config)
    out = Path(args.out)
    outputs = [(out, _bytes_writer(data))]
    if args.report:
        outputs.append((Path(args.report), _bytes_writer(
            json.dumps(report.to_dict(), indent=2).encode())))
    _atomic_write(outputs)
    alloc = report.allocation()
    print(f"wrote {out} ({len(data)} bytes, {report.bpp:.3f} bpp, "
          f"{len(frames)} frames, {report.num_scales} scales)")
    print(f"  encode {report.encode_seconds:.2f}s "
          f"(training {report.training_seconds:.2f}s, "
          f"coding {report.coding_seconds:.2f}s)")
    print(f"  allocation: params {100 * alloc['decoder_params']:.2f}%  "
          f"lowest {100 * alloc['lowest_scale']:.2f}%  "
          f"occupancy {100 * alloc['occupancy']:.2f}%")
    return 0


def _cmd_decode(args) -> int:
    data = Path(args.input).read_bytes()
    frames, _ = decode_sequence(data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".xyz" if args.format == "xyz" else ".ply"
    fmt = {"ply": "binary", "ply-ascii": "ascii", "xyz": "xyz"}[args.format]
    _atomic_write([(out_dir / f"frame_{k:04d}{suffix}", _cloud_writer(frame, fmt))
                   for k, frame in enumerate(frames)])
    print(f"decoded {len(frames)} frames into {out_dir}")
    return 0


def _cmd_verify(args) -> int:
    data = Path(args.input).read_bytes()
    frames, _ = _gather_frames(args.against, _settings(args))
    result = verify(data, frames)
    print(("lossless: " if result.ok else "MISMATCH: ") + result.message)
    return 0 if result.ok else 1


def _cmd_stats(args) -> int:
    data = Path(args.input).read_bytes()
    summary = container_summary(data)
    frames, stats = decode_sequence(data,
                                    collect_stats=bool(args.per_point_csv))
    points = sum(len(f) for f in frames)
    # (name, bytes, decode seconds, payloads coded from counts) per section.
    sections = [("decoder params", summary["param_bytes"], stats.param_seconds, ""),
                ("lowest scale", summary["lowest_bytes"], stats.lowest_seconds, "")]
    payloads = summary["frame_count"] * NUM_STAGES
    for scale in sorted(summary["scale_bytes"], reverse=True):
        sections.append((f"scale {scale} occupancy",
                         summary["scale_bytes"][scale],
                         stats.scale_seconds.get(scale, 0.0),
                         f"{summary['count_payloads'][scale]}/{payloads}"))
    body = sum(b for _, b, _, _ in sections)
    print(f"{summary['frame_count']} frames, {points} points, "
          f"{summary['file_bytes']} bytes "
          f"({8 * summary['file_bytes'] / points:.3f} bpp), "
          f"{summary['gop_count']} groups, "
          f"container header {summary['header_bytes']} bytes")
    print(f"{'section':<22}{'bytes':>10}{'share':>9}{'dec time':>10}"
          f"{'from counts':>13}")
    t_total = max(stats.total_seconds, 1e-9)
    for name, nbytes, t, counted in sections:
        print(f"{name:<22}{nbytes:>10}{100 * nbytes / body:>8.2f}%"
              f"{100 * t / t_total:>9.2f}%{counted:>13}")
    print(f"decode time {stats.total_seconds:.3f}s")
    print(f"{'group':<8}{'param block':<14}{'bytes':>10}")
    for k, (kind, nbytes) in enumerate(zip(summary["gop_param_kinds"],
                                           summary["gop_param_bytes"])):
        print(f"{k:<8}{kind:<14}{nbytes:>10}")
    if args.per_point_csv:
        rows = ["x,y,z,scale,bits"]
        for coords, scale, costs in stats.point_costs:
            for (x, y, z), c in zip(coords, costs):
                rows.append(f"{x},{y},{z},{scale},{c:.6f}")
        _atomic_write([(Path(args.per_point_csv),
                        _bytes_writer("\n".join(rows).encode() + b"\n"))])
        print(f"wrote per-point bit costs to {args.per_point_csv}")
    return 0


def _cmd_fixture(args) -> int:
    if args.frames < 1:
        raise LinrError("--frames must be >= 1")
    seed = _settings(args).get("seed", 0)
    if args.frames == 1:
        pc = generate_fixture(args.kind, args.size, seed=seed)
        fmt = "xyz" if args.out.endswith((".xyz", ".txt")) else "binary"
        _atomic_write([(Path(args.out), _cloud_writer(pc, fmt))])
        print(f"wrote {args.out} ({len(pc)} points)")
        return 0
    out_dir = Path(args.out)
    # Generate first: a rejected --size must not leave an empty directory.
    outputs = [
        (out_dir / f"frame_{k:04d}.ply",
         _cloud_writer(generate_fixture(args.kind, args.size, seed=seed, offset=k),
                       "binary"))
        for k in range(args.frames)
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(outputs)
    print(f"wrote {args.frames} frames into {out_dir}")
    return 0


def _add_config_args(sub, with_coding=True):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--bit-depth", dest="bit_depth", type=int)
    sub.add_argument("--voxelize", type=int,
                     help="re-quantize real coordinates into this many bits")
    if with_coding:
        sub.add_argument("--gop", type=int, help="frames per group")
        sub.add_argument("--epochs-first", dest="epochs_first", type=int)
        sub.add_argument("--epochs-rest", dest="epochs_rest", type=int,
                         help="epoch budget of each later (warm) group; a "
                              "group that provably cannot change the "
                              "transmitted parameters runs none")
        sub.add_argument("--bits", type=int, help="parameter quantization width")
        sub.add_argument("--seed", type=int)
        sub.add_argument("--stop-at", dest="stop_at", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linr",
        description="Lossless point-cloud geometry codec with a per-group "
                    "overfitted occupancy model",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    enc = subs.add_parser("encode", help=f"compress frames into a {FILE_EXTENSION} file")
    enc.add_argument("--input", required=True,
                     help="cloud file or directory of numbered frames")
    enc.add_argument("--out", required=True)
    enc.add_argument("--report", help="write the encode report as JSON")
    _add_config_args(enc)
    enc.set_defaults(func=_cmd_encode)

    dec = subs.add_parser("decode", help="reconstruct frames from a container")
    dec.add_argument("--input", required=True)
    dec.add_argument("--out", required=True, help="output directory")
    dec.add_argument("--format", choices=["ply", "ply-ascii", "xyz"],
                     default="ply")
    dec.set_defaults(func=_cmd_decode)

    ver = subs.add_parser("verify", help="decode and compare against originals")
    ver.add_argument("--input", required=True)
    ver.add_argument("--against", required=True,
                     help="original cloud file or directory")
    _add_config_args(ver, with_coding=False)
    ver.set_defaults(func=_cmd_verify)

    sta = subs.add_parser("stats", help="bitstream allocation and timing table")
    sta.add_argument("--input", required=True)
    sta.add_argument("--per-point-csv", dest="per_point_csv",
                     help="write per-point bit costs as CSV")
    sta.set_defaults(func=_cmd_stats)

    fix = subs.add_parser("fixture", help="generate synthetic test clouds")
    fix.add_argument("--kind", required=True,
                     choices=["cube", "sphere-shell", "random", "plane"])
    fix.add_argument("--size", required=True, type=int)
    fix.add_argument("--seed", type=int, help="default: LINR_SEED, else 0")
    fix.add_argument("--frames", type=int, default=1,
                     help="write this many translated frames into a directory")
    fix.add_argument("--out", required=True)
    fix.set_defaults(func=_cmd_fixture)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LinrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
