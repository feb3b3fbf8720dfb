"""File I/O, fixture, and command-line tests."""
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from linr.cli import build_parser, main, _build_config, _settings
from linr.errors import DepthError, ParseError
from linr.params import unpack_param_block
from linr.pipeline import HEADER_SIZE, GopConfig, container_summary
from linr.plyio import (
    generate_fixture,
    read_cloud,
    read_cloud_report,
    write_cloud,
)
from linr.voxel import SparseVoxelSet


def make_set(points):
    return SparseVoxelSet(np.array(sorted(points), dtype=np.int64))


class TestPlyRead:
    def test_ascii_three_vertices(self, tmp_path):
        p = tmp_path / "tri.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n1 2 3\n4 5 6\n7 8 9\n"
        )
        pc = read_cloud(p)
        assert [tuple(r) for r in pc.coords] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

    def test_duplicate_vertex_reported(self, tmp_path):
        p = tmp_path / "dup.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n1 1 1\n1 1 1\n2 2 2\n"
        )
        pc, report = read_cloud_report(p)
        assert len(pc) == 2
        assert report.duplicates == 1

    def test_extra_vertex_property_skipped(self, tmp_path):
        p = tmp_path / "rgb.ply"
        p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nend_header\n1 2 3 255\n"
        )
        with pytest.warns(UserWarning, match="red"):
            pc = read_cloud(p)
        assert [tuple(r) for r in pc.coords] == [(1, 2, 3)]

    def test_binary_little_endian(self, tmp_path):
        p = tmp_path / "bin.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        body = struct.pack("<6f", 1, 2, 3, 10, 20, 30)
        p.write_bytes(header.encode() + body)
        pc = read_cloud(p)
        assert [tuple(r) for r in pc.coords] == [(1, 2, 3), (10, 20, 30)]

    def test_truncated_binary(self, tmp_path):
        p = tmp_path / "trunc.ply"
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        p.write_bytes(header.encode() + struct.pack("<3f", 1, 2, 3))
        with pytest.raises(ParseError):
            read_cloud(p)

    def test_non_integer_needs_voxelize(self, tmp_path):
        p = tmp_path / "real.xyz"
        p.write_text("0.5 0.25 0.75\n0.1 0.9 0.4\n")
        with pytest.raises(ParseError):
            read_cloud(p)
        pc = read_cloud(p, voxelize=8)
        assert len(pc) == 2
        assert pc.coords.max() <= 255

    def test_depth_error(self, tmp_path):
        p = tmp_path / "deep.xyz"
        p.write_text("2000 0 0\n")
        with pytest.raises(DepthError, match=re.escape(f"{p}: ")):
            read_cloud(p, bit_depth=10)
        assert len(read_cloud(p, bit_depth=11)) == 1
        with pytest.raises(DepthError, match="bit depth must be in"):
            read_cloud(p, bit_depth=17)  # beyond what the encoder writes
        p.write_text("-1 0 0\n")
        with pytest.raises(DepthError, match=re.escape(f"{p}: negative")):
            read_cloud(p)

    @staticmethod
    def three_point_ply(path, fmt, elements):
        """A 3-point PLY whose header declares ``elements`` (header lines)."""
        header = f"ply\nformat {fmt} 1.0\n{elements}end_header\n"
        if fmt == "ascii":
            body = b"1 2 3\n4 5 6\n7 8 9\n"
        else:
            body = struct.pack("<9f", 1, 2, 3, 4, 5, 6, 7, 8, 9)
        path.write_bytes(header.encode() + body)

    XYZ = "property float x\nproperty float y\nproperty float z\n"
    FACE = "element face 1\nproperty list uchar int vertex_indices\n"

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("elements, complaint", [
        ("element vertex -1\n" + XYZ, "non-negative integer count"),
        ("element vertex 3.0\n" + XYZ, "non-negative integer count"),
        (FACE + "element vertex 3\n" + XYZ, "'face' precedes the vertex"),
    ], ids=["negative-count", "float-count", "face-first"])
    def test_bad_element_header(self, tmp_path, fmt, elements, complaint):
        p = tmp_path / "bad.ply"
        self.three_point_ply(p, fmt, elements)
        with pytest.raises(ParseError, match=re.escape(complaint)) as err:
            read_cloud(p)
        assert str(err.value).startswith(f"{p}: ")
        assert str(err.value).endswith("(at line 3)")

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("extra, complaint", [
        ("element vertex 3\n", "second vertex element: 'element vertex 3'"),
        ("property float x\n", "repeated vertex property: 'property float x'"),
    ], ids=["second-vertex", "repeated-property"])
    def test_repeated_vertex_declaration(self, tmp_path, fmt, extra, complaint):
        p = tmp_path / "twice.ply"
        self.three_point_ply(p, fmt, "element vertex 3\n" + self.XYZ + extra)
        with pytest.raises(ParseError, match=re.escape(complaint)) as err:
            read_cloud(p)
        assert str(err.value).startswith(f"{p}: ")
        assert str(err.value).endswith("(at line 7)")

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_element_after_vertex_skipped(self, tmp_path, fmt):
        p = tmp_path / "mesh.ply"
        self.three_point_ply(p, fmt,
                             "element vertex 3\n" + self.XYZ + self.FACE)
        with pytest.warns(UserWarning, match="non-vertex elements"):
            pc = read_cloud(p)
        assert [tuple(r) for r in pc.coords] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

    @pytest.mark.parametrize("header, complaint, line", [
        ("ply\nformat\nelement vertex 0\n" + XYZ + "end_header\n",
         "format line names no format", 2),
        ("ply\nformat ascii 1.0\nelement vertex 0\nproperty float\n" + XYZ
         + "end_header\n", "property needs a type and a name", 4),
        ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "end_header",
         "end_header is not followed by a newline", 7),
    ], ids=["format-without-value", "short-property", "end-header-at-eof"])
    def test_malformed_header_line(self, tmp_path, header, complaint, line):
        p = tmp_path / "bad.ply"
        p.write_text(header)
        with pytest.raises(ParseError, match=re.escape(complaint)) as err:
            read_cloud(p)
        assert str(err.value).startswith(f"{p}: ")
        assert str(err.value).endswith(f"(at line {line})")

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_comment_mentioning_end_header(self, tmp_path, fmt):
        p = tmp_path / "commented.ply"
        header = (f"ply\nformat {fmt} 1.0\ncomment written by end_header-tool\n"
                  "element vertex 1\n" + self.XYZ + "end_header\n")
        body = b"1 2 3\n" if fmt == "ascii" else struct.pack("<3f", 1, 2, 3)
        p.write_bytes(header.encode() + body)
        assert [tuple(r) for r in read_cloud(p).coords] == [(1, 2, 3)]

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "c.pcd"
        p.write_text("hi")
        with pytest.raises(ParseError):
            read_cloud(p)


class TestWriteRead:
    @pytest.mark.parametrize("fmt,suffix", [
        ("binary", ".ply"), ("ascii", ".ply"), ("xyz", ".xyz"),
    ])
    def test_roundtrip(self, tmp_path, fmt, suffix):
        rng = np.random.default_rng(0)
        pc = SparseVoxelSet(rng.integers(0, 1024, size=(300, 3)))
        path = tmp_path / f"cloud{suffix}"
        write_cloud(pc, path, fmt=fmt)
        assert read_cloud(path) == pc

    def test_text_formats_exact_bytes(self, tmp_path):
        pc = make_set([(0, 1, 2), (3, 40, 500)])
        write_cloud(pc, tmp_path / "c.xyz", fmt="xyz")
        write_cloud(pc, tmp_path / "c.ply", fmt="ascii")
        rows = b"0 1 2\n3 40 500\n"
        assert (tmp_path / "c.xyz").read_bytes() == rows
        assert (tmp_path / "c.ply").read_bytes() == (
            b"ply\nformat ascii 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n" + rows)

    def test_empty_set(self, tmp_path):
        pc = SparseVoxelSet(np.zeros((0, 3), dtype=np.int64))
        path = tmp_path / "empty.ply"
        write_cloud(pc, path, fmt="ascii")
        assert len(read_cloud(path)) == 0

    def test_bit_depth_maximum_survives(self, tmp_path):
        pc = make_set([(65535, 65535, 65535), (0, 0, 0)])
        path = tmp_path / "max.ply"
        write_cloud(pc, path, fmt="binary")
        assert read_cloud(path, bit_depth=16) == pc


class TestFixtures:
    def test_cube_count(self):
        assert len(generate_fixture("cube", 4)) == 64

    def test_random_deterministic(self):
        a = generate_fixture("random", 500, seed=7)
        b = generate_fixture("random", 500, seed=7)
        assert a == b and len(a) == 500
        c = generate_fixture("random", 500, seed=8)
        assert a != c

    def test_random_beyond_the_cube_rejected(self, tmp_path, capsys):
        # Raised before anything of that size is allocated.
        size = (1 << 30) + 1
        with pytest.raises(ValueError, match="10-bit cube"):
            generate_fixture("random", size)
        out = tmp_path / "r.ply"
        assert main(["fixture", "--kind", "random", "--size", str(size),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_shape_beyond_memory_rejected(self, tmp_path, capsys):
        # Inside the 16-bit range, but its grid is petabytes: numpy refuses
        # the allocation at once.
        out = tmp_path / "c.ply"
        assert main(["fixture", "--kind", "cube", "--size", "65536",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert not out.exists()

    def test_sphere_shell_matches_brute_force(self):
        r = 20
        pc = generate_fixture("sphere-shell", r)
        count = 0
        center = r + 0.5
        for x in range(2 * r + 2):
            for y in range(2 * r + 2):
                for z in range(2 * r + 2):
                    d = ((x - center) ** 2 + (y - center) ** 2
                         + (z - center) ** 2) ** 0.5
                    if r - 0.5 <= d < r + 0.5:
                        count += 1
        assert len(pc) == count

    @pytest.mark.parametrize("offset", [0, 37])
    def test_sphere_shell_equals_dense_form(self, offset):
        def dense(radius):
            # The (2r+2)^3 form the column-wise generator replaced.
            span = np.arange(2 * radius + 2)
            grid = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1)
            center = radius + 0.5
            dist = np.sqrt(((grid - center) ** 2).sum(axis=-1))
            shell = (dist >= radius - 0.5) & (dist < radius + 0.5)
            return grid[shell].reshape(-1, 3)

        for r in [*range(1, 33), 40, 47]:
            pc = generate_fixture("sphere-shell", r, offset=offset)
            assert np.array_equal(pc.coords, dense(r) + offset), r
            assert np.all(np.diff(pc.keys) > 0), r

    def test_sphere_shell_memory_follows_surface(self):
        # The dense (2r+2)^3 form peaked at about 440 MiB here.
        tracemalloc.start()
        try:
            pc = generate_fixture("sphere-shell", 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pc) == 125_672
        assert peak <= 64 << 20

    @pytest.mark.parametrize("kind,size", [
        ("cube", 65537), ("plane", 70000), ("sphere-shell", 40000),
    ])
    def test_shape_beyond_16_bits_rejected(self, tmp_path, capsys, kind, size):
        # Raised before anything of that size is allocated.
        with pytest.raises(ValueError, match="16-bit limit"):
            generate_fixture(kind, size)
        out = tmp_path / "s.ply"
        assert main(["fixture", "--kind", kind, "--size", str(size),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind,size,last", [
        ("cube", 2, 65534), ("plane", 1, 65535), ("sphere-shell", 1, 65533),
    ])
    def test_shape_offset_up_to_16_bits(self, kind, size, last):
        pc = generate_fixture(kind, size, offset=last)
        assert pc.coords.max() == 65535
        with pytest.raises(ValueError, match="16-bit limit"):
            generate_fixture(kind, size, offset=last + 1)

    def test_plane(self):
        pc = generate_fixture("plane", 8)
        assert len(pc) == 64
        assert np.all(pc.coords[:, 2] == 0)

    def test_offset_translates(self):
        a = generate_fixture("cube", 3)
        b = generate_fixture("cube", 3, offset=5)
        assert np.array_equal(a.coords + 5, b.coords)


class TestCli:
    def encode_args(self, seq, out):
        return ["encode", "--input", str(seq), "--out", str(out),
                "--gop", "4", "--epochs-first", "1", "--bits", "8"]

    @pytest.fixture()
    def sequence(self, tmp_path):
        seq = tmp_path / "seq"
        assert main(["fixture", "--kind", "cube", "--size", "5",
                     "--frames", "3", "--out", str(seq)]) == 0
        return seq

    def test_encode_verify_roundtrip(self, tmp_path, sequence):
        out = tmp_path / "s.linr"
        assert main(self.encode_args(sequence, out)) == 0
        assert out.exists()
        assert main(["verify", "--input", str(out),
                     "--against", str(sequence)]) == 0

    def test_decode_writes_frames(self, tmp_path, sequence):
        out = tmp_path / "s.linr"
        dec = tmp_path / "dec"
        main(self.encode_args(sequence, out))
        assert main(["decode", "--input", str(out), "--out", str(dec)]) == 0
        files = sorted(dec.iterdir())
        assert [f.name for f in files] == [f"frame_{k:04d}.ply" for k in range(3)]
        assert read_cloud(files[0]) == read_cloud(sequence / "frame_0000.ply")

    def test_decode_truncated_fails_without_output(self, tmp_path, sequence):
        out = tmp_path / "s.linr"
        main(self.encode_args(sequence, out))
        trunc = tmp_path / "t.linr"
        trunc.write_bytes(out.read_bytes()[:-5])
        dec = tmp_path / "never"
        assert main(["decode", "--input", str(trunc), "--out", str(dec)]) == 1
        assert not dec.exists()

    def test_verify_ignores_linr_seed(self, tmp_path, sequence, monkeypatch):
        # verify takes no seed, so a seed it would not use cannot fail it.
        out = tmp_path / "s.linr"
        main(self.encode_args(sequence, out))
        monkeypatch.setenv("LINR_SEED", "x")
        assert main(["verify", "--input", str(out),
                     "--against", str(sequence)]) == 0

    def test_verify_against_wrong_cloud(self, tmp_path, sequence):
        out = tmp_path / "s.linr"
        main(self.encode_args(sequence, out))
        other = tmp_path / "other.ply"
        write_cloud(generate_fixture("cube", 4), other)
        assert main(["verify", "--input", str(out),
                     "--against", str(other)]) == 1

    def test_stats_shares_sum_to_one(self, tmp_path, sequence, capsys):
        out = tmp_path / "s.linr"
        main(self.encode_args(sequence, out))
        capsys.readouterr()  # drop the encode chatter
        assert main(["stats", "--input", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Table rows carry two percentages: byte share, then decode time.
        section_shares = []
        for l in lines:
            if l.count("%") == 2:
                section_shares.append(float(l.split("%")[0].split()[-1]))
        assert len(section_shares) == 3  # params, lowest, one scale
        assert sum(section_shares) == pytest.approx(100.0, abs=1e-6)

    def test_stats_counts_payloads_per_scale(self, tmp_path, sequence, capsys):
        out = tmp_path / "s.linr"
        main(self.encode_args(sequence, out))
        capsys.readouterr()
        assert main(["stats", "--input", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = container_summary(out.read_bytes())
        rows = {int(l.split()[1]): l.split()[-1] for l in lines
                if l.startswith("scale ")}
        # Each scale row ends with its count-coded payloads of 8 per frame.
        assert rows == {scale: f"{n}/{8 * summary['frame_count']}"
                        for scale, n in summary["count_payloads"].items()}

    def test_stats_lists_each_group_block(self, tmp_path, sequence, capsys):
        out = tmp_path / "s.linr"
        args = self.encode_args(sequence, out)
        args[args.index("--gop") + 1] = "2"  # groups of 2 + 1 frames
        assert main(args) == 0
        capsys.readouterr()
        assert main(["stats", "--input", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        top = next(k for k, line in enumerate(lines) if line.startswith("group"))
        assert [row.split()[:2] for row in lines[top + 1:]] == [
            ["0", "absolute"], ["1", "delta"]]

    def test_stats_rejects_empty_lowest_block(self, tmp_path, sequence, capsys):
        out = tmp_path / "s.linr"
        main(self.encode_args(sequence, out))
        data = out.read_bytes()
        pos = unpack_param_block(data, HEADER_SIZE)[-1]
        (points,) = struct.unpack_from("<I", data, pos)
        out.write_bytes(data[:pos] + struct.pack("<I", 0)
                        + data[pos + 4 + 6 * points:])
        capsys.readouterr()
        assert main(["stats", "--input", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_stats_csv(self, tmp_path, sequence):
        out = tmp_path / "s.linr"
        csv = tmp_path / "pp.csv"
        main(self.encode_args(sequence, out))
        assert main(["stats", "--input", str(out),
                     "--per-point-csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,z,scale,bits"
        assert len(lines) > 100

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["encode", "--input", "x"])  # missing --out
        assert err.value.code == 2

    def test_missing_input_exit_one(self, tmp_path):
        assert main(["encode", "--input", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.linr")]) == 1

    @pytest.mark.parametrize("flags, config_line", [
        (["--gop", "0"], None),
        ([], "gop = x"),
        (["--bits", "17"], None),
    ])
    def test_invalid_option_exit_one(self, tmp_path, sequence, capsys,
                                     flags, config_line):
        args = self.encode_args(sequence, tmp_path / "o.linr")[:5] + flags
        if config_line is not None:
            cfg = tmp_path / "bad.conf"
            cfg.write_text(config_line + "\n")
            args += ["--config", str(cfg)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.linr").exists()

    @pytest.mark.parametrize("config_line", [
        "warm_start = random",  # an option that no longer exists
        "epoch_first = 0",      # a typo of epochs_first
    ])
    def test_unknown_config_key_exit_one(self, tmp_path, sequence, capsys,
                                         config_line):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("seed = 3\n" + config_line + "\n")
        out = tmp_path / "o.linr"
        args = self.encode_args(sequence, out) + ["--config", str(cfg)]
        assert main(args) == 1
        key = config_line.split()[0]
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: unknown option '{key}'\n")
        assert not out.exists()

    def test_non_integer_value_named(self, tmp_path, sequence, capsys,
                                     monkeypatch):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("seed = 3\nbits = four\n")
        out = tmp_path / "o.linr"
        args = self.encode_args(sequence, out)[:5]
        monkeypatch.delenv("LINR_SEED", raising=False)
        assert main(args + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: option 'bits' needs an integer, not 'four'\n")
        monkeypatch.setenv("LINR_SEED", "1.5")
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: LINR_SEED: option 'seed' needs an integer, not '1.5'\n")
        assert not out.exists()

    def test_config_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 5\ngop = 7\n# comment\nepochs-first = 3\n")
        parser = build_parser()
        args = parser.parse_args([
            "encode", "--input", "x", "--out", "y",
            "--config", str(cfg), "--gop", "9",
        ])
        monkeypatch.delenv("LINR_SEED", raising=False)
        config = _build_config(_settings(args))
        assert config.gop_size == 9          # flag beats file
        assert config.seed == 5              # file beats default
        assert config.epochs_first == 3
        assert config.epochs_rest == 1       # default
        monkeypatch.setenv("LINR_SEED", "11")
        config = _build_config(_settings(args))
        assert config.seed == 11             # env beats file
        args2 = parser.parse_args([
            "encode", "--input", "x", "--out", "y",
            "--config", str(cfg), "--seed", "2",
        ])
        config = _build_config(_settings(args2))
        assert config.seed == 2              # flag beats env

    def test_fixture_seed_precedence(self, tmp_path, monkeypatch):
        def written(*seed_args):
            out = tmp_path / "r.ply"
            assert main(["fixture", "--kind", "random", "--size", "200",
                         "--out", str(out), *seed_args]) == 0
            return read_cloud(out)

        monkeypatch.delenv("LINR_SEED", raising=False)
        assert written() == generate_fixture("random", 200, seed=0)
        monkeypatch.setenv("LINR_SEED", "5")
        assert written() == generate_fixture("random", 200, seed=5)
        assert written("--seed", "2") == generate_fixture("random", 200, seed=2)

    def test_rejected_fixture_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "frames"
        assert main(["fixture", "--kind", "cube", "--size", "0",
                     "--frames", "3", "--out", str(out)]) == 1
        assert "size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_default_bits_reach_the_container(self, tmp_path, sequence):
        out = tmp_path / "s.linr"
        assert main(["encode", "--input", str(sequence), "--out", str(out),
                     "--gop", "4", "--epochs-first", "1"]) == 0
        summary = container_summary(out.read_bytes())
        assert summary["param_bits_width"] == GopConfig().bits == 4

    def test_fixture_single_file(self, tmp_path):
        out = tmp_path / "ball.ply"
        assert main(["fixture", "--kind", "sphere-shell", "--size", "6",
                     "--out", str(out)]) == 0
        assert len(read_cloud(out)) > 100
