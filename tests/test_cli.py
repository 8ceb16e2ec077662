import errno
import gzip
import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbmseg
from gbmseg import cli
from gbmseg.cli import build_parser, main
from gbmseg.fusion import StapleConfig
from gbmseg.harness import read_labels, read_metrics_csv, write_metrics_csv
from gbmseg.metrics import CaseMetrics
from gbmseg.nifti_io import (DT_FLOAT32, DT_INT16, DT_UINT8, NiftiHeader, read_volume,
                              write_volume)
from gbmseg.postprocess import DEFAULT_ET_THRESHOLD
from gbmseg.preprocess import DEFAULT_TARGET_DIMS
from gbmseg.volume import LabelVolume, VoxelGrid, compose_regions

from oracles import dice_bruteforce, hd95_full_grid
from phantoms import ball, mask_dice, nested_label_phantom, noisy_rater_labels

GOLDEN_DIR = Path(__file__).with_name("golden")


def write_labels(path, labels: LabelVolume):
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


def add_uncompressed_copy(gz_path: Path) -> tuple[Path, Path]:
    """Write ``x.nii`` beside ``x.nii.gz`` with the same volume: two files for one case."""
    plain = gz_path.with_suffix("")
    plain.write_bytes(gzip.decompress(gz_path.read_bytes()))
    return gz_path, plain


def write_brain_with(tmp_path, bad) -> Path:
    """An 8^3 float32 volume whose 4^3 brain holds one voxel set to ``bad``."""
    values = np.zeros((8, 8, 8), np.float32)
    values[2:6, 2:6, 2:6] = np.random.default_rng(8).random((4, 4, 4)) + 0.5
    values[3, 4, 5] = bad
    src = tmp_path / "t1.nii"
    write_volume(src, NiftiHeader.for_grid(VoxelGrid(values), DT_FLOAT32), VoxelGrid(values))
    return src


def disk_full_from_call(monkeypatch, name: str, n: int) -> None:
    """From its n-th call on, ``cli.<name>`` writes its file and then raises
    ENOSPC, as a full disk can when the file is closed."""
    real, calls = getattr(cli, name), itertools.count(1)

    def write(*args):
        real(*args)
        if next(calls) >= n:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, name, write)


def entries(directory: Path) -> dict[str, bytes]:
    """Every entry under a directory, hidden ones included: file bytes, or
    b"<dir>" for a directory."""
    return {str(p.relative_to(directory)): b"<dir>" if p.is_dir() else p.read_bytes()
            for p in sorted(directory.rglob("*"))}


@pytest.fixture
def phantom_dirs(tmp_path):
    """Three method directories plus ground truth for two cases."""
    rng = np.random.default_rng(23)
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    method_dirs = [tmp_path / f"method{i}" for i in range(3)]
    for d in method_dirs:
        d.mkdir()
    for case_idx in range(2):
        cid = f"case_{case_idx:03d}"
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        write_labels(gt_dir / f"{cid}.nii.gz", truth)
        for d in method_dirs:
            write_labels(d / f"{cid}.nii.gz", noisy_rater_labels(truth, rng, miss=0.05, add=0.005))
    return method_dirs, gt_dir


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "preprocess" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self):
        assert main(["evaluate", "--pred", "x"]) == 1

    def test_data_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code = main(["evaluate", "--pred", str(tmp_path / "a"), "--gt", str(tmp_path / "b"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDefaults:
    def test_parser_defaults_are_the_library_defaults(self):
        parser = build_parser()
        fuse = parser.parse_args(["fuse", "m0", "--out", "o"])
        staple = StapleConfig()
        assert fuse.et_threshold == DEFAULT_ET_THRESHOLD
        assert (fuse.staple_max_iter, fuse.staple_tol) == (staple.max_iter, staple.tol)
        preprocess = parser.parse_args(["preprocess", "t1.nii", "--out", "o"])
        assert tuple(preprocess.target) == DEFAULT_TARGET_DIMS


class TestNumericFlags:
    """Out-of-range numbers are usage errors (exit 1), caught before any work."""

    @pytest.mark.parametrize("flag,value", [
        ("--et-threshold", "-1"),
        ("--staple-max-iter", "0"),
        ("--staple-tol", "0"),
        ("--staple-tol", "-0.5"),
        ("--staple-tol", "nan"),
    ])
    def test_bad_fuse_flag_is_usage_error(self, phantom_dirs, tmp_path, capsys, flag, value):
        method_dirs, _ = phantom_dirs
        out = tmp_path / "fused"
        code = main(["fuse", *map(str, method_dirs), "--out", str(out), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument {flag}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target", [["-3", "4", "4"], ["4", "0", "4"]])
    def test_bad_preprocess_target_is_usage_error(self, tmp_path, capsys, target):
        src = tmp_path / "t1.nii"
        grid = VoxelGrid(ball((8, 8, 8), 3.0).astype(np.float64))
        write_volume(src, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
        out = tmp_path / "pre"
        code = main(["preprocess", str(src), "--out", str(out), "--target", *target])
        err = capsys.readouterr().err
        assert code == 1
        assert "argument --target" in err and "all-zero" not in err
        assert not out.exists()

    @pytest.mark.parametrize("x,code", [("32767", 0), ("32768", 1)])
    def test_target_above_the_nifti_dim_limit_is_usage_error(self, tmp_path, capsys, x, code):
        # 32768 once built the grid, failed at write with exit 2 and left an
        # empty --out: NIfTI-1 stores each dim in an int16
        src = write_brain_with(tmp_path, 1.0)
        out = tmp_path / "out2"
        assert main(["preprocess", str(src), "--out", str(out), "--target", x, "2", "2"]) == code
        if code:
            assert "argument --target" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert read_volume(out / src.name)[1].dims == (32767, 2, 2)

    def test_negative_augment_seed_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.nii"
        grid = VoxelGrid(ball((8, 8, 8), 3.0).astype(np.float64))
        write_volume(src, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
        out = tmp_path / "aug.nii"
        code = main(["augment", str(src), "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "argument --seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_et_threshold_is_accepted(self, phantom_dirs, tmp_path):
        method_dirs, _ = phantom_dirs
        assert main(["fuse", *map(str, method_dirs), "--out", str(tmp_path / "f"),
                     "--et-threshold", "0"]) == 0


class TestPreprocess:
    def test_crops_normalizes_and_writes(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        values = np.zeros((24, 24, 20), dtype=np.float64)
        values[4:20, 3:21, 2:18] = rng.random((16, 18, 16)) + 0.5
        src = tmp_path / "t1.nii.gz"
        grid = VoxelGrid(values)
        write_volume(src, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
        out_dir = tmp_path / "pre"
        code = main(["preprocess", str(src), "--out", str(out_dir),
                     "--target", "20", "20", "20"])
        assert code == 0
        assert capsys.readouterr().out == (
            f"preprocessed 1 volume(s) to {out_dir} (brain box (16, 18, 16))\n")
        _, result = read_volume(out_dir / "t1.nii.gz")
        assert result.dims == (20, 20, 20)
        brain = result.values[result.values != 0]
        assert abs(brain.mean()) < 1e-4  # float32 storage wiggle
        assert abs(brain.std() - 1.0) < 1e-4

    def test_all_zero_input_is_data_error(self, tmp_path):
        src = tmp_path / "zero.nii"
        grid = VoxelGrid(np.zeros((8, 8, 8)))
        write_volume(src, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
        assert main(["preprocess", str(src), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensity_is_data_error(self, tmp_path, capsys, bad):
        # one bad voxel once made every brain voxel of the output NaN
        src = write_brain_with(tmp_path, bad)
        out = tmp_path / "pre"
        assert main(["preprocess", str(src), "--out", str(out), "--target", "8", "8", "8"]) == 2
        assert "1 non-finite" in capsys.readouterr().err
        assert not (out / src.name).exists()

    @pytest.mark.parametrize("second", ["other_dims", "all_zero"])
    def test_unusable_inputs_leave_no_output_directory(self, tmp_path, capsys, second):
        # both failures were reported with exit 2, but only after --out was created
        first = write_brain_with(tmp_path, 1.0)
        values = np.zeros((8, 8, 9) if second == "other_dims" else (8, 8, 8), np.float32)
        src = tmp_path / "t2.nii"
        write_volume(src, NiftiHeader.for_grid(VoxelGrid(values), DT_FLOAT32), VoxelGrid(values))
        inputs = [first, src] if second == "other_dims" else [src]
        out = tmp_path / "pre"
        assert main(["preprocess", *map(str, inputs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("dims" if second == "other_dims" else "every voxel is zero") in err
        assert not out.exists()

    def test_non_finite_second_input_leaves_no_output_directory(self, tmp_path, capsys):
        # a.nii was once written before b.nii's NaN was found, and the
        # message did not say which input held it
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_brain_with(tmp_path / "a", 1.0).rename(tmp_path / "a.nii")
        second = write_brain_with(tmp_path / "b", np.nan).rename(tmp_path / "b.nii")
        out = tmp_path / "out"
        assert main(["preprocess", str(first), str(second), "--out", str(out),
                     "--target", "8", "8", "8"]) == 2
        err = capsys.readouterr().err
        assert f"{second}: 1 non-finite" in err and str(first) not in err
        assert not out.exists()

    def test_inputs_of_other_dims_are_named(self, tmp_path, capsys):
        # once only "geometry differs: dims (8, 8, 8) vs (8, 8, 9)", naming neither file
        first, second = tmp_path / "a.nii", tmp_path / "b.nii"
        for path, dims in ((first, (8, 8, 8)), (second, (8, 8, 9))):
            grid = VoxelGrid(np.ones(dims, np.float32))
            write_volume(path, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
        out = tmp_path / "o"
        assert main(["preprocess", str(first), str(second), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"gbmseg: error: {first} and {second}: "
                                           f"geometry differs: dims (8, 8, 8) vs (8, 8, 9)\n")
        assert not out.exists()

    def test_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # a.nii was once left in --out when writing b.nii failed
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_brain_with(tmp_path / "a", 1.0).rename(tmp_path / "a.nii")
        second = write_brain_with(tmp_path / "b", 2.0).rename(tmp_path / "b.nii")
        disk_full_from_call(monkeypatch, "write_volume", 2)
        out = tmp_path / "new" / "pre"
        assert main(["preprocess", str(first), str(second), "--out", str(out),
                     "--target", "8", "8", "8"]) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and captured.out == ""
        assert not (tmp_path / "new").exists()

    def test_output_beside_its_other_spelling_is_data_error(self, tmp_path, capsys):
        # out/t1.nii.gz was once written beside an earlier run's out/t1.nii
        src = write_brain_with(tmp_path, 1.0).rename(tmp_path / "t1.nii.gz")
        out = tmp_path / "pre"
        out.mkdir()
        (out / "t1.nii").write_bytes(b"earlier run")
        assert main(["preprocess", str(src), "--out", str(out), "--target", "8", "8", "8"]) == 2
        err = capsys.readouterr().err
        assert f"output {out / 't1.nii.gz'} would be a second file beside {out / 't1.nii'}" in err
        assert entries(out) == {"t1.nii": b"earlier run"}

    def test_no_normalize_copies_a_nan_through(self, tmp_path):
        src = write_brain_with(tmp_path, np.nan)
        out = tmp_path / "pre"
        assert main(["preprocess", str(src), "--out", str(out), "--target", "8", "8", "8",
                     "--no-normalize"]) == 0
        _, grid = read_volume(out / src.name)
        assert np.isnan(grid.values).sum() == 1 and np.count_nonzero(grid.values) == 64


    def test_repeated_output_name_is_data_error(self, tmp_path, capsys):
        # a/t1.nii.gz and b/t1.nii.gz were once both written to one output
        # file, b's over a's, with exit 0 and "preprocessed 2 volume(s)"
        srcs = []
        for sub, scale in (("a", 1.0), ("b", 2.0)):
            values = np.zeros((8, 8, 8))
            values[2:6, 2:6, 2:6] = scale
            (tmp_path / sub).mkdir()
            srcs.append(tmp_path / sub / "t1.nii.gz")
            write_volume(srcs[-1], NiftiHeader.for_grid(VoxelGrid(values), DT_FLOAT32),
                         VoxelGrid(values))
        out = tmp_path / "pre"
        assert main(["preprocess", *map(str, srcs), "--out", str(out), "--target", "8", "8", "8",
                     "--no-normalize"]) == 2
        captured = capsys.readouterr()
        assert str(srcs[0]) in captured.err and str(srcs[1]) in captured.err
        assert captured.out == "" and not list(out.glob("*"))

    @pytest.mark.parametrize("out", ["d", "./d/"])
    def test_output_over_an_input_is_data_error(self, tmp_path, capsys, monkeypatch, out):
        # preprocess d/t1.nii --out d once wrote the fitted volume over d/t1.nii
        (tmp_path / "d").mkdir()
        src = write_brain_with(tmp_path / "d", 1.0)
        before = src.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["preprocess", "d/t1.nii", "--out", out, "--target", "6", "6", "6"]) == 2
        captured = capsys.readouterr()
        assert "d/t1.nii" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and src.read_bytes() == before


class TestAugment:
    def test_writes_volume_and_prints_spec(self, tmp_path, capsys):
        src = tmp_path / "in.nii"
        grid = VoxelGrid(np.random.default_rng(4).random((12, 12, 12)))
        write_volume(src, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
        out = tmp_path / "aug.nii.gz"
        assert main(["augment", str(src), "--seed", "7", "--out", str(out)]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["seed"] == 7
        assert 0.0 <= spec["rotation_deg"] <= 30.0
        assert out.exists()

    def test_label_payload_preserves_label_set(self, tmp_path, capsys):
        src = tmp_path / "lab.nii"
        write_labels(src, nested_label_phantom(dims=(12, 12, 12), wt_radius=4,
                                               tc_radius=3, et_radius=2))
        out = tmp_path / "aug.nii"
        assert main(["augment", str(src), "--seed", "3", "--out", str(out), "--labels"]) == 0
        _, grid = read_volume(out)
        assert set(np.unique(grid.values)) <= {0, 1, 2, 4}

    @pytest.mark.parametrize("value, code", [(300, DT_INT16), (2.5, DT_FLOAT32),
                                             (np.nan, DT_FLOAT32)])
    def test_foreign_label_is_data_error(self, tmp_path, capsys, value, code):
        # these were once written as 44 (uint8 wrap), 2 and a warned cast
        labels = np.zeros((6, 6, 6))
        labels[2:4, 2:4, 2:4] = 2
        labels[3, 3, 3] = value
        src = tmp_path / "lab.nii"
        write_volume(src, NiftiHeader.for_grid(VoxelGrid(labels), code), VoxelGrid(labels))
        out = tmp_path / "aug.nii"
        assert main(["augment", str(src), "--seed", "3", "--out", str(out), "--labels"]) == 2
        assert "labels outside {0,1,2,4}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_intensity_is_data_error(self, tmp_path, capsys):
        src = write_brain_with(tmp_path, np.nan)
        out = tmp_path / "aug.nii"
        assert main(["augment", str(src), "--seed", "3", "--out", str(out)]) == 2
        assert "1 non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_output_over_the_input_is_data_error(self, tmp_path, capsys):
        # augment a.nii.gz --labels --out a.nii.gz once replaced the scan with its augmented copy
        src = tmp_path / "a.nii.gz"
        write_labels(src, nested_label_phantom(dims=(8, 8, 8), wt_radius=3, tc_radius=2,
                                               et_radius=1))
        before = src.read_bytes()
        out = tmp_path / "." / "a.nii.gz"
        assert main(["augment", str(src), "--seed", "1", "--labels", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert str(src) in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and src.read_bytes() == before

    def test_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # the output was once left in place, whole or in part, when its write failed
        src = write_brain_with(tmp_path, 1.0)
        before = entries(tmp_path)
        disk_full_from_call(monkeypatch, "write_volume", 1)
        assert main(["augment", str(src), "--seed", "3", "--out", str(tmp_path / "aug.nii")]) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and captured.out == ""
        assert entries(tmp_path) == before

    def test_stdout_golden_bytes(self, tmp_path, capsys):
        src = tmp_path / "lab.nii"
        write_labels(src, nested_label_phantom(dims=(12, 12, 12), wt_radius=4,
                                               tc_radius=3, et_radius=2))
        out = str(tmp_path / "aug.nii")
        assert main(["augment", str(src), "--seed", "9", "--out", out]) == 0
        assert main(["augment", str(src), "--seed", "11", "--out", out, "--labels"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "augment_stdout.txt").read_text("utf-8")


class TestFuse:
    @pytest.mark.parametrize("method", ["staple", "vote", "mean"])
    def test_fuses_common_cases(self, phantom_dirs, tmp_path, method, capsys):
        method_dirs, gt_dir = phantom_dirs
        out_dir = tmp_path / f"fused_{method}"
        code = main(["fuse", *map(str, method_dirs), "--method", method,
                     "--out", str(out_dir), "--et-threshold", "10"])
        assert code == 0
        outputs = sorted(p.name for p in out_dir.iterdir())
        assert outputs == ["case_000.nii.gz", "case_001.nii.gz"]
        _, fused = read_volume(out_dir / "case_000.nii.gz")
        _, truth = read_volume(gt_dir / "case_000.nii.gz")
        assert mask_dice(fused.values > 0, truth.values > 0) >= 90.0

    def test_fuse_loads_no_scipy(self, phantom_dirs, tmp_path):
        # fuse needs only NumPy; importing SciPy doubled its start-up time.
        method_dirs, _ = phantom_dirs
        script = (
            "import contextlib, io, json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "import gbmseg.fusion, gbmseg.metrics, gbmseg.harness, gbmseg.preprocess, gbmseg.cli\n"
            "loaded = {'import': scipy_modules()}\n"
            "runs = {'fuse --help': ['fuse', '--help']}\n"
            "for method in ('staple', 'vote', 'mean'):\n"
            "    runs[method] = ['fuse', *sys.argv[2:], '--method', method,\n"
            "                    '--out', f'{sys.argv[1]}/{method}']\n"
            "for step, argv in runs.items():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        loaded[step] = [gbmseg.cli.main(argv), scipy_modules()]\n"
            "print(json.dumps(loaded))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gbmseg.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path), *map(str, method_dirs)],
                              env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == {
            "import": [], "fuse --help": [0, []], "staple": [0, []], "vote": [0, []], "mean": [0, []],
        }
        assert sorted(p.name for p in (tmp_path / "staple").iterdir()) == [
            "case_000.nii.gz", "case_001.nii.gz"]

    def test_single_method_dir_with_staple_is_data_error(self, phantom_dirs, tmp_path):
        method_dirs, _ = phantom_dirs
        code = main(["fuse", str(method_dirs[0]), "--method", "staple",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_staple_over_one_method_dir_fails_before_creating_out(self, phantom_dirs,
                                                                  tmp_path, capsys):
        # once "case case_000: need >= 2 method predictions, got 1", after --out was created
        method_dirs, _ = phantom_dirs
        out = tmp_path / "new"
        assert main(["fuse", str(method_dirs[0]), "--method", "staple", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "2 method directories, got 1" in err and "case" not in err
        assert not out.exists()

    def test_truncated_gzip_input_is_data_error(self, phantom_dirs, tmp_path, capsys):
        method_dirs, _ = phantom_dirs
        victim = method_dirs[1] / "case_001.nii.gz"
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        code = main(["fuse", *map(str, method_dirs), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err and "Traceback" not in err
        assert "case case_001:" in err

    @pytest.mark.parametrize("patches", [
        [(80, "f", float("nan")), (254, "h", 0)],  # pixdim[1], sform_code: no sform
        [(280, "f", float("nan"))],  # srow_x[0]
        [(108, "f", float("inf"))],  # vox_offset
    ], ids=["nan_pixdim", "nan_srow", "inf_vox_offset"])
    def test_non_finite_header_is_data_error(self, phantom_dirs, tmp_path, capsys, patches):
        method_dirs, _ = phantom_dirs
        victim = method_dirs[1] / "case_001.nii.gz"
        blob = bytearray(gzip.decompress(victim.read_bytes()))
        for offset, fmt, value in patches:
            struct.pack_into("<" + fmt, blob, offset, value)
        victim.write_bytes(gzip.compress(bytes(blob)))
        code = main(["fuse", *map(str, method_dirs), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "case case_001:" in err and "malformed header" in err

    def test_staple_without_background_mass_is_data_error(self, tmp_path, capsys):
        # 4 of 5 raters label both voxels edema: STAPLE weighs every WT voxel 1.0.
        method_dirs = [tmp_path / f"m{i}" for i in range(5)]
        for d, label in zip(method_dirs, [2, 2, 2, 2, 0]):
            d.mkdir()
            write_labels(d / "c.nii.gz", LabelVolume(np.full((2, 1, 1), label, np.uint8)))
        code = main(["fuse", *map(str, method_dirs), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err and "Traceback" not in err

    def test_unconverged_staple_warns_without_touching_stdout(self, phantom_dirs, tmp_path,
                                                              capsys, caplog):
        method_dirs, _ = phantom_dirs
        out = tmp_path / "x"
        code = main(["fuse", *map(str, method_dirs), "--out", str(out), "--staple-max-iter", "1"])
        assert code == 0
        assert capsys.readouterr().out == f"fused 2 case(s) with method=staple to {out}\n"
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings and all("without converging" in w for w in warnings)

    def test_two_files_for_one_case_is_data_error(self, phantom_dirs, tmp_path, capsys):
        method_dirs, _ = phantom_dirs
        gz, plain = add_uncompressed_copy(method_dirs[1] / "case_001.nii.gz")
        out = tmp_path / "x"
        code = main(["fuse", *map(str, method_dirs), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(plain) in err and str(gz) in err and "Traceback" not in err
        assert not (out / "case_001.nii.gz").exists()

    def test_geometry_error_names_the_case_and_the_field(self, tmp_path, capsys):
        # once only "geometry differs: dims (6, 6, 6) vs (6, 6, 6)"
        method_dirs = [tmp_path / f"m{i}" for i in range(3)]
        for i, d in enumerate(method_dirs):
            d.mkdir()
            for cid in ("c1", "c2", "c3"):
                spacing = (1, 1, 2) if (cid, i) == ("c3", 2) else (1, 1, 1)
                labels = nested_label_phantom((6, 6, 6), 2.5, 1.5, 1.0).labels
                write_labels(d / f"{cid}.nii.gz", LabelVolume(labels, spacing))
        assert main(["fuse", *map(str, method_dirs), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "case c3: " in err
        assert "spacing (1.0, 1.0, 1.0) vs (1.0, 1.0, 2.0)" in err and "Traceback" not in err

    @pytest.mark.parametrize("spelling", ["same", "dotdot"])
    def test_output_over_an_input_is_data_error(self, phantom_dirs, capsys, spelling):
        # fuse m0 m1 m2 --out m0 once replaced m0's case files with the fused volumes
        method_dirs, _ = phantom_dirs
        out = method_dirs[0]
        if spelling == "dotdot":
            out = out / ".." / out.name
        before = {p: p.read_bytes() for d in method_dirs for p in d.iterdir()}
        code = main(["fuse", *map(str, method_dirs), "--method", "vote", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(out / "case_000.nii.gz") in captured.err
        assert str(method_dirs[0] / "case_000.nii.gz") in captured.err
        assert {p: p.read_bytes() for d in method_dirs for p in d.iterdir()} == before

    def test_output_beside_an_uncompressed_input_is_data_error(self, phantom_dirs, capsys):
        # fuse m0 m1 m2 --out m0, with m0 holding c.nii, once wrote m0/c.nii.gz
        # beside it, and every later run reading m0 failed: "case c has two files"
        method_dirs, _ = phantom_dirs
        out = method_dirs[0]
        for gz in sorted(out.iterdir()):
            gz.with_suffix("").write_bytes(gzip.decompress(gz.read_bytes()))
            gz.unlink()
        before = {p: p.read_bytes() for d in method_dirs for p in d.iterdir()}
        code = main(["fuse", *map(str, method_dirs), "--method", "vote", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(out / "case_000.nii.gz") in captured.err
        assert str(out / "case_000.nii") in captured.err
        assert {p: p.read_bytes() for d in method_dirs for p in d.iterdir()} == before

    def test_int64_labels_fuse_and_evaluate_as_uint8_ones(self, phantom_dirs, tmp_path):
        # a label map saved straight from np.argmax is int64 (datatype 1024);
        # the reader once refused it as an unsupported datatype
        method_dirs, gt_dir = phantom_dirs
        wide_dirs = []
        for d in [*method_dirs, gt_dir]:
            wide_dirs.append(tmp_path / f"wide_{d.name}")
            wide_dirs[-1].mkdir()
            for path in d.iterdir():
                grid = read_volume(path)[1]
                grid = VoxelGrid(grid.values.astype(np.int64), grid.spacing, grid.affine)
                write_volume(wide_dirs[-1] / path.name, NiftiHeader.for_grid(grid, 1024), grid)
        for tag, dirs in (("narrow", [*method_dirs, gt_dir]), ("wide", wide_dirs)):
            fused, scored = tmp_path / f"fused_{tag}", tmp_path / f"eval_{tag}"
            assert main(["fuse", *map(str, dirs[:-1]), "--out", str(fused)]) == 0
            assert main(["evaluate", "--pred", str(dirs[0]), "--gt", str(dirs[-1]),
                         "--out", str(scored)]) == 0
        assert entries(tmp_path / "fused_wide") == entries(tmp_path / "fused_narrow")
        assert entries(tmp_path / "eval_wide") == entries(tmp_path / "eval_narrow")

    def test_uint16_label_above_255_is_data_error(self, phantom_dirs, tmp_path, capsys):
        # a 300 must be refused by the file that holds it, not wrapped to 44 by the uint8 cast
        method_dirs, _ = phantom_dirs
        victim = method_dirs[1] / "case_001.nii.gz"
        grid = read_volume(victim)[1]
        values = grid.values.astype(np.uint16)
        values[0, 0, 0] = 300
        grid = VoxelGrid(values, grid.spacing, grid.affine)
        write_volume(victim, NiftiHeader.for_grid(grid, 512), grid)
        out = tmp_path / "fused"
        assert main(["fuse", *map(str, method_dirs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"case case_001: {victim}: labels outside {{0,1,2,4}}: [300]" in err
        assert not out.exists()

    @staticmethod
    def second_case_fails(tmp_path) -> list[Path]:
        """Two method directories of cases a and b, where one b holds a label 3."""
        method_dirs = [tmp_path / "m0", tmp_path / "m1"]
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        for i, d in enumerate(method_dirs):
            d.mkdir()
            write_labels(d / "a.nii.gz", truth)
            labels = truth.labels.copy()
            if i:
                labels[8, 8, 8] = 3
            grid = VoxelGrid(labels)
            write_volume(d / "b.nii.gz", NiftiHeader.for_grid(grid, DT_UINT8), grid)
        return method_dirs

    def test_failing_case_leaves_no_new_output_directory(self, tmp_path, capsys):
        # a.nii.gz was once left in the --out that the run had created
        method_dirs = self.second_case_fails(tmp_path)
        out = tmp_path / "new" / "fused"
        assert main(["fuse", *map(str, method_dirs), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "case b: " in captured.err and "[3]" in captured.err and captured.out == ""
        assert not (tmp_path / "new").exists()

    def test_failing_case_leaves_an_existing_output_directory_as_it_was(self, tmp_path, capsys):
        # a.nii.gz of an earlier run was once replaced by this run's, which then failed
        method_dirs = self.second_case_fails(tmp_path)
        out = tmp_path / "fused"
        out.mkdir()
        write_labels(out / "a.nii.gz", LabelVolume(np.zeros((16, 16, 16), np.uint8)))
        before = entries(out)
        assert main(["fuse", *map(str, method_dirs), "--out", str(out)]) == 2
        assert "case b: " in capsys.readouterr().err
        assert entries(out) == before

    def test_output_that_is_a_directory_leaves_earlier_outputs(self, tmp_path, capsys):
        # a.nii.gz of an earlier run was once replaced before b.nii.gz,
        # a directory, failed to be written
        method_dirs = self.second_case_fails(tmp_path)
        (method_dirs[1] / "b.nii.gz").unlink()
        write_labels(method_dirs[1] / "b.nii.gz", read_labels(method_dirs[0] / "b.nii.gz"))
        out = tmp_path / "fused"
        (out / "b.nii.gz").mkdir(parents=True)
        write_labels(out / "a.nii.gz", LabelVolume(np.zeros((16, 16, 16), np.uint8)))
        before = entries(out)
        assert main(["fuse", *map(str, method_dirs), "--out", str(out)]) == 2
        assert f"output {out / 'b.nii.gz'} is a directory" in capsys.readouterr().err
        assert entries(out) == before

    def test_rerun_replaces_earlier_outputs(self, phantom_dirs, tmp_path):
        method_dirs, _ = phantom_dirs
        first, out = tmp_path / "first", tmp_path / "out"
        assert main(["fuse", *map(str, method_dirs), "--out", str(first)]) == 0
        out.mkdir()
        for name in ("case_000.nii.gz", "case_001.nii.gz"):
            write_labels(out / name, LabelVolume(np.zeros((16, 16, 16), np.uint8)))
        assert main(["fuse", *map(str, method_dirs), "--out", str(out)]) == 0
        assert entries(out) == entries(first)

    def test_deterministic_outputs(self, phantom_dirs, tmp_path):
        method_dirs, _ = phantom_dirs
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        for out in (out1, out2):
            assert main(["fuse", *map(str, method_dirs), "--out", str(out)]) == 0
        for name in ("case_000.nii.gz", "case_001.nii.gz"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestEvaluateAndReport:
    def test_evaluate_writes_reports(self, phantom_dirs, tmp_path, capsys):
        method_dirs, gt_dir = phantom_dirs
        out_dir = tmp_path / "eval"
        code = main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                     "--out", str(out_dir)])
        assert code == 0
        csv_text = (out_dir / "metrics.csv").read_text()
        assert csv_text.startswith("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n")
        assert csv_text.count("\n") == 3  # header + 2 cases
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["n_cases"] == 2
        table = capsys.readouterr().out
        for label in ("Mean", "StdDev", "Median", "25quantile", "75quantile"):
            assert label in table

    def test_evaluate_loads_scipy_only_for_many_far_pairs(self, tmp_path):
        # HD95 settles near surface voxels, and a few far ones, in NumPy;
        # importing SciPy's ndimage cost more than half of such a run.  Only
        # far voxels that, times the other surface's voxels, make more than
        # metrics._PAIR_BUDGET pairs need the feature transform.
        dims = (16, 16, 16)
        truth = nested_label_phantom(dims=dims, wt_radius=6, tc_radius=4, et_radius=2.5)
        pred = nested_label_phantom(dims=dims, wt_radius=5, tc_radius=4, et_radius=2)
        far_labels = pred.labels.copy()
        far_labels[0, 0, 0] = 2  # an edema voxel 7.5 voxels from the truth's WT surface
        # 2% noise against a block: about 3,400 far voxels times 3,900 block
        # surface voxels, over the budget
        noise_dims = (64, 64, 48)
        noise = (np.random.default_rng(5).random(noise_dims) < 0.02).astype(np.uint8) * 2
        block = np.zeros(noise_dims, np.uint8)
        block[16:48, 20:44, 12:36] = 2
        volumes = (("gt", truth), ("near", pred), ("far", LabelVolume(far_labels)),
                   ("gt_block", LabelVolume(block)), ("noise", LabelVolume(noise)))
        for name, labels in volumes:
            (tmp_path / name).mkdir()
            for cid in ("case_000", "case_001"):
                write_labels(tmp_path / name / f"{cid}.nii.gz", labels)
        steps = {"near": "gt", "far": "gt", "noise": "gt_block"}
        script = (
            "import contextlib, io, json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "import gbmseg.cli\n"
            "loaded = {}\n"
            f"for step, gt in {steps!r}.items():\n"
            "    argv = ['evaluate', '--pred', f'{sys.argv[1]}/{step}', '--gt', f'{sys.argv[1]}/{gt}',\n"
            "            '--out', f'{sys.argv[1]}/out_{step}']\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        loaded[step] = [gbmseg.cli.main(argv), scipy_modules()]\n"
            "print(json.dumps(loaded))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gbmseg.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        loaded = json.loads(done.stdout)
        assert loaded["near"] == [0, []]
        assert loaded["far"] == [0, []]
        assert loaded["noise"][0] == 0 and "scipy.ndimage" in loaded["noise"][1]
        for step, gt in steps.items():
            expected = []
            for cid in ("case_000", "case_001"):
                pm, gm = (compose_regions(read_labels(tmp_path / d / f"{cid}.nii.gz"))
                          for d in (step, gt))
                values = {}
                for p, g in zip(pm, gm):
                    region = p.region.value.lower()
                    values[f"dsc_{region}"] = dice_bruteforce(p.member, g.member)
                    values[f"hd95_{region}"] = hd95_full_grid(p, g)
                expected.append(CaseMetrics(case_id=cid, **values))
            write_metrics_csv(expected, tmp_path / f"expected_{step}.csv")
            assert ((tmp_path / f"out_{step}" / "metrics.csv").read_bytes()
                    == (tmp_path / f"expected_{step}.csv").read_bytes())

    def test_evaluate_deterministic_bytes(self, phantom_dirs, tmp_path):
        method_dirs, gt_dir = phantom_dirs
        outs = [tmp_path / "e1", tmp_path / "e2"]
        for out in outs:
            assert main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                         "--out", str(out)]) == 0
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

    def test_geometry_error_names_the_case(self, tmp_path, capsys):
        # once only "geometry differs: dims (6, 6, 6) vs (6, 6, 7)"
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for cid in ("c1", "c2", "c3"):
            write_labels(pred_dir / f"{cid}.nii.gz", nested_label_phantom((6, 6, 6), 2.5, 1.5, 1.0))
            truth_dims = (6, 6, 7) if cid == "c2" else (6, 6, 6)
            write_labels(gt_dir / f"{cid}.nii.gz", nested_label_phantom(truth_dims, 2.5, 1.5, 1.0))
        out = tmp_path / "eval"
        code = main(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "case c2: " in err and "dims (6, 6, 6) vs (6, 6, 7)" in err
        assert not (out / "metrics.csv").exists()

    def test_output_over_the_manifest_is_data_error(self, phantom_dirs, tmp_path, capsys):
        # evaluate --manifest out/metrics.csv --out out once replaced the manifest
        method_dirs, gt_dir = phantom_dirs
        out = tmp_path / "eval"
        out.mkdir()
        manifest = out / "metrics.csv"
        manifest.write_text(f"case_id,pred,gt\nx,{method_dirs[0] / 'case_000.nii.gz'},"
                            f"{gt_dir / 'case_000.nii.gz'}\n")
        before = manifest.read_bytes()
        code = main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                     "--manifest", str(manifest), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(manifest) in captured.err and "Traceback" not in captured.err
        assert manifest.read_bytes() == before and not (out / "report.json").exists()

    def test_evaluate_failed_write_leaves_no_output(self, phantom_dirs, tmp_path, capsys,
                                                    monkeypatch):
        # metrics.csv was once left in --out when writing report.json failed
        method_dirs, gt_dir = phantom_dirs
        disk_full_from_call(monkeypatch, "write_json", 1)
        out = tmp_path / "eval"
        assert main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and captured.out == ""
        assert not out.exists()

    def test_report_failed_write_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # ranking.json was once left in --out when its write failed
        csv = tmp_path / "m.csv"
        csv.write_text("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
                       "a,90.00,90.00,90.00,1.0000,1.0000,1.0000\n")
        disk_full_from_call(monkeypatch, "write_json", 1)
        out = tmp_path / "r"
        out.mkdir()
        (out / "aggregates.txt").write_text("earlier run\n")
        before = entries(out)
        assert main(["report", str(csv), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and captured.out == ""
        assert entries(out) == before

    def test_no_matched_case_leaves_no_output_directory(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        out = tmp_path / "eval"
        code = main(["evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(out)])
        assert code == 2 and "no case pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_two_files_for_one_case_is_data_error(self, phantom_dirs, tmp_path, capsys, side):
        method_dirs, gt_dir = phantom_dirs
        victim_dir = method_dirs[0] if side == "pred" else gt_dir
        gz, plain = add_uncompressed_copy(victim_dir / "case_000.nii.gz")
        out = tmp_path / "eval"
        code = main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(plain) in err and str(gz) in err and "Traceback" not in err
        assert not (out / "metrics.csv").exists()

    def test_report_ranks_methods(self, phantom_dirs, tmp_path, capsys):
        method_dirs, gt_dir = phantom_dirs
        csvs = []
        for i, d in enumerate(method_dirs):
            out = tmp_path / f"eval{i}"
            assert main(["evaluate", "--pred", str(d), "--gt", str(gt_dir),
                         "--out", str(out)]) == 0
            csvs.append(str(out / "metrics.csv"))
        report_dir = tmp_path / "report"
        code = main(["report", *csvs, "--names", "m0", "m1", "m2",
                     "--out", str(report_dir)])
        assert code == 0
        ranking = json.loads((report_dir / "ranking.json").read_text())
        assert {m["method_name"] for m in ranking["methods"]} == {"m0", "m1", "m2"}
        for strategy in ("dsc_only", "avg_rank", "dsc_minus_hd95"):
            assert sorted(ranking["order"][strategy]) == ["m0", "m1", "m2"]
        assert (report_dir / "aggregates.txt").read_text().count("== m") == 3

    def test_report_reads_case_ids_holding_a_comma_or_a_quote(self, phantom_dirs, tmp_path):
        method_dirs, gt_dir = phantom_dirs
        pred, truth = tmp_path / "pred", tmp_path / "truth"
        for src_dir, dst_dir in ((method_dirs[0], pred), (gt_dir, truth)):
            dst_dir.mkdir()
            for src, case_id in (("case_000", "a,b"), ("case_001", 'q"x')):
                (dst_dir / f"{case_id}.nii.gz").write_bytes((src_dir / f"{src}.nii.gz").read_bytes())
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--pred", str(pred), "--gt", str(truth),
                     "--out", str(eval_dir)]) == 0
        assert main(["report", str(eval_dir / "metrics.csv"), "--out", str(tmp_path / "r")]) == 0
        cases = read_metrics_csv(eval_dir / "metrics.csv")
        assert [c.case_id for c in cases] == ["a,b", 'q"x']

    def test_report_repeated_method_name_is_data_error(self, tmp_path, capsys):
        header = "case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
        csvs = []
        for i, (dsc, hd) in enumerate([(90, 1), (80, 5), (70, 9)]):
            csvs.append(tmp_path / f"m{i}.csv")
            csvs[-1].write_text(header + f"a,{dsc}.00,{dsc}.00,{dsc}.00,{hd}.0,{hd}.0,{hd}.0\n")
        out = tmp_path / "r"
        code = main(["report", *map(str, csvs), "--names", "x", "y", "x", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'x'" in err and "Traceback" not in err
        assert not (out / "ranking.json").exists()

    def test_report_names_repeated_stems_after_their_directories(self, tmp_path):
        # evaluate always writes metrics.csv, so the stems of two runs repeat
        header = "case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
        csvs = []
        for name, dsc in [("staple", 90), ("vote", 80)]:
            (tmp_path / name).mkdir()
            csvs.append(tmp_path / name / "metrics.csv")
            csvs[-1].write_text(header + f"a,{dsc}.00,{dsc}.00,{dsc}.00,1.0,1.0,1.0\n")
        out = tmp_path / "r"
        assert main(["report", *map(str, csvs), "--out", str(out)]) == 0
        ranking = json.loads((out / "ranking.json").read_text())
        assert ranking["order"]["dsc_only"] == ["staple", "vote"]
        assert "== staple ==" in (out / "aggregates.txt").read_text()

    def test_report_repeated_stems_and_directories_is_data_error(self, tmp_path, capsys):
        header = "case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
        csvs = []
        for parent in ("a/run", "b/run"):
            (tmp_path / parent).mkdir(parents=True)
            csvs.append(tmp_path / parent / "metrics.csv")
            csvs[-1].write_text(header + "a,90.00,90.00,90.00,1.0,1.0,1.0\n")
        code = main(["report", *map(str, csvs), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "'metrics'" in capsys.readouterr().err

    def test_report_output_over_an_input_is_data_error(self, tmp_path, capsys):
        # report out/ranking.json --out out once overwrote the CSV it had read
        out = tmp_path / "out"
        out.mkdir()
        csv = out / "ranking.json"
        csv.write_text("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
                       "a,90.00,90.00,90.00,1.0000,1.0000,1.0000\n")
        before = csv.read_bytes()
        code = main(["report", str(csv), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert str(csv) in captured.err and "Traceback" not in captured.err
        assert csv.read_bytes() == before and not (out / "aggregates.txt").exists()

    def test_report_repeated_case_id_is_data_error(self, tmp_path, capsys):
        # a repeated row was once counted twice in every mean, and so in every rank
        csv = tmp_path / "m.csv"
        csv.write_text("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
                       "a,90.00,90.00,90.00,1.0000,1.0000,1.0000\n"
                       "b,10.00,10.00,10.00,9.0000,9.0000,9.0000\n"
                       "a,90.00,90.00,90.00,1.0000,1.0000,1.0000\n")
        out = tmp_path / "r"
        assert main(["report", str(csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(csv) in err and "line 4" in err and "line 2" in err and "'a'" in err
        assert not out.exists()

    def test_report_name_count_mismatch_is_data_error(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
                       "a,1.00,1.00,1.00,0.0000,0.0000,0.0000\n")
        assert main(["report", str(csv), "--names", "a", "b",
                     "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("row", [
        "a,n/a,1.00,1.00,0.0000,0.0000,0.0000",
        "a,nan,1.00,1.00,0.0000,0.0000,0.0000",
        "a,1.00,1.00,1.00,inf,0.0000,0.0000",
        "a,1.00,1.00",
        "a,1.00,1.00,1.00,0.0000,0.0000,0.0000,9",
        "a,-50.00,1.00,1.00,0.0000,0.0000,0.0000",
        "a,1.00,250.00,1.00,0.0000,0.0000,0.0000",
        "a,1.00,1.00,1.00,0.0000,0.0000,-3.0000",
    ], ids=["bad_cell", "nan_cell", "inf_cell", "short_row", "long_row",
            "dsc_below_0", "dsc_above_100", "negative_hd95"])
    def test_malformed_metrics_csv_is_data_error(self, tmp_path, capsys, row):
        csv = tmp_path / "m.csv"
        csv.write_text("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
                       "b,1.00,1.00,1.00,0.0000,0.0000,0.0000\n" + row + "\n")
        assert main(["report", str(csv), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert str(csv) in err and "line 3" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("text,named", [
        ("pred,gt\nmethod0/case_000.nii.gz,gt/case_000.nii.gz\n", "case_id"),
        ("case_id,pred,gt\ncase_000,method0/case_000.nii.gz\n", "line 2"),
        ("case_id,pred,gt\ncase_000,method0/case_000.nii.gz,gt/case_000.nii.gz\n"
         "case_000,method0/case_001.nii.gz,gt/case_001.nii.gz\n", "line 3"),
    ], ids=["no_case_id_column", "short_row", "repeated_case_id"])
    def test_malformed_manifest_is_data_error(self, phantom_dirs, tmp_path, capsys, text, named):
        method_dirs, gt_dir = phantom_dirs
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text)
        code = main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                     "--out", str(tmp_path / "e"), "--manifest", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and named in err

    @pytest.mark.parametrize("command", ["report", "evaluate"])
    @pytest.mark.parametrize("where", ["header", "row"])
    @pytest.mark.parametrize("fault", ["not_utf8", "oversize_field"])
    def test_unreadable_csv_is_data_error(self, phantom_dirs, tmp_path, capsys,
                                          command, where, fault):
        # a byte that is not UTF-8, or a field over the csv module's limit
        # of 131072 characters, once escaped as a traceback with exit 1
        method_dirs, gt_dir = phantom_dirs
        header = ("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt" if command == "report"
                  else "case_id,pred,gt").encode()
        row = (b"a,1.00,1.00,1.00,0.0000,0.0000,0.0000" if command == "report"
               else b"case_000,method0/case_000.nii.gz,gt/case_000.nii.gz")
        bad = b"cas\xe9" if fault == "not_utf8" else b"c" * 131073
        if where == "header":
            header = header.replace(b"case_id", b"case_id," + bad)
        else:
            row = row.replace(b"a," if command == "report" else b"case_000,", bad + b",", 1)
        csv = tmp_path / "in.csv"
        csv.write_bytes(header + b"\n" + row + b"\n")
        out = tmp_path / "out"
        if command == "report":
            argv = ["report", str(csv), "--out", str(out)]
        else:
            argv = ["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                    "--out", str(out), "--manifest", str(csv)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gbmseg: error: {csv}") and "Traceback" not in err
        assert not out.exists()
