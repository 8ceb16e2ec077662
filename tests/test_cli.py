import gzip
import json
import struct

import numpy as np
import pytest

from gbmseg.cli import main
from gbmseg.nifti_io import DT_FLOAT32, DT_UINT8, NiftiHeader, read_volume, write_volume
from gbmseg.volume import LabelVolume, VoxelGrid

from phantoms import ball, mask_dice, nested_label_phantom, noisy_rater_labels


def write_labels(path, labels: LabelVolume):
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


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

    def test_single_method_dir_with_staple_is_data_error(self, phantom_dirs, tmp_path):
        method_dirs, _ = phantom_dirs
        code = main(["fuse", str(method_dirs[0]), "--method", "staple",
                     "--out", str(tmp_path / "x")])
        assert code == 2

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

    def test_evaluate_deterministic_bytes(self, phantom_dirs, tmp_path):
        method_dirs, gt_dir = phantom_dirs
        outs = [tmp_path / "e1", tmp_path / "e2"]
        for out in outs:
            assert main(["evaluate", "--pred", str(method_dirs[0]), "--gt", str(gt_dir),
                         "--out", str(out)]) == 0
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

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

    def test_report_name_count_mismatch_is_data_error(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
                       "a,1.00,1.00,1.00,0.0000,0.0000,0.0000\n")
        assert main(["report", str(csv), "--names", "a", "b",
                     "--out", str(tmp_path / "r")]) == 2
