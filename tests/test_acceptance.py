"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a [PASS] line when it holds (run with ``-v -s``).

The headline challenge numbers need trained networks and hidden data, so
acceptance is property-based plus oracle equivalence on synthetic
phantoms, at desk scale.
"""

import json
import time

import numpy as np
import pytest

from gbmseg.cli import main
from gbmseg.fusion import StapleConfig, ensemble_pipeline, staple_binary, staple_regions
from gbmseg.harness import aggregate, render_aggregate_table, write_metrics_csv
from gbmseg.metrics import (
    CaseMetrics,
    dice,
    evaluate_case,
    hd95,
    soft_dice_ce,
)
from gbmseg.nifti_io import DT_FLOAT32, DT_FLOAT64, DT_UINT8, NiftiHeader, read_volume, write_volume
from gbmseg.postprocess import et_threshold_relabel
from gbmseg.preprocess import (
    brain_bounding_box,
    crop_and_fit,
    flip3d,
    gamma_transform,
    zscore_normalize,
)
from gbmseg.volume import (
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    VoxelGrid,
    compose_regions,
    count_label,
    decompose_regions,
)

from oracles import dice_bruteforce, hd_percentiles_bruteforce
from phantoms import ball, mask_dice, nested_label_phantom, noisy_mask, noisy_rater_labels
from test_harness import GOLDEN_CSV, PUBLISHED_ROWS, published_report

def _mask(values, region=Region.WT, spacing=(1.0, 1.0, 1.0)):
    return RegionMask(np.asarray(values, dtype=bool), region, spacing)


def test_c01_metric_oracle_equivalence():
    """dice/hd95 vs brute force on 200 random pairs within <= 12^3, 1e-9, < 10 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checked = 0
    while checked < 200:
        dims = tuple(int(d) for d in rng.integers(3, 13, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
        a = rng.random(dims) < rng.uniform(0.05, 0.6)
        b = rng.random(dims) < rng.uniform(0.05, 0.6)
        ma, mb = _mask(a, spacing=spacing), _mask(b, spacing=spacing)
        assert dice(ma, mb) == pytest.approx(dice_bruteforce(a, b), abs=1e-9)
        if a.any() and b.any():
            expected, exact_max = hd_percentiles_bruteforce(a, b, spacing)
            got = hd95(ma, mb)
            assert got == pytest.approx(expected, abs=1e-9)
            assert got <= exact_max + 1e-9
        else:
            expected = 0.0 if (not a.any() and not b.any()) else 373.1287
            assert hd95(ma, mb) == expected
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\n[PASS] C01 metric oracle equivalence: 200 pairs within 1e-9 in {elapsed:.2f}s")


def test_c02_staple_recovery():
    """sens/spec recovered within +-0.05/+-0.02, consensus dice >= 95, <= 1 bad seed of 20, < 30 s."""
    started = time.perf_counter()
    failures = 0
    truth = ball((32, 32, 32), 12.0)
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        raters = [_mask(noisy_mask(truth, rng, miss=0.1, add=0.05)) for _ in range(3)]
        result = staple_binary(raters, StapleConfig())
        ok = mask_dice(result.consensus.member, truth) >= 95.0
        for perf in result.performances:
            ok &= abs(perf.sensitivity - 0.9) <= 0.05
            ok &= abs(perf.specificity - 0.95) <= 0.02
        failures += not ok
    elapsed = time.perf_counter() - started
    assert failures <= 1, f"{failures} of 20 seeds out of bounds"
    assert elapsed < 30.0
    print(f"\n[PASS] C02 STAPLE recovery: {20 - failures}/20 seeds in bounds in {elapsed:.2f}s")


def test_c03_em_monotonicity():
    """Log-likelihood non-decreasing within 1e-9 across 50 randomized runs."""
    rng = np.random.default_rng(103)
    runs = 0
    while runs < 50:
        dims = tuple(int(d) for d in rng.integers(6, 17, size=3))
        truth = ball(dims, float(rng.uniform(1.5, min(dims) / 2.5)))
        n_raters = int(rng.integers(2, 6))
        raters = [
            _mask(noisy_mask(truth, rng, float(rng.uniform(0.02, 0.45)), float(rng.uniform(0.01, 0.35))))
            for _ in range(n_raters)
        ]
        stacked = np.stack([r.member for r in raters])
        if stacked.all() or not stacked.any():
            continue
        result = staple_binary(raters)
        diffs = np.diff(result.loglik_trace)
        assert (diffs >= -1e-9).all(), f"run {runs}: min step {diffs.min()}"
        runs += 1
    print("\n[PASS] C03 EM monotonicity: 50/50 traces non-decreasing within 1e-9")


def test_c04_region_algebra():
    """decompose(compose) identity and ET within TC within WT on 1,000 random volumes."""
    rng = np.random.default_rng(104)
    for _ in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        labels = LabelVolume(rng.choice(np.array([0, 1, 2, 4], np.uint8), size=dims))
        et, tc, wt = compose_regions(labels)
        assert (et.member <= tc.member).all()
        assert (tc.member <= wt.member).all()
        assert np.array_equal(decompose_regions(et, tc, wt).labels, labels.labels)
    print("\n[PASS] C04 region algebra: identity and nesting on 1,000 random volumes")


def test_c05_postprocessing():
    """Strict 200-voxel threshold semantics, idempotency, TC/WT invariance."""

    def volume_with_et(n_et):
        labels = np.full((10, 10, 10), 2, dtype=np.uint8)
        labels.ravel()[:n_et] = 4
        return LabelVolume(labels)

    below = et_threshold_relabel(volume_with_et(199), 200)
    assert count_label(below, 4) == 0
    assert count_label(below, 1) == 199
    exact = et_threshold_relabel(volume_with_et(200), 200)
    assert count_label(exact, 4) == 200

    rng = np.random.default_rng(105)
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 10, size=3))
        vol = LabelVolume(rng.choice(np.array([0, 1, 2, 4], np.uint8), size=dims))
        once = et_threshold_relabel(vol, 200)
        twice = et_threshold_relabel(once, 200)
        assert np.array_equal(once.labels, twice.labels)
        _, tc0, wt0 = compose_regions(vol)
        _, tc1, wt1 = compose_regions(once)
        assert np.array_equal(tc0.member, tc1.member)
        assert np.array_equal(wt0.member, wt1.member)
    print("\n[PASS] C05 post-processing: threshold semantics, idempotent, TC/WT invariant")


def test_c06_combined_loss_evaluation():
    """p = y binary: literal 1.0 +- 1e-9, conventional 0.0 +- 1e-9; perturbation increases loss."""
    y = ball((16, 16, 16), 4.0)  # a few hundred positives
    p_exact = ProbabilityVolume(y.astype(np.float64), Region.WT)
    y_mask = _mask(y)
    literal = soft_dice_ce(p_exact, y_mask, "literal")
    conventional = soft_dice_ce(p_exact, y_mask, "conventional")
    assert literal == pytest.approx(1.0, abs=1e-9)
    assert conventional == pytest.approx(0.0, abs=1e-9)

    for voxel, value in ((tuple(np.argwhere(y)[0]), 0.5), (tuple(np.argwhere(~y)[0]), 0.5)):
        perturbed = y.astype(np.float64)
        perturbed[voxel] = value
        worse = soft_dice_ce(ProbabilityVolume(perturbed, Region.WT), y_mask, "conventional")
        assert worse > conventional
    print(f"\n[PASS] C06 combined loss: literal {literal:.12f}, conventional {conventional:.3e}, perturbations increase loss")


def test_c07_preprocessing():
    """BraTS-shaped crop hits 192x224x160; z-score stats within 1e-5; flip/gamma identities."""
    values = np.zeros((240, 240, 155), dtype=np.float32)
    values[20:220, 10:235, 2:154] = 1.0
    grid = VoxelGrid(values)
    fitted = crop_and_fit(grid, brain_bounding_box([grid]), (192, 224, 160))
    assert fitted.dims == (192, 224, 160)

    rng = np.random.default_rng(107)
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(4, 14, size=3))
        vol = np.where(rng.random(dims) < 0.7, rng.random(dims) + 0.25, 0.0)
        if np.count_nonzero(vol) < 2 or np.unique(vol[vol != 0]).size < 2:
            continue
        out = zscore_normalize(VoxelGrid(vol))
        brain = out.values[vol != 0]
        assert abs(brain.mean()) < 1e-5
        assert abs(brain.std() - 1.0) < 1e-5

    sample = VoxelGrid(rng.standard_normal((8, 8, 8)))
    for axis in (0, 1, 2):
        assert np.array_equal(flip3d(flip3d(sample, (axis,)), (axis,)).values, sample.values)
    assert np.allclose(gamma_transform(sample, 1.0).values, sample.values, rtol=1e-6)
    print("\n[PASS] C07 preprocessing: 192x224x160 fit, z-score within 1e-5, flip/gamma identities")


def test_c08_nifti_round_trip(tmp_path):
    """Bit-exact float32/float64 write-then-read on 50 volumes, plain and gzip."""
    rng = np.random.default_rng(108)
    for i in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        dtype, code = [(np.float32, DT_FLOAT32), (np.float64, DT_FLOAT64)][i % 2]
        values = rng.standard_normal(dims).astype(dtype)
        affine = np.diag([*rng.uniform(0.5, 3.0, size=3), 1.0])
        affine[:3, 3] = rng.standard_normal(3) * 50
        grid = VoxelGrid(values, spacing=tuple(np.diag(affine)[:3]), affine=affine)
        path = tmp_path / f"v{i}{'.nii' if i % 4 < 2 else '.nii.gz'}"
        write_volume(path, NiftiHeader.for_grid(grid, code), grid)
        _, back = read_volume(path)
        assert back.values.dtype == dtype
        assert back.values.tobytes(order="F") == values.tobytes(order="F")
        assert np.array_equal(np.float32(back.affine), np.float32(affine))
    print("\n[PASS] C08 NIfTI round trip: 50/50 volumes bit-exact (plain and gzip)")


def test_c09_report_format(tmp_path):
    """Aggregate table renders the published layout; CSV golden bytes match."""
    text = render_aggregate_table(published_report())
    lines = text.splitlines()
    assert lines[1].split() == ["ET", "TC", "WT", "ET", "TC", "WT"]
    assert [line.split()[0] for line in lines[2:7]] == [
        "Mean", "StdDev", "Median", "25quantile", "75quantile",
    ]
    for label, values in PUBLISHED_ROWS.items():
        row = next(line for line in lines if line.startswith(label))
        assert [float(v) for v in row.split()[1:]] == list(values)

    cases = [
        CaseMetrics("BraTS2021_00001", 82.82, 91.04, 94.59, 1.0, 2.2361, 1.4142),
        CaseMetrics("BraTS2021_01739", 0.0, 85.34, 95.72, 373.1287, 3.0, 1.0),
    ]
    path = tmp_path / "golden.csv"
    write_metrics_csv(cases, path)
    assert path.read_bytes() == GOLDEN_CSV.encode("utf-8")
    print("\n[PASS] C09 report format: table layout and golden CSV byte-for-byte")


def _fold_triple(truth: LabelVolume, rng, noise):
    triple = []
    for m in compose_regions(truth):
        p = np.clip(m.member.astype(np.float64) + rng.normal(0.0, noise, m.member.shape), 0, 1)
        triple.append(ProbabilityVolume(p, m.region, truth.spacing, truth.affine))
    return tuple(triple)


def test_c10_end_to_end_phantom(tmp_path):
    """ensemble_pipeline WT dice >= 95 on the 3-method/5-fold phantom; full
    read-preprocess-fuse-postprocess-evaluate-report run on 5 cases < 60 s."""
    rng = np.random.default_rng(110)
    truth = nested_label_phantom()  # 32^3, ET ~ 500 voxels
    methods = [[_fold_triple(truth, rng, noise=0.3) for _ in range(5)] for _ in range(3)]
    fused = ensemble_pipeline(methods, StapleConfig())
    wt_dice = mask_dice(compose_regions(fused)[2].member, compose_regions(truth)[2].member)
    assert wt_dice >= 95.0

    started = time.perf_counter()
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    method_dirs = [tmp_path / f"m{i}" for i in range(3)]
    for d in method_dirs:
        d.mkdir()
    modality_dir = tmp_path / "raw"
    modality_dir.mkdir()
    for case_idx in range(5):
        cid = f"phantom_{case_idx:03d}"
        case_truth = nested_label_phantom()
        grid = case_truth.to_grid()
        write_volume(gt_dir / f"{cid}.nii.gz", NiftiHeader.for_grid(grid, DT_UINT8), grid)
        intensity = VoxelGrid(
            np.where(case_truth.labels > 0, rng.random((32, 32, 32)) + 0.5, 0.0)
        )
        write_volume(
            modality_dir / f"{cid}_t1.nii.gz", NiftiHeader.for_grid(intensity, DT_FLOAT32), intensity
        )
        for d in method_dirs:
            pred = noisy_rater_labels(case_truth, rng, miss=0.05, add=0.005)
            pred_grid = pred.to_grid()
            write_volume(d / f"{cid}.nii.gz", NiftiHeader.for_grid(pred_grid, DT_UINT8), pred_grid)

    # preprocess each raw modality (read -> crop/fit -> z-score -> write)
    pre_dir = tmp_path / "pre"
    for f in sorted(modality_dir.iterdir()):
        assert main(["preprocess", str(f), "--out", str(pre_dir), "--target", "24", "28", "20"]) == 0
        _, pre = read_volume(pre_dir / f.name)
        assert pre.dims == (24, 28, 20)

    fused_dir = tmp_path / "fused"
    assert main(["fuse", *map(str, method_dirs), "--method", "staple",
                 "--out", str(fused_dir), "--et-threshold", "200"]) == 0
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--pred", str(fused_dir), "--gt", str(gt_dir),
                 "--out", str(eval_dir)]) == 0
    report_dir = tmp_path / "report"
    assert main(["report", str(eval_dir / "metrics.csv"), "--names", "ensemble",
                 "--out", str(report_dir)]) == 0
    elapsed = time.perf_counter() - started

    payload = json.loads((eval_dir / "report.json").read_text())
    assert payload["n_cases"] == 5
    assert payload["aggregate"]["dsc"]["WT"]["mean"] >= 95.0
    ranking = json.loads((report_dir / "ranking.json").read_text())
    assert ranking["order"]["dsc_only"] == ["ensemble"]
    assert elapsed < 60.0
    print(
        f"\n[PASS] C10 end-to-end phantom: ensemble WT dice {wt_dice:.2f},"
        f" 5-case pipeline in {elapsed:.1f}s (WT mean {payload['aggregate']['dsc']['WT']['mean']:.2f})"
    )
