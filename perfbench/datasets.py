"""Seeded synthetic BraTS-style datasets, one per benchmark workload.

A dataset is four rater directories (the models to fuse) and one truth
directory of uint8 NIfTI-1 label volumes, written with gbmseg's own writer.
The same workload name, seed and scale always give byte-identical files.

Why these workloads:

* ``ensemble_local``: raters differ from the truth only near the tumour
  (each region moved 2 voxels along one axis, then dilated, eroded or
  kept).  This
  is the realistic ensemble: the union bounding box is a few percent of the
  grid and STAPLE sees few rater-decision patterns.  Case 0 has a tiny ET
  that every rater copies exactly, so the all-agree STAPLE pass-through and
  the ET < 200 relabel both fire.
* ``ensemble_scattered``: raters are ``tests/phantoms.noisy_rater_labels``
  (miss 0.05, add 0.01).  False positives everywhere fill all 2^R decision
  patterns, force the most EM iterations, compress ~16x worse, and make the
  union bounding box the whole grid.
* ``cohort_small``: many small cases.  Rater files are ``<id>_seg.nii.gz``
  and truth files ``<id>.nii.gz``, so ``gbmseg evaluate`` pairs them through
  its fuzzy rule; two predictions have no truth and one truth has no
  prediction.  Per-case fixed costs and harness work weigh most here.  The
  case ids are fixed (see ``_cohort_ids``), so the pairing defect of
  ``gbmseg evaluate`` costs the same three rows on every seed.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from gbmseg.nifti_io import DT_UINT8, NiftiHeader, write_volume
from gbmseg.volume import LabelVolume, VoxelGrid
from phantoms import noisy_rater_labels

N_RATERS = 4
ET_RELABEL_THRESHOLD = 200  # gbmseg fuse --et-threshold default
_SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's dataset."""

    dims: tuple[int, int, int]
    n_cases: int
    raters: str  # "local" or "scattered"
    cohort: bool = False


# The ensemble grids are 2/5 of BraTS (240x240x155) per axis: at full size one
# scattered STAPLE case takes over a minute, which no run length here allows.
SPECS = {
    "ensemble_local": Spec((96, 96, 62), 2, "local"),
    "ensemble_scattered": Spec((96, 96, 62), 1, "scattered"),
    "cohort_small": Spec((64, 64, 48), 12, "local", cohort=True),
}

# Same workloads on grids small enough for a unit test.
TINY_SPECS = {
    "ensemble_local": Spec((32, 32, 24), 2, "local"),
    "ensemble_scattered": Spec((32, 32, 24), 1, "scattered"),
    "cohort_small": Spec((24, 24, 16), 5, "local", cohort=True),
}


@dataclass
class Dataset:
    """Where a generated dataset lives and what the benchmark expects of it."""

    root: Path
    rater_dirs: list[Path]
    truth_dir: Path
    cases: list[str]  # file stems present in every rater directory
    truth_of: dict[str, str]  # rater stem -> truth stem, for stems with a truth
    properties: dict


def labels_from_masks(et: np.ndarray, tc: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """BraTS labels from region masks with the ET > TC > WT priority."""
    return np.where(et, 4, np.where(tc, 1, np.where(wt, 2, 0))).astype(np.uint8)


def _ellipsoid(shape, center, radii) -> np.ndarray:
    idx = np.indices(shape, dtype=np.float64)
    dist = sum(((idx[a] - center[a]) / radii[a]) ** 2 for a in range(3))
    return dist <= 1.0


def _tumour(dims, rng: np.random.Generator, tiny_et: bool):
    """Truth region masks (ET, TC, WT) of one random nested tumour.

    WT is an ellipsoid of edema around a tumour core; the core is an
    enhancing rim (ET) around a necrotic centre, or, with ``tiny_et``, a
    necrotic core holding one ball of ET too small to survive the relabel.
    """
    dims_arr = np.asarray(dims, dtype=np.float64)
    center = dims_arr / 2 + rng.uniform(-0.12, 0.12, 3) * dims_arr
    wt_radii = dims_arr[0] * 0.12 * rng.uniform(0.95, 1.05, 3)
    wt_radii[2] *= dims_arr[2] / dims_arr[0]
    wt = _ellipsoid(dims, center, wt_radii)
    tc_center = center + rng.uniform(-0.1, 0.1, 3) * wt_radii
    tc_radii = wt_radii * 0.6
    tc = _ellipsoid(dims, tc_center, tc_radii) & wt
    if tiny_et:
        et = _ellipsoid(dims, tc_center, np.full(3, 2.5)) & tc
    else:
        et = tc & ~_ellipsoid(dims, tc_center, tc_radii * 0.5)
    return et, tc, wt


def _local_rater(truth, rater: int, step: int, frozen=()):
    """Move each region mask ``step`` voxels along one axis, then keep,
    dilate or erode it by one voxel; axis, sign and operation cycle over
    raters and regions, and regions listed in ``frozen`` are copied
    unchanged.  A fixed pattern keeps the amount of disagreement, and so
    STAPLE's work, the same from seed to seed; the seed moves the tumour."""
    masks = []
    for idx, mask in enumerate(truth):
        if idx in frozen:
            masks.append(mask)
            continue
        offset = [0, 0, 0]
        offset[(rater + idx) % 3] = step if rater % 2 == 0 else -step
        moved = np.roll(mask, offset, axis=(0, 1, 2))
        op = (rater + idx) % 3
        if op == 1:
            moved = ndimage.binary_dilation(moved, _SIX_CONNECTED)
        elif op == 2:
            moved = ndimage.binary_erosion(moved, _SIX_CONNECTED)
        masks.append(moved)
    return labels_from_masks(*masks)


def write_labels(path: Path, labels: np.ndarray) -> None:
    grid = VoxelGrid(labels)
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


def region_masks(labels: np.ndarray):
    """(ET, TC, WT) membership of a BraTS label array."""
    et = labels == 4
    tc = et | (labels == 1)
    return et, tc, tc | (labels == 2)


def union_bbox_frac(masks) -> float:
    """Share of the grid inside the bounding box of the union of ``masks``,
    padded by one voxel and clipped to the grid; 0 when all are empty."""
    union = np.logical_or.reduce(masks)
    if not union.any():
        return 0.0
    size = 1
    for axis in range(3):
        hit = np.flatnonzero(union.any(axis=tuple(a for a in range(3) if a != axis)))
        lo, hi = max(int(hit[0]) - 1, 0), min(int(hit[-1]) + 1, union.shape[axis] - 1)
        size *= hi - lo + 1
    return size / union.size


def _case_properties(truth: np.ndarray, raters: list[np.ndarray]) -> dict:
    rater_regions = [region_masks(r) for r in raters]
    truth_regions = region_masks(truth)
    patterns = []
    for idx in range(3):
        code = np.zeros(truth.shape, dtype=np.uint8)
        for bit, regions in enumerate(rater_regions):
            code |= regions[idx].astype(np.uint8) << bit
        patterns.append(int(np.count_nonzero(np.bincount(code.ravel(), minlength=2**N_RATERS))))
    stacked = np.stack(raters)
    return {
        "union_bbox_frac": union_bbox_frac([truth_regions[2]] + [r[2] for r in rater_regions]),
        "disagree_frac": float(np.mean((stacked != stacked[0]).any(axis=0))),
        "patterns": patterns,
        "all_agree_regions": sum(
            all(np.array_equal(r[idx], rater_regions[0][idx]) for r in rater_regions[1:])
            for idx in range(3)
        ),
        "rater_et_min": min(int(np.count_nonzero(r == 4)) for r in raters),
    }


def _summarise(per_case: list[dict], bytes_per_case: list[int]) -> dict:
    return {
        "cases": len(per_case),
        "union_bbox_frac_max": max(p["union_bbox_frac"] for p in per_case),
        "disagree_frac_mean": float(np.mean([p["disagree_frac"] for p in per_case])),
        "patterns_max": {
            region: max(p["patterns"][idx] for p in per_case)
            for idx, region in enumerate(("ET", "TC", "WT"))
        },
        "compressed_bytes_per_case": float(np.mean(bytes_per_case)),
        "et_voxels_min": min(p["rater_et_min"] for p in per_case),
        "small_et_cases": sum(0 < p["rater_et_min"] < ET_RELABEL_THRESHOLD for p in per_case),
        "all_agree_regions": sum(p["all_agree_regions"] for p in per_case),
    }


def _cohort_ids(n_cases: int):
    """Fixed BraTS 2021-style ids, laid out so that the fuzzy pairing of
    ``gbmseg evaluate`` goes the same way on every seed.

    Returns (ids with a prediction, ids with a truth).  The paired ids sit
    in distinct hundreds (``00012``, ``00112``, ...).  Orphan prediction
    ``00111`` shares the decade of ``00112`` and sorts before it; the truth
    without prediction ``00150`` shares its hundreds; orphan prediction
    ``01500`` shares only ``BraTS2021_0`` with the rest and comes last.
    """
    paired = [100 * group + 12 for group in range(n_cases - 2)]
    pred_ids = paired + [111, 1500]
    truth_ids = paired + [150]
    name = "BraTS2021_{:05d}".format
    return sorted(map(name, pred_ids)), sorted(map(name, truth_ids))


def generate(workload: str, seed: int, root: Path, tiny: bool = False) -> Dataset:
    """Write the dataset of ``workload`` for ``seed`` under ``root``."""
    spec = (TINY_SPECS if tiny else SPECS)[workload]
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    rater_dirs = [root / f"rater{r}" for r in range(N_RATERS)]
    truth_dir = root / "truth"
    for d in rater_dirs + [truth_dir]:
        d.mkdir(parents=True, exist_ok=True)

    if spec.cohort:
        pred_ids, truth_ids = _cohort_ids(spec.n_cases)
        stems = {cid: f"{cid}_seg" for cid in pred_ids}
        truth_of = {stems[cid]: cid for cid in pred_ids if cid in truth_ids}
    else:
        pred_ids = truth_ids = [f"case{idx:03d}" for idx in range(spec.n_cases)]
        stems = {cid: cid for cid in pred_ids}
        truth_of = dict(stems)

    per_case, bytes_per_case = [], []
    for idx, cid in enumerate(sorted(set(pred_ids) | set(truth_ids))):
        tiny_et = spec.raters == "local" and not spec.cohort and idx == 0
        truth_masks = _tumour(spec.dims, rng, tiny_et)
        truth = labels_from_masks(*truth_masks)
        if spec.raters == "scattered":
            truth_volume = LabelVolume(truth)
            raters = [noisy_rater_labels(truth_volume, rng, 0.05, 0.01).labels
                      for _ in range(N_RATERS)]
        else:
            frozen = (0,) if tiny_et else ()
            step = 1 if spec.cohort else 2
            raters = [_local_rater(truth_masks, r, step, frozen) for r in range(N_RATERS)]
        written = []
        if cid in truth_ids:
            written.append(truth_dir / f"{cid}.nii.gz")
            write_labels(written[-1], truth)
        if cid in pred_ids:
            for d, labels in zip(rater_dirs, raters):
                written.append(d / f"{stems[cid]}.nii.gz")
                write_labels(written[-1], labels)
            per_case.append(_case_properties(truth, raters))
            bytes_per_case.append(sum(p.stat().st_size for p in written))

    properties = _summarise(per_case, bytes_per_case)
    properties["dims"] = list(spec.dims)
    properties["truth_without_prediction"] = len(set(truth_ids) - set(pred_ids))
    properties["predictions_without_truth"] = len(set(pred_ids) - set(truth_ids))
    return Dataset(root, rater_dirs, truth_dir, sorted(stems.values()), truth_of, properties)


def decode_labels(path: Path) -> np.ndarray:
    """Decode a gzip uint8 NIfTI-1 label file without gbmseg's reader."""
    raw = gzip.decompress(path.read_bytes())
    dims = tuple(int(d) for d in np.frombuffer(raw, "<i2", count=3, offset=42))
    if int(np.frombuffer(raw, "<i2", count=1, offset=70)[0]) != DT_UINT8:
        raise ValueError(f"{path}: not a uint8 volume")
    offset = int(np.frombuffer(raw, "<f4", count=1, offset=108)[0])
    count = dims[0] * dims[1] * dims[2]
    return np.frombuffer(raw, np.uint8, count=count, offset=offset).reshape(dims, order="F")
