"""The pipeline benchmark's tracer (``perfbench/tracing.py``) patches gbmseg
functions by module and attribute name.  These tests keep that contract in
the fast suite: every traced name must exist, and traced ``fuse`` runs with
each method, plus ``evaluate``, must record spans at the layers the
benchmark reports.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from gbmseg import fusion  # noqa: E402
from gbmseg.cli import main  # noqa: E402
from gbmseg.nifti_io import DT_UINT8, NiftiHeader, write_volume  # noqa: E402
from perfbench.tracing import TRACED, Tracer  # noqa: E402

from phantoms import nested_label_phantom, noisy_rater_labels  # noqa: E402


def write_labels(path, labels):
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


def write_method_dirs(tmp_path):
    """A truth directory and three noisy method directories of one case."""
    rng = np.random.default_rng(23)
    truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    write_labels(gt_dir / "case_000.nii.gz", truth)
    method_dirs = []
    for i in range(3):
        method_dirs.append(tmp_path / f"method{i}")
        method_dirs[-1].mkdir()
        write_labels(method_dirs[-1] / "case_000.nii.gz",
                     noisy_rater_labels(truth, rng, miss=0.05, add=0.005))
    return method_dirs, gt_dir


def test_traced_fuse_and_evaluate_record_each_layer(tmp_path, capsys):
    for name, (owner, attr) in TRACED.items():
        assert callable(getattr(owner, attr, None)), name
    method_dirs, gt_dir = write_method_dirs(tmp_path)
    fused_dir = tmp_path / "fused"
    original = fusion.staple_binary

    tracer = Tracer()
    tracer.install()
    try:
        assert main(["fuse", *map(str, method_dirs), "--method", "staple",
                     "--out", str(fused_dir)]) == 0
        assert main(["evaluate", "--pred", str(fused_dir), "--gt", str(gt_dir),
                     "--out", str(tmp_path / "eval")]) == 0
    finally:
        tracer.uninstall()

    recorded = {span.name for span in tracer.spans}
    for name in ("nifti_io.read_volume", "nifti_io.write_volume", "volume.from_grid",
                 "fusion.staple_regions", "fusion.staple_binary", "volume.compose_regions",
                 "metrics.hd95", "metrics.surface_voxels"):
        assert name in recorded, name
    assert tracer.staple_iterations and all(n >= 1 for n in tracer.staple_iterations)
    assert fusion.staple_binary is original


@pytest.mark.parametrize("method, layers", [
    ("vote", ("fusion.majority_vote",)),
    ("mean", ("volume.compose_regions", "volume.decompose_regions")),
])
def test_traced_fuse_records_each_method_layer(tmp_path, capsys, method, layers):
    method_dirs, _ = write_method_dirs(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["fuse", *map(str, method_dirs), "--method", method,
                     "--out", str(tmp_path / "fused")]) == 0
    finally:
        tracer.uninstall()

    recorded = [span.name for span in tracer.spans]
    for name in layers:
        assert name in recorded, name
    if method == "mean":  # one compose per rater
        assert recorded.count("volume.compose_regions") == len(method_dirs)
