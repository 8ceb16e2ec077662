"""The pipeline benchmark's tracer (``perfbench/tracing.py``) patches gbmseg
functions by module and attribute name.  These tests keep that contract in
the fast suite: every traced name must exist, traced ``fuse`` runs with
each method, plus ``evaluate``, must record spans at the layers the
benchmark reports, and the tracer's ``staple_binary`` hook must still count
the iterations of a traced call (``fuse`` no longer calls it: label STAPLE
runs its EM on joint-code tables).
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
from gbmseg.volume import compose_regions  # noqa: E402
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

    tracer = Tracer()
    tracer.install()
    try:
        assert main(["fuse", *map(str, method_dirs), "--method", "staple",
                     "--out", str(fused_dir)]) == 0
        fuse_spans = len(tracer.spans)
        assert main(["evaluate", "--pred", str(fused_dir), "--gt", str(gt_dir),
                     "--out", str(tmp_path / "eval")]) == 0
    finally:
        tracer.uninstall()

    fuse = {span.name for span in tracer.spans[:fuse_spans]}
    for name in ("nifti_io.read_volume", "nifti_io.write_volume", "volume.from_grid",
                 "fusion.staple_regions"):
        assert name in fuse, name
    evaluate = {span.name for span in tracer.spans[fuse_spans:]}
    for name in ("volume.compose_regions", "metrics.hd95", "metrics.surface_voxels"):
        assert name in evaluate, name


def test_traced_staple_binary_counts_its_iterations():
    rng = np.random.default_rng(29)
    truth = nested_label_phantom(dims=(12, 12, 12), wt_radius=5, tc_radius=3, et_radius=2)
    masks = [compose_regions(noisy_rater_labels(truth, rng, miss=0.1, add=0.02))[2]
             for _ in range(3)]
    original = fusion.staple_binary

    tracer = Tracer()
    tracer.install()
    try:
        result = fusion.staple_binary(masks)
    finally:
        tracer.uninstall()

    assert [span.name for span in tracer.spans] == ["fusion.staple_binary"]
    assert tracer.staple_iterations == [result.iterations] and result.iterations >= 1
    assert tracer.counts["fusion.staple_bytes_computed"] > 0
    assert fusion.staple_binary is original


# `fuse --method mean` calls no traced fusion function and composes no region mask
@pytest.mark.parametrize("method, layers", [
    ("vote", ("fusion.majority_vote",)),
    ("mean", ()),
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
    for name in ("nifti_io.read_volume", "volume.from_grid", "postprocess.et_threshold_relabel",
                 "nifti_io.write_volume", *layers):
        assert name in recorded, name
    assert "volume.compose_regions" not in recorded
    assert "volume.decompose_regions" not in recorded
