"""Correctness checks of the outputs of one round of the four commands.

An operation is one case output: a fused label file of one method, or one
row of ``metrics.csv``.  The first round of a run is checked against the
benchmark's own references (a numpy plurality vote, a per-region >= R/2
recombination, a per-region STAPLE stepped like ``tests/oracles.py``'s, an
independent Dice, the brute-force HD95 oracle of ``tests/oracles.py`` and,
on the pinned seed, recorded digests).  Outputs are deterministic, so every
later round is checked by comparing its bytes with the first round's.  A
missing, unreadable, wrong or mis-paired output is a failed operation; it
never aborts the run.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import dice_bruteforce, hd_percentiles_bruteforce
from perfbench.datasets import (
    ET_RELABEL_THRESHOLD,
    Dataset,
    decode_labels,
    labels_from_masks,
    region_masks,
)

METHODS = ("staple", "vote", "mean")
_REGIONS = ("et", "tc", "wt")
_BRATS_LABELS = np.array([0, 1, 2, 4], dtype=np.uint8)
# gbmseg.metrics.EmptyMaskPolicy defaults
_BOTH_EMPTY_DSC, _BOTH_EMPTY_HD95, _ONE_EMPTY_HD95 = 100.0, 0.0, 373.1287
# gbmseg fuse --staple-max-iter, --staple-tol and StapleConfig.clamp defaults
STAPLE_MAX_ITER, STAPLE_TOL, STAPLE_CLAMP = 50, 1e-6, 1e-6


@dataclass
class RoundResult:
    """Per-operation verdicts of one round: op id -> (ok, content digest)."""

    ops: dict[str, tuple[bool, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, ok: bool, digest: str, problem: str = "") -> None:
        self.ops[op] = (ok, digest)
        if not ok:
            self.problems.append(f"{op}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not ok for ok, _ in self.ops.values())


def plurality(raters: list[np.ndarray]) -> np.ndarray:
    """Per-voxel most frequent label; ties go to the smallest label."""
    stacked = np.stack(raters)
    counts = np.stack([(stacked == v).sum(axis=0) for v in _BRATS_LABELS])
    return _BRATS_LABELS[counts.argmax(axis=0)]


def region_vote(raters: list[np.ndarray]) -> np.ndarray:
    """Each region kept where at least half the raters mark it, recombined."""
    per_rater = [region_masks(r) for r in raters]
    masks = [2 * sum(m[idx].astype(np.int32) for m in per_rater) >= len(raters)
             for idx in range(3)]
    return labels_from_masks(*masks)


def staple_weights(decisions: np.ndarray, max_iter: int, tol: float) -> np.ndarray:
    """Binary STAPLE weights with the prevalence prior.

    The E- and M-steps are those of ``tests/oracles.reference_staple``, in
    linear space; unlike it, the loop stops as gbmseg's does, once the mean
    absolute change of the weights falls below ``tol``.
    """
    d = decisions.astype(np.float64)
    prior = np.full(d.shape[1], d.mean())
    sens = spec = np.full(d.shape[0], 1.0 - STAPLE_CLAMP)
    weights = prior
    for _ in range(max_iter):
        a, b = prior.copy(), 1.0 - prior
        for j in range(d.shape[0]):
            a *= np.where(d[j] == 1.0, sens[j], 1.0 - sens[j])
            b *= np.where(d[j] == 1.0, 1.0 - spec[j], spec[j])
        new = a / (a + b)
        sens = np.clip(d @ new / new.sum(), STAPLE_CLAMP, 1.0 - STAPLE_CLAMP)
        spec = np.clip((1.0 - d) @ (1.0 - new) / (1.0 - new).sum(),
                       STAPLE_CLAMP, 1.0 - STAPLE_CLAMP)
        delta = np.abs(new - weights).mean()
        weights = new
        if delta < tol:
            break
    return weights


def region_staple(raters: list[np.ndarray]) -> np.ndarray:
    """Per-region STAPLE: a region every rater marks alike passes through,
    otherwise its STAPLE weights are thresholded at 0.5; then recombined."""
    per_rater = [region_masks(r) for r in raters]
    masks = []
    for idx in range(3):
        d = np.stack([m[idx].ravel(order="F") for m in per_rater])
        if (d == d[0]).all():
            masks.append(per_rater[0][idx])
            continue
        weights = staple_weights(d, STAPLE_MAX_ITER, STAPLE_TOL)
        masks.append((weights >= 0.5).reshape(raters[0].shape, order="F"))
    return labels_from_masks(*masks)


def et_relabel(labels: np.ndarray) -> np.ndarray:
    """The ET < 200 rule: a small, non-empty ET becomes necrotic core."""
    n_et = int(np.count_nonzero(labels == 4))
    if 0 < n_et < ET_RELABEL_THRESHOLD:
        return np.where(labels == 4, 1, labels).astype(np.uint8)
    return labels


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: Path):
    """Decoded labels and file digest, or (None, reason) when unreadable."""
    try:
        return decode_labels(path), sha256(path.read_bytes())
    except Exception as err:  # any decode failure is a failed output, not a crash
        return None, f"unreadable ({type(err).__name__}: {err})"


def labels_digest(stems: list[str], out_dir: Path) -> str:
    """Digest of the decoded labels of every case, in stem order."""
    h = hashlib.sha256()
    for stem in stems:
        h.update(stem.encode())
        h.update(decode_labels(out_dir / f"{stem}.nii.gz").tobytes(order="F"))
    return h.hexdigest()


class Checker:
    """Verifies rounds of one run; the first round sets the reference."""

    def __init__(self, ds: Dataset, hd95_sample: int):
        self.ds = ds
        self.hd95_sample = hd95_sample
        self.reference: RoundResult | None = None
        self._raters: dict[str, list[np.ndarray]] = {}

    def _rater_labels(self, stem: str) -> list[np.ndarray]:
        if stem not in self._raters:
            self._raters[stem] = [decode_labels(d / f"{stem}.nii.gz") for d in self.ds.rater_dirs]
        return self._raters[stem]

    def check_round(self, out_dirs: dict[str, Path], metrics_csv: Path) -> RoundResult:
        if self.reference is None:
            self.reference = self._verify(out_dirs, metrics_csv)
            return self.reference
        return self._compare(out_dirs, metrics_csv)

    def _fused_ops(self, out_dirs):
        for method in METHODS:
            for stem in self.ds.cases:
                yield f"{method}/{stem}", out_dirs[method] / f"{stem}.nii.gz", method

    def _verify(self, out_dirs, metrics_csv) -> RoundResult:
        result = RoundResult()
        for op, path, method in self._fused_ops(out_dirs):
            got, digest = _read(path)
            if got is None:
                result.record(op, False, "", digest)
                continue
            stem = path.name[: -len(".nii.gz")]
            raters = self._rater_labels(stem)
            if method == "vote":
                ok = np.array_equal(got, et_relabel(plurality(raters)))
            elif method == "mean":
                ok = np.array_equal(got, et_relabel(region_vote(raters)))
            else:
                ok = np.array_equal(got, et_relabel(region_staple(raters)))
            result.record(op, ok, digest, f"{method} labels differ from the reference")
        self._verify_metrics(result, out_dirs["staple"], metrics_csv)
        return result

    def _verify_metrics(self, result: RoundResult, staple_dir: Path, metrics_csv: Path) -> None:
        rows = _read_rows(metrics_csv)
        expected = {truth: pred for pred, truth in self.ds.truth_of.items()}
        for n, case_id in enumerate(sorted(expected)):
            op = f"row/{case_id}"
            row = rows.pop(case_id, None)
            if row is None:
                result.record(op, False, "", "no row for this case (mis-paired or skipped)")
                continue
            pred, _ = _read(staple_dir / f"{expected[case_id]}.nii.gz")
            truth = decode_labels(self.ds.truth_dir / f"{case_id}.nii.gz")
            problem = "" if pred is not None else "prediction unreadable"
            if pred is not None:
                problem = _row_problem(row, pred, truth, with_hd95=n < self.hd95_sample)
            result.record(op, not problem, sha256(",".join(row).encode()), problem)
        for case_id, row in rows.items():
            result.record(f"row/{case_id}", False, sha256(",".join(row).encode()),
                          "row pairs files that are not one case")

    def _compare(self, out_dirs, metrics_csv) -> RoundResult:
        result = RoundResult()
        seen = set()
        for op, path, _ in self._fused_ops(out_dirs):
            seen.add(op)
            digest = sha256(path.read_bytes()) if path.is_file() else ""
            self._record_same(result, op, digest)
        for case_id, row in _read_rows(metrics_csv).items():
            op = f"row/{case_id}"
            seen.add(op)
            self._record_same(result, op, sha256(",".join(row).encode()))
        for op in set(self.reference.ops) - seen:
            result.record(op, False, "", "output missing in this round")
        return result

    def _record_same(self, result: RoundResult, op: str, digest: str) -> None:
        ref_ok, ref_digest = self.reference.ops.get(op, (False, None))
        if digest != ref_digest:
            result.record(op, False, digest, "differs from the first round")
        else:
            result.record(op, ref_ok, digest, "wrong in the first round too")


def _read_rows(metrics_csv: Path) -> dict[str, list[str]]:
    """case_id -> row of metrics.csv; an unreadable file has no rows."""
    try:
        text = metrics_csv.read_text(encoding="utf-8")
    except OSError:
        return {}
    return {row[0]: row for row in list(csv.reader(io.StringIO(text)))[1:] if row}


def _row_problem(row: list[str], pred: np.ndarray, truth: np.ndarray, with_hd95: bool) -> str:
    """Why a metrics row disagrees with the independent references, or ''."""
    try:
        values = [float(v) for v in row[1:7]]
    except (ValueError, IndexError):
        return f"malformed row {row}"
    pred_regions, truth_regions = region_masks(pred), region_masks(truth)
    for idx, region in enumerate(_REGIONS):
        a, b = pred_regions[idx], truth_regions[idx]
        dsc = dice_bruteforce(a, b, _BOTH_EMPTY_DSC)
        if abs(values[idx] - dsc) > 0.005 + 1e-9:
            return f"dsc_{region} {values[idx]} != {dsc:.4f}"
        if not with_hd95:
            continue
        if not a.any() and not b.any():
            hd = _BOTH_EMPTY_HD95
        elif not a.any() or not b.any():
            hd = _ONE_EMPTY_HD95
        else:
            hd = hd_percentiles_bruteforce(a, b, (1.0, 1.0, 1.0))[0]
        if abs(values[3 + idx] - hd) > 5e-5 + 1e-9:
            return f"hd95_{region} {values[3 + idx]} != {hd:.6f}"
    return ""
