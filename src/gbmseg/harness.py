"""Batch evaluation harness: case pairing, dataset metrics, aggregate
statistics, method ranking, and the CSV/JSON/text report formats.

Case pairing rule: prediction and ground-truth files pair by identical
filename stem (the name minus ``.nii``/``.nii.gz``); files that do not
match exactly fall back to the unique longest-common-substring partner
(at least 4 characters).  Unpaired or ambiguous files are reported as
warnings and skipped.  An explicit manifest CSV (columns
``case_id,pred,gt``) overrides the rule entirely.

Report shapes: the per-case CSV has the fixed column set
``case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt`` (UTF-8, header
row, LF endings; DSC with two decimals, HD95 with four); the aggregate
table lays out the five statistics rows by the three region columns per
metric.  All outputs are deterministic functions of their inputs.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from pathlib import Path

import numpy as np

from .errors import EmptyInput, GbmsegError, NoMatchedCases, UnreadableVolume
from .metrics import CaseMetrics, EmptyMaskPolicy, evaluate_case
from .nifti_io import read_volume
from .volume import REGIONS, LabelVolume, Region

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("case_id", "dsc_et", "dsc_tc", "dsc_wt", "hd95_et", "hd95_tc", "hd95_wt")

RANK_STRATEGIES = ("dsc_only", "avg_rank", "dsc_minus_hd95")

_STAT_ROWS = (
    ("Mean", "mean"),
    ("StdDev", "std_dev"),
    ("Median", "median"),
    ("25quantile", "quantile_25"),
    ("75quantile", "quantile_75"),
)

_MIN_MATCH_CHARS = 4


@dataclass(frozen=True)
class SummaryStats:
    """Mean, population std-dev, median and quartiles of one metric."""

    mean: float
    std_dev: float
    median: float
    quantile_25: float
    quantile_75: float

    def __post_init__(self):
        if not self.quantile_25 <= self.median <= self.quantile_75:
            raise ValueError("quantiles out of order")


@dataclass(frozen=True)
class AggregateReport:
    """Dataset-level statistics per region and metric."""

    dsc: dict[Region, SummaryStats]
    hd95: dict[Region, SummaryStats]
    n_cases: int

    def __post_init__(self):
        if self.n_cases < 1:
            raise ValueError("n_cases must be >= 1")


@dataclass
class MethodSummary:
    """One method's headline numbers plus its rank under each strategy."""

    method_name: str
    avg_dsc: float
    avg_hd95: float
    ranks: dict[str, int] = field(default_factory=dict)


def _case_stem(path: Path) -> str:
    name = path.name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def case_files(directory) -> dict[str, Path]:
    """Map case stem to path for every ``.nii``/``.nii.gz`` file in a directory."""
    return {
        _case_stem(p): p for p in sorted(Path(directory).iterdir())
        if p.is_file() and p.name.endswith((".nii", ".nii.gz"))
    }


def _longest_common_substring(a: str, b: str) -> str:
    match = SequenceMatcher(None, a, b, autojunk=False).find_longest_match(0, len(a), 0, len(b))
    return a[match.a : match.a + match.size]


def pair_cases(
    pred_dir, gt_dir, manifest=None
) -> list[tuple[str, Path, Path]]:
    """Match prediction files to ground-truth files; see module docstring.

    Returns (case_id, pred_path, gt_path) triples sorted by case_id.
    """
    if manifest is not None:
        return _pairs_from_manifest(Path(manifest))
    preds = case_files(pred_dir)
    gts = case_files(gt_dir)

    pairs: list[tuple[str, Path, Path]] = []
    matched_gt: set[str] = set()
    leftovers: list[str] = []
    for stem in sorted(preds):
        if stem in gts:
            pairs.append((stem, preds[stem], gts[stem]))
            matched_gt.add(stem)
        else:
            leftovers.append(stem)

    free_gts = sorted(set(gts) - matched_gt)
    for stem in leftovers:
        common = {g: _longest_common_substring(stem, g) for g in free_gts}
        best = max((len(c) for c in common.values()), default=0)
        winners = [g for g, c in common.items() if len(c) == best]
        if best >= _MIN_MATCH_CHARS and len(winners) == 1:
            gt_stem = winners[0]
            case_id = common[gt_stem].strip("_-.") or stem
            pairs.append((case_id, preds[stem], gts[gt_stem]))
            free_gts.remove(gt_stem)
        else:
            logger.warning("prediction %s has no unique ground-truth match; skipped", preds[stem])
    for g in free_gts:
        logger.warning("ground truth %s has no prediction; skipped", gts[g])
    return sorted(pairs)


def _pairs_from_manifest(manifest: Path) -> list[tuple[str, Path, Path]]:
    base = manifest.parent
    pairs = []
    with open(manifest, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pred = Path(row["pred"])
            gt = Path(row["gt"])
            pairs.append((
                row["case_id"],
                pred if pred.is_absolute() else base / pred,
                gt if gt.is_absolute() else base / gt,
            ))
    return sorted(pairs)


def read_labels(path, case_id: str) -> LabelVolume:
    """Read one case's label volume; any failure names the case and file."""
    try:
        _, grid = read_volume(path)
        return LabelVolume.from_grid(grid)
    except (GbmsegError, OSError) as err:
        raise UnreadableVolume(f"case {case_id}: {path}: {err}") from err


def evaluate_dataset(
    pred_dir,
    gt_dir,
    policy: EmptyMaskPolicy = EmptyMaskPolicy(),
    manifest=None,
) -> list[CaseMetrics]:
    """Evaluate every matched prediction/ground-truth pair in two trees."""
    pairs = pair_cases(pred_dir, gt_dir, manifest)
    if not pairs:
        raise NoMatchedCases(f"no case pairs between {pred_dir} and {gt_dir}")
    results = []
    for case_id, pred_path, gt_path in pairs:
        pred = read_labels(pred_path, case_id)
        gt = read_labels(gt_path, case_id)
        results.append(evaluate_case(pred, gt, policy, case_id=case_id))
    return results


def aggregate(cases: list[CaseMetrics]) -> AggregateReport:
    """Mean / population std-dev / median / quartiles per region and metric.

    Quantiles use linear interpolation between order statistics.
    """
    if not cases:
        raise EmptyInput("no cases to aggregate")

    def stats(values: list[float]) -> SummaryStats:
        # sorted so the statistics are exactly permutation invariant
        arr = np.sort(np.asarray(values, dtype=np.float64))
        return SummaryStats(
            mean=float(arr.mean()),
            std_dev=float(arr.std()),
            median=float(np.percentile(arr, 50)),
            quantile_25=float(np.percentile(arr, 25)),
            quantile_75=float(np.percentile(arr, 75)),
        )

    return AggregateReport(
        dsc={r: stats([c.dsc(r) for c in cases]) for r in REGIONS},
        hd95={r: stats([c.hd95(r) for c in cases]) for r in REGIONS},
        n_cases=len(cases),
    )


def summarize_method(method_name: str, report: AggregateReport) -> MethodSummary:
    """Collapse an aggregate report to the two ranking scores."""
    avg_dsc = float(np.mean([report.dsc[r].mean for r in REGIONS]))
    avg_hd95 = float(np.mean([report.hd95[r].mean for r in REGIONS]))
    return MethodSummary(method_name, avg_dsc, avg_hd95)


def _competition_ranks(values: list[float], descending: bool) -> list[int]:
    ordered = sorted(values, reverse=descending)
    return [ordered.index(v) + 1 for v in values]


def rank_methods(summaries: list[MethodSummary], strategy: str) -> list[MethodSummary]:
    """Order methods best-first under one strategy.

    dsc_only: average DSC descending, ties by average HD95 ascending.
    avg_rank: mean of the DSC rank and the HD95 rank, ties by average DSC.
    dsc_minus_hd95: avg_dsc - avg_hd95 descending.
    Remaining ties resolve by method name so the order is total.
    """
    if not summaries:
        raise EmptyInput("no method summaries to rank")
    if strategy == "dsc_only":
        key = lambda s: (-s.avg_dsc, s.avg_hd95, s.method_name)
    elif strategy == "avg_rank":
        dsc_ranks = _competition_ranks([s.avg_dsc for s in summaries], descending=True)
        hd_ranks = _competition_ranks([s.avg_hd95 for s in summaries], descending=False)
        mean_rank = {
            s.method_name: (dr + hr) / 2.0
            for s, dr, hr in zip(summaries, dsc_ranks, hd_ranks)
        }
        key = lambda s: (mean_rank[s.method_name], -s.avg_dsc, s.method_name)
    elif strategy == "dsc_minus_hd95":
        key = lambda s: (-(s.avg_dsc - s.avg_hd95), -s.avg_dsc, s.method_name)
    else:
        raise ValueError(f"unknown ranking strategy {strategy!r}")
    return sorted(summaries, key=key)


def rank_all(summaries: list[MethodSummary]) -> dict[str, list[str]]:
    """Apply every strategy; fills each summary's ranks and returns the
    best-first name order per strategy."""
    orders = {}
    for strategy in RANK_STRATEGIES:
        ranked = rank_methods(summaries, strategy)
        for position, summary in enumerate(ranked, start=1):
            summary.ranks[strategy] = position
        orders[strategy] = [s.method_name for s in ranked]
    return orders


# --- report rendering ---------------------------------------------------


def format_case_row(case: CaseMetrics) -> str:
    return (
        f"{case.case_id},{case.dsc_et:.2f},{case.dsc_tc:.2f},{case.dsc_wt:.2f},"
        f"{case.hd95_et:.4f},{case.hd95_tc:.4f},{case.hd95_wt:.4f}"
    )


def write_metrics_csv(cases: list[CaseMetrics], path) -> None:
    """Write the fixed-schema per-case CSV (UTF-8, LF endings)."""
    lines = [",".join(CSV_COLUMNS)] + [format_case_row(c) for c in cases]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_metrics_csv(path) -> list[CaseMetrics]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise EmptyInput(f"{path}: not a metrics CSV (columns {reader.fieldnames})")
        return [
            CaseMetrics(
                case_id=row["case_id"],
                **{k: float(row[k]) for k in CSV_COLUMNS[1:]},
            )
            for row in reader
        ]


def render_aggregate_table(report: AggregateReport) -> str:
    """Fixed-width text table: five statistic rows, region columns per metric."""
    label_w, cell_w = 12, 10
    lines = [
        f"{'':<{label_w}}" + f"{'DSC':<{3 * cell_w}}" + "HD95",
        f"{'':<{label_w}}" + "".join(f"{r.value:<{cell_w}}" for r in REGIONS) * 2,
    ]
    for label, attr in _STAT_ROWS:
        cells = [getattr(report.dsc[r], attr) for r in REGIONS]
        cells += [getattr(report.hd95[r], attr) for r in REGIONS]
        lines.append(f"{label:<{label_w}}" + "".join(f"{v:<{cell_w}.2f}" for v in cells))
    lines.append(f"n_cases     {report.n_cases}")
    return "\n".join(lines) + "\n"


def _stats_dict(stats: SummaryStats) -> dict[str, float]:
    return {
        "mean": stats.mean,
        "std_dev": stats.std_dev,
        "median": stats.median,
        "quantile_25": stats.quantile_25,
        "quantile_75": stats.quantile_75,
    }


def build_report(cases: list[CaseMetrics], report: AggregateReport) -> dict:
    """JSON-ready dict mirroring the CSV schema plus the aggregate block."""
    return {
        "n_cases": report.n_cases,
        "cases": [
            {column: getattr(c, column) for column in CSV_COLUMNS} for c in cases
        ],
        "aggregate": {
            "dsc": {r.value: _stats_dict(report.dsc[r]) for r in REGIONS},
            "hd95": {r.value: _stats_dict(report.hd95[r]) for r in REGIONS},
        },
    }


def write_json(payload: dict, path) -> None:
    Path(path).write_bytes(
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
