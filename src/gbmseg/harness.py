"""Batch evaluation harness: case pairing, dataset metrics, aggregate
statistics, method ranking, and the CSV/JSON/text report formats.

Case pairing rule: prediction and ground-truth files pair by identical
filename stem (the name minus ``.nii``/``.nii.gz``); files that do not
match exactly fall back to the unique longest-common-substring partner
(at least 4 characters), and that substring, stripped of ``_-.``, is the
case id.  A fallback whose case id repeats one already paired is
ambiguous, and its ground truth stays free for the files after it.
Unpaired or ambiguous files are reported as warnings and skipped.  An
explicit manifest CSV (columns ``case_id,pred,gt``, each case_id on one
row only) overrides the rule entirely.

Report shapes: the per-case CSV has the fixed column set
``case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt`` (UTF-8, header
row, one row per case_id, LF endings; DSC with two decimals, HD95 with
four); the aggregate table lays out the five statistics rows by the three
region columns per metric.  All outputs are deterministic functions of
their inputs.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from difflib import SequenceMatcher
from pathlib import Path

import numpy as np

from .errors import EmptyInput, GbmsegError, IoFailure, NoMatchedCases, UnreadableVolume
from .metrics import CaseMetrics, evaluate_case
from .nifti_io import read_volume
from .volume import REGIONS, LabelVolume, Region

logger = logging.getLogger(__name__)

CSV_COLUMNS = tuple(f.name for f in fields(CaseMetrics))

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
    """Map case stem to path for every ``.nii``/``.nii.gz`` file in a
    directory; two files for one case (``c1.nii`` and ``c1.nii.gz``) raise
    :class:`IoFailure` rather than one silently shadowing the other."""
    files: dict[str, Path] = {}
    for path in sorted(Path(directory).iterdir()):
        if path.is_file() and path.name.endswith((".nii", ".nii.gz")):
            stem = _case_stem(path)
            if stem in files:
                raise IoFailure(f"case {stem} has two files: {files[stem]} and {path}")
            files[stem] = path
    return files


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
    paired_ids: set[str] = set()
    leftovers: list[str] = []
    for stem in sorted(preds):
        if stem in gts:
            pairs.append((stem, preds[stem], gts[stem]))
            paired_ids.add(stem)
        else:
            leftovers.append(stem)

    free_gts = sorted(set(gts) - paired_ids)
    for stem in leftovers:
        common = {g: _longest_common_substring(stem, g) for g in free_gts}
        best = max((len(c) for c in common.values()), default=0)
        winners = [g for g, c in common.items() if len(c) == best]
        case_id = None
        if best >= _MIN_MATCH_CHARS and len(winners) == 1:
            case_id = common[winners[0]].strip("_-.") or stem
        if case_id is None or case_id in paired_ids:
            logger.warning("prediction %s has no unique ground-truth match; skipped", preds[stem])
            continue
        pairs.append((case_id, preds[stem], gts[winners[0]]))
        paired_ids.add(case_id)
        free_gts.remove(winners[0])
    for g in free_gts:
        logger.warning("ground truth %s has no prediction; skipped", gts[g])
    return sorted(pairs)


def _csv_rows(reader: csv.DictReader, path):
    """Yield the rows of ``reader``; a row whose field count differs from
    the header's, or that repeats a ``case_id``, raises IoFailure naming
    the file and line."""
    first_line: dict[str, int] = {}
    for row in reader:
        if None in row or None in row.values():
            raise IoFailure(
                f"{path}: line {reader.line_num}: expected {len(reader.fieldnames)} fields")
        case_id = row["case_id"]
        if case_id in first_line:
            raise IoFailure(f"{path}: line {reader.line_num}: case_id {case_id!r} "
                            f"already given on line {first_line[case_id]}")
        first_line[case_id] = reader.line_num
        yield row


def _pairs_from_manifest(manifest: Path) -> list[tuple[str, Path, Path]]:
    base = manifest.parent
    pairs = []
    with open(manifest, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = sorted({"case_id", "pred", "gt"} - set(reader.fieldnames or ()))
        if missing:
            raise IoFailure(f"{manifest}: manifest has no column {', '.join(missing)}")
        for row in _csv_rows(reader, manifest):
            pred = Path(row["pred"])
            gt = Path(row["gt"])
            pairs.append((
                row["case_id"],
                pred if pred.is_absolute() else base / pred,
                gt if gt.is_absolute() else base / gt,
            ))
    return sorted(pairs)


def read_labels(path) -> LabelVolume:
    """Read one label volume; any failure is an UnreadableVolume naming the file."""
    try:
        _, grid = read_volume(path)
        return LabelVolume.from_grid(grid)
    except (GbmsegError, OSError) as err:
        raise UnreadableVolume(f"{path}: {err}") from err


@contextmanager
def case_context(case_id: str):
    """Prefix ``case <id>: `` to a GbmsegError raised inside, keeping its class."""
    try:
        yield
    except GbmsegError as err:
        raise type(err)(f"case {case_id}: {err}") from err


def evaluate_dataset(pred_dir, gt_dir, manifest=None) -> list[CaseMetrics]:
    """Evaluate every matched prediction/ground-truth pair in two trees."""
    pairs = pair_cases(pred_dir, gt_dir, manifest)
    if not pairs:
        raise NoMatchedCases(f"no case pairs between {pred_dir} and {gt_dir}")
    results = []
    for case_id, pred_path, gt_path in pairs:
        with case_context(case_id):
            pred, gt = read_labels(pred_path), read_labels(gt_path)
            results.append(evaluate_case(pred, gt, case_id=case_id))
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
    Remaining ties resolve by method name so the order is total, and a
    repeated name raises GbmsegError: the orders are lists of names.
    """
    if not summaries:
        raise EmptyInput("no method summaries to rank")
    names = [s.method_name for s in summaries]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise GbmsegError(f"method names must be unique; repeated: {repeated}")
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


def write_metrics_csv(cases: list[CaseMetrics], path) -> None:
    """Write the fixed-schema per-case CSV (UTF-8, LF endings); a case id
    holding a comma or a quote is quoted, so ``read_metrics_csv`` reads it back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(
            (c.case_id, f"{c.dsc_et:.2f}", f"{c.dsc_tc:.2f}", f"{c.dsc_wt:.2f}",
             f"{c.hd95_et:.4f}", f"{c.hd95_tc:.4f}", f"{c.hd95_wt:.4f}")
            for c in cases
        )


def _metric_value(column: str, text: str) -> float:
    """One metrics-CSV cell: a finite DSC in [0, 100] or a finite HD95 >= 0."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    if column.startswith("dsc") and not 0.0 <= value <= 100.0:
        raise ValueError(f"{column} {text} outside [0, 100]")
    if column.startswith("hd95") and value < 0.0:
        raise ValueError(f"{column} {text} is negative")
    return value


def read_metrics_csv(path) -> list[CaseMetrics]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise EmptyInput(f"{path}: not a metrics CSV (columns {reader.fieldnames})")
        cases = []
        for row in _csv_rows(reader, path):
            try:
                values = {k: _metric_value(k, row[k]) for k in CSV_COLUMNS[1:]}
            except ValueError as err:
                raise IoFailure(f"{path}: line {reader.line_num}: {err}") from err
            cases.append(CaseMetrics(case_id=row["case_id"], **values))
        return cases


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


def build_report(cases: list[CaseMetrics], report: AggregateReport) -> dict:
    """JSON-ready dict mirroring the CSV schema plus the aggregate block."""
    return {
        "n_cases": report.n_cases,
        "cases": [asdict(c) for c in cases],
        "aggregate": {
            "dsc": {r.value: asdict(report.dsc[r]) for r in REGIONS},
            "hd95": {r.value: asdict(report.hd95[r]) for r in REGIONS},
        },
    }


def write_json(payload: dict, path) -> None:
    Path(path).write_bytes(
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
