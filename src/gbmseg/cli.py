"""Command-line toolkit: preprocess, augment, fuse, evaluate, report.

Exit codes: 0 success, 1 usage error, 2 data error.  All outputs are
deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import GbmsegError, NoMatchedCases
from .fusion import StapleConfig, majority_vote, mean_regions, staple_regions
from .harness import (
    aggregate,
    build_report,
    case_files,
    evaluate_dataset,
    rank_all,
    read_labels,
    read_metrics_csv,
    render_aggregate_table,
    summarize_method,
    write_json,
    write_metrics_csv,
)
from .metrics import EmptyMaskPolicy
from .nifti_io import DT_FLOAT32, DT_UINT8, NiftiHeader, read_volume, write_volume
from .postprocess import PostprocessConfig, et_threshold_relabel
from .preprocess import (
    DEFAULT_TARGET_DIMS,
    apply_augmentation,
    brain_bounding_box,
    crop_and_fit,
    sample_augmentation,
    zscore_normalize,
)
from .volume import LabelVolume

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_labels(path: Path, labels: LabelVolume) -> None:
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


def _cmd_preprocess(args) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [Path(p) for p in args.inputs]
    grids = [read_volume(p)[1] for p in inputs]
    box = brain_bounding_box(grids)
    target = tuple(args.target)
    for path, grid in zip(inputs, grids):
        fitted = crop_and_fit(grid, box, target)
        if not args.no_normalize:
            fitted = zscore_normalize(fitted)
        write_volume(out_dir / path.name, NiftiHeader.for_grid(fitted, DT_FLOAT32), fitted)
    print(f"preprocessed {len(inputs)} volume(s) to {out_dir} (brain box {box.size})")


def _cmd_augment(args) -> None:
    spec = sample_augmentation(args.seed)
    _, grid = read_volume(args.input)
    payload = "labels" if args.labels else "intensity"
    augmented = apply_augmentation(grid, spec, payload)
    datatype = DT_UINT8 if args.labels else DT_FLOAT32
    write_volume(args.out, NiftiHeader.for_grid(augmented, datatype), augmented)
    print(json.dumps({
        "seed": spec.seed,
        "rotation_axis": spec.rotation_axis,
        "rotation_deg": spec.rotation_deg,
        "flip_axes": list(spec.flip_axes),
        "gamma": spec.gamma,
        "payload": payload,
    }, sort_keys=True))


def _cmd_fuse(args) -> None:
    method_dirs = [Path(d) for d in args.methods]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_dir = [case_files(d) for d in method_dirs]
    common = sorted(set.intersection(*(set(d) for d in per_dir))) if per_dir else []
    for d, cases in zip(method_dirs, per_dir):
        for missing in sorted(set(cases) - set(common)):
            logger.warning("case %s only present in %s; skipped", missing, d)
    if not common:
        raise NoMatchedCases(f"no case present in all of {[str(d) for d in method_dirs]}")

    staple_cfg = StapleConfig(max_iter=args.staple_max_iter, tol=args.staple_tol)
    post_cfg = PostprocessConfig(et_threshold=args.et_threshold)
    for case_id in common:
        raters = [read_labels(d[case_id], case_id) for d in per_dir]
        if args.method == "vote":
            fused = majority_vote(raters)
        elif args.method == "mean":
            fused = mean_regions(raters)
        else:
            fused = staple_regions(raters, staple_cfg)
        fused = et_threshold_relabel(fused, post_cfg)
        _write_labels(out_dir / f"{case_id}.nii.gz", fused)
    print(f"fused {len(common)} case(s) with method={args.method} to {out_dir}")


def _cmd_evaluate(args) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = evaluate_dataset(args.pred, args.gt, EmptyMaskPolicy(), manifest=args.manifest)
    report = aggregate(cases)
    write_metrics_csv(cases, out_dir / "metrics.csv")
    write_json(build_report(cases, report), out_dir / "report.json")
    print(render_aggregate_table(report), end="")


def _cmd_report(args) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = args.names or [Path(p).stem for p in args.csvs]
    if len(names) != len(args.csvs):
        raise GbmsegError(
            f"{len(args.csvs)} CSV inputs but {len(names)} names"
        )
    summaries = []
    tables = []
    for name, path in zip(names, args.csvs):
        cases = read_metrics_csv(path)
        report = aggregate(cases)
        summaries.append(summarize_method(name, report))
        tables.append(f"== {name} ==\n{render_aggregate_table(report)}")
    orders = rank_all(summaries)
    payload = {
        "methods": [
            {
                "method_name": s.method_name,
                "avg_dsc": s.avg_dsc,
                "avg_hd95": s.avg_hd95,
                "ranks": s.ranks,
            }
            for s in summaries
        ],
        "order": orders,
    }
    write_json(payload, out_dir / "ranking.json")
    (out_dir / "aggregates.txt").write_bytes("\n".join(tables).encode("utf-8"))
    for s in sorted(summaries, key=lambda s: s.ranks["dsc_only"]):
        print(
            f"{s.ranks['dsc_only']:>2}  {s.method_name:<24} "
            f"avg_dsc={s.avg_dsc:.2f} avg_hd95={s.avg_hd95:.2f} ranks={s.ranks}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gbmseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("preprocess", help="crop to the brain box, fit to target dims, z-score")
    p.add_argument("inputs", nargs="+", help="modality NIfTI volumes of one case")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target", nargs=3, type=int, default=list(DEFAULT_TARGET_DIMS),
                   metavar=("X", "Y", "Z"), help="target dims (default 192 224 160)")
    p.add_argument("--no-normalize", action="store_true", help="skip z-score normalization")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("augment", help="preview one seeded augmentation")
    p.add_argument("input", help="input NIfTI volume")
    p.add_argument("--seed", type=int, required=True, help="augmentation seed")
    p.add_argument("--out", required=True, help="output NIfTI path")
    p.add_argument("--labels", action="store_true",
                   help="treat payload as labels (nearest-neighbor, no gamma)")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("fuse", help="fuse per-method label predictions case by case")
    p.add_argument("methods", nargs="+", help="one directory of predictions per method")
    p.add_argument("--method", choices=("mean", "vote", "staple"), default="staple")
    p.add_argument("--out", required=True, help="output directory for fused volumes")
    p.add_argument("--et-threshold", type=int, default=200,
                   help="relabel ET as necrotic below this voxel count (0 disables)")
    p.add_argument("--staple-max-iter", type=int, default=50)
    p.add_argument("--staple-tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted label volumes")
    p.add_argument("--gt", required=True, help="directory of ground-truth label volumes")
    p.add_argument("--out", required=True, help="output directory for CSV/JSON reports")
    p.add_argument("--manifest", default=None,
                   help="explicit case_id,pred,gt pairing CSV (overrides matching)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="aggregate metric CSVs and rank the methods")
    p.add_argument("csvs", nargs="+", help="per-method metrics CSV files")
    p.add_argument("--names", nargs="+", default=None, help="method names (default: file stems)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else 1
    logging.basicConfig(format="%(levelname)s: %(message)s")
    try:
        args.func(args)
    except (GbmsegError, OSError) as err:
        print(f"gbmseg: error: {err}", file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
