"""Command-line toolkit: preprocess, augment, fuse, evaluate, report.

Exit codes: 0 success, 1 usage error, 2 data error.  All outputs are
deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import GbmsegError, IoFailure, NoMatchedCases, TooFewRaters
from .fusion import StapleConfig, majority_vote, mean_regions, staple_regions
from .harness import (
    aggregate,
    build_report,
    case_files,
    error_prefix,
    evaluate_dataset,
    rank_all,
    read_labels,
    read_metrics_csv,
    render_aggregate_table,
    summarize_method,
    write_json,
    write_metrics_csv,
)
from .nifti_io import DT_FLOAT32, DT_UINT8, MAX_DIM, NiftiHeader, read_volume, write_volume
from .postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from .preprocess import (
    DEFAULT_TARGET_DIMS,
    apply_augmentation,
    brain_bounding_box,
    crop_and_fit,
    sample_augmentation,
    zscore_normalize,
)
from .volume import LabelVolume, VoxelGrid

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(convert, zero_ok: bool = False, at_most=None):
    """argparse type: ``convert(text)``, which must be > 0, or >= 0 when
    ``zero_ok``, and at most ``at_most`` when given.  NaN fails both tests."""

    def parse(text: str):
        value = convert(text)
        if not (value >= 0 if zero_ok else value > 0):
            wanted = "non-negative" if zero_ok else "positive"
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _refuse_overwrite(inputs: list[Path], outputs: list[Path]) -> None:
    """Raise IoFailure if an output path resolves to an input file."""
    resolved = {p.resolve(): p for p in inputs}
    for out in outputs:
        source = resolved.get(out.resolve())
        if source is not None:
            raise IoFailure(f"output {out} would overwrite input {source}")


def _write_labels(path: Path, labels: LabelVolume) -> None:
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


def _cmd_preprocess(args) -> None:
    out_dir = Path(args.out)
    inputs = [Path(p) for p in args.inputs]
    by_name: dict[str, Path] = {}
    for path in inputs:  # each input is written to out_dir / its file name
        if path.name in by_name:
            raise IoFailure(f"{by_name[path.name]} and {path} would both be written to "
                            f"{out_dir / path.name}")
        by_name[path.name] = path
    _refuse_overwrite(inputs, [out_dir / p.name for p in inputs])
    grids = [read_volume(p)[1] for p in inputs]
    box = brain_bounding_box(grids)
    # Every input is fitted before out_dir exists.  Each is held in its read
    # grid's place, as the float32 that write_volume would cast it to.
    for i, path in enumerate(inputs):
        with error_prefix(str(path)):
            grid = crop_and_fit(grids[i], box, tuple(args.target))
            if not args.no_normalize:
                grid = zscore_normalize(grid)
            grids[i] = VoxelGrid(grid.values.astype(np.float32), grid.spacing, grid.affine)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, grid in zip(inputs, grids):
        write_volume(out_dir / path.name, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
    size = tuple(s.stop - s.start for s in box)
    print(f"preprocessed {len(inputs)} volume(s) to {out_dir} (brain box {size})")


def _cmd_augment(args) -> None:
    _refuse_overwrite([Path(args.input)], [Path(args.out)])
    spec = sample_augmentation(args.seed)
    _, grid = read_volume(args.input)
    if args.labels:  # a foreign label raises BadLabel rather than wrapping in the uint8 write
        grid = LabelVolume.from_grid(grid).to_grid()
    payload = "labels" if args.labels else "intensity"
    augmented = apply_augmentation(grid, spec, payload)
    datatype = DT_UINT8 if args.labels else DT_FLOAT32
    write_volume(args.out, NiftiHeader.for_grid(augmented, datatype), augmented)
    print(json.dumps({**asdict(spec), "payload": payload}, sort_keys=True))


def _cmd_fuse(args) -> None:
    method_dirs = [Path(d) for d in args.methods]
    out_dir = Path(args.out)
    if args.method == "staple" and len(method_dirs) < 2:
        raise TooFewRaters(f"STAPLE needs >= 2 method directories, got {len(method_dirs)}")
    per_dir = [case_files(d) for d in method_dirs]
    common = sorted(set.intersection(*(set(d) for d in per_dir)))
    for d, cases in zip(method_dirs, per_dir):
        for missing in sorted(set(cases) - set(common)):
            logger.warning("case %s only present in %s; skipped", missing, d)
    if not common:
        raise NoMatchedCases(f"no case present in all of {[str(d) for d in method_dirs]}")
    _refuse_overwrite([d[c] for d in per_dir for c in common],
                      [out_dir / f"{c}.nii.gz" for c in common])
    for case_id in common:  # case_files would then refuse out_dir for holding both
        other = out_dir / f"{case_id}.nii"
        if other.is_file():
            raise IoFailure(f"output {out_dir / f'{case_id}.nii.gz'} would be a second file "
                            f"for case {case_id} beside {other}")
    out_dir.mkdir(parents=True, exist_ok=True)

    staple_cfg = StapleConfig(max_iter=args.staple_max_iter, tol=args.staple_tol)
    for case_id in common:
        with error_prefix(f"case {case_id}"):
            raters = [read_labels(d[case_id]) for d in per_dir]
            if args.method == "vote":
                fused = majority_vote(raters)
            elif args.method == "mean":
                fused = mean_regions(raters)
            else:
                fused = staple_regions(raters, staple_cfg)
            fused = et_threshold_relabel(fused, args.et_threshold)
            _write_labels(out_dir / f"{case_id}.nii.gz", fused)
    print(f"fused {len(common)} case(s) with method={args.method} to {out_dir}")


def _cmd_evaluate(args) -> None:
    out_dir = Path(args.out)
    if args.manifest is not None:
        _refuse_overwrite([Path(args.manifest)], [out_dir / "metrics.csv", out_dir / "report.json"])
    cases = evaluate_dataset(args.pred, args.gt, manifest=args.manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = aggregate(cases)
    write_metrics_csv(cases, out_dir / "metrics.csv")
    write_json(build_report(cases, report), out_dir / "report.json")
    print(render_aggregate_table(report), end="")


def _default_names(csvs: list[str]) -> list[str]:
    """Each CSV's file stem; when stems repeat, as ``metrics.csv`` from
    ``evaluate`` runs do, each CSV's directory name if those are unique."""
    paths = [Path(os.path.abspath(p)) for p in csvs]
    stems = [p.stem for p in paths]
    parents = [p.parent.name for p in paths]
    if len(set(stems)) < len(stems) and len(set(parents)) == len(parents):
        return parents
    return stems


def _cmd_report(args) -> None:
    out_dir = Path(args.out)
    names = args.names or _default_names(args.csvs)
    if len(names) != len(args.csvs):
        raise GbmsegError(
            f"{len(args.csvs)} CSV inputs but {len(names)} names"
        )
    _refuse_overwrite([Path(p) for p in args.csvs],
                      [out_dir / "ranking.json", out_dir / "aggregates.txt"])
    summaries = []
    tables = []
    for name, path in zip(names, args.csvs):
        cases = read_metrics_csv(path)
        report = aggregate(cases)
        summaries.append(summarize_method(name, report))
        tables.append(f"== {name} ==\n{render_aggregate_table(report)}")
    orders = rank_all(summaries)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"methods": [asdict(s) for s in summaries], "order": orders}
    write_json(payload, out_dir / "ranking.json")
    (out_dir / "aggregates.txt").write_bytes("\n".join(tables).encode("utf-8"))
    for s in sorted(summaries, key=lambda s: s.ranks["dsc_only"]):
        print(
            f"{s.ranks['dsc_only']:>2}  {s.method_name:<24} "
            f"avg_dsc={s.avg_dsc:.2f} avg_hd95={s.avg_hd95:.2f} ranks={s.ranks}"
        )


def build_parser() -> argparse.ArgumentParser:
    staple = StapleConfig()
    parser = _Parser(prog="gbmseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("preprocess", help="crop to the brain box, fit to target dims, z-score")
    p.add_argument("inputs", nargs="+", help="modality NIfTI volumes of one case")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--target", nargs=3, type=_positive(int, at_most=MAX_DIM),
                   default=list(DEFAULT_TARGET_DIMS), metavar=("X", "Y", "Z"),
                   help=f"target dims, each at most {MAX_DIM} "
                        f"(default {' '.join(map(str, DEFAULT_TARGET_DIMS))})")
    p.add_argument("--no-normalize", action="store_true", help="skip z-score normalization")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("augment", help="preview one seeded augmentation")
    p.add_argument("input", help="input NIfTI volume")
    p.add_argument("--seed", type=_positive(int, zero_ok=True), required=True,
                   help="augmentation seed")
    p.add_argument("--out", required=True, help="output NIfTI path")
    p.add_argument("--labels", action="store_true",
                   help="treat payload as labels (nearest-neighbor, no gamma)")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("fuse", help="fuse per-method label predictions case by case")
    p.add_argument("methods", nargs="+", help="one directory of predictions per method")
    p.add_argument("--method", choices=("mean", "vote", "staple"), default="staple")
    p.add_argument("--out", required=True, help="output directory for fused volumes")
    p.add_argument("--et-threshold", type=_positive(int, zero_ok=True),
                   default=DEFAULT_ET_THRESHOLD,
                   help="relabel ET as necrotic below this voxel count (0 disables)")
    p.add_argument("--staple-max-iter", type=_positive(int), default=staple.max_iter)
    p.add_argument("--staple-tol", type=_positive(float), default=staple.tol)
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
    p.add_argument("--names", nargs="+", default=None,
                   help="method names (default: file stems, or directory names when stems repeat)")
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
