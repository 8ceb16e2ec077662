"""Command-line toolkit: preprocess, augment, fuse, evaluate, report.

Exit codes: 0 success, 1 usage error, 2 data error.  All outputs are
deterministic given identical inputs and flags.  ``fuse`` and ``evaluate``
match case files across directories by one rule, ``harness.match_cases``,
and ``fuse`` names each output ``<case_id>.nii.gz``.  A command that exits
non-zero leaves no file or directory it created, and an existing ``--out``
keeps its old contents.  A data error prints one ``gbmseg: error:`` line:
the reader or writer names the file, and the command prefixes only what
the file cannot say, such as ``case <id>`` or the pair of inputs compared.
The output plan names a failed output as asked for, ``<out>/<name>``, never
its staged copy.  This module opens no file itself.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .errors import (GbmsegError, IoFailure, NoMatchedCases, TooFewRaters, TooManyRaters,
                     error_prefix)
from .fusion import MAX_LABEL_RATERS, StapleConfig, majority_vote, mean_regions, staple_regions
from .harness import (
    aggregate,
    build_report,
    each_case,
    evaluate_dataset,
    match_cases,
    rank_all,
    read_labels,
    read_metrics_csv,
    render_aggregate_table,
    summarize_method,
    write_json,
    write_metrics_csv,
    write_text,
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
from .volume import LabelVolume, require_same_geometry


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


@contextmanager
def _output_plan(out_dir: Path, names: list[str], inputs: list, sources=None):
    """Check a command's outputs, ``out_dir / name`` for each of ``names``,
    before anything is read or created; ``sources[i]``, when given, names
    what output i is written from.  Yield a hidden directory in ``out_dir``
    to write them in.  On success each file replaces its output; on any error
    the plan removes that directory, then each directory it made, and
    re-raises, a GbmsegError with each staged file named as its output.
    Two spellings of one NIfTI output, ``x.nii`` and ``x.nii.gz``, are one
    output, so one run never leaves both."""
    outputs = [out_dir / name for name in names]
    resolved, planned = {Path(p).resolve(): p for p in inputs}, {}
    for out, source in zip(outputs, sources or outputs):
        key = out.resolve()
        nifti = out.name.endswith((".nii", ".nii.gz"))
        other = out.with_name(out.name[:-3] if out.name.endswith(".gz") else out.name + ".gz")
        if key in resolved:
            raise IoFailure(f"output {out} would overwrite input {resolved[key]}")
        one = key.with_name(key.name.removesuffix(".gz")) if nifti else key
        if one in planned:
            raise IoFailure(f"{planned[one]} and {source} would both be written to {out}")
        if out.is_dir():  # checked now, so that no os.replace below can fail on it
            raise IoFailure(f"output {out} is a directory")
        if nifti and other.is_file():
            raise IoFailure(f"output {out} would be a second file beside {other}")
        planned[one] = source
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    with error_prefix(str(out_dir)):
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".gbmseg-", dir=out_dir))
    try:
        yield staging
        for name in names:
            with error_prefix(str(out_dir / name)):
                os.replace(staging / name, out_dir / name)
    except BaseException as err:
        shutil.rmtree(staging)
        for d in made:  # deepest first; never one the plan did not make
            d.rmdir()
        if not isinstance(err, GbmsegError):
            raise
        message = str(err)
        for name in names:
            message = message.replace(str(staging / name), str(out_dir / name))
        raise type(err)(message) from err
    staging.rmdir()


def _write_labels(path: Path, labels: LabelVolume) -> None:
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


def _cmd_preprocess(args) -> None:
    out_dir = Path(args.out)
    inputs = [Path(p) for p in args.inputs]
    with _output_plan(out_dir, [p.name for p in inputs], inputs, sources=inputs) as staging:
        grids = [read_volume(p)[1] for p in inputs]
        for path, grid in zip(inputs[1:], grids[1:]):
            with error_prefix(f"{inputs[0]} and {path}"):
                require_same_geometry(grids[0], grid)
        box = brain_bounding_box(grids)
        for path, grid in zip(inputs, grids):
            with error_prefix(str(path)):
                grid = crop_and_fit(grid, box, tuple(args.target))
                if not args.no_normalize:
                    grid = zscore_normalize(grid)
            write_volume(staging / path.name, NiftiHeader.for_grid(grid, DT_FLOAT32), grid)
    size = tuple(s.stop - s.start for s in box)
    print(f"preprocessed {len(inputs)} volume(s) to {out_dir} (brain box {size})")


def _cmd_augment(args) -> None:
    out = Path(args.out)
    spec = sample_augmentation(args.seed)
    payload = "labels" if args.labels else "intensity"
    with _output_plan(out.parent, [out.name], [args.input]) as staging:
        # a foreign label raises BadLabel rather than wrapping in the uint8 write
        grid = read_labels(args.input).to_grid() if args.labels else read_volume(args.input)[1]
        augmented = apply_augmentation(grid, spec, payload)
        datatype = DT_UINT8 if args.labels else DT_FLOAT32
        write_volume(staging / out.name, NiftiHeader.for_grid(augmented, datatype), augmented)
    print(json.dumps({**asdict(spec), "payload": payload}, sort_keys=True))


def _cmd_fuse(args) -> None:
    method_dirs = [Path(d) for d in args.methods]
    out_dir = Path(args.out)
    if len(method_dirs) > MAX_LABEL_RATERS:
        raise TooManyRaters(f"fuse takes at most {MAX_LABEL_RATERS} method directories, "
                            f"got {len(method_dirs)}")
    if args.method == "staple" and len(method_dirs) < 2:
        raise TooFewRaters(f"STAPLE needs >= 2 method directories, got {len(method_dirs)}")
    cases = match_cases(method_dirs)
    if not cases:
        raise NoMatchedCases(f"no case present in all of {[str(d) for d in method_dirs]}")
    staple_cfg = StapleConfig(max_iter=args.staple_max_iter, tol=args.staple_tol)
    inputs = [path for _, paths in cases for path in paths]
    with _output_plan(out_dir, [f"{c}.nii.gz" for c, _ in cases], inputs) as staging:
        def fuse_case(case_id: str, paths: list[Path]) -> None:
            raters = [read_labels(path) for path in paths]
            if args.method == "vote":
                fused = majority_vote(raters)
            elif args.method == "mean":
                fused = mean_regions(raters)
            else:
                fused = staple_regions(raters, staple_cfg)
            del raters  # the relabel and the write hold the fused volume alone
            fused = et_threshold_relabel(fused, args.et_threshold)
            _write_labels(staging / f"{case_id}.nii.gz", fused)

        each_case(cases, fuse_case)
    print(f"fused {len(cases)} case(s) with method={args.method} to {out_dir}")


def _cmd_evaluate(args) -> None:
    inputs = [] if args.manifest is None else [args.manifest]
    with _output_plan(Path(args.out), ["metrics.csv", "report.json"], inputs) as staging:
        cases = evaluate_dataset(args.pred, args.gt, manifest=args.manifest)
        report = aggregate(cases)
        write_metrics_csv(cases, staging / "metrics.csv")
        write_json(build_report(cases, report), staging / "report.json")
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
    names = args.names or _default_names(args.csvs)
    if len(names) != len(args.csvs):
        raise GbmsegError(f"{len(args.csvs)} CSV inputs but {len(names)} names")
    with _output_plan(Path(args.out), ["ranking.json", "aggregates.txt"], args.csvs) as staging:
        summaries, tables = [], []
        for name, path in zip(names, args.csvs):
            cases = read_metrics_csv(path)
            with error_prefix(path):
                report = aggregate(cases)
            summaries.append(summarize_method(name, report))
            tables.append(f"== {name} ==\n{render_aggregate_table(report)}")
        orders = rank_all(summaries)
        payload = {"methods": [asdict(s) for s in summaries], "order": orders}
        write_json(payload, staging / "ranking.json")
        write_text("\n".join(tables), staging / "aggregates.txt")
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
    p.add_argument("methods", nargs="+",
                   help=f"one directory of predictions per method (at most {MAX_LABEL_RATERS})")
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
                   help="explicit case_id,pred,gt pairing CSV (overrides matching by "
                        "stem, or by stem cut after its last digit)")
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
