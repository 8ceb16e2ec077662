"""Tests of the pipeline benchmark on tiny grids.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

from oracles import reference_staple  # noqa: E402
from perfbench import checks, datasets  # noqa: E402
from perfbench import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_smoke_run(workload, trace, tmp_path):
    result = bench.run_benchmark(workload, seed=3, seconds=0, trace=trace, tiny=True,
                                 records=tmp_path)
    assert result["correct"]
    assert result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # the cohort's ids make the fuzzy-pairing defect cost three rows a round
    rounds = json.loads(next(tmp_path.glob("run-*.json")).read_text())["rounds"]
    assert result["failed"] == (3 * rounds if workload.startswith("cohort") else 0)
    assert not list(tmp_path.glob("work-*")), "the run's working files must be removed"


def test_dataset_is_a_function_of_the_seed(tmp_path):
    a = datasets.generate("cohort_small", 5, tmp_path / "a", tiny=True)
    b = datasets.generate("cohort_small", 5, tmp_path / "b", tiny=True)
    assert a.properties == b.properties
    for path in sorted(a.root.rglob("*.nii.gz")):
        assert path.read_bytes() == (b.root / path.relative_to(a.root)).read_bytes()
    assert a.properties["predictions_without_truth"] == 2
    assert a.properties["truth_without_prediction"] == 1


def test_staple_reference_follows_the_oracle():
    rng = np.random.default_rng(2)
    truth = np.zeros(4000, dtype=bool)
    truth[:600] = True
    decisions = np.stack([truth ^ (rng.random(truth.size) < q) for q in (0.02, 0.05, 0.1)])
    prior = np.full(truth.size, decisions.mean())
    for n_iter in (1, 4, 9):
        expected, _, _ = reference_staple(decisions, n_iter, prior)
        got = checks.staple_weights(decisions, n_iter, tol=0.0)
        assert np.allclose(got, expected, atol=1e-12)


@pytest.fixture
def checked_round(tmp_path):
    """A tiny ensemble_local run whose first round passed every check."""
    run = bench.Run("ensemble_local", 3, tmp_path, tiny=True)
    for cmd in bench.COMMANDS:
        run.run_in_process(run.argvs[cmd])
    return run


def _flip_one_voxel(path: Path) -> None:
    labels = datasets.decode_labels(path).copy()
    labels[0, 0, 0] = 4 if labels[0, 0, 0] != 4 else 0
    datasets.write_labels(path, labels)


def test_one_voxel_corruption_is_a_failed_output(checked_round):
    run = checked_round
    _flip_one_voxel(run.out_dirs["vote"] / f"{run.ds.cases[0]}.nii.gz")
    run.check_round()
    assert run.rounds[0].failed == 1
    assert run.ok_frac() < 1.0


def test_corruption_in_a_later_round_is_a_failed_output(checked_round):
    run = checked_round
    run.check_round()
    assert run.rounds[0].failed == 0
    _flip_one_voxel(run.out_dirs["mean"] / f"{run.ds.cases[-1]}.nii.gz")
    run.check_round()
    assert run.rounds[1].failed == 1
    assert 0.0 < run.ok_frac() < 1.0


def test_mis_paired_row_is_a_failed_output(checked_round):
    run = checked_round
    lines = run.metrics_csv.read_text().splitlines()
    # give case000's scores to case001 and drop case001's own row
    lines = [lines[0], lines[1].replace("case000", "case001")]
    run.metrics_csv.write_text("\n".join(lines) + "\n")
    run.check_round()
    assert run.rounds[0].failed == 2  # case000 has no row, case001's row is wrong
