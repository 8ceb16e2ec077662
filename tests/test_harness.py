import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gbmseg.cli import main
from gbmseg.errors import EmptyInput, GbmsegError, IoFailure, NoMatchedCases, NotNifti
from gbmseg.harness import (
    CSV_COLUMNS,
    RANK_STRATEGIES,
    AggregateReport,
    MethodSummary,
    SummaryStats,
    aggregate,
    build_report,
    evaluate_dataset,
    match_cases,
    pair_cases,
    rank_all,
    rank_methods,
    read_metrics_csv,
    render_aggregate_table,
    summarize_method,
    write_json,
    write_metrics_csv,
)
from gbmseg.metrics import CaseMetrics
from gbmseg.nifti_io import DT_UINT8, NiftiHeader, write_volume
from gbmseg.volume import REGIONS, Region

from phantoms import nested_label_phantom, noisy_rater_labels

GOLDEN_DIR = Path(__file__).with_name("golden")


def case(case_id, dsc=90.0, hd=2.0):
    return CaseMetrics(case_id, dsc, dsc, dsc, hd, hd, hd)


def write_label_file(path, labels):
    grid = labels.to_grid()
    write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)


class TestAggregate:
    def test_single_case_degenerate_statistics(self):
        report = aggregate([case("a", dsc=88.0, hd=3.0)])
        stats = report.dsc[Region.ET]
        assert stats.mean == stats.median == stats.quantile_25 == stats.quantile_75 == 88.0
        assert stats.std_dev == 0.0
        assert report.n_cases == 1

    def test_linear_interpolation_quantiles(self):
        cases = [case(str(i), dsc=v) for i, v in enumerate([80.0, 90.0, 90.0, 100.0])]
        stats = aggregate(cases).dsc[Region.WT]
        assert stats.mean == pytest.approx(90.0)
        assert stats.median == pytest.approx(90.0)
        assert stats.quantile_25 == pytest.approx(87.5)
        assert stats.quantile_75 == pytest.approx(92.5)

    def test_population_std_dev(self):
        cases = [case(str(i), hd=v) for i, v in enumerate([1.0, 3.0])]
        assert aggregate(cases).hd95[Region.TC].std_dev == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        cases = [case(str(i), dsc=float(rng.uniform(0, 100)), hd=float(rng.uniform(0, 20)))
                 for i in range(9)]
        forward = aggregate(cases)
        backward = aggregate(cases[::-1])
        for region in REGIONS:
            assert forward.dsc[region] == backward.dsc[region]
            assert forward.hd95[region] == backward.hd95[region]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate([])


# Published test-set statistics, used purely as layout fixture data.
PUBLISHED_ROWS = {
    "Mean": (87.63, 87.49, 91.87, 12.13, 6.27, 14.89),
    "StdDev": (18.22, 24.31, 10.97, 59.61, 27.79, 63.32),
    "Median": (93.70, 96.04, 95.11, 1.00, 2.00, 1.41),
    "25quantile": (85.77, 91.33, 91.09, 1.00, 1.00, 1.00),
    "75quantile": (96.62, 98.20, 97.22, 1.73, 4.12, 3.00),
}


def published_report() -> AggregateReport:
    def stats(metric_offset, region_idx):
        return SummaryStats(
            mean=PUBLISHED_ROWS["Mean"][metric_offset + region_idx],
            std_dev=PUBLISHED_ROWS["StdDev"][metric_offset + region_idx],
            median=PUBLISHED_ROWS["Median"][metric_offset + region_idx],
            quantile_25=PUBLISHED_ROWS["25quantile"][metric_offset + region_idx],
            quantile_75=PUBLISHED_ROWS["75quantile"][metric_offset + region_idx],
        )

    return AggregateReport(
        dsc={r: stats(0, i) for i, r in enumerate(REGIONS)},
        hd95={r: stats(3, i) for i, r in enumerate(REGIONS)},
        n_cases=570,
    )


class TestRenderAggregateTable:
    def test_layout_has_five_statistic_rows_and_region_columns(self):
        text = render_aggregate_table(published_report())
        lines = text.splitlines()
        assert "DSC" in lines[0] and "HD95" in lines[0]
        assert lines[1].split() == ["ET", "TC", "WT", "ET", "TC", "WT"]
        row_labels = [line.split()[0] for line in lines[2:7]]
        assert row_labels == ["Mean", "StdDev", "Median", "25quantile", "75quantile"]
        for label, values in PUBLISHED_ROWS.items():
            row = next(line for line in lines if line.startswith(label))
            assert [float(v) for v in row.split()[1:]] == list(values)


class TestRankMethods:
    def published_summaries(self):
        # validation-set averages of the five configurations
        rows = [
            ("DeepSeg A", 85.21, 11.71),
            ("DeepSeg B", 85.76, 14.12),
            ("nnU-Net A", 87.78, 9.60),
            ("nnU-Net B", 87.87, 10.14),
            ("Ensemble", 87.81, 9.58),
        ]
        return [MethodSummary(n, d, h) for n, d, h in rows]

    def test_dsc_only_order_on_published_numbers(self):
        ranked = rank_methods(self.published_summaries(), "dsc_only")
        assert [s.method_name for s in ranked][:3] == ["nnU-Net B", "Ensemble", "nnU-Net A"]

    def test_single_method_ranks_first_everywhere(self):
        summary = MethodSummary("only", 90.0, 1.0)
        orders = rank_all([summary])
        assert summary.ranks == {s: 1 for s in RANK_STRATEGIES}
        assert all(order == ["only"] for order in orders.values())

    def test_dsc_tie_broken_by_lower_hd95(self):
        a = MethodSummary("worse_hd", 90.0, 5.0)
        b = MethodSummary("better_hd", 90.0, 2.0)
        ranked = rank_methods([a, b], "dsc_only")
        assert [s.method_name for s in ranked] == ["better_hd", "worse_hd"]

    def test_avg_rank_strategy(self):
        a = MethodSummary("A", 90.0, 10.0)  # dsc rank 1, hd rank 2 -> 1.5
        b = MethodSummary("B", 80.0, 1.0)   # dsc rank 2, hd rank 1 -> 1.5, lower dsc
        c = MethodSummary("C", 70.0, 20.0)  # rank 3, 3 -> 3.0
        ranked = rank_methods([a, b, c], "avg_rank")
        assert [s.method_name for s in ranked] == ["A", "B", "C"]

    def test_dsc_minus_hd95_strategy(self):
        a = MethodSummary("A", 90.0, 30.0)  # score 60
        b = MethodSummary("B", 85.0, 5.0)   # score 80
        ranked = rank_methods([a, b], "dsc_minus_hd95")
        assert [s.method_name for s in ranked] == ["B", "A"]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            rank_methods([], "dsc_only")

    @pytest.mark.parametrize("strategy", RANK_STRATEGIES)
    def test_repeated_method_name_rejected(self, strategy):
        # Keyed by name, the avg_rank scores of the two "x" rows collide and
        # the best method (first x: best DSC and best HD95) ranked 2nd.
        summaries = [MethodSummary("x", 90.0, 1.0), MethodSummary("y", 80.0, 5.0),
                     MethodSummary("x", 70.0, 9.0)]
        with pytest.raises(GbmsegError, match="'x'"):
            rank_methods(summaries, strategy)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            rank_methods([MethodSummary("x", 1.0, 1.0)], "alphabetical")

    def test_summarize_method_averages_region_means(self):
        report = published_report()
        summary = summarize_method("ens", report)
        assert summary.avg_dsc == pytest.approx((87.63 + 87.49 + 91.87) / 3)
        assert summary.avg_hd95 == pytest.approx((12.13 + 6.27 + 14.89) / 3)


GOLDEN_CSV = (
    "case_id,dsc_et,dsc_tc,dsc_wt,hd95_et,hd95_tc,hd95_wt\n"
    "BraTS2021_00001,82.82,91.04,94.59,1.0000,2.2361,1.4142\n"
    "BraTS2021_01739,0.00,85.34,95.72,373.1287,3.0000,1.0000\n"
)


class TestCsvRoundTrip:
    def golden_cases(self):
        return [
            CaseMetrics("BraTS2021_00001", 82.82, 91.04, 94.59, 1.0, 2.2361, 1.4142),
            CaseMetrics("BraTS2021_01739", 0.0, 85.34, 95.72, 373.1287, 3.0, 1.0),
        ]

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self.golden_cases(), path)
        assert path.read_bytes() == GOLDEN_CSV.encode("utf-8")

    def test_read_back(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self.golden_cases(), path)
        cases = read_metrics_csv(path)
        assert [c.case_id for c in cases] == ["BraTS2021_00001", "BraTS2021_01739"]
        assert cases[0].dsc_tc == pytest.approx(91.04)
        assert cases[1].hd95_et == pytest.approx(373.1287)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case,dice\nx,1\n")
        with pytest.raises(EmptyInput):
            read_metrics_csv(path)


class TestPairCases:
    def test_exact_stem_matching(self, tmp_path):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        vol = nested_label_phantom(dims=(6, 6, 6), wt_radius=2, tc_radius=1.5, et_radius=1)
        for cid in ("BraTS2021_00002", "BraTS2021_00001"):
            write_label_file(pred / f"{cid}.nii.gz", vol)
            write_label_file(gt / f"{cid}.nii.gz", vol)
        pairs = pair_cases(pred, gt)
        assert [p[0] for p in pairs] == ["BraTS2021_00001", "BraTS2021_00002"]

    def test_suffix_variants_pair_by_common_substring(self, tmp_path):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        vol = nested_label_phantom(dims=(6, 6, 6), wt_radius=2, tc_radius=1.5, et_radius=1)
        write_label_file(pred / "BraTS2021_00042_pred.nii.gz", vol)
        write_label_file(gt / "BraTS2021_00042_seg.nii.gz", vol)
        pairs = pair_cases(pred, gt)
        assert len(pairs) == 1
        assert pairs[0][0] == "BraTS2021_00042"

    def test_unmatched_prediction_warns_and_skips(self, tmp_path, caplog):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        vol = nested_label_phantom(dims=(6, 6, 6), wt_radius=2, tc_radius=1.5, et_radius=1)
        write_label_file(pred / "case_A.nii.gz", vol)
        write_label_file(pred / "zzzz.nii.gz", vol)
        write_label_file(gt / "case_A.nii.gz", vol)
        with caplog.at_level(logging.WARNING):
            pairs = pair_cases(pred, gt)
        assert [p[0] for p in pairs] == ["case_A"]
        assert any("zzzz" in r.message for r in caplog.records)

    def test_fuzzy_case_id_repeating_a_paired_id_is_skipped(self, tmp_path, caplog):
        # The leftovers BraTS_0001_seg and BraTS_0001x share BraTS_0001,
        # the id of the exact pair: a second BraTS_0001 row would be scored.
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        vol = nested_label_phantom(dims=(6, 6, 6), wt_radius=2, tc_radius=1.5, et_radius=1)
        for path in (pred / "BraTS_0001.nii.gz", pred / "BraTS_0001_seg.nii.gz",
                     gt / "BraTS_0001.nii.gz", gt / "BraTS_0001x.nii.gz"):
            write_label_file(path, vol)
        with caplog.at_level(logging.WARNING):
            pairs = pair_cases(pred, gt)
        assert pairs == [("BraTS_0001", pred / "BraTS_0001.nii.gz", gt / "BraTS_0001.nii.gz")]
        messages = [r.message for r in caplog.records]
        assert any("BraTS_0001_seg" in m for m in messages)
        assert any("BraTS_0001x" in m for m in messages)

    def test_orphans_sharing_digits_with_a_case_are_skipped(self, tmp_path):
        # The longest common substring once paired 00111_seg with truth 00112
        # as "BraTS2021_0011", and 01500_seg with truth 00150 as "BraTS2021_001".
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        for stem in ("BraTS2021_00111_seg", "BraTS2021_00112_seg", "BraTS2021_01500_seg"):
            (pred / f"{stem}.nii.gz").touch()
        for stem in ("BraTS2021_00112", "BraTS2021_00150"):
            (gt / f"{stem}.nii.gz").touch()
        assert pair_cases(pred, gt) == [("BraTS2021_00112", pred / "BraTS2021_00112_seg.nii.gz",
                                         gt / "BraTS2021_00112.nii.gz")]

    def test_manifest_override(self, tmp_path):
        pred, gt = tmp_path / "p", tmp_path / "g"
        pred.mkdir(), gt.mkdir()
        vol = nested_label_phantom(dims=(6, 6, 6), wt_radius=2, tc_radius=1.5, et_radius=1)
        write_label_file(pred / "anything.nii.gz", vol)
        write_label_file(gt / "else.nii.gz", vol)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("case_id,pred,gt\ncase9,p/anything.nii.gz,g/else.nii.gz\n")
        pairs = pair_cases(pred, gt, manifest=manifest)
        assert pairs == [("case9", pred / "anything.nii.gz", gt / "else.nii.gz")]

    def test_manifest_repeating_a_case_id_is_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("case_id,pred,gt\n"
                            "case9,p/a.nii.gz,g/a.nii.gz\n"
                            "case8,p/b.nii.gz,g/b.nii.gz\n"
                            "case9,p/c.nii.gz,g/c.nii.gz\n")
        with pytest.raises(IoFailure, match=r"manifest\.csv: line 4: .*case9.*line 2"):
            pair_cases(tmp_path, tmp_path, manifest=manifest)


def _key(stem: str) -> str:
    """The stem cut after its last digit, or the whole stem without a digit."""
    return stem[: max((i + 1 for i, ch in enumerate(stem) if ch.isdigit()), default=len(stem))]


# 25 stems from 5 bases, so that stems and keys often repeat across directories
_stems = st.builds(str.__add__, st.sampled_from(["c", "c1", "c42", "1", "c007"]),
                   st.sampled_from(["", "_seg", "_pred", "x", "1"]))


def _expected_ids(layout) -> list[str]:
    """The case ids of the matching rule, worked out from the stems alone."""
    exact = set.intersection(*map(set, layout))
    keys = [[_key(s) for s in stems if s not in exact] for stems in layout]
    once = {k for k in keys[0] if all(ks.count(k) == 1 for ks in keys)} - exact
    return sorted(exact | once)


def test_match_cases_of_no_directory_is_empty_input():
    with pytest.raises(EmptyInput, match="no case directories"):
        match_cases([])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(_stems, max_size=8, unique=True), min_size=1, max_size=3))
def test_match_cases_properties(caplog, layout):
    caplog.clear()
    with tempfile.TemporaryDirectory() as root, caplog.at_level(logging.WARNING):
        dirs = [Path(root) / f"d{i}" for i in range(len(layout))]
        for d, stems in zip(dirs, layout):
            d.mkdir()
            for stem in stems:
                (d / f"{stem}.nii.gz").touch()
        matches = match_cases(dirs)
        reversed_ids = [case_id for case_id, _ in match_cases(dirs[::-1])]
    ids = [case_id for case_id, _ in matches]
    used = [path for _, paths in matches for path in paths]
    assert ids == sorted(set(ids)) == sorted(reversed_ids) == _expected_ids(layout)
    assert len(set(used)) == len(used)
    for case_id, paths in matches:
        assert [p.parent for p in paths] == dirs
        stems = {p.name[: -len(".nii.gz")] for p in paths}
        assert stems == {case_id} or {_key(s) for s in stems} == {case_id}
    messages = [r.getMessage() for r in caplog.records]
    skipped = {d / f"{stem}.nii.gz" for d, stems in zip(dirs, layout) for stem in stems} - set(used)
    assert all(any(str(path) in m for m in messages) for path in skipped)


class TestEvaluateDataset:
    def _populate(self, tmp_path, n=3):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        rng = np.random.default_rng(17)
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        for i in range(n):
            cid = f"case_{i:03d}"
            write_label_file(gt / f"{cid}.nii.gz", truth)
            write_label_file(pred / f"{cid}.nii.gz", noisy_rater_labels(truth, rng))
        return pred, gt

    def test_rows_sorted_by_case_id(self, tmp_path):
        pred, gt = self._populate(tmp_path)
        cases = evaluate_dataset(pred, gt)
        assert [c.case_id for c in cases] == ["case_000", "case_001", "case_002"]

    def test_missing_ground_truth_skipped_with_warning(self, tmp_path, caplog):
        pred, gt = self._populate(tmp_path, n=2)
        vol = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        write_label_file(pred / "orphan.nii.gz", vol)
        with caplog.at_level(logging.WARNING):
            cases = evaluate_dataset(pred, gt)
        assert len(cases) == 2
        assert any("orphan" in r.message for r in caplog.records)

    def test_empty_directories(self, tmp_path):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        with pytest.raises(NoMatchedCases):
            evaluate_dataset(tmp_path / "pred", tmp_path / "gt")

    def test_unreadable_volume_carries_case_context(self, tmp_path):
        pred, gt = self._populate(tmp_path, n=1)
        (pred / "case_000.nii.gz").write_bytes(b"garbage")
        with pytest.raises(NotNifti, match="case_000"):
            evaluate_dataset(pred, gt)

    def test_perfect_prediction_scores_perfectly(self, tmp_path):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir(), gt.mkdir()
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        write_label_file(pred / "c.nii.gz", truth)
        write_label_file(gt / "c.nii.gz", truth)
        (metrics,) = evaluate_dataset(pred, gt)
        assert metrics.dsc_et == metrics.dsc_tc == metrics.dsc_wt == 100.0
        assert metrics.hd95_et == metrics.hd95_tc == metrics.hd95_wt == 0.0


class TestJsonReport:
    def test_schema_and_determinism(self, tmp_path):
        cases = [case("a", dsc=90.0), case("b", dsc=80.0)]
        payload = build_report(cases, aggregate(cases))
        assert payload["n_cases"] == 2
        assert set(payload["cases"][0]) == set(CSV_COLUMNS)
        assert set(payload["aggregate"]["dsc"]) == {"ET", "TC", "WT"}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_json(payload, p1)
        write_json(build_report(cases, aggregate(cases)), p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # valid JSON


class TestGoldenReports:
    """Byte-exact report files for fixed metrics: the JSON and text layouts
    are output formats, so any change to them must show up here."""

    ALPHA = [
        CaseMetrics("BraTS2021_00001", 82.82, 91.04, 94.59, 1.0, 2.2361, 1.4142),
        CaseMetrics("BraTS2021_01739", 0.0, 85.34, 95.72, 373.1287, 3.0, 1.0),
    ]
    BETA = [
        CaseMetrics("BraTS2021_00001", 80.5, 88.25, 93.0, 2.0, 3.1623, 1.7321),
        CaseMetrics("BraTS2021_00002", 100.0, 100.0, 100.0, 0.0, 0.0, 0.0),
        CaseMetrics("BraTS2021_01739", 12.5, 80.0, 94.75, 8.5, 4.0, 2.0),
    ]

    def test_report_json(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(build_report(self.BETA, aggregate(self.BETA)), path)
        assert path.read_bytes() == (GOLDEN_DIR / "report.json").read_bytes()

    def test_ranking_aggregates_and_stdout(self, tmp_path, capsys):
        csvs = []
        for name, cases in (("alpha", self.ALPHA), ("beta", self.BETA)):
            csvs.append(str(tmp_path / f"{name}.csv"))
            write_metrics_csv(cases, csvs[-1])
        out = tmp_path / "report"
        assert main(["report", *csvs, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "report_stdout.txt").read_text("utf-8")
        for name in ("ranking.json", "aggregates.txt"):
            assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
