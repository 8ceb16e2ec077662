"""In-process tracing of gbmseg's public functions, layer by layer.

A layer is one ``src/gbmseg`` module.  While a :class:`Tracer` is installed,
each traced function is replaced, in every gbmseg module that refers to it,
by a wrapper that records a span (name, start, end, parent, case id) and the
counts measured at that boundary.  The program itself is not modified;
uninstalling restores the original functions.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gbmseg.cli
from gbmseg import fusion, harness, metrics, nifti_io, postprocess, volume
from perfbench.datasets import union_bbox_frac

MODULES = (nifti_io, volume, fusion, postprocess, metrics, harness, gbmseg.cli)

# span name -> (module, attribute); ``metrics.surface_voxels`` times the
# surface extraction that ``hd95`` runs, which is ``metrics._surface``.
# ``volume.from_grid`` is a classmethod and is patched on LabelVolume.
TRACED = {
    "nifti_io.read_volume": (nifti_io, "read_volume"),
    "nifti_io.write_volume": (nifti_io, "write_volume"),
    "volume.compose_regions": (volume, "compose_regions"),
    "volume.decompose_regions": (volume, "decompose_regions"),
    "fusion.staple_regions": (fusion, "staple_regions"),
    "fusion.staple_binary": (fusion, "staple_binary"),
    "fusion.majority_vote": (fusion, "majority_vote"),
    "fusion.average_probabilities": (fusion, "average_probabilities"),
    "postprocess.et_threshold_relabel": (postprocess, "et_threshold_relabel"),
    "metrics.evaluate_case": (metrics, "evaluate_case"),
    "metrics.dice": (metrics, "dice"),
    "metrics.hd95": (metrics, "hd95"),
    "metrics.surface_voxels": (metrics, "_surface"),
    "harness.pair_cases": (harness, "pair_cases"),
    "harness.evaluate_dataset": (harness, "evaluate_dataset"),
    "harness.aggregate": (harness, "aggregate"),
    "harness.write_metrics_csv": (harness, "write_metrics_csv"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    case: str


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.staple_iterations: list[int] = []
        self.union_bbox: list[float] = []
        self.staple_peak_mb = 0.0
        self.case = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            before = self._before(name, args)
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span.start, span.end = start, end
            if after is not None:
                after(args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before(self, name, args):
        if name == "nifti_io.read_volume":
            self.case = Path(args[0]).name.split(".nii")[0]
        elif name == "fusion.staple_regions":
            tracemalloc.start()
            return len(self.staple_iterations)
        return None

    # -- boundary counts -------------------------------------------------

    def _after_read(self, args, result, _):
        self.counts["nifti_io.bytes_read"] += Path(args[0]).stat().st_size

    def _after_write(self, args, result, _):
        self.counts["nifti_io.bytes_written"] += Path(args[0]).stat().st_size

    def _after_staple_binary(self, args, result, _):
        raters, n_voxels = args[0], args[0][0].member.size
        self.staple_iterations.append(result.iterations)
        # bytes of the float64 (R, N) decision matrix, streamed once per iteration
        self.counts["fusion.staple_bytes_computed"] += result.iterations * len(raters) * n_voxels * 8

    def _after_staple_regions(self, args, result, calls_before):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.staple_peak_mb = max(self.staple_peak_mb, peak / 2**20)
        computed = len(self.staple_iterations) - calls_before
        self.counts["fusion.staple_passthrough_regions"] += 3 - computed

    def _after_relabel(self, args, result, _):
        self.counts["postprocess.relabelled_cases"] += result is not args[0]

    def _after_surface(self, args, result, _):
        self.counts["metrics.surface_voxel_count"] += int(np.count_nonzero(result))

    def _after_hd95(self, args, result, _):
        self.union_bbox.append(union_bbox_frac([args[0].member, args[1].member]))

    def _after_pair_cases(self, args, result, _):
        self.counts["harness.fuzzy_pairs"] += sum(
            harness._case_stem(pred) != harness._case_stem(gt) for _, pred, gt in result
        )

    def install(self) -> None:
        after = {
            "nifti_io.read_volume": self._after_read,
            "nifti_io.write_volume": self._after_write,
            "fusion.staple_binary": self._after_staple_binary,
            "fusion.staple_regions": self._after_staple_regions,
            "postprocess.et_threshold_relabel": self._after_relabel,
            "metrics.surface_voxels": self._after_surface,
            "metrics.hd95": self._after_hd95,
            "harness.pair_cases": self._after_pair_cases,
        }
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after.get(name))
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        from_grid = volume.LabelVolume.__dict__["from_grid"]
        self._saved.append((volume.LabelVolume, "from_grid", from_grid))
        volume.LabelVolume.from_grid = classmethod(
            self._wrap("volume.from_grid", from_grid.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if tracemalloc.is_tracing():  # staple_regions raised before stopping it
            tracemalloc.stop()

    # -- summaries -------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, and self seconds per layer.

        A span's self time is its duration minus the time its child spans
        cover; a layer's self time sums the self time of its spans.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, child_time):
            duration = span.end - span.start
            out[f"{span.name}_s"] += duration
            out[f"{span.name.split('.')[0]}.self_s"] += duration - children
        return out
