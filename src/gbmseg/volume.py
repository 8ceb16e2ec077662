"""Core voxel-grid value types and the BraTS label/region algebra.

Geometry convention used throughout the toolkit: a volume is a 3D grid of
``dims`` voxels indexed ``[i, j, k]``, with physical ``spacing`` in mm per
axis and a 4x4 ``affine`` mapping homogeneous voxel indices to world
coordinates in mm.  The canonical linear (flattened) voxel order is
Fortran order — the first axis varies fastest — matching the on-disk
NIfTI data layout.

Value types are frozen dataclasses; treat the wrapped arrays as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .errors import BadLabel, BadThreshold, GeometryMismatch, RegionMismatch

BRATS_LABELS = (0, 1, 2, 4)


class Region(Enum):
    """The three evaluated tumor sub-regions."""

    ET = "ET"  # enhancing tumor: label 4
    TC = "TC"  # tumor core: labels 1 and 4
    WT = "WT"  # whole tumor: labels 1, 2 and 4


REGIONS = (Region.ET, Region.TC, Region.WT)


def checked_geometry(spacing, affine=None) -> tuple[tuple[float, float, float], np.ndarray]:
    """Validate one volume's geometry, or raise ValueError.  Spacing must be
    three finite positive reals; the affine, by default diag(spacing, 1), a
    finite 4x4 matrix with |det| >= 1e-12."""
    s = tuple(float(x) for x in spacing)
    if len(s) != 3 or not all(math.isfinite(x) and x > 0 for x in s):
        raise ValueError(f"spacing must be 3 finite positive reals, got {spacing!r}")
    out = np.diag(s + (1.0,)) if affine is None else np.asarray(affine, dtype=np.float64)
    if out.shape != (4, 4) or not np.isfinite(out).all() or abs(np.linalg.det(out)) < 1e-12:
        raise ValueError("affine must be a finite invertible 4x4 matrix")
    return s, out


class _Volume:
    """A 3D payload (the field named by ``_payload``, passed through the
    subclass's ``_checked`` rule) plus its spacing and affine."""

    _payload: ClassVar[str]

    @staticmethod
    def _checked(payload: np.ndarray) -> np.ndarray:
        return payload

    def __post_init__(self):
        payload = np.asarray(getattr(self, self._payload))
        if payload.ndim != 3:
            raise ValueError(f"{self._payload} must be a 3D array, got ndim={payload.ndim}")
        payload = self._checked(payload)
        spacing, affine = checked_geometry(self.spacing, self.affine)
        object.__setattr__(self, self._payload, payload)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "affine", affine)

    @property
    def dims(self) -> tuple[int, int, int]:
        return getattr(self, self._payload).shape


@dataclass(frozen=True, eq=False)
class VoxelGrid(_Volume):
    """A 3D scalar grid with physical spacing and a voxel-to-world affine."""

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "values"


@dataclass(frozen=True, eq=False)
class LabelVolume(_Volume):
    """Per-voxel BraTS labels; only the values 0, 1, 2 and 4 may appear."""

    labels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "labels"

    @staticmethod
    def _checked(labels: np.ndarray) -> np.ndarray:
        # Check before the cast: uint8 would wrap 256 round to 0.
        if not np.isin(labels, BRATS_LABELS).all():
            bad = sorted(set(np.unique(labels)) - set(BRATS_LABELS))
            raise BadLabel(f"labels outside {{0,1,2,4}}: {bad}")
        return labels.astype(np.uint8, copy=False)

    @classmethod
    def from_grid(cls, grid: VoxelGrid) -> "LabelVolume":
        """Reinterpret a scalar grid (e.g. freshly read from disk) as labels."""
        values = grid.values
        if values.dtype.kind == "f" and not np.array_equal(np.rint(values), values):
            raise BadLabel("grid holds non-integer values; not a label volume")
        return cls(values, grid.spacing, grid.affine)

    def to_grid(self) -> VoxelGrid:
        return VoxelGrid(self.labels, self.spacing, self.affine)


@dataclass(frozen=True, eq=False)
class RegionMask(_Volume):
    """Binary membership for one evaluated region."""

    member: np.ndarray
    region: Region
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "member"

    @staticmethod
    def _checked(member: np.ndarray) -> np.ndarray:
        return member.astype(bool, copy=False)


@dataclass(frozen=True, eq=False)
class ProbabilityVolume(_Volume):
    """Per-voxel probability of membership in one evaluated region."""

    prob: np.ndarray
    region: Region
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "prob"

    @staticmethod
    def _checked(prob: np.ndarray) -> np.ndarray:
        prob = prob.astype(np.float64, copy=False)
        # min/max propagate NaN, and NaN fails both comparisons
        if prob.size and not (prob.min() >= 0.0 and prob.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        return prob


def same_geometry(a, b, *, atol: float = 1e-5) -> bool:
    """True when two volumes share dims, spacing, and affine (within atol)."""
    return (
        a.dims == b.dims
        and np.allclose(a.spacing, b.spacing, atol=atol)
        and np.allclose(a.affine, b.affine, atol=atol)
    )


def require_same_geometry(*volumes) -> None:
    first = volumes[0]
    for other in volumes[1:]:
        if not same_geometry(first, other):
            raise GeometryMismatch(
                f"geometry differs: dims {first.dims} vs {other.dims}"
            )


def compose_regions(labels: LabelVolume) -> tuple[RegionMask, RegionMask, RegionMask]:
    """Build the nested ET/TC/WT masks from a label volume.

    ET is label 4, TC is labels 1 and 4, WT is labels 1, 2 and 4, so the
    returned masks always satisfy ET ⊆ TC ⊆ WT.
    """
    lab = labels.labels
    et = lab == 4
    tc = et | (lab == 1)
    wt = tc | (lab == 2)
    geo = (labels.spacing, labels.affine)
    return (
        RegionMask(et, Region.ET, *geo),
        RegionMask(tc, Region.TC, *geo),
        RegionMask(wt, Region.WT, *geo),
    )


def decompose_regions(et: RegionMask, tc: RegionMask, wt: RegionMask) -> LabelVolume:
    """Map ET/TC/WT masks back to BraTS labels.

    Priority order ET > TC > WT: a voxel inside ET gets label 4, else
    inside TC label 1, else inside WT label 2, else 0.  The priority also
    resolves inconsistent (non-nested) inputs deterministically.
    """
    for mask, expected in zip((et, tc, wt), REGIONS):
        if mask.region is not expected:
            raise RegionMismatch(
                f"expected {expected.value} mask, got {mask.region.value}"
            )
    require_same_geometry(et, tc, wt)
    lab = np.where(
        et.member, 4, np.where(tc.member, 1, np.where(wt.member, 2, 0))
    ).astype(np.uint8)
    return LabelVolume(lab, et.spacing, et.affine)


def binarize(prob: ProbabilityVolume, threshold: float) -> RegionMask:
    """Threshold a probability volume into a hard mask (membership at >=)."""
    if not 0.0 <= threshold <= 1.0:
        raise BadThreshold(f"threshold must lie in [0, 1], got {threshold}")
    return RegionMask(prob.prob >= threshold, prob.region, prob.spacing, prob.affine)


def count_label(labels: LabelVolume, label: int) -> int:
    """Number of voxels carrying the given BraTS label."""
    if label not in BRATS_LABELS:
        raise BadLabel(f"label must be one of {{0,1,2,4}}, got {label}")
    return int(np.count_nonzero(labels.labels == label))
