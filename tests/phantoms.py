"""Synthetic volumes with known ground truth, shared across the tests."""

from __future__ import annotations

import gzip
import struct

import numpy as np

from gbmseg.volume import LabelVolume, Region, RegionMask


def ball(dims: tuple[int, int, int], radius: float, center=None) -> np.ndarray:
    """Boolean ball mask about the grid center (or an explicit center)."""
    if center is None:
        center = (np.asarray(dims, dtype=np.float64) - 1.0) / 2.0
    center = np.asarray(center, dtype=np.float64).reshape(3, 1, 1, 1)
    idx = np.indices(dims, dtype=np.float64)
    return ((idx - center) ** 2).sum(axis=0) <= radius**2


def nested_label_phantom(
    dims=(32, 32, 32), wt_radius=12.0, tc_radius=8.0, et_radius=5.0
) -> LabelVolume:
    """Concentric-ball tumor: ET inside TC inside WT, edema in the WT shell."""
    wt = ball(dims, wt_radius)
    tc = ball(dims, tc_radius)
    et = ball(dims, et_radius)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[wt] = 2
    labels[tc] = 1
    labels[et] = 4
    return LabelVolume(labels)


def noisy_mask(truth: np.ndarray, rng: np.random.Generator, miss: float, add: float) -> np.ndarray:
    """Corrupt a truth mask: drop positives with prob miss, add negatives with prob add."""
    r = rng.random(truth.shape)
    return np.where(truth, r >= miss, r < add)


def noisy_rater_labels(
    truth: LabelVolume, rng: np.random.Generator, miss: float = 0.05, add: float = 0.01
) -> LabelVolume:
    """A synthetic method prediction: independent region noise, recombined
    by the ET > TC > WT priority."""
    from gbmseg.volume import REGIONS, compose_regions, decompose_regions

    masks = []
    for mask in compose_regions(truth):
        noisy = noisy_mask(mask.member, rng, miss, add)
        masks.append(RegionMask(noisy, mask.region, truth.spacing, truth.affine))
    return decompose_regions(*masks)


def random_label_volume(rng: np.random.Generator, dims=(6, 6, 6)) -> LabelVolume:
    labels = rng.choice(np.array([0, 1, 2, 4], dtype=np.uint8), size=dims)
    return LabelVolume(labels)


def mask_dice(a: np.ndarray, b: np.ndarray) -> float:
    """Plain percent Dice of two boolean arrays (independent of the library)."""
    na, nb = int(a.sum()), int(b.sum())
    if na == 0 and nb == 0:
        return 100.0
    inter = int((a & b).sum())
    return 200.0 * inter / (na + nb)


def _first_half(blob: bytes) -> bytes:
    return blob[: len(blob) // 2]


# Each way a volume file can fail to read, as bytes made from a valid
# uncompressed NIfTI-1 file.
SPOILED = {
    "empty": lambda valid: b"",
    "not_nifti": lambda valid: b"not a NIfTI volume\n" * 32,
    "bad_magic": lambda valid: valid[:344] + b"ni1\x00" + valid[348:],
    "datatype_128": lambda valid: valid[:70] + struct.pack("<h", 128) + valid[72:],
    "short_payload": lambda valid: valid[:-1],
    "short_gzip": lambda valid: _first_half(gzip.compress(valid)),
    # 0xFF after the 10-byte gzip header opens a deflate block of reserved type
    "corrupt_gzip": lambda valid: gzip.compress(valid)[:10] + b"\xff" * 64,
}
