"""Independent reference implementations used to check the library.

Everything here is deliberately written from the operation definitions
(voxel enumeration, all-pairs distances, plain-transcription EM) rather
than through the library's own code paths.  The exceptions are
``hd95_full_grid`` and ``crop_and_fit_per_axis``, frozen copies of earlier
library ``hd95`` and ``crop_and_fit``.
"""

from __future__ import annotations

import numpy as np


def surface_oracle(member: np.ndarray) -> set[tuple[int, int, int]]:
    """6-neighbor surface check via padded shifts."""
    padded = np.pad(member, 1, constant_values=False)
    outside_neighbor = np.zeros_like(member, dtype=bool)
    for axis in range(3):
        for step in (-1, 1):
            neighbor = np.roll(padded, step, axis=axis)[1:-1, 1:-1, 1:-1]
            outside_neighbor |= ~neighbor
    return {tuple(c) for c in np.argwhere(member & outside_neighbor)}


def dice_bruteforce(a: np.ndarray, b: np.ndarray, both_empty: float = 100.0) -> float:
    """Percent Dice by explicit voxel-set enumeration."""
    set_a = {tuple(c) for c in np.argwhere(a)}
    set_b = {tuple(c) for c in np.argwhere(b)}
    if not set_a and not set_b:
        return both_empty
    if not set_a or not set_b:
        return 0.0
    return 100.0 * 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def hd_percentiles_bruteforce(a: np.ndarray, b: np.ndarray, spacing) -> tuple[float, float]:
    """All-pairs surface distances; returns (95th percentile, maximum)."""
    sa = np.array(sorted(surface_oracle(a)), dtype=np.float64)
    sb = np.array(sorted(surface_oracle(b)), dtype=np.float64)
    sp = np.asarray(spacing, dtype=np.float64)
    diff = (sa[:, None, :] - sb[None, :, :]) * sp
    pair = np.sqrt((diff**2).sum(axis=2))
    combined = np.concatenate([pair.min(axis=1), pair.min(axis=0)])
    return float(np.percentile(combined, 95)), float(combined.max())


def hd95_full_grid(a, b) -> float:
    """HD95 of two RegionMasks with surfaces and distance transforms taken
    over the whole grid: the library's ``hd95`` as it was before it
    cropped to the masks' union box, kept to check that the crop is exact."""
    # imported here so the benchmark, which imports this module, loads no SciPy
    from scipy import ndimage

    na = int(np.count_nonzero(a.member))
    nb = int(np.count_nonzero(b.member))
    if na == 0 and nb == 0:
        return 0.0
    if na == 0 or nb == 0:
        return 373.1287
    six = ndimage.generate_binary_structure(3, 1)
    surf_a = a.member & ~ndimage.binary_erosion(a.member, structure=six, border_value=0)
    surf_b = b.member & ~ndimage.binary_erosion(b.member, structure=six, border_value=0)
    spacing = np.asarray(a.spacing, dtype=np.float64)
    to_b = ndimage.distance_transform_edt(~surf_b, sampling=spacing)
    to_a = ndimage.distance_transform_edt(~surf_a, sampling=spacing)
    distances = np.concatenate([to_b[surf_a], to_a[surf_b]])
    return float(np.percentile(distances, 95))


def crop_and_fit_per_axis(values: np.ndarray, affine: np.ndarray, low, high, target_dims):
    """The library's ``crop_and_fit`` as it was before its per-axis pad and
    crop branches became one centred window, on raw arrays: returns the
    fitted values and the translated affine."""
    out = np.zeros(tuple(target_dims), dtype=values.dtype)
    src_lo, src_hi, dst_lo, dst_hi, origin = [], [], [], [], []
    for axis, target in enumerate(target_dims):
        lo, hi = low[axis], high[axis]
        size = hi - lo
        if size <= target:
            pad_low = (target - size) // 2
            src_lo.append(lo)
            src_hi.append(hi)
            dst_lo.append(pad_low)
            dst_hi.append(pad_low + size)
            origin.append(lo - pad_low)
        else:
            trim_low = (size - target) // 2
            src_lo.append(lo + trim_low)
            src_hi.append(lo + trim_low + target)
            dst_lo.append(0)
            dst_hi.append(target)
            origin.append(lo + trim_low)
    out[dst_lo[0] : dst_hi[0], dst_lo[1] : dst_hi[1], dst_lo[2] : dst_hi[2]] = values[
        src_lo[0] : src_hi[0], src_lo[1] : src_hi[1], src_lo[2] : src_hi[2]
    ]
    out_affine = affine.copy()
    out_affine[:3, 3] = affine[:3, 3] + affine[:3, :3] @ np.asarray(origin, dtype=np.float64)
    return out, out_affine


def rotate_nearest_oracle(values: np.ndarray, axis: int, degrees: float) -> np.ndarray:
    """Rotation by inverse-mapping every output voxel, nearest sample."""
    dims = values.shape
    ax_a, ax_b = {0: (1, 2), 1: (0, 2), 2: (0, 1)}[axis]
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    idx = np.indices(dims, dtype=np.float64)
    ca, cb = (dims[ax_a] - 1) / 2, (dims[ax_b] - 1) / 2
    a = idx[ax_a] - ca
    b = idx[ax_b] - cb
    coords = [idx[0], idx[1], idx[2]]
    coords[ax_a] = cos * a + sin * b + ca
    coords[ax_b] = -sin * a + cos * b + cb
    nearest = [np.rint(c).astype(int) for c in coords]
    inside = np.ones(dims, dtype=bool)
    for c, n in zip(nearest, dims):
        inside &= (c >= 0) & (c < n)
    src = tuple(np.clip(c, 0, n - 1) for c, n in zip(nearest, dims))
    return np.where(inside, values[src], 0)


def reference_staple(decisions: np.ndarray, n_iter: int, prior: np.ndarray, clamp: float = 1e-6):
    """Plain linear-space transcription of the STAPLE E/M update equations."""
    d = decisions.astype(np.float64)
    n_raters = d.shape[0]
    sens = np.full(n_raters, 1.0 - clamp)
    spec = np.full(n_raters, 1.0 - clamp)
    weights = None
    for _ in range(n_iter):
        a = prior.copy()
        b = 1.0 - prior
        for j in range(n_raters):
            a *= np.where(d[j] == 1.0, sens[j], 1.0 - sens[j])
            b *= np.where(d[j] == 1.0, 1.0 - spec[j], spec[j])
        weights = a / (a + b)
        sens = np.clip(d @ weights / weights.sum(), clamp, 1.0 - clamp)
        spec = np.clip(
            (1.0 - d) @ (1.0 - weights) / (1.0 - weights).sum(), clamp, 1.0 - clamp
        )
    return weights, sens, spec
