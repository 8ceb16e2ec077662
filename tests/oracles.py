"""Independent reference implementations used to check the library.

Everything here is deliberately written from the operation definitions
(voxel enumeration, all-pairs distances, plain-transcription EM) rather
than through the library's own code paths.  The exceptions are frozen
copies of earlier library functions, kept to check that a later
optimisation changed no result: ``hd95_full_grid`` (``hd95``),
``crop_and_fit_per_axis`` (``crop_and_fit``), ``staple_binary_full_grid``
(``staple_binary``) and ``majority_vote_full_grid`` (``majority_vote``).
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


def staple_binary_full_grid(raters, cfg):
    """The library's ``staple_binary`` as it was before it packed and
    gathered only inside the raters' union box: pattern EM over the codes of
    every voxel.  It keeps the library's ``_expit`` and ``_ordered_sum``,
    which the box does not touch, and drops the rater-count and geometry
    checks.  Returns a ``StapleResult``."""
    from gbmseg.errors import DegenerateInput
    from gbmseg.fusion import STAPLE_CLAMP, RaterPerformance, StapleResult, _expit, _ordered_sum
    from gbmseg.volume import ProbabilityVolume, binarize

    n_raters = len(raters)
    all_marked = (1 << n_raters) - 1
    code_type = np.min_scalar_type(all_marked)
    codes = np.zeros(raters[0].dims, dtype=code_type)
    for j, rater in enumerate(raters):
        codes |= rater.member.astype(code_type) << code_type.type(j)
    patterns, counts = np.unique(codes, return_counts=True)
    if len(patterns) == 1 and int(patterns[0]) in (0, all_marked):
        raise DegenerateInput("every rater marks every voxel identically")
    shifts = np.arange(n_raters, dtype=code_type)[:, None]
    marks = (patterns[None, :] >> shifts) & 1 == 1
    n_voxels = codes.size

    positives = marks.sum(axis=0)
    prior = np.full(len(patterns), float(counts @ positives) / (n_raters * n_voxels))
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
        log_not_prior = np.log1p(-prior)

    lo, hi = STAPLE_CLAMP, 1.0 - STAPLE_CLAMP
    sens = np.full(n_raters, hi)
    spec = np.full(n_raters, hi)
    weights = prior
    trace = []
    iterations = 0
    delta = np.inf
    for _ in range(cfg.max_iter):
        iterations += 1
        log_a = log_prior + _ordered_sum(
            np.where(marks, np.log(sens)[:, None], np.log1p(-sens)[:, None]), axis=0)
        log_b = log_not_prior + _ordered_sum(
            np.where(marks, np.log1p(-spec)[:, None], np.log(spec)[:, None]), axis=0)
        new_weights = _expit(log_a - log_b)
        trace.append(float(_ordered_sum(counts * np.logaddexp(log_a, log_b))))
        fg_mass = counts * new_weights
        bg_mass = counts * (1.0 - new_weights)
        fg_total, bg_total = _ordered_sum(fg_mass), _ordered_sum(bg_mass)
        if fg_total == 0.0 or bg_total == 0.0:
            raise DegenerateInput(f"every weight is exactly {int(bg_total == 0.0)}")
        sens = np.clip(_ordered_sum(np.where(marks, fg_mass, 0.0)) / fg_total, lo, hi)
        spec = np.clip(_ordered_sum(np.where(marks, 0.0, bg_mass)) / bg_total, lo, hi)
        delta = float(_ordered_sum(counts * np.abs(new_weights - weights))) / n_voxels
        weights = new_weights
        if delta < cfg.tol:
            break

    first = raters[0]
    weight_volume = ProbabilityVolume(
        weights[np.searchsorted(patterns, codes)], first.region, first.spacing, first.affine
    )
    return StapleResult(
        patterns=patterns,
        weights=weights,
        performances=tuple(RaterPerformance(float(p), float(q)) for p, q in zip(sens, spec)),
        iterations=iterations,
        loglik_trace=tuple(trace),
        consensus=binarize(weight_volume),
        converged=delta < cfg.tol,
        final_delta=delta,
    )


def majority_vote_full_grid(raters) -> np.ndarray:
    """The library's ``majority_vote`` as it was before it counted only
    inside the raters' union box, on every voxel: returns the label array."""
    from gbmseg.volume import BRATS_LABELS

    counts = np.zeros((len(BRATS_LABELS),) + raters[0].dims,
                      dtype=np.min_scalar_type(len(raters)))
    for rater in raters:
        for idx, label in enumerate(BRATS_LABELS):
            counts[idx] += rater.labels == label
    return np.asarray(BRATS_LABELS, dtype=np.uint8)[counts.argmax(axis=0)]
