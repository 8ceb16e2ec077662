"""``crop_and_fit``'s one centred window against the frozen per-axis
pad/crop version in ``oracles.crop_and_fit_per_axis``: equal values, dtype
and affine, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmseg.preprocess import crop_and_fit
from gbmseg.volume import VoxelGrid

from oracles import crop_and_fit_per_axis

_DTYPES = (np.float64, np.float32, np.int16, np.uint8)


def _affine(rng):
    # a sheared, rotated, translated affine: the translation mixes every axis
    affine = np.eye(4)
    affine[:3, :3] = np.diag(rng.uniform(0.5, 3.0, size=3)) + rng.uniform(-0.4, 0.4, (3, 3))
    affine[:3, 3] = rng.uniform(-100.0, 100.0, size=3)
    return affine


def _assert_matches_oracle(grid, box, target):
    out = crop_and_fit(grid, box, target)
    low, high = [s.start for s in box], [s.stop for s in box]
    values, affine = crop_and_fit_per_axis(grid.values, grid.affine, low, high, target)
    assert out.values.dtype == values.dtype
    assert out.values.shape == values.shape
    assert out.values.tobytes() == values.tobytes()
    assert out.affine.tobytes() == affine.tobytes()


@st.composite
def _cases(draw):
    dims, low, high, target = [], [], [], []
    for _ in range(3):
        d = draw(st.integers(1, 9))
        lo = draw(st.integers(0, d - 1))
        hi = draw(st.integers(lo + 1, d))
        dims.append(d)
        low.append(lo)
        high.append(hi)
        # pad, crop, exact fit, odd and even remainders alike
        target.append(draw(st.integers(1, 12)))
    dtype = draw(st.sampled_from(_DTYPES))
    seed = draw(st.integers(0, 2**32 - 1))
    box = tuple(slice(lo, hi) for lo, hi in zip(low, high))
    return tuple(dims), box, tuple(target), dtype, seed


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_window_equals_per_axis_pad_and_crop(case):
    dims, box, target, dtype, seed = case
    rng = np.random.default_rng(seed)
    values = (rng.random(dims) * 200).astype(dtype)
    grid = VoxelGrid(values, affine=_affine(rng))
    _assert_matches_oracle(grid, box, target)


def test_every_box_and_target_on_each_axis():
    # every box of a 7-voxel axis, the faces included, fitted to every target
    # from 1 to 10, so each size is padded, cropped and fitted exactly with
    # both remainders; the other two axes hold a box of one voxel
    rng = np.random.default_rng(7)
    for axis in range(3):
        dims = [3, 3, 3]
        dims[axis] = 7
        grid = VoxelGrid(rng.standard_normal(dims), affine=_affine(rng))
        for lo in range(7):
            for hi in range(lo + 1, 8):
                for target in range(1, 11):
                    low, high, fit = [1, 1, 1], [2, 2, 2], [2, 3, 4]
                    low[axis], high[axis], fit[axis] = lo, hi, target
                    box = tuple(slice(lo, hi) for lo, hi in zip(low, high))
                    _assert_matches_oracle(grid, box, tuple(fit))
