import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gbmseg import volume
from gbmseg.errors import BadLabel, GeometryMismatch, RegionMismatch
from gbmseg.volume import (
    BRATS_LABELS,
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    VoxelGrid,
    binarize,
    compose_regions,
    count_label,
    decompose_regions,
    geometry_difference,
    priority_labels,
    region_members,
    require_same_geometry,
    union_box,
)

from phantoms import random_label_volume


def _labels(flat, dims=None):
    arr = np.asarray(flat, dtype=np.uint8)
    if dims is None:
        dims = (arr.size, 1, 1)
    return LabelVolume(arr.reshape(dims))


@st.composite
def label_payloads(draw):
    """BraTS labels in any of six dtypes and in C, F or strided layout, with
    up to three voxels set to a value that may not be a label."""
    dtype = np.dtype(draw(st.sampled_from(
        [np.uint8, np.int16, np.int32, np.float32, np.float64, np.bool_])))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    base = draw(arrays(np.uint8, shape, elements=st.sampled_from(BRATS_LABELS)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        # the view skips voxels holding 3, which the check must not read
        outer = np.full((2 * shape[0], shape[1] + 1, 2 * shape[2]), 3, dtype=dtype)
        labels = outer[::2, 1:, ::-2]
        labels[...] = base
    else:
        labels = np.array(base, dtype=dtype, order=layout)
    injectable = [np.nan, np.inf, -np.inf, -0.0, 0.5, -1, 3, 256, 260]
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        injectable = [v for v in injectable
                      if np.isfinite(v) and v == int(v) and info.min <= v <= info.max]
    for _ in range(draw(st.integers(0, 3))):
        index = tuple(draw(st.integers(0, n - 1)) for n in shape)
        labels[index] = draw(st.sampled_from(injectable))
    return labels


label_arrays = arrays(
    np.uint8,
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    elements=st.sampled_from([0, 1, 2, 4]),
)


_shapes = array_shapes(min_dims=1, max_dims=3, max_side=5)


@st.composite
def ordered_labels(draw):
    """BraTS labels in an array of 1 to 3 dimensions, in C or F order."""
    base = draw(arrays(np.uint8, _shapes, elements=st.sampled_from(BRATS_LABELS)))
    return np.array(base, order=draw(st.sampled_from("CF")))


def _same_layout(a, b) -> bool:
    return (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)


class TestRegionRule:
    @given(ordered_labels())
    @settings(max_examples=200)
    def test_priority_labels_inverts_region_members(self, labels):
        out = priority_labels(*region_members(labels))
        assert out.dtype == np.uint8
        assert np.array_equal(out, labels)
        assert _same_layout(out, labels)

    @given(st.data(), _shapes, st.sampled_from("CF"))
    @settings(max_examples=200)
    def test_priority_labels_matches_a_voxel_loop(self, data, shape, order):
        et, tc, wt = (np.array(data.draw(arrays(bool, shape)), order=order) for _ in range(3))
        expected = np.zeros(shape, dtype=np.uint8)
        for index in np.ndindex(shape):
            expected[index] = 4 if et[index] else 1 if tc[index] else 2 if wt[index] else 0
        out = priority_labels(et, tc, wt)
        assert np.array_equal(out, expected)
        assert _same_layout(out, wt)

    def test_decompose_keeps_fortran_order(self):
        labels = np.asfortranarray(np.resize(np.array(BRATS_LABELS, np.uint8), (3, 4, 5)))
        masks = compose_regions(LabelVolume(labels))
        assert all(m.member.flags.f_contiguous and not m.member.flags.c_contiguous for m in masks)
        out = decompose_regions(*masks).labels
        assert out.flags.f_contiguous and not out.flags.c_contiguous
        assert np.array_equal(out, labels)


class TestComposeRegions:
    def test_each_label_maps_to_its_regions(self):
        et, tc, wt = compose_regions(_labels([0, 1, 2, 4]))
        assert et.member.ravel().tolist() == [False, False, False, True]
        assert tc.member.ravel().tolist() == [False, True, False, True]
        assert wt.member.ravel().tolist() == [False, True, True, True]

    def test_background_only_gives_empty_masks(self):
        for mask in compose_regions(_labels([0, 0, 0, 0])):
            assert not mask.member.any()

    def test_pure_edema_fills_wt_only(self):
        et, tc, wt = compose_regions(_labels([2, 2, 2, 2]))
        assert not et.member.any()
        assert not tc.member.any()
        assert wt.member.all()

    def test_region_tags_and_geometry_copied(self):
        vol = LabelVolume(np.zeros((2, 3, 4), dtype=np.uint8), spacing=(1, 2, 3))
        et, tc, wt = compose_regions(vol)
        assert (et.region, tc.region, wt.region) == (Region.ET, Region.TC, Region.WT)
        assert et.spacing == (1.0, 2.0, 3.0)
        assert geometry_difference(et, vol) == ""

    @given(label_arrays)
    @settings(max_examples=50)
    def test_masks_always_nested(self, labels):
        et, tc, wt = compose_regions(LabelVolume(labels))
        assert (et.member <= tc.member).all()
        assert (tc.member <= wt.member).all()


class TestDecomposeRegions:
    @given(label_arrays)
    @settings(max_examples=50)
    def test_inverse_of_compose(self, labels):
        vol = LabelVolume(labels)
        assert np.array_equal(decompose_regions(*compose_regions(vol)).labels, vol.labels)

    @pytest.mark.parametrize("in_et,in_tc,in_wt", [
        (e, t, w) for e in (False, True) for t in (False, True) for w in (False, True)
    ])
    def test_priority_rule_on_all_membership_combinations(self, in_et, in_tc, in_wt):
        # independent statement of the priority rule
        expected = 4 if in_et else 1 if in_tc else 2 if in_wt else 0
        dims = (1, 1, 1)
        masks = [
            RegionMask(np.full(dims, flag), region)
            for flag, region in zip((in_et, in_tc, in_wt), (Region.ET, Region.TC, Region.WT))
        ]
        assert decompose_regions(*masks).labels[0, 0, 0] == expected

    def test_geometry_mismatch(self):
        et = RegionMask(np.zeros((2, 2, 2), bool), Region.ET)
        tc = RegionMask(np.zeros((2, 2, 2), bool), Region.TC)
        wt = RegionMask(np.zeros((3, 2, 2), bool), Region.WT)
        with pytest.raises(GeometryMismatch):
            decompose_regions(et, tc, wt)

    def test_masks_must_arrive_in_region_order(self):
        m = [RegionMask(np.zeros((2, 2, 2), bool), r) for r in (Region.TC, Region.ET, Region.WT)]
        with pytest.raises(RegionMismatch):
            decompose_regions(*m)


def _shifted_affine() -> np.ndarray:
    affine = np.eye(4)
    affine[0, 3] = 0.5
    return affine


@pytest.mark.parametrize("other, named", [
    (LabelVolume(np.zeros((2, 2, 3), np.uint8)), "dims (2, 2, 2) vs (2, 2, 3)"),
    (LabelVolume(np.zeros((2, 2, 2), np.uint8), spacing=(1, 1, 2)),
     "spacing (1.0, 1.0, 1.0) vs (1.0, 1.0, 2.0)"),
    (LabelVolume(np.zeros((2, 2, 2), np.uint8), affine=_shifted_affine()),
     "affine entries differ by up to 0.5"),
], ids=["dims", "spacing", "affine"])
def test_geometry_error_names_what_differs(other, named):
    # once always "dims", even when the dims were equal
    with pytest.raises(GeometryMismatch, match=re.escape(f"geometry differs: {named}") + "$"):
        require_same_geometry(LabelVolume(np.zeros((2, 2, 2), np.uint8)), other)


class TestBinarize:
    def test_threshold_is_inclusive(self):
        prob = ProbabilityVolume(np.array([0.2, 0.5, 0.9]).reshape(3, 1, 1), Region.WT)
        assert binarize(prob).member.ravel().tolist() == [False, True, True]


class TestCountLabel:
    def test_known_count(self):
        labels = np.zeros((10, 10, 10), dtype=np.uint8)
        labels.ravel()[:199] = 4
        assert count_label(LabelVolume(labels), 4) == 199

    def test_absent_label_counts_zero(self):
        assert count_label(_labels([0, 0, 0, 0]), 2) == 0

    def test_full_volume(self):
        assert count_label(LabelVolume(np.ones((2, 2, 2), dtype=np.uint8)), 1) == 8

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            count_label(_labels([0]), 3)

    def test_counts_sum_to_voxel_count(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vol = random_label_volume(rng)
            total = sum(count_label(vol, lbl) for lbl in BRATS_LABELS)
            assert total == vol.labels.size


@st.composite
def marked_arrays(draw, shape):
    """A mostly-zero array of the given shape: bool, uint8, int16 or
    float32, in C, F or strided layout, with NaN, ±inf and -0.0 injected
    into floats."""
    dtype = np.dtype(draw(st.sampled_from([np.bool_, np.uint8, np.int16, np.float32])))
    base = draw(arrays(dtype, shape, elements=st.sampled_from([0, 0, 0, 1]).map(dtype.type)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        # the view skips nonzero voxels, which must not widen the box
        outer = np.ones((2 * shape[0], shape[1] + 1, 2 * shape[2]), dtype=dtype)
        array = outer[::2, 1:, ::-2]
        array[...] = base
    else:
        array = np.array(base, order=layout)
    if dtype.kind == "f":
        for _ in range(draw(st.integers(0, 3))):
            index = tuple(draw(st.integers(0, n - 1)) for n in shape)
            array[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
    return array


class TestBoundingBox:
    @given(st.data(), st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           st.integers(1, 4))
    @settings(max_examples=200)
    def test_matches_voxel_enumeration(self, data, shape, n_arrays):
        marked = [data.draw(marked_arrays(shape)) for _ in range(n_arrays)]
        coords = np.argwhere(np.logical_or.reduce([a != 0 for a in marked]))
        box = union_box(marked)
        if coords.size == 0:
            assert box == (slice(0, 0),) * 3
            return
        low = coords.min(axis=0)
        high = coords.max(axis=0) + 1
        assert box == tuple(slice(int(l), int(h)) for l, h in zip(low, high))


class TestTypes:
    def test_label_volume_rejects_foreign_labels(self):
        with pytest.raises(BadLabel):
            LabelVolume(np.full((2, 2, 2), 3, dtype=np.uint8))

    def test_uint8_labels_accepted_exactly_when_brats(self):
        for value in range(256):
            labels = np.zeros((3, 2, 2), dtype=np.uint8)
            labels[2, 1, 0] = value
            if value in BRATS_LABELS:
                assert LabelVolume(labels).labels[2, 1, 0] == value
            else:
                with pytest.raises(BadLabel, match=rf"\[{value}\]"):
                    LabelVolume(labels)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32, np.float64])
    def test_label_check_needs_no_full_grid_temporary(self, dtype, order):
        # The check holds one bounded chunk at a time (about 0.13 MiB at
        # peak); a full-grid boolean temporary costs one byte per voxel, 1 MiB.
        # A wider dtype also pays for the uint8 copy the constructor returns.
        labels = np.zeros((128, 128, 64), dtype=dtype, order=order)
        labels[::7, ::5, ::3] = 4
        labels[-1, -1, -1] = 3
        good = labels.copy(order="K")
        good[-1, -1, -1] = 2
        for payload in (good, good[1:, :-2, 3:]):
            tracemalloc.start()
            try:
                cast = LabelVolume(payload).labels
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            returned = 0 if cast is payload else cast.nbytes
            assert peak - returned < payload.size // 4
        with pytest.raises(BadLabel, match=r"\[3(\.0)?\]"):
            LabelVolume(labels)

    @settings(max_examples=300, deadline=None)
    @given(label_payloads(), st.sampled_from([8, 64, 1 << 16]))
    def test_labels_accepted_exactly_when_isin_brats(self, labels, chunk_bytes):
        with mock.patch.object(volume, "_LABEL_CHECK_BYTES", chunk_bytes):
            if np.isin(labels, BRATS_LABELS).all():
                assert np.array_equal(LabelVolume(labels).labels, labels.astype(np.uint8))
            else:
                with pytest.raises(BadLabel, match="labels outside"):
                    LabelVolume(labels)

    def test_probability_volume_rejects_out_of_range(self):
        for value in (1.2, -0.1, np.nan):
            with pytest.raises(ValueError):
                ProbabilityVolume(np.full((1, 1, 1), value), Region.ET)

    def test_voxel_grid_default_affine_is_spacing_diagonal(self):
        grid = VoxelGrid(np.zeros((2, 2, 2)), spacing=(2.0, 3.0, 4.0))
        assert np.allclose(grid.affine, np.diag([2.0, 3.0, 4.0, 1.0]))

    def test_from_grid_rejects_fractional_values(self):
        with pytest.raises(BadLabel):
            LabelVolume.from_grid(VoxelGrid(np.full((1, 1, 1), 0.5)))

    @pytest.mark.parametrize("values", [
        np.full((1, 1, 1), 256, dtype=np.int16),
        np.full((1, 1, 1), 260.0),
    ], ids=["int16_256", "float_260"])
    def test_from_grid_rejects_labels_that_wrap_in_uint8(self, values):
        with pytest.raises(BadLabel):
            LabelVolume.from_grid(VoxelGrid(values))

    @pytest.mark.parametrize("make", [
        lambda **geo: VoxelGrid(np.zeros((2, 2, 2)), **geo),
        lambda **geo: LabelVolume(np.zeros((2, 2, 2), np.uint8), **geo),
        lambda **geo: RegionMask(np.zeros((2, 2, 2), bool), Region.ET, **geo),
        lambda **geo: ProbabilityVolume(np.zeros((2, 2, 2)), Region.ET, **geo),
    ], ids=["VoxelGrid", "LabelVolume", "RegionMask", "ProbabilityVolume"])
    @pytest.mark.parametrize("geometry", [
        {"spacing": (np.inf, 1.0, 1.0)},
        {"spacing": (np.nan, 1.0, 1.0)},
        {"affine": np.diag([np.nan, 1.0, 1.0, 1.0])},
        {"affine": np.diag([1.0, 1.0, 0.0, 1.0])},
    ], ids=["inf_spacing", "nan_spacing", "nan_affine", "singular_affine"])
    def test_constructors_reject_bad_geometry(self, make, geometry):
        with pytest.raises(ValueError):
            make(**geometry)

    def test_from_grid_round_trip(self):
        vol = _labels([0, 1, 2, 4])
        again = LabelVolume.from_grid(vol.to_grid())
        assert np.array_equal(again.labels, vol.labels)
