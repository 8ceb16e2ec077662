import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gbmseg.errors import BadLabel, BadThreshold, GeometryMismatch, RegionMismatch
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
    same_geometry,
)

from phantoms import random_label_volume


def _labels(flat, dims=None):
    arr = np.asarray(flat, dtype=np.uint8)
    if dims is None:
        dims = (arr.size, 1, 1)
    return LabelVolume(arr.reshape(dims))


label_arrays = arrays(
    np.uint8,
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    elements=st.sampled_from([0, 1, 2, 4]),
)


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
        assert same_geometry(et, vol)

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


class TestBinarize:
    def test_threshold_is_inclusive(self):
        prob = ProbabilityVolume(np.array([0.2, 0.5, 0.9]).reshape(3, 1, 1), Region.WT)
        assert binarize(prob, 0.5).member.ravel().tolist() == [False, True, True]

    def test_zero_threshold_selects_everything(self):
        prob = ProbabilityVolume(np.zeros((2, 2, 2)), Region.ET)
        assert binarize(prob, 0.0).member.all()

    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_bad_threshold(self, threshold):
        prob = ProbabilityVolume(np.zeros((1, 1, 1)), Region.ET)
        with pytest.raises(BadThreshold):
            binarize(prob, threshold)


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


class TestTypes:
    def test_label_volume_rejects_foreign_labels(self):
        with pytest.raises(BadLabel):
            LabelVolume(np.full((2, 2, 2), 3, dtype=np.uint8))

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
