import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmseg.errors import (
    BadAngle,
    GeometryMismatch,
    NoBrainVoxels,
    NonFiniteIntensity,
    ZeroVariance,
)
from gbmseg.preprocess import (
    AugmentSpec,
    apply_augmentation,
    brain_bounding_box,
    crop_and_fit,
    flip3d,
    gamma_transform,
    rotate3d,
    sample_augmentation,
    zscore_normalize,
)
from gbmseg.volume import VoxelGrid

from oracles import rotate_nearest_oracle
from phantoms import ball, mask_dice


class TestBrainBoundingBox:
    def test_single_nonzero_voxel(self):
        values = np.zeros((8, 8, 8))
        values[3, 4, 5] = 1.0
        assert brain_bounding_box([VoxelGrid(values)]) == (slice(3, 4), slice(4, 5), slice(5, 6))

    def test_union_over_modalities_spans_the_grid(self):
        a = np.zeros((8, 8, 8))
        b = np.zeros((8, 8, 8))
        a[0, 0, 0] = 1.0
        b[7, 7, 7] = 1.0
        assert brain_bounding_box([VoxelGrid(a), VoxelGrid(b)]) == (slice(0, 8),) * 3

    def test_all_zero_inputs(self):
        with pytest.raises(NoBrainVoxels):
            brain_bounding_box([VoxelGrid(np.zeros((4, 4, 4)))])

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            brain_bounding_box([VoxelGrid(np.ones((4, 4, 4))), VoxelGrid(np.ones((5, 4, 4)))])


class TestCropAndFit:
    def test_brats_shape_reaches_target(self):
        values = np.zeros((240, 240, 155), dtype=np.float32)
        values[30:210, 15:225, 3:153] = 1.0  # 180 x 210 x 150 brain
        grid = VoxelGrid(values)
        box = brain_bounding_box([grid])
        out = crop_and_fit(grid, box, (192, 224, 160))
        assert out.dims == (192, 224, 160)
        # symmetric pads: (192-180)/2=6, (224-210)/2=7, (160-150)/2=5
        assert out.values[6:186, 7:217, 5:155].all()
        assert out.values.sum() == values.sum()

    def test_box_equal_to_target_is_pure_extraction(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((10, 10, 10))
        grid = VoxelGrid(values)
        out = crop_and_fit(grid, (slice(2, 6), slice(3, 7), slice(4, 8)), (4, 4, 4))
        assert np.array_equal(out.values, values[2:6, 3:7, 4:8])

    def test_oversize_box_trims_four_each_side(self):
        values = np.arange(200, dtype=np.float64).reshape(200, 1, 1)
        out = crop_and_fit(VoxelGrid(values), (slice(0, 200), slice(0, 1), slice(0, 1)), (192, 1, 1))
        # (200 - 192) / 2 = 4 trimmed per side
        assert np.array_equal(out.values.ravel(), np.arange(4, 196, dtype=np.float64))

    def test_odd_padding_extra_voxel_on_high_side(self):
        values = np.ones((3, 1, 1))
        out = crop_and_fit(VoxelGrid(values), (slice(0, 3), slice(0, 1), slice(0, 1)), (6, 1, 1))
        # pad = 3: one low, two high
        assert out.values.ravel().tolist() == [0, 1, 1, 1, 0, 0]

    def test_world_coordinates_preserved(self):
        rng = np.random.default_rng(1)
        affine = np.eye(4)
        affine[:3, :3] = np.array([[0, -1.5, 0], [1.5, 0, 0], [0, 0, 2.0]])
        affine[:3, 3] = [10.0, -20.0, 5.0]
        values = rng.standard_normal((12, 12, 12))
        grid = VoxelGrid(values, spacing=(1.5, 1.5, 2.0), affine=affine)
        box = (slice(2, 10), slice(3, 11), slice(4, 12))
        out = crop_and_fit(grid, box, (6, 10, 6))
        # voxel (v) in output at index o maps to input index origin + o
        for out_idx, in_idx in [((0, 1, 0), (3, 3, 5)), ((2, 4, 3), (5, 6, 8))]:
            assert out.values[out_idx] == values[in_idx]
            world_out = out.affine @ np.array([*out_idx, 1.0])
            world_in = grid.affine @ np.array([*in_idx, 1.0])
            assert np.allclose(world_out, world_in)

    @pytest.mark.parametrize("box", [
        (slice(2, 2), slice(0, 4), slice(0, 4)),
        (slice(0, 4, 2), slice(0, 4), slice(0, 4)),
        (slice(0, 5), slice(0, 4), slice(0, 4)),
        (slice(-1, 3), slice(0, 4), slice(0, 4)),
        (slice(None, 3), slice(0, 4), slice(0, 4)),
        (slice(0, 4), slice(0, 4)),
    ], ids=["empty", "step", "past_the_high_face", "negative_start", "open_start", "two_axes"])
    def test_box_not_inside_the_grid(self, box):
        with pytest.raises(GeometryMismatch):
            crop_and_fit(VoxelGrid(np.ones((4, 4, 4))), box, (4, 4, 4))

    def test_output_dims_always_target(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            dims = tuple(rng.integers(4, 20, size=3))
            values = rng.random(dims)
            values[tuple(rng.integers(0, d) for d in dims)] = 1.0  # nonempty
            grid = VoxelGrid(values)
            box = brain_bounding_box([grid])
            target = tuple(int(t) for t in rng.integers(2, 24, size=3))
            assert crop_and_fit(grid, box, target).dims == target


class TestZscoreNormalize:
    def test_two_brain_voxels(self):
        values = np.zeros((2, 2, 1))
        values[0, 0, 0] = 8.0
        values[1, 1, 0] = 12.0
        out = zscore_normalize(VoxelGrid(values))
        assert out.values[0, 0, 0] == -1.0
        assert out.values[1, 1, 0] == 1.0
        assert out.values[0, 1, 0] == 0.0  # background untouched

    def test_constant_brain_raises(self):
        values = np.where(ball((6, 6, 6), 2.0), 5.0, 0.0)
        with pytest.raises(ZeroVariance):
            zscore_normalize(VoxelGrid(values))

    def test_all_zero_raises(self):
        with pytest.raises(NoBrainVoxels):
            zscore_normalize(VoxelGrid(np.zeros((3, 3, 3))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_raises_with_count(self, bad):
        # one NaN once turned every brain voxel NaN; inf also warned twice
        values = np.zeros((8, 8, 8), np.float32)
        values[2:6, 2:6, 2:6] = np.random.default_rng(5).random((4, 4, 4)) + 0.5
        values[3, 4, 2] = values[5, 5, 5] = bad
        with pytest.raises(NonFiniteIntensity, match=r"\b2 non-finite"):
            zscore_normalize(VoxelGrid(values))

    def test_output_statistics(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            values = np.where(ball((12, 12, 12), 4.5), rng.random((12, 12, 12)) + 0.5, 0.0)
            out = zscore_normalize(VoxelGrid(values))
            brain = out.values[values != 0]
            assert abs(brain.mean()) < 1e-5
            assert abs(brain.std() - 1.0) < 1e-5
            assert (out.values[values == 0] == 0).all()


class TestFlip3d:
    def test_involution_per_axis(self):
        rng = np.random.default_rng(4)
        grid = VoxelGrid(rng.random((4, 5, 6)))
        for axis in (0, 1, 2):
            twice = flip3d(flip3d(grid, (axis,)), (axis,))
            assert np.array_equal(twice.values, grid.values)

    def test_empty_axis_set_is_identity(self):
        grid = VoxelGrid(np.arange(8, dtype=float).reshape(2, 2, 2))
        assert np.array_equal(flip3d(grid, ()).values, grid.values)

    def test_two_voxel_flip(self):
        grid = VoxelGrid(np.array([1.0, 2.0]).reshape(2, 1, 1))
        assert flip3d(grid, (0,)).values.ravel().tolist() == [2.0, 1.0]

    def test_flips_commute_across_axes(self):
        rng = np.random.default_rng(5)
        grid = VoxelGrid(rng.random((3, 4, 5)))
        ab = flip3d(flip3d(grid, (0,)), (1,))
        ba = flip3d(flip3d(grid, (1,)), (0,))
        both = flip3d(grid, (0, 1))
        assert np.array_equal(ab.values, ba.values)
        assert np.array_equal(ab.values, both.values)

    def test_geometry_untouched(self):
        grid = VoxelGrid(np.ones((2, 2, 2)), spacing=(1, 2, 3))
        assert flip3d(grid, (0, 2)).spacing == (1.0, 2.0, 3.0)


class TestRotate3d:
    def test_zero_degrees_is_identity(self):
        rng = np.random.default_rng(6)
        grid = VoxelGrid(rng.random((8, 8, 8)))
        assert np.array_equal(rotate3d(grid, 0, 0.0).values, grid.values)

    def test_nearest_never_invents_labels(self):
        rng = np.random.default_rng(7)
        values = rng.choice(np.array([0, 1, 2, 4], np.uint8), size=(16, 16, 16))
        out = rotate3d(VoxelGrid(values), 1, 17.0, interpolation="nearest")
        assert set(np.unique(out.values)) <= set(np.unique(values)) | {0}

    def test_ball_survives_thirty_degrees_and_matches_reference(self):
        mask = ball((32, 32, 32), 8.0)
        grid = VoxelGrid(mask)
        for axis in (0, 1, 2):
            rotated = rotate3d(grid, axis, 30.0, interpolation="nearest")
            mine = mask_dice(mask, rotated.values.astype(bool))
            reference = rotate_nearest_oracle(mask, axis, 30.0)
            ref_dice = mask_dice(mask, reference)
            assert mine >= 90.0
            assert abs(mine - ref_dice) <= 2.0  # dice in percent

    def test_nearest_rotation_equals_reference_exactly(self):
        mask = np.zeros((20, 20, 20), dtype=bool)
        mask[3:9, 8:17, 5:8] = True
        for axis, deg in [(0, 12.5), (1, 25.0), (2, 30.0)]:
            out = rotate3d(VoxelGrid(mask), axis, deg, interpolation="nearest")
            assert np.array_equal(out.values, rotate_nearest_oracle(mask, axis, deg))

    @pytest.mark.parametrize("degrees", [-1.0, 30.5, 180.0])
    def test_angle_outside_range(self, degrees):
        with pytest.raises(BadAngle):
            rotate3d(VoxelGrid(np.zeros((4, 4, 4))), 0, degrees)

    @pytest.mark.parametrize("axis", [-1, 3, 9])
    @pytest.mark.parametrize("degrees", [0.0, 10.0])
    def test_axis_outside_range(self, axis, degrees):
        # once a bare KeyError at 10 degrees, and any axis accepted at 0
        with pytest.raises(ValueError, match="axis"):
            rotate3d(VoxelGrid(np.zeros((4, 4, 4))), axis, degrees)

    def test_trilinear_on_labels_would_blur_so_mask_uses_nearest(self):
        mask = ball((16, 16, 16), 5.0)
        out = rotate3d(VoxelGrid(mask), 2, 20.0, interpolation="trilinear")
        assert np.issubdtype(out.values.dtype, np.floating)


class TestGammaTransform:
    def test_gamma_one_is_identity(self):
        rng = np.random.default_rng(8)
        values = rng.random((6, 6, 6)) * 7.0 - 3.0
        out = gamma_transform(VoxelGrid(values), 1.0)
        assert np.allclose(out.values, values, rtol=1e-6)

    def test_quarter_squared(self):
        values = np.array([0.0, 0.25, 1.0]).reshape(3, 1, 1)
        out = gamma_transform(VoxelGrid(values), 2.0)
        assert out.values[1, 0, 0] == pytest.approx(0.0625, abs=1e-12)

    def test_constant_grid_unchanged(self):
        grid = VoxelGrid(np.full((3, 3, 3), 2.5))
        assert np.array_equal(gamma_transform(grid, 3.0).values, grid.values)

    def test_monotone_and_endpoints_exact(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((5, 5, 5)) * 10.0
        for gamma in (0.5, 0.7, 1.3, 2.0):
            out = gamma_transform(VoxelGrid(values), gamma).values
            order = np.argsort(values.ravel())
            assert (np.diff(out.ravel()[order]) >= 0).all()
            assert out.max() == values.max()
            assert out.min() == values.min()

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            gamma_transform(VoxelGrid(np.zeros((2, 2, 2))), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_raises_with_count(self, bad):
        values = np.random.default_rng(6).random((4, 4, 4))
        values[1, 2, 3] = bad
        with pytest.raises(NonFiniteIntensity, match=r"\b1 non-finite"):
            gamma_transform(VoxelGrid(values), 1.3)


class TestSampleAugmentation:
    def test_deterministic_in_seed(self):
        assert sample_augmentation(1234) == sample_augmentation(1234)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=200)
    def test_ranges(self, seed):
        spec = sample_augmentation(seed)
        assert 0.0 <= spec.rotation_deg <= 30.0
        assert 0.7 <= spec.gamma <= 1.5
        assert spec.rotation_axis in (0, 1, 2)
        assert set(spec.flip_axes) <= {0, 1, 2}

    def test_flip_rate_near_half(self):
        hits = np.zeros(3)
        n = 10_000
        for seed in range(n):
            for axis in sample_augmentation(seed).flip_axes:
                hits[axis] += 1
        rates = hits / n
        assert (np.abs(rates - 0.5) <= 0.03).all()

    def test_spec_validates_ranges(self):
        with pytest.raises(BadAngle):
            AugmentSpec(0, 31.0, (), 1.0, seed=0)
        with pytest.raises(ValueError):
            AugmentSpec(0, 10.0, (), 0.0, seed=0)
        with pytest.raises(ValueError, match="axis"):  # once a KeyError in apply_augmentation
            AugmentSpec(9, 10.0, (), 1.0, seed=0)


class TestApplyAugmentation:
    def test_non_finite_intensity_counted_before_rotation(self):
        # rotating first would spread the one NaN to its neighbours
        values = np.random.default_rng(12).random((8, 8, 8))
        values[4, 4, 4] = np.nan
        spec = AugmentSpec(0, 20.0, (), 1.2, seed=0)
        with pytest.raises(NonFiniteIntensity, match=r"\b1 non-finite"):
            apply_augmentation(VoxelGrid(values), spec)

    def test_label_payload_keeps_label_set_and_skips_gamma(self):
        rng = np.random.default_rng(10)
        values = rng.choice(np.array([0, 1, 2, 4], np.uint8), size=(12, 12, 12))
        spec = sample_augmentation(99)
        out = apply_augmentation(VoxelGrid(values), spec, payload="labels")
        assert set(np.unique(out.values)) <= {0, 1, 2, 4}

    def test_spacing_never_altered(self):
        grid = VoxelGrid(np.random.default_rng(11).random((8, 8, 8)), spacing=(0.5, 2.0, 1.0))
        out = apply_augmentation(grid, sample_augmentation(7))
        assert out.spacing == grid.spacing

    def test_deterministic(self):
        grid = VoxelGrid(np.random.default_rng(12).random((8, 8, 8)))
        spec = sample_augmentation(21)
        a = apply_augmentation(grid, spec)
        b = apply_augmentation(grid, spec)
        assert np.array_equal(a.values, b.values)
