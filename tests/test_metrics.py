import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gbmseg import metrics
from gbmseg.errors import GeometryMismatch
from gbmseg.metrics import (
    _PAIR_BLOCK,
    _PAIR_BUDGET,
    _REACH,
    CaseMetrics,
    _surface,
    dice,
    evaluate_case,
    hd95,
    soft_dice_ce,
    surface_voxels,
)
from gbmseg.volume import (LabelVolume, ProbabilityVolume, Region, RegionMask, compose_regions,
                           union_box)

from oracles import hd95_full_grid, hd_percentiles_bruteforce, surface_oracle
from phantoms import ball, nested_label_phantom

def mask(values, region=Region.WT, spacing=(1.0, 1.0, 1.0)):
    return RegionMask(np.asarray(values, dtype=bool), region, spacing)


def random_mask_pair(rng, max_dim=12):
    dims = tuple(int(d) for d in rng.integers(3, max_dim + 1, size=3))
    density = rng.uniform(0.05, 0.6)
    a = rng.random(dims) < density
    b = rng.random(dims) < density
    spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
    return mask(a, spacing=spacing), mask(b, spacing=spacing)


@st.composite
def placed_mask_pairs(draw):
    """Two small random masks placed anywhere in a larger empty grid, each
    optionally pushed against one of the six grid faces, with anisotropic
    spacing, in C or Fortran order (volumes read from disk are Fortran)."""
    dims = tuple(draw(st.integers(3, 14)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.4, 0.9375, 1.0, 1.5, 2.7])) for _ in range(3))

    def placed():
        shape = tuple(draw(st.integers(1, min(5, d))) for d in dims)
        patch = draw(arrays(bool, shape))
        offset = [draw(st.integers(0, d - s)) for d, s in zip(dims, shape)]
        face = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
        if face is not None:
            axis, high = divmod(face, 2)
            offset[axis] = dims[axis] - shape[axis] if high else 0
            edge = [slice(None)] * 3
            edge[axis] = -1 if high else 0
            patch[tuple(edge)].flat[0] = True
        member = np.zeros(dims, bool)
        member[tuple(slice(o, o + s) for o, s in zip(offset, shape))] = patch
        if draw(st.booleans()):
            member = np.asfortranarray(member)
        return mask(member, spacing=spacing)

    return placed(), placed()


@st.composite
def placed_label_pairs(draw):
    """A prediction and a truth label volume of one grid, each empty or a
    small random label patch placed anywhere, optionally pushed against one
    of the six grid faces with a tumour voxel on it; anisotropic spacing,
    C or Fortran order."""
    dims = tuple(draw(st.integers(3, 14)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.4, 0.9375, 1.0, 1.5, 2.7])) for _ in range(3))

    def placed():
        labels = np.zeros(dims, np.uint8)
        if draw(st.booleans()):
            shape = tuple(draw(st.integers(1, min(6, d))) for d in dims)
            patch = draw(arrays(np.uint8, shape, elements=st.sampled_from([0, 1, 2, 4])))
            offset = [draw(st.integers(0, d - s)) for d, s in zip(dims, shape)]
            face = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
            if face is not None:
                axis, high = divmod(face, 2)
                offset[axis] = dims[axis] - shape[axis] if high else 0
                edge = [slice(None)] * 3
                edge[axis] = -1 if high else 0
                patch[tuple(edge)].flat[0] = draw(st.sampled_from([1, 2, 4]))
            labels[tuple(slice(o, o + s) for o, s in zip(offset, shape))] = patch
        if draw(st.booleans()):
            labels = np.asfortranarray(labels)
        return LabelVolume(labels, spacing)

    return placed(), placed()


def _label_pair(pred, gt):
    spacing = (0.9375, 1.0, 1.5)
    return LabelVolume(np.asarray(pred, np.uint8), spacing), LabelVolume(np.asarray(gt, np.uint8), spacing)


def _evaluate_case_full_grid(pred: LabelVolume, gt: LabelVolume) -> CaseMetrics:
    """``evaluate_case`` on the whole grids: region masks of the full grid,
    ``dice``, and the frozen full-grid HD95."""
    values = {}
    for pm, gm in zip(compose_regions(pred), compose_regions(gt)):
        region = pm.region.value.lower()
        values[f"dsc_{region}"] = dice(pm, gm)
        values[f"hd95_{region}"] = hd95_full_grid(pm, gm)
    return CaseMetrics(case_id="c", **values)


def _dense_noise_and_ball():
    """Noise over half the grid against a ball, with anisotropic spacing
    and the noise Fortran-ordered: the union box is the whole grid, and
    most of the noise is surface, far from the ball's."""
    dims, spacing = (14, 13, 12), (0.4, 1.5, 2.7)
    noise = np.asfortranarray(np.random.default_rng(7).random(dims) < 0.5)
    return mask(noise, spacing=spacing), mask(ball(dims, 4.0), spacing=spacing)


def _corners_beyond_the_ball():
    """At spacing (0.1, 0.3, 0.7) the cube search may settle only offsets
    up to 0.4 mm, so most of its cube lies beyond that ball.  From a, every
    voxel settles in the ball.  From b, the voxel at (8, 8, 7) has a voxel
    of a one step along the coarsest axis (0.7 mm, inside the cube), but
    its nearest is 4 steps along the finest (0.4 mm, outside it)."""
    dims, spacing = (16, 10, 10), (0.1, 0.3, 0.7)
    a, b = np.zeros(dims, bool), np.zeros(dims, bool)
    for voxel in ((2, 2, 2), (8, 8, 8), (12, 8, 7)):
        a[voxel] = True
    for voxel in ((4, 2, 2), (8, 8, 8), (8, 8, 7), (12, 8, 7)):
        b[voxel] = True
    return mask(a, spacing=spacing), mask(b, spacing=spacing)


def _nearest_just_outside_the_cube():
    """b's nearest voxel to a's lies _REACH + 1 voxels along the finest
    axis, exactly at the bound of the ball the cube search may settle in;
    b's other voxel lies inside the cube but just beyond that bound."""
    dims, spacing = (10, 8, 8), (1.0, 1.1, 1.2)
    a, b = np.zeros(dims, bool), np.zeros(dims, bool)
    a[2, 2, 2] = True
    b[2 + _REACH + 1, 2, 2] = True
    b[2, 2 + _REACH, 4] = True
    return mask(a, spacing=spacing), mask(b, spacing=spacing)


class TestDice:
    def test_identical_masks(self):
        m = mask(ball((8, 8, 8), 3.0))
        assert dice(m, m) == 100.0

    def test_hand_counted_overlap(self):
        a = np.zeros((10, 1, 1), bool)
        b = np.zeros((10, 1, 1), bool)
        a[0:4] = True            # |A| = 4
        b[1:7] = True            # |B| = 6, overlap voxels 1,2,3
        assert dice(mask(a), mask(b)) == pytest.approx(60.0)

    def test_one_empty_scores_zero(self):
        a = mask(ball((6, 6, 6), 2.0))
        b = mask(np.zeros((6, 6, 6), bool))
        assert dice(a, b) == 0.0
        assert dice(b, a) == 0.0

    def test_both_empty_uses_policy(self):
        e = mask(np.zeros((4, 4, 4), bool))
        assert dice(e, e) == 100.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = random_mask_pair(rng)
            assert dice(a, b) == dice(b, a)

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            dice(mask(np.zeros((2, 2, 2), bool)), mask(np.zeros((3, 2, 2), bool)))


class TestSurfaceVoxels:
    def test_single_voxel(self):
        m = np.zeros((5, 5, 5), bool)
        m[2, 3, 1] = True
        assert surface_voxels(mask(m)).tolist() == [[2, 3, 1]]

    def test_solid_cube_sheds_its_center(self):
        m = np.zeros((5, 5, 5), bool)
        m[1:4, 1:4, 1:4] = True
        coords = {tuple(c) for c in surface_voxels(mask(m))}
        assert len(coords) == 26
        assert (2, 2, 2) not in coords
        assert coords == surface_oracle(m)

    def test_empty_mask(self):
        assert surface_voxels(mask(np.zeros((3, 3, 3), bool))).size == 0

    def test_grid_boundary_counts_as_outside(self):
        m = np.ones((3, 3, 3), bool)
        coords = {tuple(c) for c in surface_voxels(mask(m))}
        assert (1, 1, 1) not in coords
        assert len(coords) == 26

    def test_matches_oracle_on_random_masks(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, _ = random_mask_pair(rng)
            got = {tuple(c) for c in surface_voxels(m)}
            assert got == surface_oracle(m.member)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_numpy_surface_equals_binary_erosion(self, data):
        from scipy import ndimage

        dims = data.draw(st.tuples(*[st.integers(1, 8)] * 3))
        grid = data.draw(arrays(bool, dims))
        if data.draw(st.booleans()):
            grid = np.asfortranarray(grid)
        low = [data.draw(st.integers(0, n - 1)) for n in dims]
        crop = grid[tuple(slice(lo, data.draw(st.integers(lo + 1, n))) for lo, n in zip(low, dims))]
        six = ndimage.generate_binary_structure(3, 1)
        surface = _surface(crop)
        assert surface.dtype == bool
        np.testing.assert_array_equal(
            surface, crop & ~ndimage.binary_erosion(crop, structure=six, border_value=0))
        if min(crop.shape) <= 2:  # no voxel has members on both sides along that axis
            np.testing.assert_array_equal(surface, crop)


class TestHd95:
    def test_identical_masks(self):
        m = mask(ball((8, 8, 8), 3.0))
        assert hd95(m, m) == 0.0

    def test_three_voxels_apart(self):
        a = np.zeros((8, 1, 1), bool)
        b = np.zeros((8, 1, 1), bool)
        a[1] = True
        b[4] = True
        assert hd95(mask(a), mask(b)) == pytest.approx(3.0)

    def test_one_empty_returns_penalty(self):
        a = mask(ball((6, 6, 6), 2.0))
        b = mask(np.zeros((6, 6, 6), bool))
        assert hd95(a, b) == pytest.approx(373.1287)
        assert hd95(b, a) == pytest.approx(373.1287)

    def test_both_empty(self):
        e = mask(np.zeros((4, 4, 4), bool))
        assert hd95(e, e) == 0.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a, b = random_mask_pair(rng)
            if not (a.member.any() and b.member.any()):
                continue
            expected, exact_max = hd_percentiles_bruteforce(a.member, b.member, a.spacing)
            got = hd95(a, b)
            assert got == pytest.approx(expected, abs=1e-9)
            assert got <= exact_max + 1e-9

    def test_masks_on_grid_faces_match_bruteforce_oracle(self):
        a = np.zeros((9, 7, 6), bool)
        b = np.zeros((9, 7, 6), bool)
        a[0:3, 2:5, 0:2] = True   # touches the i=0 and k=0 faces
        b[5:9, 4:7, 3:6] = True   # touches the i, j and k high faces
        spacing = (0.8, 1.5, 2.2)
        expected, _ = hd_percentiles_bruteforce(a, b, spacing)
        got = hd95(mask(a, spacing=spacing), mask(b, spacing=spacing))
        assert got == pytest.approx(expected, abs=1e-9)

    @given(placed_mask_pairs())
    @example(_dense_noise_and_ball())
    @example(_corners_beyond_the_ball())
    @example(_nearest_just_outside_the_cube())
    @settings(max_examples=300, deadline=None)
    def test_union_box_crop_is_exact(self, pair):
        a, b = pair
        assert hd95(a, b) == hd95_full_grid(a, b)
        assert hd95(b, a) == hd95_full_grid(b, a)

    @pytest.mark.parametrize(
        "budget, block", [(0, _PAIR_BLOCK), (1 << 62, _PAIR_BLOCK), (1 << 62, 5)],
        ids=["transform", "pairs", "pairs-in-blocks-of-5"])
    @given(placed_mask_pairs())
    @example(_dense_noise_and_ball())
    @example(_corners_beyond_the_ball())
    @example(_nearest_just_outside_the_cube())
    @settings(max_examples=300, deadline=None)
    def test_each_far_voxel_route_is_exact(self, budget, block, pair):
        # At budget 0 every voxel the cube search leaves goes to the feature
        # transform; at the larger budget every one goes to all pairs, which
        # blocks of 5 pairs split along both axes.
        a, b = pair
        with mock.patch.object(metrics, "_PAIR_BUDGET", budget), \
                mock.patch.object(metrics, "_PAIR_BLOCK", block):
            assert hd95(a, b) == hd95_full_grid(a, b)
            assert hd95(b, a) == hd95_full_grid(b, a)

    @pytest.mark.parametrize("budget", [_PAIR_BUDGET, 0], ids=["default", "transform"])
    @given(placed_mask_pairs())
    @example(_dense_noise_and_ball())
    @example(_corners_beyond_the_ball())
    @example(_nearest_just_outside_the_cube())
    @settings(max_examples=200, deadline=None)
    def test_fortran_and_c_order_give_the_same_value(self, budget, pair):
        # a Fortran-ordered surface is listed in its own memory order, so the
        # two orders list the same voxels in different sequences
        c_order = [mask(np.ascontiguousarray(m.member), spacing=m.spacing) for m in pair]
        f_order = [mask(np.asfortranarray(m.member), spacing=m.spacing) for m in pair]
        with mock.patch.object(metrics, "_PAIR_BUDGET", budget):
            assert repr(hd95(*c_order)) == repr(hd95(*f_order))
            assert repr(hd95(*c_order[::-1])) == repr(hd95(*f_order[::-1]))

    @given(placed_mask_pairs())
    @example(_dense_noise_and_ball())
    @example(_corners_beyond_the_ball())
    @example(_nearest_just_outside_the_cube())
    @settings(max_examples=300, deadline=None)
    def test_cube_search_leaves_exactly_the_voxels_with_no_hit_in_its_ball(self, pair):
        # The ball searched: at most _REACH voxels along each axis, and at
        # most (_REACH + 1) voxels of the finest spacing away.  Every voxel
        # with a target in it settles at its nearest target anywhere.
        a, b = pair
        spacing = np.asarray(a.spacing)
        at = np.nonzero(a.member)
        squared, left = metrics._cube_search(at, b.member, spacing)
        offset = np.argwhere(b.member)[None, :, :] - np.transpose(at)[:, None, :]
        brute = ((offset * spacing) ** 2).sum(axis=2)
        edge = (_REACH + 1) * spacing.min()
        in_ball = (np.abs(offset).max(axis=2) <= _REACH) & (brute <= edge * edge)
        settled = in_ball.any(axis=1)
        assert np.array_equal(np.sort(left), np.flatnonzero(~settled))
        assert np.array_equal(squared[settled], brute[settled].min(axis=1, initial=np.inf))

    def test_near_masks_need_no_distance_transform(self, monkeypatch):
        from scipy import ndimage

        dims = (14, 14, 12)
        pairs = [
            (mask(ball(dims, 4.0)), mask(ball(dims, 5.0))),
            (mask(np.asfortranarray(ball(dims, 4.5)), spacing=(0.9375, 0.9375, 1.5)),
             mask(ball(dims, 4.0, center=(7.0, 6.0, 5.0)), spacing=(0.9375, 0.9375, 1.5))),
        ]
        expected = [hd95_full_grid(a, b) for a, b in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("distance transform called")

        monkeypatch.setattr(ndimage, "distance_transform_edt", refuse)
        assert [hd95(a, b) for a, b in pairs] == expected

    def test_far_voxels_under_budget_need_no_distance_transform(self, monkeypatch):
        from scipy import ndimage

        dims, spacing = (14, 14, 12), (0.9375, 0.9375, 1.5)
        with_corner = ball(dims, 4.0)
        with_corner[0, 0, 0] = True  # 4 voxels along each axis from b's surface
        pairs = [
            _corners_beyond_the_ball(),
            (mask(with_corner, spacing=spacing), mask(ball(dims, 5.0), spacing=spacing)),
        ]
        expected = [(hd95_full_grid(a, b), hd95_full_grid(b, a)) for a, b in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("distance transform called")

        monkeypatch.setattr(ndimage, "distance_transform_edt", refuse)
        assert [(hd95(a, b), hd95(b, a)) for a, b in pairs] == expected

    def test_whole_grid_box_peak_under_24_bytes_a_voxel(self):
        # 2% noise puts the union box on the whole grid.  Two float64
        # distance maps over the box, with SciPy's temporaries for them,
        # cost about 59 bytes a voxel; the int32 feature transform alone 12.
        dims, spacing = (64, 64, 48), (0.9375, 1.0, 1.5)
        noise = np.random.default_rng(5).random(dims) < 0.02
        block = np.zeros(dims, bool)
        block[16:48, 20:44, 12:36] = True
        a, b = mask(noise, spacing=spacing), mask(block, spacing=spacing)
        hd95(a, b)  # the first call imports SciPy, which tracemalloc would count
        tracemalloc.start()
        try:
            hd95(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * noise.size

    def test_all_pairs_peak_under_24_bytes_a_voxel(self):
        # 15% noise against itself plus a far 3x3x3 cube: the noise settles
        # at distance 0, and the cube's 26 surface voxels are compared with
        # more noise surface voxels than one block of pairs holds.
        dims, spacing = (64, 64, 48), (0.9375, 1.0, 1.5)
        noise = np.zeros(dims, bool)
        noise[:48] = np.random.default_rng(5).random((48,) + dims[1:]) < 0.15
        with_cube = noise.copy()
        with_cube[58:61, 58:61, 42:45] = True
        assert np.count_nonzero(_surface(noise)) > _PAIR_BLOCK
        a, b = mask(with_cube, spacing=spacing), mask(noise, spacing=spacing)
        box_size = 61 * 64 * 48
        with mock.patch.object(metrics, "_pair_search", wraps=metrics._pair_search) as pairs:
            hd95(a, b)
        assert pairs.call_count == 1
        tracemalloc.start()
        try:
            hd95(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * box_size

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = random_mask_pair(rng)
            assert hd95(a, b) == pytest.approx(hd95(b, a), abs=1e-12)

    def test_spacing_scales_distances(self):
        a = ball((10, 10, 10), 3.0)
        b = ball((10, 10, 10), 4.0)
        base = hd95(mask(a), mask(b))
        scaled = hd95(
            mask(a, spacing=(2.0, 2.0, 2.0)), mask(b, spacing=(2.0, 2.0, 2.0))
        )
        assert scaled == pytest.approx(2.0 * base)
        assert dice(mask(a), mask(b)) == dice(
            mask(a, spacing=(2.0, 2.0, 2.0)), mask(b, spacing=(2.0, 2.0, 2.0))
        )


class TestSoftDiceCe:
    def test_perfect_binary_prediction_literal(self):
        y = ball((8, 8, 8), 3.0)
        p = ProbabilityVolume(y.astype(np.float64), Region.WT)
        value = soft_dice_ce(p, mask(y), "literal")
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_perfect_binary_prediction_conventional(self):
        y = ball((8, 8, 8), 3.0)
        p = ProbabilityVolume(y.astype(np.float64), Region.WT)
        value = soft_dice_ce(p, mask(y), "conventional")
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_truth_literal_reduces_to_smoothing_ratio(self):
        y = np.zeros((4, 4, 4), bool)
        p_values = np.full((4, 4, 4), 0.25)
        value = soft_dice_ce(ProbabilityVolume(p_values, Region.ET), mask(y, Region.ET))
        sum_p = 0.25 * 64
        assert value == pytest.approx(1e-5 / (sum_p + 1e-5))

    def test_perturbation_strictly_increases_conventional_form(self):
        y = ball((8, 8, 8), 3.0)
        base_p = y.astype(np.float64)
        base = soft_dice_ce(ProbabilityVolume(base_p, Region.WT), mask(y), "conventional")
        inside = tuple(np.argwhere(y)[0])
        outside = tuple(np.argwhere(~y)[0])
        for voxel, new_value in ((inside, 0.4), (outside, 0.6)):
            perturbed = base_p.copy()
            perturbed[voxel] = new_value
            worse = soft_dice_ce(ProbabilityVolume(perturbed, Region.WT), mask(y), "conventional")
            assert worse > base

    def test_hand_computation_with_soft_probabilities(self):
        # y = [1, 0], p = [0.5, 0.5]; eps = 1e-5
        y = np.array([True, False]).reshape(2, 1, 1)
        p = np.full((2, 1, 1), 0.5)
        got = soft_dice_ce(ProbabilityVolume(p, Region.TC), mask(y, Region.TC))
        dice_term = (2 * 0.5 + 1e-5) / (1 + 1.0 + 1e-5)
        ce = -np.log(0.5)
        assert got == pytest.approx(dice_term + ce, rel=1e-12)

    def test_unknown_form_rejected(self):
        y = np.ones((2, 1, 1), bool)
        with pytest.raises(ValueError, match="literal or conventional"):
            soft_dice_ce(ProbabilityVolume(np.full((2, 1, 1), 0.5), Region.TC), mask(y), "dice")


class TestEvaluateCase:
    def _volume(self, labels):
        return LabelVolume(np.asarray(labels, dtype=np.uint8))

    def test_exact_match_on_full_phantom(self):
        labels = np.zeros((12, 12, 12), dtype=np.uint8)
        labels[ball((12, 12, 12), 5.0)] = 2
        labels[ball((12, 12, 12), 3.5)] = 1
        labels[ball((12, 12, 12), 2.0)] = 4
        vol = self._volume(labels)
        metrics = evaluate_case(vol, vol, case_id="case0")
        assert (metrics.dsc_et, metrics.dsc_tc, metrics.dsc_wt) == (100.0, 100.0, 100.0)
        assert (metrics.hd95_et, metrics.hd95_tc, metrics.hd95_wt) == (0.0, 0.0, 0.0)
        assert metrics.case_id == "case0"

    def test_false_positive_et_on_empty_truth_scores_zero(self):
        gt = np.zeros((8, 8, 8), dtype=np.uint8)
        gt[ball((8, 8, 8), 2.5)] = 2
        pred = gt.copy()
        pred.ravel()[:5] = 4  # 5 spurious ET voxels
        metrics = evaluate_case(self._volume(pred), self._volume(gt))
        assert metrics.dsc_et == 0.0
        assert metrics.hd95_et == pytest.approx(373.1287)

    def test_per_region_values_match_hand_construction(self):
        gt = np.zeros((6, 1, 1), dtype=np.uint8)
        pred = np.zeros((6, 1, 1), dtype=np.uint8)
        gt[0:2] = 4     # ET gt voxels 0,1
        pred[1:3] = 4   # ET pred voxels 1,2 -> dice 2*1/(2+2)=50
        gt[2:4] = 1     # TC gt = {0,1,2,3}
        pred[3:4] = 1   # TC pred = {1,2,3} -> inter {1,2,3} dice 2*3/(4+3)
        metrics = evaluate_case(self._volume(pred), self._volume(gt))
        assert metrics.dsc_et == pytest.approx(50.0)
        assert metrics.dsc_tc == pytest.approx(100.0 * 6 / 7)
        assert metrics.dsc_wt == pytest.approx(100.0 * 6 / 7)

    @given(placed_label_pairs())
    @example(_label_pair(np.zeros((5, 4, 3)), np.zeros((5, 4, 3))))
    @example(_label_pair(np.zeros((5, 4, 3)), np.pad([[[4, 1], [2, 2]]], ((0, 4), (2, 0), (1, 0)))))
    @example(_label_pair(np.pad([[[1]], [[4]]], ((3, 0), (0, 3), (2, 2))), np.zeros((5, 4, 5))))
    @settings(max_examples=300, deadline=None)
    def test_union_box_crop_is_exact(self, pair):
        # empty predictions, empty truths and both empty come up drawn too
        pred, gt = pair
        expected = repr(_evaluate_case_full_grid(pred, gt))
        assert repr(evaluate_case(pred, gt, case_id="c")) == expected

    def test_both_empty_scores_on_the_empty_box(self, monkeypatch):
        boxes = []

        def recorded(arrays):
            boxes.append(union_box(arrays))
            return boxes[-1]

        monkeypatch.setattr(metrics, "union_box", recorded)
        pred, gt = _label_pair(np.zeros((5, 4, 3)), np.zeros((5, 4, 3)))
        assert evaluate_case(pred, gt) == CaseMetrics("", 100.0, 100.0, 100.0, 0.0, 0.0, 0.0)
        assert boxes == [(slice(0, 0),) * 3]

    def test_local_tumour_peak_under_1_5_bytes_a_voxel(self):
        # The union box is under 5% of a 64x64x48 Fortran-ordered grid.  Six
        # full-grid region masks, with their temporaries, cost about 7 bytes
        # a voxel; the union box scan alone costs 1.  The two tumours lie
        # within HD95's cube search of each other, so no all-pairs block
        # (under 1 MB, whatever the grid) is allocated.
        volumes = []
        for radii in ((7, 4, 2), (6, 4.5, 2.5)):
            grid = np.zeros((64, 64, 48), np.uint8, order="F")
            grid[40:56, 8:24, 30:46] = nested_label_phantom((16, 16, 16), *radii).labels
            volumes.append(LabelVolume(grid, (0.9375, 1.0, 1.5)))
        pred, gt = volumes
        box = union_box([pred.labels, gt.labels])
        assert np.prod([s.stop - s.start for s in box]) < 0.05 * pred.labels.size
        evaluate_case(pred, gt)  # a first call may allocate lasting caches
        tracemalloc.start()
        try:
            evaluate_case(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pred.labels.size

    def test_region_accessors(self):
        m = CaseMetrics("x", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert m.dsc(Region.ET) == 1.0
        assert m.hd95(Region.WT) == 6.0
