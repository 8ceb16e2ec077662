import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gbmseg.errors import (
    DegenerateInput,
    EmptyInput,
    GeometryMismatch,
    RegionMismatch,
    TooFewRaters,
    TooManyRaters,
)
from gbmseg import fusion
from gbmseg.fusion import (
    STAPLE_CLAMP,
    _expit,
    StapleConfig,
    average_probabilities,
    ensemble_pipeline,
    majority_vote,
    mean_regions,
    staple_binary,
    staple_regions,
)
from gbmseg.postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from gbmseg.volume import (
    BRATS_LABELS,
    REGIONS,
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    compose_regions,
    decompose_regions,
    union_box,
)

from oracles import majority_vote_full_grid, reference_staple, staple_binary_full_grid
from phantoms import ball, mask_dice, nested_label_phantom, noisy_mask, noisy_rater_labels


def mask(values, region=Region.WT):
    return RegionMask(np.asarray(values, dtype=bool), region)


def prob(values, region=Region.WT):
    return ProbabilityVolume(np.asarray(values, dtype=np.float64), region)


def voxel_weights(raters: list[RegionMask], result) -> np.ndarray:
    """Each voxel's STAPLE weight: its decision code (bit j set when rater j
    marks it), which must be one of ``result.patterns``, looked up there."""
    codes = np.zeros(raters[0].dims, dtype=np.uint64)
    for j, rater in enumerate(raters):
        codes |= rater.member.astype(np.uint64) << np.uint64(j)
    assert np.isin(codes, result.patterns).all()
    return result.weights[np.searchsorted(result.patterns, codes)]


def _prevalence(decisions: np.ndarray) -> np.ndarray:
    """STAPLE's prior, the mean fraction of positive decisions, per voxel for reference_staple."""
    return np.full(decisions.shape[1], decisions.mean())


# The prior reference_staple is given.  STAPLE's only prior is the
# prevalence; the id keeps these tests' names from when they ran under
# each of three prior modes.
REFERENCE_PRIOR = pytest.mark.parametrize("prior", [_prevalence], ids=["prevalence"])


class TestAverageProbabilities:
    def test_voxelwise_mean(self):
        inputs = [prob(np.full((2, 2, 2), v)) for v in (0.2, 0.4, 0.6)]
        out = average_probabilities(inputs)
        assert np.allclose(out.prob, 0.4)

    def test_single_input_identity(self):
        p = prob(np.random.default_rng(0).random((3, 3, 3)))
        assert np.array_equal(average_probabilities([p]).prob, p.prob)

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            average_probabilities([prob(np.zeros((2, 2, 2))), prob(np.zeros((3, 2, 2)))])

    def test_region_mismatch(self):
        with pytest.raises(RegionMismatch):
            average_probabilities([prob(np.zeros((2, 2, 2)), Region.ET),
                                   prob(np.zeros((2, 2, 2)), Region.TC)])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            average_probabilities([])

    def test_output_bounded_by_inputs(self):
        rng = np.random.default_rng(1)
        inputs = [prob(rng.random((4, 4, 4))) for _ in range(5)]
        out = average_probabilities(inputs)
        stack = np.stack([p.prob for p in inputs])
        assert (out.prob >= stack.min(axis=0) - 1e-15).all()
        assert (out.prob <= stack.max(axis=0) + 1e-15).all()


class TestMajorityVote:
    def _vol(self, flat):
        return LabelVolume(np.asarray(flat, dtype=np.uint8).reshape(-1, 1, 1))

    def test_strict_majority(self):
        out = majority_vote([self._vol([4]), self._vol([4]), self._vol([0])])
        assert out.labels.ravel().tolist() == [4]

    def test_tie_goes_to_smaller_label(self):
        out = majority_vote([self._vol([1]), self._vol([2])])
        assert out.labels.ravel().tolist() == [1]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        raters = [
            LabelVolume(rng.choice(np.array([0, 1, 2, 4], np.uint8), size=(5, 5, 5)))
            for _ in range(4)
        ]
        base = majority_vote(raters)
        shuffled = majority_vote(raters[::-1])
        assert np.array_equal(base.labels, shuffled.labels)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            majority_vote([])


class TestStapleBinary:
    def test_unanimous_raters_reach_the_fixed_point(self):
        m = ball((10, 10, 10), 3.0)
        cfg = StapleConfig()
        result = staple_binary([mask(m)] * 3, cfg)
        assert np.array_equal(result.consensus.member, m)
        for perf in result.performances:
            assert perf.sensitivity == pytest.approx(1.0 - STAPLE_CLAMP)
            assert perf.specificity == pytest.approx(1.0 - STAPLE_CLAMP)

    @REFERENCE_PRIOR
    def test_matches_linear_space_reference_equations(self, prior):
        rng = np.random.default_rng(3)
        truth = ball((6, 6, 6), 2.0)
        raters = [mask(noisy_mask(truth, rng, 0.2, 0.1)) for _ in range(3)]
        decisions = np.stack([r.member.ravel(order="F") for r in raters])
        # pin the iteration count so both implementations do the same work
        cfg = StapleConfig(max_iter=7, tol=1e-15)
        result = staple_binary(raters, cfg)
        ref_w, ref_sens, ref_spec = reference_staple(decisions, n_iter=7, prior=prior(decisions))
        assert result.iterations == 7
        assert np.allclose(voxel_weights(raters, result).ravel(order="F"), ref_w, atol=1e-9)
        assert np.allclose([p.sensitivity for p in result.performances], ref_sens, atol=1e-9)
        assert np.allclose([p.specificity for p in result.performances], ref_spec, atol=1e-9)

    def test_recovers_known_rater_quality(self):
        rng = np.random.default_rng(4)
        truth = ball((32, 32, 32), 12.0)
        raters = [mask(noisy_mask(truth, rng, 0.1, 0.05)) for _ in range(3)]
        result = staple_binary(raters)
        for perf in result.performances:
            assert perf.sensitivity == pytest.approx(0.9, abs=0.05)
            assert perf.specificity == pytest.approx(0.95, abs=0.02)
        consensus = result.consensus.member
        assert mask_dice(consensus, truth) >= 95.0

    def test_maximal_disagreement_stays_in_contract(self):
        m = ball((8, 8, 8), 3.0)
        raters = [mask(m), mask(~m)]
        result = staple_binary(raters)
        weights = voxel_weights(raters, result)
        assert (weights >= 0.0).all() and (weights <= 1.0).all()
        diffs = np.diff(result.loglik_trace)
        assert (diffs >= -1e-9).all()

    def test_loglik_never_decreases(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            truth = ball((8, 8, 8), rng.uniform(1.5, 3.5))
            raters = [
                mask(noisy_mask(truth, rng, rng.uniform(0.05, 0.4), rng.uniform(0.02, 0.3)))
                for _ in range(int(rng.integers(2, 6)))
            ]
            decisions = np.stack([r.member for r in raters])
            if decisions.all() or not decisions.any():
                continue
            result = staple_binary(raters)
            assert (np.diff(result.loglik_trace) >= -1e-9).all(), f"trial {trial}"

    def test_rater_permutation_invariance(self):
        rng = np.random.default_rng(6)
        truth = ball((8, 8, 8), 3.0)
        raters = [mask(noisy_mask(truth, rng, 0.15, 0.08)) for _ in range(4)]
        forward = staple_binary(raters)
        backward = staple_binary(raters[::-1])
        assert np.allclose(voxel_weights(raters, forward), voxel_weights(raters[::-1], backward),
                           atol=1e-12)
        fwd = [(p.sensitivity, p.specificity) for p in forward.performances]
        bwd = [(p.sensitivity, p.specificity) for p in backward.performances]
        assert fwd == bwd[::-1]

    def test_too_few_raters(self):
        with pytest.raises(TooFewRaters):
            staple_binary([mask(ball((4, 4, 4), 1.5))])

    def test_degenerate_all_false(self):
        with pytest.raises(DegenerateInput):
            staple_binary([mask(np.zeros((4, 4, 4), bool))] * 3)

    def test_degenerate_all_true(self):
        with pytest.raises(DegenerateInput):
            staple_binary([mask(np.ones((4, 4, 4), bool))] * 3)

    def test_every_weight_exactly_one_is_degenerate(self):
        # 4 of 5 raters mark both voxels: the first E-step weighs each voxel
        # exactly 1.0, leaving the M-step no background mass to divide by.
        members = [np.ones((2, 1, 1), bool)] * 4 + [np.zeros((2, 1, 1), bool)]
        with pytest.raises(DegenerateInput, match="exactly 1"):
            staple_binary([mask(m) for m in members])

    @pytest.mark.parametrize("cfg", [StapleConfig()], ids=["prevalence"])
    def test_zero_voxel_grid_is_empty_input(self, cfg):
        with pytest.raises(EmptyInput):
            staple_binary([mask(np.zeros((0, 3, 3), bool))] * 3, cfg)

    def test_consensus_is_the_half_threshold_of_weights(self):
        rng = np.random.default_rng(8)
        truth = ball((8, 8, 8), 2.5)
        raters = [mask(noisy_mask(truth, rng, 0.2, 0.1)) for _ in range(3)]
        result = staple_binary(raters)
        assert np.array_equal(result.consensus.member, voxel_weights(raters, result) >= 0.5)

    def test_reports_convergence(self, caplog):
        rng = np.random.default_rng(13)
        truth = ball((10, 10, 10), 3.5)
        raters = [mask(noisy_mask(truth, rng, 0.1, 0.05)) for _ in range(3)]
        cfg = StapleConfig()
        with caplog.at_level(logging.WARNING, logger="gbmseg.fusion"):
            result = staple_binary(raters, cfg)
        assert result.converged
        assert result.final_delta < cfg.tol
        assert result.iterations < cfg.max_iter
        assert not caplog.records

    def test_warns_when_max_iter_reached(self, caplog):
        rng = np.random.default_rng(13)
        truth = ball((10, 10, 10), 3.5)
        raters = [mask(noisy_mask(truth, rng, 0.1, 0.05), Region.TC) for _ in range(3)]
        cfg = StapleConfig(max_iter=1)
        with caplog.at_level(logging.WARNING, logger="gbmseg.fusion"):
            result = staple_binary(raters, cfg)
        assert not result.converged
        assert result.final_delta >= cfg.tol
        assert result.iterations == 1
        assert len(caplog.records) == 1
        assert "TC" in caplog.records[0].getMessage()
        assert "max_iter=1" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("kwargs, error", [
        ({"max_iter": 0}, ValueError), ({"tol": 0.0}, ValueError),
        ({"tol": -1e-6}, ValueError), ({"tol": float("nan")}, ValueError),
        # the prior is always the prevalence: no prior is accepted, not even a valid one
        ({"prior": "uniform"}, TypeError), ({"prior": 0.0}, TypeError), ({"prior": 1.0}, TypeError),
    ], ids=["max_iter_0", "tol_0", "tol_negative", "tol_nan", "prior_mode", "prior_0", "prior_1"])
    def test_config_rejects_bad_values(self, kwargs, error):
        with pytest.raises(error):
            StapleConfig(**kwargs)

    def test_too_many_raters(self):
        m = ball((4, 4, 4), 1.5)
        for n_raters in (17, 65):  # 17 raters would need a 17-bit code
            with pytest.raises(TooManyRaters):
                staple_binary([mask(m)] * (n_raters - 1) + [mask(~m)])

    def test_sixteen_raters_use_the_top_code_bit(self):
        rng = np.random.default_rng(14)
        truth = ball((8, 8, 8), 3.0)
        raters = [mask(noisy_mask(truth, rng, 0.1, 0.05)) for _ in range(15)]
        raters.append(mask(np.zeros_like(truth)))  # rater 15: bit 15 never set
        result = staple_binary(raters)
        assert np.array_equal(result.consensus.member, truth)
        assert result.performances[-1].sensitivity == pytest.approx(STAPLE_CLAMP)
        assert result.performances[-1].specificity == pytest.approx(1.0 - STAPLE_CLAMP)


def _decisions(members: np.ndarray) -> np.ndarray:
    return np.stack([m.ravel(order="F") for m in members])


def _reference_is_defined(members: np.ndarray, max_iter: int) -> bool:
    """False where reference_staple's M-step divides 0 by 0 (every voxel's
    weight rounds to exactly 1, or exactly 0), so there is nothing to compare."""
    decisions = _decisions(members)
    with np.errstate(invalid="ignore"):
        ref = reference_staple(decisions, max_iter, _prevalence(decisions))
    return all(np.isfinite(v).all() for v in ref)


def _assert_matches_reference(members: np.ndarray, max_iter: int, prior) -> None:
    """Run staple_binary on (R, x, y, z) masks and compare with reference_staple.

    tol=1e-15 pins the iteration count in practice; the reference runs
    exactly as many iterations as staple_binary reports.
    """
    decisions = _decisions(members)
    raters = [mask(m) for m in members]
    result = staple_binary(raters, StapleConfig(max_iter=max_iter, tol=1e-15))
    ref_w, ref_sens, ref_spec = reference_staple(decisions, n_iter=result.iterations,
                                                 prior=prior(decisions))
    assert np.allclose(voxel_weights(raters, result).ravel(order="F"), ref_w, rtol=0.0, atol=1e-9)
    assert np.allclose([p.sensitivity for p in result.performances], ref_sens, rtol=0.0, atol=1e-9)
    assert np.allclose([p.specificity for p in result.performances], ref_spec, rtol=0.0, atol=1e-9)


class TestStaplePatternsMatchReference:
    @given(
        data=st.data(),
        n_raters=st.integers(min_value=2, max_value=6),
        dims=st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),
        max_iter=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_small_masks(self, data, n_raters, dims, max_iter):
        members = data.draw(arrays(np.bool_, (n_raters,) + dims))
        assume(members.any() and not members.all())
        if _reference_is_defined(members, max_iter):
            _assert_matches_reference(members, max_iter, _prevalence)
        else:
            with pytest.raises(DegenerateInput):
                staple_binary([mask(m) for m in members],
                              StapleConfig(max_iter=max_iter, tol=1e-15))

    @REFERENCE_PRIOR
    def test_every_pattern_of_sixteen_raters(self, prior):
        _assert_matches_reference(_every_pattern_of_sixteen_raters(), max_iter=6, prior=prior)

    def test_libm_logistic_leaves_every_pattern_run_unchanged(self, monkeypatch):
        from scipy.special import expit

        raters = [mask(m) for m in _every_pattern_of_sixteen_raters()]
        cfg = StapleConfig(max_iter=100)  # converges, in 62 iterations
        ours = staple_binary(raters, cfg)
        monkeypatch.setattr(fusion, "_expit", expit)
        theirs = staple_binary(raters, cfg)
        assert ours.converged and ours.iterations == theirs.iterations
        assert ours.loglik_trace == theirs.loglik_trace
        assert np.array_equal(voxel_weights(raters, ours), voxel_weights(raters, theirs))


def _every_pattern_of_sixteen_raters() -> np.ndarray:
    """(16, 16, 64, 80) masks: 2^16 voxels carry each 16-bit decision
    pattern once; 2^14 more follow a noisy truth so the raters' rates are
    not all equal."""
    rng = np.random.default_rng(15)
    n_raters = 16
    enumerated = rng.permutation(1 << n_raters)
    every = (enumerated[None, :] >> np.arange(n_raters)[:, None]) & 1 == 1
    truth = rng.random(1 << 14) < 0.3
    miss = rng.uniform(0.02, 0.3, size=(n_raters, 1))
    noisy = np.where(truth, rng.random((n_raters, truth.size)) >= miss,
                     rng.random((n_raters, truth.size)) < miss / 3)
    return np.concatenate([every, noisy], axis=1).reshape(n_raters, 16, 64, 80)


class TestExpit:
    """The E-step's logistic equals scipy.special.expit bit for bit."""

    @staticmethod
    def _assert_matches_scipy(values):
        from scipy.special import expit

        x = np.asarray(values, dtype=np.float64)
        ours = _expit(x)
        assert ours.dtype == np.float64 and ours.shape == x.shape
        np.testing.assert_array_equal(ours, expit(x))
        assert np.array_equal(np.signbit(ours), np.signbit(expit(x)))

    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(min_value=-800.0, max_value=800.0)))
    @settings(max_examples=300, deadline=None)
    def test_finite_values(self, x):
        self._assert_matches_scipy(x)

    def test_special_values_and_the_overflow_edge(self):
        edge = np.log(np.finfo(np.float64).max)  # 709.78...: exp(-v) overflows just below -edge
        self._assert_matches_scipy([
            np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
            -edge, np.nextafter(-edge, 0.0), np.nextafter(-edge, -np.inf),
            -709.8, -745.1, -746.0, 36.8, 37.0, 745.1, 746.0,
        ])

    def test_dense_sweep(self):
        self._assert_matches_scipy(np.random.default_rng(0).uniform(-800.0, 800.0, 20_000))


class TestStapleRegions:
    def test_unanimous_methods_return_their_prediction(self):
        phantom = nested_label_phantom()
        fused = staple_regions([phantom, phantom, phantom])
        assert np.array_equal(fused.labels, phantom.labels)

    def test_empty_et_everywhere_stays_empty(self):
        rng = np.random.default_rng(9)
        base = np.zeros((16, 16, 16), dtype=np.uint8)
        base[ball((16, 16, 16), 6.0)] = 2
        methods = []
        for _ in range(3):
            labels = base.copy()
            flip = rng.random(base.shape) < 0.1
            labels[flip & (labels == 2)] = 0  # WT disagreement, never ET
            methods.append(LabelVolume(labels))
        fused = staple_regions(methods)
        assert (fused.labels != 4).all()

    def test_fusion_not_worse_than_typical_rater(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            truth = nested_label_phantom(dims=(24, 24, 24), wt_radius=9, tc_radius=6, et_radius=4)
            methods = [noisy_rater_labels(truth, rng, miss=0.08, add=0.01) for _ in range(3)]
            fused = staple_regions(methods)
            truth_masks = compose_regions(truth)
            fused_masks = compose_regions(fused)
            ok = True
            for idx in range(3):
                fused_dice = mask_dice(fused_masks[idx].member, truth_masks[idx].member)
                rater_dice = [
                    mask_dice(compose_regions(m)[idx].member, truth_masks[idx].member)
                    for m in methods
                ]
                if fused_dice < max(rater_dice) - 1e-9:
                    ok = False
            wins += ok
        assert wins >= 15

    def test_too_few_methods(self):
        with pytest.raises(TooFewRaters):
            staple_regions([nested_label_phantom()])

    def test_nine_methods_are_too_many(self):
        # two bits a rater: a joint code of 9 raters would not fit in uint16
        phantom = nested_label_phantom(dims=(8, 8, 8), wt_radius=3, tc_radius=2, et_radius=1)
        for rule in (majority_vote, mean_regions, staple_regions):
            with pytest.raises(TooManyRaters, match="at most 8 label volumes, got 9"):
                rule([phantom] * 9)

    def test_eight_methods_use_the_top_code_bits(self):
        # Raters 0-6 label every voxel edema; rater 7 agrees but labels an ET
        # ball, which it codes in bits 14-15.  Were those bits lost, WT would
        # read as 7 raters marking every voxel and one marking none, which
        # STAPLE weighs exactly 1 everywhere: DegenerateInput.
        edema = np.full((6, 6, 6), 2, np.uint8)
        last = edema.copy()
        last[ball((6, 6, 6), 1.5)] = 4
        raters = [LabelVolume(edema)] * 7 + [LabelVolume(last)]
        cfg = StapleConfig()
        fused = staple_regions(raters, cfg).labels
        assert np.array_equal(fused, _staple_regions_full_grid(raters, cfg).labels)
        assert (fused == 2).all()
        # A code of raters 4-7 lost together fuses alike (four raters against
        # four empty ones), so the count of the full code is checked too.
        _, counts = fusion._joint_codes([r.labels for r in raters])
        shared = sum(2 << 2 * j for j in range(7))  # label 2 is code 2
        assert counts[shared | 3 << 14] == np.count_nonzero(last == 4)
        # Vote: raters 0-3 say 2 and raters 4-7 say 1, a tie that goes to 1;
        # with rater 7 lost, 2 would win.  Mean: raters 0-2 and 7 say 4, so
        # ET holds 4 of 8 marks; with rater 7 lost it would hold 3 and fuse 0.
        tie = [LabelVolume(np.full((2, 2, 2), label, np.uint8)) for label in [2] * 4 + [1] * 4]
        assert (majority_vote(tie).labels == 1).all()
        assert np.array_equal(majority_vote(tie).labels, majority_vote_full_grid(tie))
        half = [LabelVolume(np.full((2, 2, 2), label, np.uint8)) for label in [4] * 3 + [0] * 4 + [4]]
        assert (mean_regions(half).labels == 4).all()
        assert np.array_equal(mean_regions(half).labels, float_mean_fuse(half).labels)

    def test_warns_for_each_unconverged_region(self, caplog):
        # every method keeps the truth's ET, so only TC and WT disagree
        rng = np.random.default_rng(13)
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        methods = []
        for _ in range(3):
            labels = noisy_rater_labels(truth, rng, miss=0.1, add=0.02).labels.copy()
            labels[labels == 4] = 1
            labels[truth.labels == 4] = 4
            methods.append(LabelVolume(labels))
        with caplog.at_level(logging.WARNING, logger="gbmseg.fusion"):
            staple_regions(methods, StapleConfig(max_iter=1))
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split()[2] for m in messages] == ["TC", "WT"]
        assert all("max_iter=1 without converging" in m for m in messages)

    def test_degenerate_region_is_named(self):
        # 4 of 5 methods label both voxels edema: STAPLE weighs every WT voxel 1.0
        methods = [LabelVolume(np.full((2, 1, 1), label, np.uint8)) for label in (2, 2, 2, 2, 0)]
        with pytest.raises(DegenerateInput, match="STAPLE on WT: every weight is exactly 1"):
            staple_regions(methods)


def float_mean_fuse(raters: list[LabelVolume]) -> LabelVolume:
    """Reference mean fusion: float mean of the 0/1 region masks >= 0.5."""
    triples = [compose_regions(r) for r in raters]
    masks = []
    for idx, region in enumerate(REGIONS):
        mean = np.mean([t[idx].member.astype(np.float64) for t in triples], axis=0)
        masks.append(RegionMask(mean >= 0.5, region))
    return decompose_regions(*masks)


class TestMeanRegions:
    def test_half_the_raters_keep_a_region(self):
        vols = [LabelVolume(np.array([4, 2], np.uint8).reshape(2, 1, 1)),
                LabelVolume(np.array([0, 0], np.uint8).reshape(2, 1, 1))]
        assert mean_regions(vols).labels.ravel().tolist() == [4, 2]

    @pytest.mark.parametrize("n_raters", [1, 2, 3, 4, 5, 7])
    def test_matches_float_mean_threshold(self, n_raters):
        rng = np.random.default_rng(16 + n_raters)
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        raters = [noisy_rater_labels(truth, rng, miss=0.3, add=0.05) for _ in range(n_raters)]
        assert np.array_equal(mean_regions(raters).labels, float_mean_fuse(raters).labels)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mean_regions([])

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            mean_regions([LabelVolume(np.zeros((2, 2, 2), np.uint8)),
                          LabelVolume(np.zeros((3, 2, 2), np.uint8))])


@st.composite
def boxed_stacks(draw, n_raters, dtype, elements):
    """R arrays that are 0 outside one random box of a grid of up to 6^3
    voxels.  The box may touch any face, hold one voxel or fill the grid;
    the arrays are all C- or all Fortran-ordered."""
    grid = draw(st.tuples(*[st.integers(1, 6)] * 3))
    size = tuple(draw(st.integers(1, g)) for g in grid)
    start = tuple(draw(st.integers(0, g - n)) for g, n in zip(grid, size))
    stack = np.zeros((n_raters,) + grid, dtype)
    stack[(slice(None),) + tuple(slice(a, a + n) for a, n in zip(start, size))] = draw(
        arrays(dtype, (n_raters,) + size, elements=elements))
    order = draw(st.sampled_from("CF"))
    return [np.asarray(a, order=order) for a in stack]


def _edge_stacks() -> dict[str, np.ndarray]:
    """(4, 5, 6, 7) decision stacks for the union box's edge cases."""
    rng = np.random.default_rng(41)
    shape = (4, 5, 6, 7)
    stacks = {"all_empty": np.zeros(shape, bool)}
    one = np.zeros(shape, bool)
    one[:2, 2, 3, 4] = True
    stacks["one_voxel_box"] = one
    whole = rng.random(shape) < 0.4
    whole[0] = True  # every voxel carries rater 0's bit, so no voxel has pattern 0
    stacks["whole_grid_without_pattern_0"] = whole
    for axis in range(3):
        n = shape[axis + 1]
        for side, layer in (("low", 0), ("high", n - 1)):
            block = [slice(1, m - 1) for m in shape[1:]]
            block[axis] = slice(0, 2) if layer == 0 else slice(n - 2, n)
            face = np.zeros(shape, bool)
            face[(slice(None), *block)] = rng.random(face[(slice(None), *block)].shape) < 0.6
            on_face = [2, 2, 2]
            on_face[axis] = layer
            face[(slice(None), *on_face)] = True  # the box reaches the face
            stacks[f"face_{axis}_{side}"] = face
    return stacks


EDGE_STACKS = _edge_stacks()


def _assert_staple_matches_full_grid(raters: list[RegionMask], cfg: StapleConfig) -> None:
    try:
        expected = staple_binary_full_grid(raters, cfg)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            staple_binary(raters, cfg)
        return
    result = staple_binary(raters, cfg)
    assert result.patterns.dtype == expected.patterns.dtype
    assert result.patterns.tobytes() == expected.patterns.tobytes()
    assert result.weights.tobytes() == expected.weights.tobytes()
    assert result.performances == expected.performances
    assert result.iterations == expected.iterations
    assert result.loglik_trace == expected.loglik_trace
    assert result.converged == expected.converged
    assert result.final_delta == expected.final_delta
    assert np.array_equal(result.consensus.member, expected.consensus.member)


def _staple_regions_full_grid(raters: list[LabelVolume], cfg: StapleConfig) -> LabelVolume:
    """``staple_regions`` from full-grid parts: each rater's composed masks,
    agreed regions passed through, the rest fused by the frozen full-grid
    STAPLE, then the label priority."""
    fused = []
    for masks in zip(*(compose_regions(r) for r in raters)):
        if all(np.array_equal(m.member, masks[0].member) for m in masks[1:]):
            fused.append(masks[0])
        else:
            fused.append(staple_binary_full_grid(list(masks), cfg).consensus)
    return decompose_regions(*fused)


def _assert_staple_regions_matches_full_grid(raters: list[LabelVolume], cfg: StapleConfig) -> None:
    try:
        expected = _staple_regions_full_grid(raters, cfg)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            staple_regions(raters, cfg)
        return
    assert np.array_equal(staple_regions(raters, cfg).labels, expected.labels)


def _labels_from(decisions: np.ndarray, rng) -> list[LabelVolume]:
    """Each marked voxel takes a random tumour label, every other voxel 0."""
    labels = np.where(decisions, rng.choice(np.array([1, 2, 4], np.uint8), decisions.shape), 0)
    return [LabelVolume(a.astype(np.uint8)) for a in labels]


class TestUnionBoxIsExact:
    """Voting, the mean and STAPLE on the union box equal the same rules
    over every voxel, bit for bit."""

    @given(data=st.data(), n_raters=st.integers(min_value=2, max_value=6),
           max_iter=st.integers(min_value=1, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_staple_binary(self, data, n_raters, max_iter):
        members = data.draw(boxed_stacks(n_raters, np.bool_, st.booleans()))
        _assert_staple_matches_full_grid(
            [mask(m) for m in members], StapleConfig(max_iter=max_iter, tol=1e-15))

    @given(data=st.data(), n_raters=st.integers(min_value=2, max_value=8),
           max_iter=st.integers(min_value=1, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_staple_regions(self, data, n_raters, max_iter):
        stack = data.draw(boxed_stacks(n_raters, np.uint8, st.sampled_from(BRATS_LABELS)))
        if data.draw(st.booleans()):  # a tumour voxel on a face of the grid
            dims = stack[0].shape
            at = [data.draw(st.integers(0, n - 1)) for n in dims]
            axis = data.draw(st.integers(0, 2))
            at[axis] = data.draw(st.sampled_from([0, dims[axis] - 1]))
            rater = data.draw(st.integers(0, n_raters - 1))
            stack[rater][tuple(at)] = data.draw(st.sampled_from(BRATS_LABELS[1:]))
        raters = [LabelVolume(a) for a in stack]
        _assert_staple_regions_matches_full_grid(raters, StapleConfig(max_iter=max_iter, tol=1e-15))

    @given(data=st.data(), n_raters=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_majority_vote_and_mean(self, data, n_raters):
        raters = [LabelVolume(a) for a in data.draw(
            boxed_stacks(n_raters, np.uint8, st.sampled_from(BRATS_LABELS)))]
        assert np.array_equal(majority_vote(raters).labels, majority_vote_full_grid(raters))
        assert np.array_equal(mean_regions(raters).labels, float_mean_fuse(raters).labels)

    @pytest.mark.parametrize("order", ["C", "F"])
    # "prevalence" in the ids names STAPLE's one prior, as when these cases
    # also ran under two other prior modes
    @pytest.mark.parametrize("case", sorted(EDGE_STACKS),
                             ids=[f"{case}-prevalence" for case in sorted(EDGE_STACKS)])
    def test_edge_cases(self, case, order):
        stack = EDGE_STACKS[case]
        for n_raters in range(2, len(stack) + 1):
            members = [np.asarray(m, order=order) for m in stack[:n_raters]]
            _assert_staple_matches_full_grid(
                [mask(m) for m in members], StapleConfig(max_iter=20, tol=1e-15))
            raters = _labels_from(np.stack(members), np.random.default_rng(n_raters))
            raters = [LabelVolume(np.asarray(r.labels, order=order)) for r in raters]
            assert np.array_equal(majority_vote(raters).labels, majority_vote_full_grid(raters))
            assert np.array_equal(mean_regions(raters).labels, float_mean_fuse(raters).labels)

    @staticmethod
    def _unmarked_slab() -> np.ndarray:
        """(2, 9, 3, 2) masks: no rater marks the slab x = 0, and the two
        mark the rest with densities 0.69 and 0.46.  EM under the prevalence
        prior converges in 55 iterations and weighs pattern 0 at about 0.70."""
        members = np.zeros((2, 9, 3, 2), bool)
        density = np.array([0.69, 0.46])[:, None, None, None]
        members[:, 1:] = np.random.default_rng(160).random((2, 8, 3, 2)) < density
        return members

    def test_outside_the_box_can_be_foreground(self):
        # EM weighs pattern 0 above 0.5, so the voxels outside the box, which
        # no rater marks, join the consensus.
        members = self._unmarked_slab()
        raters = [mask(m) for m in members]
        cfg = StapleConfig(max_iter=200)
        result = staple_binary(raters, cfg)
        assert result.converged
        assert voxel_weights(raters, result)[0, 0, 0] > 0.5 and result.consensus.member[0].all()
        _assert_staple_matches_full_grid(raters, cfg)

    def test_outside_the_box_can_be_labelled(self):
        # The same case as label volumes: label 2 where the masks are set.
        # ET and TC are empty everywhere and pass through; STAPLE's WT takes
        # in the slab outside the box, which so comes out as label 2.
        members = self._unmarked_slab()
        raters = [LabelVolume(np.where(m, 2, 0).astype(np.uint8)) for m in members]
        cfg = StapleConfig(max_iter=200)
        fused = staple_regions(raters, cfg).labels
        assert (fused[0] == 2).all()
        _assert_staple_regions_matches_full_grid(raters, cfg)


def _peak_traced_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestUnionBoxWorkIsBoxSized:
    """On a 96×96×62 Fortran-ordered case whose tumour box is under 3% of
    the grid, voting, the mean and STAPLE allocate little beyond their
    outputs.  Where the box is the whole grid, they hold little beyond
    their codes and their output."""

    @staticmethod
    def _raters() -> list[LabelVolume]:
        rng = np.random.default_rng(31)
        truth = nested_label_phantom(dims=(24, 24, 24), wt_radius=10, tc_radius=6, et_radius=3)
        raters = []
        for _ in range(4):
            labels = np.zeros((96, 96, 62), np.uint8, order="F")
            labels[30:54, 40:64, 20:44] = noisy_rater_labels(truth, rng, miss=0.1, add=0.02).labels
            raters.append(LabelVolume(labels))
        box = union_box([r.labels for r in raters])
        assert np.prod([s.stop - s.start for s in box]) <= 0.03 * labels.size
        return raters

    def test_majority_vote_peak_under_two_bytes_a_voxel(self):
        raters = self._raters()
        assert _peak_traced_bytes(majority_vote, raters) < 2 * raters[0].labels.size
        assert _peak_traced_bytes(mean_regions, raters) < 2 * raters[0].labels.size

    def test_staple_binary_peak_under_two_bytes_a_voxel(self):
        masks = [compose_regions(r)[2] for r in self._raters()]
        assert _peak_traced_bytes(staple_binary, masks) < 2 * masks[0].member.size

    def test_staple_regions_peak_under_two_bytes_a_voxel(self):
        raters = self._raters()
        assert _peak_traced_bytes(staple_regions, raters) < 2 * raters[0].labels.size

    def test_staple_regions_on_the_whole_grid_peak_under_four_bytes_a_voxel(self):
        # false positives everywhere; six raters take a uint16 joint code
        rng = np.random.default_rng(32)
        truth = nested_label_phantom(dims=(96, 96, 62), wt_radius=20, tc_radius=12, et_radius=6)
        raters = [LabelVolume(np.asfortranarray(noisy_rater_labels(truth, rng, 0.05, 0.01).labels))
                  for _ in range(6)]
        assert union_box([r.labels for r in raters]) == tuple(slice(0, n) for n in truth.dims)
        for rule in (staple_regions, majority_vote, mean_regions):
            assert _peak_traced_bytes(rule, raters) < 4 * raters[0].labels.size, rule.__name__
        masks = [compose_regions(r)[2] for r in raters]
        assert _peak_traced_bytes(staple_binary, masks) < 4 * masks[0].member.size


@pytest.mark.parametrize("rule", [majority_vote, mean_regions, staple_regions])
def test_fortran_ordered_raters_give_fortran_ordered_labels(rule):
    # volumes read from disk are Fortran-ordered; a C-ordered fused grid
    # made every later pass over it, and its write, a transposing walk
    rng = np.random.default_rng(52)
    truth = nested_label_phantom(dims=(20, 18, 16), wt_radius=7, tc_radius=5, et_radius=2.5)
    raters = [LabelVolume(np.asfortranarray(noisy_rater_labels(truth, rng, 0.1, 0.02).labels))
              for _ in range(3)]
    fused = rule(raters)
    assert fused.labels.flags.f_contiguous
    assert 0 < np.count_nonzero(fused.labels == 4) < DEFAULT_ET_THRESHOLD  # so ET is relabelled
    assert et_threshold_relabel(fused).labels.flags.f_contiguous


def region_triple(labels: LabelVolume, flip_rng=None, noise=0.0):
    """Per-region probability triple, optionally with additive noise."""
    triple = []
    for m in compose_regions(labels):
        p = m.member.astype(np.float64)
        if flip_rng is not None and noise > 0:
            p = np.clip(p + flip_rng.normal(0.0, noise, p.shape), 0.0, 1.0)
        triple.append(ProbabilityVolume(p, m.region, labels.spacing, labels.affine))
    return tuple(triple)


class TestEnsemblePipeline:
    def test_rejects_single_method(self):
        phantom = nested_label_phantom()
        with pytest.raises(TooFewRaters):
            ensemble_pipeline([[region_triple(phantom)]])

    def test_unanimous_folds_reproduce_truth(self):
        truth = nested_label_phantom()  # ET ball radius 5 ≈ 500 voxels > 200
        methods = [[region_triple(truth)] * 5 for _ in range(3)]
        fused = ensemble_pipeline(methods)
        assert np.array_equal(fused.labels, truth.labels)

    def test_noisy_folds_recover_truth_regions(self):
        rng = np.random.default_rng(11)
        truth = nested_label_phantom()
        methods = [
            [region_triple(truth, rng, noise=0.3) for _ in range(5)] for _ in range(3)
        ]
        fused = ensemble_pipeline(methods)
        truth_wt = compose_regions(truth)[2].member
        fused_wt = compose_regions(fused)[2].member
        assert mask_dice(fused_wt, truth_wt) >= 95.0

    def test_method_with_no_folds_rejected(self):
        phantom = nested_label_phantom()
        with pytest.raises(EmptyInput):
            ensemble_pipeline([[region_triple(phantom)], []])

    def test_small_et_is_postprocessed_away(self):
        truth = nested_label_phantom(et_radius=2.0)  # ~33 ET voxels < 200
        methods = [[region_triple(truth)] for _ in range(2)]
        fused = ensemble_pipeline(methods, et_threshold=200)
        assert (fused.labels != 4).all()
        # the would-be ET voxels fold into TC (label 1)
        assert (fused.labels[truth.labels == 4] == 1).all()

    def test_wrong_region_order_rejected(self):
        truth = nested_label_phantom()
        et, tc, wt = region_triple(truth)
        with pytest.raises(RegionMismatch):
            ensemble_pipeline([[(tc, et, wt)], [(tc, et, wt)]])
        # folds of one method that disagree within a slot
        with pytest.raises(RegionMismatch):
            ensemble_pipeline([[(et, tc, wt), (tc, et, wt)], [(et, tc, wt)]])
        # folds that are not (ET, TC, WT) triples
        for folds in ([(et, tc)], [(et, tc, wt, et)], [(et, tc, wt), (et, tc, wt, et)]):
            with pytest.raises(RegionMismatch):
                ensemble_pipeline([folds, [(et, tc, wt)]])

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        methods = [
            [region_triple(truth, rng, noise=0.25) for _ in range(3)] for _ in range(3)
        ]
        first = ensemble_pipeline(methods, et_threshold=10)
        second = ensemble_pipeline(methods, et_threshold=10)
        assert np.array_equal(first.labels, second.labels)
