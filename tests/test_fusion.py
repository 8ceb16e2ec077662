import logging

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
from gbmseg.fusion import (
    StapleConfig,
    average_probabilities,
    ensemble_pipeline,
    majority_vote,
    mean_regions,
    staple_binary,
    staple_regions,
)
from gbmseg.postprocess import PostprocessConfig
from gbmseg.volume import (
    REGIONS,
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    compose_regions,
    decompose_regions,
)

from oracles import reference_staple
from phantoms import ball, mask_dice, nested_label_phantom, noisy_mask, noisy_rater_labels


def mask(values, region=Region.WT):
    return RegionMask(np.asarray(values, dtype=bool), region)


def prob(values, region=Region.WT):
    return ProbabilityVolume(np.asarray(values, dtype=np.float64), region)


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
            assert perf.sensitivity == pytest.approx(1.0 - cfg.clamp)
            assert perf.specificity == pytest.approx(1.0 - cfg.clamp)

    @pytest.mark.parametrize("prior_mode", ["prevalence", "voxelwise", 0.3])
    def test_matches_linear_space_reference_equations(self, prior_mode):
        rng = np.random.default_rng(3)
        truth = ball((6, 6, 6), 2.0)
        raters = [mask(noisy_mask(truth, rng, 0.2, 0.1)) for _ in range(3)]
        decisions = np.stack([r.member.ravel(order="F") for r in raters])
        if prior_mode == "prevalence":
            prior = np.full(decisions.shape[1], decisions.mean())
        elif prior_mode == "voxelwise":
            prior = decisions.mean(axis=0)
        else:
            prior = np.full(decisions.shape[1], prior_mode)
        # pin the iteration count so both implementations do the same work
        cfg = StapleConfig(max_iter=7, tol=1e-15, prior=prior_mode)
        result = staple_binary(raters, cfg)
        ref_w, ref_sens, ref_spec = reference_staple(decisions, n_iter=7, prior=prior)
        assert result.iterations == 7
        assert np.allclose(result.weights.prob.ravel(order="F"), ref_w, atol=1e-9)
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
        result = staple_binary([mask(m), mask(~m)])
        weights = result.weights.prob
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
        assert np.allclose(forward.weights.prob, backward.weights.prob, atol=1e-12)
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

    def test_scalar_prior_supported(self):
        rng = np.random.default_rng(7)
        truth = ball((10, 10, 10), 3.5)
        raters = [mask(noisy_mask(truth, rng, 0.1, 0.05)) for _ in range(3)]
        result = staple_binary(raters, StapleConfig(prior=0.2))
        assert mask_dice(result.consensus.member, truth) >= 90.0

    def test_consensus_is_the_half_threshold_of_weights(self):
        rng = np.random.default_rng(8)
        truth = ball((8, 8, 8), 2.5)
        raters = [mask(noisy_mask(truth, rng, 0.2, 0.1)) for _ in range(3)]
        result = staple_binary(raters)
        assert np.array_equal(result.consensus.member, result.weights.prob >= 0.5)

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

    def test_too_many_raters(self):
        m = ball((4, 4, 4), 1.5)
        with pytest.raises(TooManyRaters):
            staple_binary([mask(m)] * 64 + [mask(~m)])

    def test_sixty_four_raters_use_the_top_code_bit(self):
        rng = np.random.default_rng(14)
        truth = ball((8, 8, 8), 3.0)
        raters = [mask(noisy_mask(truth, rng, 0.1, 0.05)) for _ in range(63)]
        raters.append(mask(np.zeros_like(truth)))  # rater 63: bit 63 never set
        result = staple_binary(raters)
        assert np.array_equal(result.consensus.member, truth)
        assert result.performances[-1].sensitivity == pytest.approx(StapleConfig().clamp)
        assert result.performances[-1].specificity == pytest.approx(1.0 - StapleConfig().clamp)


def _prior_for(decisions: np.ndarray, prior_mode) -> np.ndarray:
    """The per-voxel prior each StapleConfig.prior mode defines, for reference_staple."""
    if prior_mode == "prevalence":
        return np.full(decisions.shape[1], decisions.mean())
    if prior_mode == "voxelwise":
        return decisions.mean(axis=0)
    return np.full(decisions.shape[1], prior_mode)


def _decisions(members: np.ndarray) -> np.ndarray:
    return np.stack([m.ravel(order="F") for m in members])


def _reference_is_defined(members: np.ndarray, prior_mode, max_iter: int) -> bool:
    """False where reference_staple's M-step divides 0 by 0 (every voxel's
    weight rounds to exactly 1, or exactly 0), so there is nothing to compare."""
    decisions = _decisions(members)
    with np.errstate(invalid="ignore"):
        ref = reference_staple(decisions, max_iter, _prior_for(decisions, prior_mode))
    return all(np.isfinite(v).all() for v in ref)


def _assert_matches_reference(members: np.ndarray, prior_mode, max_iter: int) -> None:
    """Run staple_binary on (R, x, y, z) masks and compare with reference_staple.

    tol=1e-15 pins the iteration count in practice; the reference runs
    exactly as many iterations as staple_binary reports.
    """
    decisions = _decisions(members)
    prior = _prior_for(decisions, prior_mode)
    raters = [mask(m) for m in members]
    result = staple_binary(raters, StapleConfig(max_iter=max_iter, tol=1e-15, prior=prior_mode))
    ref_w, ref_sens, ref_spec = reference_staple(decisions, n_iter=result.iterations, prior=prior)
    assert np.allclose(result.weights.prob.ravel(order="F"), ref_w, rtol=0.0, atol=1e-9)
    assert np.allclose([p.sensitivity for p in result.performances], ref_sens, rtol=0.0, atol=1e-9)
    assert np.allclose([p.specificity for p in result.performances], ref_spec, rtol=0.0, atol=1e-9)


class TestStaplePatternsMatchReference:
    @given(
        data=st.data(),
        n_raters=st.integers(min_value=2, max_value=6),
        dims=st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),
        prior_mode=st.one_of(
            st.sampled_from(["prevalence", "voxelwise"]),
            st.floats(min_value=0.05, max_value=0.95),
        ),
        max_iter=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_small_masks(self, data, n_raters, dims, prior_mode, max_iter):
        members = data.draw(arrays(np.bool_, (n_raters,) + dims))
        assume(members.any() and not members.all())
        if _reference_is_defined(members, prior_mode, max_iter):
            _assert_matches_reference(members, prior_mode, max_iter)
        else:
            with pytest.raises(DegenerateInput):
                staple_binary([mask(m) for m in members],
                              StapleConfig(max_iter=max_iter, tol=1e-15, prior=prior_mode))

    @pytest.mark.parametrize("prior_mode", ["prevalence", "voxelwise", 0.3])
    def test_every_pattern_of_sixteen_raters(self, prior_mode):
        # 2^16 voxels carry each 16-bit decision pattern once; 2^14 more
        # follow a noisy truth so the raters' rates are not all equal.
        rng = np.random.default_rng(15)
        n_raters = 16
        enumerated = rng.permutation(1 << n_raters)
        every = (enumerated[None, :] >> np.arange(n_raters)[:, None]) & 1 == 1
        truth = rng.random(1 << 14) < 0.3
        miss = rng.uniform(0.02, 0.3, size=(n_raters, 1))
        noisy = np.where(truth, rng.random((n_raters, truth.size)) >= miss,
                         rng.random((n_raters, truth.size)) < miss / 3)
        members = np.concatenate([every, noisy], axis=1).reshape(n_raters, 16, 64, 80)
        _assert_matches_reference(members, prior_mode, max_iter=6)


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
        fused = ensemble_pipeline(methods, post=PostprocessConfig(et_threshold=200))
        assert (fused.labels != 4).all()
        # the would-be ET voxels fold into TC (label 1)
        assert (fused.labels[truth.labels == 4] == 1).all()

    def test_wrong_region_order_rejected(self):
        truth = nested_label_phantom()
        et, tc, wt = region_triple(truth)
        with pytest.raises(RegionMismatch):
            ensemble_pipeline([[(tc, et, wt)], [(tc, et, wt)]])

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        truth = nested_label_phantom(dims=(16, 16, 16), wt_radius=6, tc_radius=4, et_radius=2.5)
        methods = [
            [region_triple(truth, rng, noise=0.25) for _ in range(3)] for _ in range(3)
        ]
        first = ensemble_pipeline(methods, post=PostprocessConfig(et_threshold=10))
        second = ensemble_pipeline(methods, post=PostprocessConfig(et_threshold=10))
        assert np.array_equal(first.labels, second.labels)
