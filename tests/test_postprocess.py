import numpy as np
import pytest

from gbmseg.postprocess import et_threshold_relabel
from gbmseg.volume import LabelVolume, compose_regions, count_label

from phantoms import random_label_volume

def volume_with_et(n_et: int, dims=(10, 10, 10)) -> LabelVolume:
    labels = np.full(dims, 2, dtype=np.uint8)
    labels.ravel()[:n_et] = 4
    labels.ravel()[n_et : n_et + 50] = 1
    labels.ravel()[-100:] = 0
    return LabelVolume(labels)


class TestEtThresholdRelabel:
    def test_below_threshold_relabels_to_necrotic(self):
        vol = volume_with_et(199)
        out = et_threshold_relabel(vol, 200)
        assert count_label(out, 4) == 0
        assert count_label(out, 1) == count_label(vol, 1) + 199
        assert count_label(out, 2) == count_label(vol, 2)
        assert count_label(out, 0) == count_label(vol, 0)

    def test_exactly_at_threshold_unchanged(self):
        vol = volume_with_et(200)
        out = et_threshold_relabel(vol, 200)
        assert out.labels is vol.labels or np.array_equal(out.labels, vol.labels)
        assert count_label(out, 4) == 200

    def test_no_et_is_a_vacuous_relabel(self):
        vol = volume_with_et(0)
        out = et_threshold_relabel(vol, 200)
        assert np.array_equal(out.labels, vol.labels)

    def test_idempotent_on_random_volumes(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            vol = random_label_volume(rng, dims=(8, 8, 8))
            once = et_threshold_relabel(vol, 200)
            twice = et_threshold_relabel(once, 200)
            assert np.array_equal(once.labels, twice.labels)

    def test_tc_and_wt_masks_invariant(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            vol = random_label_volume(rng, dims=(8, 8, 8))
            out = et_threshold_relabel(vol, 200)
            _, tc_before, wt_before = compose_regions(vol)
            _, tc_after, wt_after = compose_regions(out)
            assert np.array_equal(tc_before.member, tc_after.member)
            assert np.array_equal(wt_before.member, wt_after.member)
            assert np.count_nonzero(out.labels) == np.count_nonzero(vol.labels)

    def test_zero_threshold_never_relabels(self):
        vol = volume_with_et(5)
        out = et_threshold_relabel(vol, 0)
        assert count_label(out, 4) == 5

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            et_threshold_relabel(volume_with_et(5), -1)
