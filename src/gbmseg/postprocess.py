"""Post-processing: suppress spurious enhancing-tumor predictions.

Cases with no enhancing tumor are scored as binary hits, so a handful of
false-positive ET voxels costs an entire Dice point.  When the total ET
voxel count falls below a threshold, every ET voxel is re-labeled as
necrotic core (label 1) — which keeps it inside TC and WT, so only the ET
region changes.  The rule can discard genuinely small enhancing tumors;
that trade-off is intentional.
"""

from __future__ import annotations

import numpy as np

from .volume import LabelVolume, count_label

DEFAULT_ET_THRESHOLD = 200


def et_threshold_relabel(
    labels: LabelVolume, et_threshold: int = DEFAULT_ET_THRESHOLD
) -> LabelVolume:
    """Re-label all ET voxels as necrotic when strictly below the threshold.

    Volumes with at least ``et_threshold`` ET voxels (or none at all) are
    returned unchanged; the operation is idempotent and never alters the
    TC or WT masks.
    """
    if et_threshold < 0:
        raise ValueError("et_threshold must be non-negative")
    n_et = count_label(labels, 4)
    if n_et == 0 or n_et >= et_threshold:
        return labels
    relabeled = np.where(labels.labels == 4, 1, labels.labels)
    return LabelVolume(relabeled, labels.spacing, labels.affine)
