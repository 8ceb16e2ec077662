"""gbmseg: fusion and evaluation toolkit for brain tumor segmentations.

Covers the non-neural stages of a multi-model segmentation pipeline:
NIfTI-1 volume I/O, brain-box preprocessing and seeded augmentation,
label/region algebra, ensemble fusion (probability averaging, majority
vote, per-region mean and binary STAPLE), enhancing-tumor post-processing, and
DSC/HD95 evaluation with aggregate reporting and method ranking.

Each public name is imported from the module that defines it, e.g.
``from gbmseg.fusion import staple_regions``; the package root imports
no submodule, so loading one module loads only what that module needs.
"""

__version__ = "0.1.0"
