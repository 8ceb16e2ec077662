"""Exception hierarchy shared across the toolkit, and its one context rule.

Every error raised on purpose by this package derives from GbmsegError so
callers (and the CLI) can distinguish data problems from genuine bugs.
Context comes only from :func:`error_prefix`: the function that opens a file
names it, once, and a caller prefixes the case or input pair it works on.
It alone turns an OSError into a GbmsegError, so each filesystem call runs
under the prefix of its own path.
"""

from contextlib import contextmanager


class GbmsegError(Exception):
    """Base class for all toolkit errors."""


@contextmanager
def error_prefix(prefix: str):
    """Prefix ``<prefix>: `` to a GbmsegError raised inside, keeping its class.
    An OSError becomes IoFailure with its ``strerror``, not the filename it
    quotes: the prefix already names the path."""
    try:
        yield
    except GbmsegError as err:
        raise type(err)(f"{prefix}: {err}") from err
    except OSError as err:
        raise IoFailure(f"{prefix}: {err.strerror or err}") from err


# --- NIfTI I/O ---------------------------------------------------------


class NotNifti(GbmsegError):
    """File or byte buffer is not a single-file NIfTI-1 volume."""


class UnsupportedDatatype(GbmsegError):
    """NIfTI datatype code that names no integer, float32 or float64 type."""


class TruncatedFile(GbmsegError):
    """Data section is shorter than the header dimensions imply."""


class DimensionError(GbmsegError):
    """Volume has more than three non-unit dimensions."""


class DimensionMismatch(GbmsegError):
    """Header dimensions do not match the grid being written."""


class IoFailure(GbmsegError):
    """Underlying read or write failed."""


# --- Volume algebra ----------------------------------------------------


class GeometryMismatch(GbmsegError):
    """Volumes do not share dims, spacing, and affine."""


class RegionMismatch(GbmsegError):
    """Region tags differ where a single region was expected."""


class BadLabel(GbmsegError):
    """Label value outside the BraTS set {0, 1, 2, 4}."""


# --- Preprocessing -----------------------------------------------------


class NoBrainVoxels(GbmsegError):
    """Every voxel is zero; there is nothing to crop or normalize."""


class ZeroVariance(GbmsegError):
    """All brain voxels carry the same intensity; z-score is undefined."""


class NonFiniteIntensity(GbmsegError):
    """Some intensity is NaN or infinite, which every statistic would spread."""


class BadAngle(GbmsegError):
    """Rotation angle outside the supported [0, 30] degree range."""


# --- Fusion ------------------------------------------------------------


class EmptyInput(GbmsegError):
    """An operation that needs at least one input received none."""


class TooFewRaters(GbmsegError):
    """STAPLE-style fusion needs at least two raters."""


class DegenerateInput(GbmsegError):
    """Foreground and background cannot be separated: every rater marks
    every voxel identically, or STAPLE weighs every voxel exactly 0 or 1."""


class TooManyRaters(GbmsegError):
    """Fusion packs one bit a mask, or two a label volume, into a 16-bit code."""


# --- Dataset harness ---------------------------------------------------


class NoMatchedCases(GbmsegError):
    """No prediction/ground-truth pair could be formed."""
