"""Single-file NIfTI-1 reader and writer for 3D volumes.

Implements the 348-byte NIfTI-1 header directly (no external imaging
dependency) for the integer datatypes, float32 and float64.  Files written
here are always little-endian single-file volumes (magic ``n+1``) with the
data section at byte offset 352; gzip compression is applied when the output
path ends in ``.gz`` and detected on read from the 0x1F 0x8B signature.

Field offsets below follow the official nifti1.h layout.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    DimensionMismatch,
    IoFailure,
    NotNifti,
    TruncatedFile,
    UnsupportedDatatype,
)
from .volume import VoxelGrid, checked_geometry

HEADER_SIZE = 348
DATA_OFFSET = 352  # header + 4-byte extension flag
MAX_DIM = 32767  # dim[] is an int16 field

# datatype code -> numpy dtype character
_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8",
           256: "i1", 512: "u2", 768: "u4", 1024: "i8", 1280: "u8"}

DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16
DT_FLOAT64 = 64

_MAGIC_SINGLE = b"n+1\x00"
_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True, eq=False)
class NiftiHeader:
    """The geometry and encoding fields this toolkit models.

    ``affine`` is the voxel-index -> world-mm map chosen by the
    sform > qform > pixdim precedence rule at parse time.
    """

    dims: tuple[int, int, int]
    datatype_code: int
    spacing: tuple[float, float, float]
    affine: np.ndarray
    scale_slope: float = 1.0
    scale_intercept: float = 0.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be 3 positive integers, got {self.dims}")
        if self.datatype_code not in _DTYPES:
            raise UnsupportedDatatype(f"datatype code {self.datatype_code}")
        if not (math.isfinite(self.scale_slope) and math.isfinite(self.scale_intercept)):
            raise ValueError("scl_slope and scl_inter must be finite")
        spacing, affine = checked_geometry(self.spacing, self.affine)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "affine", affine)

    @classmethod
    def for_grid(cls, grid: VoxelGrid, datatype_code: int = DT_FLOAT32) -> "NiftiHeader":
        return cls(grid.dims, datatype_code, grid.spacing, grid.affine)


def _rescales(header: NiftiHeader) -> bool:
    """Whether :func:`read_volume` rescales the payload stored under this
    header: ``scl_slope`` 0 means "no scaling" in NIfTI-1, and the identity
    pair (1, 0) is skipped so unscaled payloads keep their on-disk dtype."""
    slope, inter = header.scale_slope, header.scale_intercept
    return slope != 0.0 and not (slope == 1.0 and inter == 0.0)


def _quaternion_rotation(b: float, c: float, d: float) -> np.ndarray:
    a = np.sqrt(max(0.0, 1.0 - (b * b + c * c + d * d)))
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )


def _parse_header(raw: bytes) -> tuple[NiftiHeader, str, int]:
    """Parse 348+ header bytes; returns (header, byteorder char, vox_offset)."""
    if len(raw) < HEADER_SIZE:
        raise NotNifti(f"header needs {HEADER_SIZE} bytes, got {len(raw)}")
    # Byte order is detected from sizeof_hdr: it must read 348 in the
    # file's own order.
    if struct.unpack_from("<i", raw, 0)[0] == HEADER_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", raw, 0)[0] == HEADER_SIZE:
        bo = ">"
    else:
        raise NotNifti("sizeof_hdr is not 348 in either byte order")

    magic = raw[344:348]
    if magic != _MAGIC_SINGLE:
        raise NotNifti(f"magic {magic!r} is not a single-file NIfTI-1 tag")

    dim = struct.unpack_from(bo + "8h", raw, 40)
    datatype = struct.unpack_from(bo + "h", raw, 70)[0]
    pixdim = struct.unpack_from(bo + "8f", raw, 76)
    vox_offset, scl_slope, scl_inter = struct.unpack_from(bo + "3f", raw, 108)
    qform_code, sform_code = struct.unpack_from(bo + "2h", raw, 252)
    quatern = struct.unpack_from(bo + "3f", raw, 256)
    qoffset = struct.unpack_from(bo + "3f", raw, 268)
    srow = struct.unpack_from(bo + "12f", raw, 280)

    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise NotNifti(f"dim[0] = {ndim} outside [1, 7]")
    shape = dim[1 : 1 + ndim]
    if any(n < 1 for n in shape):
        raise NotNifti(f"non-positive dimension in {shape}")
    if any(n != 1 for n in shape[3:]):
        raise DimensionError(f"more than 3 non-unit dimensions: {shape}")
    dims = tuple(shape[:3]) + (1,) * (3 - min(ndim, 3))

    if datatype not in _DTYPES:
        raise UnsupportedDatatype(f"datatype code {datatype}")
    if not math.isfinite(vox_offset):
        raise NotNifti(f"malformed header: vox_offset is {vox_offset}")

    # Tolerate sloppy pixdims (negative or zero) the way mainstream readers
    # do; our own writer always emits positive values.
    spacing = tuple(abs(p) if p != 0.0 else 1.0 for p in pixdim[1:4])

    affine = np.eye(4)
    if sform_code > 0:
        affine[:3, :] = np.asarray(srow, dtype=np.float64).reshape(3, 4)
    elif qform_code > 0:
        qfac = -1.0 if pixdim[0] == -1.0 else 1.0
        # Non-finite fields propagate here; NiftiHeader rejects the result.
        with np.errstate(invalid="ignore", over="ignore"):
            rot = _quaternion_rotation(*quatern)
            affine[:3, :3] = rot @ np.diag([spacing[0], spacing[1], spacing[2] * qfac])
        affine[:3, 3] = qoffset
    else:
        affine[:3, :3] = np.diag(spacing)

    try:
        header = NiftiHeader(
            dims=dims,
            datatype_code=datatype,
            spacing=spacing,
            affine=affine,
            scale_slope=float(scl_slope),
            scale_intercept=float(scl_inter),
        )
    except ValueError as err:
        raise NotNifti(f"malformed header: {err}") from err
    offset = int(vox_offset) if vox_offset >= HEADER_SIZE else DATA_OFFSET
    return header, bo, offset


def validate_header(raw: bytes) -> NiftiHeader:
    """Parse a raw NIfTI-1 header, detecting byte order from sizeof_hdr."""
    header, _, _ = _parse_header(raw)
    return header


def _read_bytes(path: Path) -> bytes:
    try:
        raw = path.read_bytes()
        return gzip.decompress(raw) if raw[:2] == _GZIP_MAGIC else raw
    except EOFError as err:  # gzip stream cut off before its end marker
        raise TruncatedFile(f"{path}: compressed data ends early: {err}") from err
    except (OSError, zlib.error) as err:  # BadGzipFile is an OSError
        raise IoFailure(f"cannot read {path}: {err}") from err


def read_volume(path) -> tuple[NiftiHeader, VoxelGrid]:
    """Read a single-file NIfTI-1 volume, optionally gzip-compressed.

    Data are decoded in the file's byte order, then the slope/intercept
    scaling is applied unless ``scl_slope`` is 0 or the pair is (1, 0).
    """
    path = Path(path)
    raw = _read_bytes(path)
    header, bo, offset = _parse_header(raw)

    dt = np.dtype(_DTYPES[header.datatype_code]).newbyteorder(bo)
    count = header.dims[0] * header.dims[1] * header.dims[2]
    nbytes = count * dt.itemsize
    if len(raw) < offset + nbytes:
        raise TruncatedFile(
            f"{path}: need {nbytes} data bytes at offset {offset}, have {len(raw) - offset}"
        )
    flat = np.frombuffer(raw, dtype=dt, count=count, offset=offset)
    values = flat.reshape(header.dims, order="F").astype(dt.newbyteorder("="))

    if _rescales(header):
        values = values.astype(np.float64) * header.scale_slope + header.scale_intercept

    grid = VoxelGrid(values, spacing=header.spacing, affine=header.affine)
    return header, grid


def _pack_header(header: NiftiHeader, spacing: np.ndarray, affine: np.ndarray) -> bytes:
    buf = bytearray(HEADER_SIZE)
    struct.pack_into("<i", buf, 0, HEADER_SIZE)
    struct.pack_into("<c", buf, 38, b"r")  # "regular" flag, kept for convention
    struct.pack_into("<8h", buf, 40, 3, *header.dims, 1, 1, 1, 1)
    bitpix = np.dtype(_DTYPES[header.datatype_code]).itemsize * 8
    struct.pack_into("<2h", buf, 70, header.datatype_code, bitpix)
    struct.pack_into("<8f", buf, 76, 1.0, *spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<3f", buf, 108, float(DATA_OFFSET), header.scale_slope, header.scale_intercept)
    struct.pack_into("<B", buf, 123, 2)  # xyzt_units: millimetres
    buf[148 : 148 + 6] = b"gbmseg"
    # Geometry goes out through the sform only; qform_code stays 0.
    struct.pack_into("<2h", buf, 252, 0, 1)
    struct.pack_into("<12f", buf, 280, *affine[:3, :].ravel())
    buf[344:348] = _MAGIC_SINGLE
    return bytes(buf)


def write_volume(path, header: NiftiHeader, grid: VoxelGrid) -> None:
    """Write a grid as a little-endian single-file NIfTI-1 volume.

    The payload is cast to the header's datatype; float32/float64 payloads
    round-trip bit-exactly through :func:`read_volume`.  A ``.gz`` suffix
    selects gzip output (mtime pinned to 0 so identical inputs produce
    byte-identical files).  A header whose scaling the reader would apply
    is refused, since the grid holds values already scaled, and so are
    geometry the float32 header fields cannot hold and dims above 32767.
    """
    path = Path(path)
    if header.dims != grid.dims:
        raise DimensionMismatch(f"header dims {header.dims} != grid dims {grid.dims}")
    if max(header.dims) > MAX_DIM:
        raise IoFailure(f"cannot write {path}: dims {header.dims} exceed {MAX_DIM}")
    if _rescales(header):
        raise IoFailure(
            f"cannot write {path}: scl_slope {header.scale_slope} and scl_inter "
            f"{header.scale_intercept} would rescale the values again on reading"
        )
    # The header stores geometry as float32; what the reader gets back must
    # pass the same geometry rule.
    with np.errstate(over="ignore", under="ignore"):
        spacing = np.asarray(header.spacing, dtype=np.float32)
        affine = np.asarray(header.affine, dtype=np.float32)
    try:
        checked_geometry(spacing, affine)
    except ValueError as err:
        raise IoFailure(f"cannot write {path}: geometry as float32: {err}") from err
    dt = np.dtype(_DTYPES[header.datatype_code]).newbyteorder("<")
    # F-contiguous in the file's dtype, raveled without a copy when it already is
    payload = np.asfortranarray(grid.values, dtype=dt).ravel(order="K")
    try:
        with open(path, "wb") as fh:
            # filename="" and mtime=0 keep the gzip container byte-stable
            with (gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0)
                  if path.name.endswith(".gz") else contextlib.nullcontext(fh)) as out:
                out.write(_pack_header(header, spacing, affine) + b"\x00\x00\x00\x00")
                out.write(payload)
    except OSError as err:
        raise IoFailure(f"cannot write {path}: {err}") from err
