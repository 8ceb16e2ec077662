"""nifti_io tests.

The fixture builder below assembles NIfTI-1 files byte by byte from the
published header layout, independently of the library's writer, so the
reader is checked against the format itself rather than against the
package's own serialization.
"""

import gzip
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbmseg
from gbmseg.errors import (
    DimensionError,
    DimensionMismatch,
    GbmsegError,
    IoFailure,
    NotNifti,
    TruncatedFile,
    UnsupportedDatatype,
)
from gbmseg.nifti_io import (
    DT_FLOAT32,
    DT_FLOAT64,
    DT_INT16,
    DT_UINT8,
    NiftiHeader,
    read_volume,
    validate_header,
    write_volume,
)
from gbmseg.volume import VoxelGrid

_NUMPY_OF = {DT_UINT8: np.uint8, DT_FLOAT32: np.float32, DT_FLOAT64: np.float64}
_BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64, 256: 8, 512: 16, 768: 32, 1024: 64, 1280: 64}


def fixture_header(
    dims=(2, 2, 2),
    datatype=16,
    byteorder="<",
    spacing=(1.0, 1.0, 1.0),
    slope=1.0,
    inter=0.0,
    srow=None,
    sform_code=1,
    qform_code=0,
    quatern=(0.0, 0.0, 0.0),
    qoffset=(0.0, 0.0, 0.0),
    magic=b"n+1\x00",
    ndim=None,
    extra_dims=(),
    vox_offset=352.0,
) -> bytes:
    """Assemble a 348-byte header straight from the nifti1.h field table."""
    buf = bytearray(348)
    bo = byteorder
    struct.pack_into(bo + "i", buf, 0, 348)
    shape = tuple(dims) + tuple(extra_dims)
    nd = ndim if ndim is not None else len(shape)
    dim_field = (nd,) + shape + (1,) * (7 - len(shape))
    struct.pack_into(bo + "8h", buf, 40, *dim_field)
    struct.pack_into(bo + "2h", buf, 70, datatype, _BITPIX.get(datatype, 0))
    pixdim = (1.0,) + tuple(spacing) + (1.0,) * 4
    struct.pack_into(bo + "8f", buf, 76, *pixdim)
    struct.pack_into(bo + "3f", buf, 108, vox_offset, slope, inter)
    struct.pack_into(bo + "2h", buf, 252, qform_code, sform_code)
    struct.pack_into(bo + "3f", buf, 256, *quatern)
    struct.pack_into(bo + "3f", buf, 268, *qoffset)
    if srow is None:
        srow = np.diag(list(spacing) + [1.0])[:3, :]
    struct.pack_into(bo + "12f", buf, 280, *np.asarray(srow, dtype=np.float64).ravel())
    buf[344:348] = magic
    return bytes(buf)


def fixture_file(tmp_path, name, header_bytes, data, byteorder="<", compress=False):
    dt = data.dtype.newbyteorder(byteorder)
    blob = header_bytes + b"\x00" * 4 + np.asarray(data, dtype=dt).tobytes(order="F")
    if compress:
        blob = gzip.compress(blob)
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestReadVolume:
    def test_values_arrive_in_file_voxel_order(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        path = fixture_file(tmp_path, "seq.nii", fixture_header(), data)
        header, grid = read_volume(path)
        assert grid.values.ravel(order="F").tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert header.dims == (2, 2, 2)
        assert header.datatype_code == 16

    def test_gzip_is_transparent(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        plain = fixture_file(tmp_path, "x.nii", fixture_header(), data)
        packed = fixture_file(tmp_path, "x.nii.gz", fixture_header(), data, compress=True)
        h1, g1 = read_volume(plain)
        h2, g2 = read_volume(packed)
        assert np.array_equal(g1.values, g2.values)
        assert h1.dims == h2.dims and h1.spacing == h2.spacing
        assert np.array_equal(h1.affine, h2.affine)

    def test_two_gzip_members_with_zero_padding(self, tmp_path):
        # gzip allows concatenated members, and tape-style tools pad with zeros
        data = np.arange(64, dtype=np.float32).reshape((4, 4, 4), order="F")
        plain = fixture_file(tmp_path, "x.nii", fixture_header(dims=(4, 4, 4)), data)
        blob = plain.read_bytes()
        packed = tmp_path / "x.nii.gz"
        packed.write_bytes(gzip.compress(blob[:200]) + gzip.compress(blob[200:]) + b"\x00" * 512)
        assert np.array_equal(read_volume(packed)[1].values, read_volume(plain)[1].values)

    def test_rgb_datatype_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        path = fixture_file(tmp_path, "rgb.nii", fixture_header(datatype=128), data)
        with pytest.raises(UnsupportedDatatype):
            read_volume(path)

    @pytest.mark.parametrize("code, dtype", [(256, np.int8), (512, np.uint16), (768, np.uint32),
                                             (1024, np.int64), (1280, np.uint64)])
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    def test_integer_datatypes_read_exactly(self, tmp_path, code, dtype, byteorder):
        # these five were once refused as UnsupportedDatatype
        info = np.iinfo(dtype)
        data = np.array([info.min, 0, 1, 2, 4, info.max, 7, 3], dtype).reshape((2, 2, 2), order="F")
        header = fixture_header(datatype=code, byteorder=byteorder)
        path = fixture_file(tmp_path, "x.nii", header, data, byteorder=byteorder)
        header, grid = read_volume(path)
        assert header.datatype_code == code and grid.values.dtype == dtype
        assert np.array_equal(grid.values, data)

    def test_truncated_data_section(self, tmp_path):
        path = tmp_path / "short.nii"
        data = np.zeros(7, dtype=np.float32)  # header says 8 voxels
        path.write_bytes(fixture_header() + b"\x00" * 4 + data.tobytes())
        with pytest.raises(TruncatedFile):
            read_volume(path)

    def test_truncated_gzip_stream(self, tmp_path):
        data = np.arange(64, dtype=np.float32).reshape((4, 4, 4), order="F")
        path = fixture_file(tmp_path, "half.nii.gz", fixture_header(dims=(4, 4, 4)), data,
                            compress=True)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFile):
            read_volume(path)

    def test_corrupt_deflate_stream(self, tmp_path):
        data = np.arange(64, dtype=np.float32).reshape((4, 4, 4), order="F")
        path = fixture_file(tmp_path, "bad.nii.gz", fixture_header(dims=(4, 4, 4)), data,
                            compress=True)
        blob = bytearray(path.read_bytes())
        blob[10] = 0xFF  # first deflate block header after the 10-byte gzip header: reserved type
        path.write_bytes(bytes(blob))
        with pytest.raises(IoFailure):
            read_volume(path)

    def test_trailing_unit_dimensions_squeezed(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        header = fixture_header(dims=(2, 2, 2), extra_dims=(1,))
        path = fixture_file(tmp_path, "4d.nii", header, data)
        _, grid = read_volume(path)
        assert grid.dims == (2, 2, 2)

    def test_true_fourth_dimension_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2, 2), dtype=np.float32)
        header = fixture_header(dims=(2, 2, 2), extra_dims=(2,))
        path = fixture_file(tmp_path, "multi.nii", header, data)
        with pytest.raises(DimensionError):
            read_volume(path)

    def test_scaling_applied_when_slope_nontrivial(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        path = fixture_file(tmp_path, "sc.nii", fixture_header(slope=2.0, inter=1.0), data)
        _, grid = read_volume(path)
        assert np.allclose(grid.values.ravel(order="F"), np.arange(8) * 2.0 + 1.0)

    def test_zero_slope_means_no_scaling(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        path = fixture_file(tmp_path, "ns.nii", fixture_header(slope=0.0, inter=9.0), data)
        _, grid = read_volume(path)
        assert np.array_equal(grid.values.ravel(order="F"), np.arange(8, dtype=np.float32))

    def test_two_file_magic_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        path = fixture_file(tmp_path, "pair.nii", fixture_header(magic=b"ni1\x00"), data)
        with pytest.raises(NotNifti):
            read_volume(path)

    @pytest.mark.parametrize("fields", [
        {"spacing": (math.nan, 1.0, 1.0), "sform_code": 0},
        {"srow": [[math.nan, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]},
        {"quatern": (math.inf, 0.0, 0.0), "sform_code": 0, "qform_code": 1},
        {"vox_offset": math.inf},
        {"vox_offset": math.nan},
        {"slope": math.inf},
        {"inter": math.nan},
    ], ids=["nan_pixdim", "nan_srow", "inf_quatern", "inf_vox_offset", "nan_vox_offset",
            "inf_slope", "nan_inter"])
    def test_non_finite_header_field_rejected(self, tmp_path, fields):
        data = np.arange(8, dtype=np.float32)
        path = fixture_file(tmp_path, "bad.nii", fixture_header(**fields), data)
        with pytest.raises(NotNifti):
            read_volume(path)


# Every 4-byte float field that shapes geometry, offset or scaling: pixdim[0..7],
# vox_offset, scl_slope, scl_inter, quatern_b..d, qoffset_x..z and srow_x..z.
_FLOAT_FIELD_OFFSETS = list(range(76, 120, 4)) + list(range(256, 328, 4))


class TestFuzzedHeaderFields:
    @given(
        codes=st.sampled_from([(1, 0), (0, 1), (0, 0)]),
        patches=st.dictionaries(
            st.sampled_from(_FLOAT_FIELD_OFFSETS),
            st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(width=32),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_geometry_or_gbmseg_error(self, tmp_path_factory, codes, patches):
        sform_code, qform_code = codes
        blob = bytearray(fixture_header(sform_code=sform_code, qform_code=qform_code))
        for offset, value in patches.items():
            struct.pack_into("<f", blob, offset, value)
        data = np.arange(8, dtype=np.float32)
        path = fixture_file(tmp_path_factory.getbasetemp(), "fuzzed.nii", bytes(blob), data)
        try:
            _, grid = read_volume(path)
        except GbmsegError:
            return
        assert all(math.isfinite(s) and s > 0 for s in grid.spacing)
        assert np.isfinite(grid.affine).all()


class TestValidateHeader:
    def test_little_endian_parsed_natively(self):
        header = validate_header(fixture_header(spacing=(1.0, 2.0, 3.0)))
        assert header.dims == (2, 2, 2)
        assert header.spacing == (1.0, 2.0, 3.0)

    def test_byte_swapped_header_gives_identical_fields(self):
        kwargs = dict(
            dims=(3, 4, 5),
            datatype=4,
            spacing=(1.0, 2.0, 3.0),
            slope=1.5,
            inter=-2.0,
            srow=[[0.0, -2.0, 0.0, 7.0], [1.0, 0.0, 0.0, -4.0], [0.0, 0.0, 3.0, 1.0]],
        )
        native = validate_header(fixture_header(byteorder="<", **kwargs))
        swapped = validate_header(fixture_header(byteorder=">", **kwargs))
        assert native.dims == swapped.dims
        assert native.spacing == swapped.spacing
        assert native.datatype_code == swapped.datatype_code
        assert native.scale_slope == swapped.scale_slope
        assert native.scale_intercept == swapped.scale_intercept
        assert np.array_equal(native.affine, swapped.affine)

    def test_all_zero_bytes_rejected(self):
        with pytest.raises(NotNifti):
            validate_header(b"\x00" * 348)

    def test_short_buffer_rejected(self):
        with pytest.raises(NotNifti):
            validate_header(b"\x00" * 100)

    def test_sform_preferred_over_qform(self):
        srow = [[2.0, 0.0, 0.0, 5.0], [0.0, 2.0, 0.0, 6.0], [0.0, 0.0, 2.0, 7.0]]
        header = validate_header(
            fixture_header(sform_code=2, qform_code=1, qoffset=(9.0, 9.0, 9.0), srow=srow)
        )
        assert np.allclose(header.affine[:3, 3], [5.0, 6.0, 7.0])

    def test_qform_used_when_sform_absent(self):
        # identity quaternion: affine is the spacing diagonal plus offsets
        header = validate_header(
            fixture_header(
                sform_code=0,
                qform_code=1,
                spacing=(2.0, 3.0, 4.0),
                qoffset=(-1.0, -2.0, -3.0),
            )
        )
        assert np.allclose(header.affine[:3, :3], np.diag([2.0, 3.0, 4.0]))
        assert np.allclose(header.affine[:3, 3], [-1.0, -2.0, -3.0])

    def test_pixdim_fallback_when_no_codes(self):
        header = validate_header(
            fixture_header(sform_code=0, qform_code=0, spacing=(2.0, 2.0, 2.0))
        )
        assert np.allclose(header.affine, np.diag([2.0, 2.0, 2.0, 1.0]))


class TestWriteVolume:
    def _random_grid(self, rng, dims=(4, 4, 4), dtype=np.float32):
        values = rng.standard_normal(dims).astype(dtype)
        affine = np.diag([1.0, 1.0, 1.0, 1.0])
        affine[:3, 3] = rng.standard_normal(3)
        return VoxelGrid(values, affine=affine)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("dtype,code", [(np.float32, DT_FLOAT32), (np.float64, DT_FLOAT64)])
    def test_round_trip_bit_exact(self, tmp_path, suffix, dtype, code):
        rng = np.random.default_rng(5)
        grid = self._random_grid(rng, dtype=dtype)
        path = tmp_path / f"v{suffix}"
        write_volume(path, NiftiHeader.for_grid(grid, code), grid)
        _, back = read_volume(path)
        assert back.values.dtype == dtype
        assert back.values.tobytes(order="F") == np.asarray(grid.values).tobytes(order="F")
        assert np.array_equal(
            np.float32(back.affine), np.float32(grid.affine)
        )
        assert np.float32(back.spacing).tolist() == np.float32(grid.spacing).tolist()

    def test_dimension_mismatch(self, tmp_path):
        grid = VoxelGrid(np.zeros((3, 3, 1), dtype=np.float32))
        header = NiftiHeader((2, 2, 2), DT_FLOAT32, (1, 1, 1), np.eye(4))
        with pytest.raises(DimensionMismatch):
            write_volume(tmp_path / "bad.nii", header, grid)

    def test_gz_suffix_produces_gzip_bytes(self, tmp_path):
        grid = VoxelGrid(np.zeros((2, 2, 2), dtype=np.float32))
        path = tmp_path / "z.nii.gz"
        write_volume(path, NiftiHeader.for_grid(grid), grid)
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_written_file_passes_independent_field_checks(self, tmp_path):
        # spot-check the on-disk bytes against the published field offsets
        grid = VoxelGrid(
            np.arange(24, dtype=np.float32).reshape(2, 3, 4), spacing=(1.5, 2.5, 3.5)
        )
        path = tmp_path / "w.nii"
        write_volume(path, NiftiHeader.for_grid(grid), grid)
        raw = path.read_bytes()
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        assert struct.unpack_from("<8h", raw, 40)[:4] == (3, 2, 3, 4)
        assert struct.unpack_from("<h", raw, 70)[0] == DT_FLOAT32
        assert struct.unpack_from("<8f", raw, 76)[1:4] == (1.5, 2.5, 3.5)
        assert raw[344:348] == b"n+1\x00"
        assert struct.unpack_from("<f", raw, 108)[0] == 352.0
        payload = np.frombuffer(raw, dtype="<f4", count=24, offset=352)
        assert payload.tolist() == grid.values.ravel(order="F").tolist()

    def test_labels_round_trip_through_uint8(self, tmp_path):
        labels = np.random.default_rng(3).choice(
            np.array([0, 1, 2, 4], np.uint8), size=(5, 5, 5)
        )
        grid = VoxelGrid(labels)
        path = tmp_path / "lab.nii.gz"
        write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)
        _, back = read_volume(path)
        assert back.values.dtype == np.uint8
        assert np.array_equal(back.values, labels)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("code", [DT_UINT8, DT_FLOAT32, DT_FLOAT64])
    def test_memory_order_does_not_change_the_bytes(self, tmp_path, suffix, code):
        values = np.random.default_rng(6).random((6, 7, 8)) * 5
        native = values.astype(np.dtype(_NUMPY_OF[code]))
        layouts = {"c_cast": values, "f_cast": np.asfortranarray(values),
                   "c": native, "f": np.asfortranarray(native),
                   "strided": np.asfortranarray(np.repeat(native, 2, axis=1))[:, ::2, :]}
        blobs = {}
        for name, array in layouts.items():
            grid = VoxelGrid(array)
            path = tmp_path / f"{name}{suffix}"
            write_volume(path, NiftiHeader.for_grid(grid, code), grid)
            blobs[name] = path.read_bytes()
        assert len(set(blobs.values())) == 1
        assert np.array_equal(read_volume(tmp_path / f"f{suffix}")[1].values, native)

    def test_identical_inputs_give_identical_gzip_bytes(self, tmp_path):
        grid = VoxelGrid(np.ones((3, 3, 3), dtype=np.float32))
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_volume(a, NiftiHeader.for_grid(grid), grid)
        write_volume(b, NiftiHeader.for_grid(grid), grid)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "spacing,affine",
        [
            ((1.0, 1.0, 1.0), np.diag([1e39, 1.0, 1.0, 1.0])),
            ((1e39, 1.0, 1.0), np.eye(4)),
            ((1e-50, 1.0, 1.0), np.eye(4)),  # pixdim would round to 0
        ],
        ids=["affine_overflow", "spacing_overflow", "spacing_underflow"],
    )
    def test_geometry_float32_cannot_hold_is_rejected(self, tmp_path, spacing, affine):
        grid = VoxelGrid(np.zeros((2, 2, 2), dtype=np.float32), spacing=spacing, affine=affine)
        path = tmp_path / "far.nii"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GbmsegError):
                write_volume(path, NiftiHeader.for_grid(grid), grid)
        assert not path.exists()

    def test_dims_beyond_int16_rejected(self, tmp_path):
        grid = VoxelGrid(np.zeros((40000, 1, 1), np.uint8))
        path = tmp_path / "long.nii"
        with pytest.raises(IoFailure):
            write_volume(path, NiftiHeader.for_grid(grid, DT_UINT8), grid)
        assert not path.exists()

    def test_scaled_header_is_not_written_back(self, tmp_path):
        # the reader has already applied slope 2 / intercept 1; writing the
        # scaled values under the same header would scale them twice
        data = np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F")
        src = fixture_file(tmp_path, "scaled.nii", fixture_header(datatype=DT_INT16, slope=2.0,
                                                                   inter=1.0), data)
        header, grid = read_volume(src)
        assert grid.values.ravel(order="F").tolist() == [1, 3, 5, 7, 9, 11, 13, 15]
        dst = tmp_path / "copy.nii"
        with pytest.raises(GbmsegError):
            write_volume(dst, header, grid)
        assert not dst.exists()

    @pytest.mark.parametrize("slope,inter", [(1.0, 0.0), (0.0, 9.0)], ids=["identity", "zero_slope"])
    def test_unscaled_header_round_trips(self, tmp_path, slope, inter):
        data = np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F")
        src = fixture_file(tmp_path, "plain.nii", fixture_header(datatype=DT_INT16, slope=slope,
                                                                  inter=inter), data)
        dst = tmp_path / "copy.nii"
        write_volume(dst, *read_volume(src))
        _, back = read_volume(dst)
        assert back.values.dtype == np.int16
        assert np.array_equal(back.values, data)


def test_reading_path_loads_no_scipy():
    # Reading and validating volumes needs only NumPy; SciPy costs start-up.
    code = ("import sys, gbmseg.errors, gbmseg.volume, gbmseg.nifti_io, gbmseg.postprocess; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(gbmseg.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
