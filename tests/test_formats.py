import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandseg.formats import (atomic_write_bytes, decode_tensors, encode_pgm,
                               encode_ppm, encode_tensors, read_pgm,
                               read_tensors, write_pgm, write_ppm, write_tensors)


def test_pgm_round_trip_quantized(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.random((17, 23))
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.shape == image.shape
    # write quantizes to 255 levels; the reread values are those levels exactly
    assert np.array_equal(np.rint(image * 255), np.rint(back * 255))
    assert back.min() >= 0.0 and back.max() <= 1.0


def test_pgm_bytes_are_p5():
    data = encode_pgm(np.zeros((2, 3)))
    assert data.startswith(b"P5\n3 2\n255\n")
    assert len(data) == len(b"P5\n3 2\n255\n") + 6


def test_pgm_write_is_idempotent_bytes(tmp_path):
    image = np.linspace(0, 1, 12).reshape(3, 4)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, image)
    write_pgm(p2, image)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_header_comments_and_whitespace(tmp_path):
    raster = bytes(range(6))
    data = b"P5 # comment\n# another comment\n 3\t2 # dims\n255\n" + raster
    path = tmp_path / "c.pgm"
    path.write_bytes(data)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert np.array_equal(np.rint(img * 255).astype(int).ravel(), list(range(6)))


def test_pgm_rejects_bad_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "nope.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_pgm_reader_rejects_a_ppm(tmp_path):
    path = tmp_path / "x.ppm"
    write_ppm(path, np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="^not a P5 file$"):
        read_pgm(path)


def test_ppm_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    rgb = rng.integers(0, 256, size=(9, 5, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    assert path.read_bytes() == b"P6\n5 9\n255\n" + rgb.tobytes()


def test_ppm_rejects_bad_shape():
    with pytest.raises(ValueError):
        encode_ppm(np.zeros((4, 4)))


def test_tensor_container_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    entries = {
        "alpha": rng.normal(size=(3, 4)).astype(np.float32),
        "beta": rng.normal(size=(2, 2, 5)).astype(np.float32),
        "scalar_ish": np.array([1.5], dtype=np.float32),
    }
    path = tmp_path / "t.segt"
    write_tensors(path, entries)
    back = read_tensors(path)
    assert list(back) == list(entries)
    for name in entries:
        assert back[name].shape == entries[name].shape
        assert np.array_equal(back[name], entries[name])


def test_tensor_container_reencode_is_byte_identical():
    rng = np.random.default_rng(3)
    entries = {"x": rng.normal(size=(4, 4)).astype(np.float32)}
    blob = encode_tensors(entries)
    assert encode_tensors(decode_tensors(blob)) == blob


def test_tensor_container_float64_is_truncated_to_f32():
    value = {"v": np.array([[1.0 / 3.0]])}
    back = decode_tensors(encode_tensors(value))
    assert back["v"].dtype == np.float32
    assert back["v"][0, 0] == np.float32(1.0 / 3.0)


def test_tensor_container_empty():
    assert decode_tensors(encode_tensors({})) == {}


def test_tensor_container_rejects_bad_magic():
    with pytest.raises(ValueError, match="SEGT"):
        decode_tensors(b"NOPE" + bytes(16))


def test_tensor_container_rejects_bad_version():
    blob = bytearray(encode_tensors({"x": np.zeros((1,), np.float32)}))
    blob[4] = 9
    with pytest.raises(ValueError, match="version"):
        decode_tensors(bytes(blob))


def test_tensor_container_rejects_truncation():
    blob = encode_tensors({"x": np.zeros((4, 4), np.float32)})
    with pytest.raises(ValueError):
        decode_tensors(blob[:-3])


def test_tensor_container_rejects_trailing_bytes():
    blob = encode_tensors({"x": np.zeros((1,), np.float32)})
    with pytest.raises(ValueError, match="trailing"):
        decode_tensors(blob + b"\x00")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=0, max_size=4),
       st.integers(0, 2**31 - 1))
def test_tensor_container_property_round_trip(shapes, seed):
    rng = np.random.default_rng(seed)
    entries = {f"t{i}": rng.normal(size=s).astype(np.float32)
               for i, s in enumerate(shapes)}
    back = decode_tensors(encode_tensors(entries))
    assert set(back) == set(entries)
    for name in entries:
        assert np.array_equal(back[name], entries[name])


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"hello")
    assert path.read_bytes() == b"hello"
    atomic_write_bytes(path, b"replaced")
    assert path.read_bytes() == b"replaced"
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]
