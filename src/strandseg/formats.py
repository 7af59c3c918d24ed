"""Binary file formats: PGM/PPM images and the SEGT named-tensor container.

PGM (P5) carries grayscale grids, PPM (P6) carries rendered overlays, and
the SEGT container carries arbitrary named float32 tensors (instance masks,
embedding fields, model checkpoints). All writers go through an atomic
temp-file-plus-rename so partially written artifacts never appear on disk.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

MAGIC = b"SEGT"
FORMAT_VERSION = 1


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# PGM / PPM


def encode_pgm(image: np.ndarray) -> bytes:
    """Encode a [0,1] grayscale grid as 8-bit binary PGM (P5)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"expected a nonempty 2-d grid, got shape {image.shape}")
    h, w = image.shape
    data = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (w, h) + data.tobytes()


def write_pgm(path: str, image: np.ndarray) -> None:
    atomic_write_bytes(path, encode_pgm(image))


def _read_pgm_header(data: bytes):
    # Header tokens may be separated by any whitespace and '#' comments.
    if not data.startswith(b"P5"):
        raise ValueError("not a P5 file")
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}, expected 255")
    if w < 1 or h < 1:
        raise ValueError(f"invalid dimensions {w}x{h}")
    return w, h, pos


def read_pgm(path: str) -> np.ndarray:
    """Read an 8-bit binary PGM into a float grid in [0,1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, pos = _read_pgm_header(data)
    raster = data[pos : pos + w * h]
    if len(raster) != w * h:
        raise ValueError("truncated PGM raster")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
    return pixels.astype(np.float64) / 255.0


def encode_ppm(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3), got shape {rgb.shape}")
    h, w, _ = rgb.shape
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.astype(np.uint8).tobytes()


def write_ppm(path: str, rgb: np.ndarray) -> None:
    atomic_write_bytes(path, encode_ppm(rgb))


# ---------------------------------------------------------------------------
# SEGT tensor container
#
# Layout (little endian):
#   magic "SEGT" | version u8 (=1) | entry count u32
#   per entry: name length u16 | name UTF-8 | ndim u8 | dims u32 each
#              | payload f32, row-major


def encode_tensors(entries: dict[str, np.ndarray]) -> bytes:
    names = list(entries)
    if len(set(names)) != len(names):
        raise ValueError("duplicate tensor names")
    parts = [MAGIC, struct.pack("<BI", FORMAT_VERSION, len(names))]
    for name in names:
        arr = np.ascontiguousarray(entries[name], dtype="<f4")
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError(f"too many dimensions for {name!r}")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def write_tensors(path: str, entries: dict[str, np.ndarray]) -> None:
    atomic_write_bytes(path, encode_tensors(entries))


def decode_tensors(data: bytes) -> dict[str, np.ndarray]:
    if data[:4] != MAGIC:
        raise ValueError("not a SEGT container")
    try:
        version, count = struct.unpack_from("<BI", data, 4)
        pos = 9
        entries: dict[str, np.ndarray] = {}
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", data, pos)
            pos += 1
            dims = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            n = int(np.prod(dims, dtype=np.int64)) if ndim else 1
            payload = data[pos : pos + 4 * n]
            if len(payload) != 4 * n:
                raise ValueError(f"truncated payload for tensor {name!r}")
            pos += 4 * n
            if name in entries:
                raise ValueError(f"duplicate tensor name {name!r}")
            entries[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    except struct.error as exc:
        raise ValueError("truncated container header") from exc
    if pos != len(data):
        raise ValueError("trailing bytes after last tensor")
    return entries


def read_tensors(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return decode_tensors(fh.read())
