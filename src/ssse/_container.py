"""Binary container primitives shared by the model and inverse-Fisher files.

Both file kinds use the same skeleton: an 8-byte magic string, a version
byte, then fixed-width little-endian fields (u8, u64, i64, f64) and raw
float64 payloads. Readers track their byte offset so a truncated or
corrupt file fails with the position that could not be parsed.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ContainerError

MODEL_MAGIC = b"SSSEMODL"
FISHER_MAGIC = b"SSSEFISH"
# The two file kinds are versioned separately: model files are still at
# version 1, inverse-Fisher files store block factors since version 2.
CONTAINER_VERSION = 1
FISHER_VERSION = 2


class ByteReader:
    """Sequential reader over a bytes object with offset-tagged errors."""

    def __init__(self, data: bytes, path: str) -> None:
        self._data = data
        self._path = path
        self.offset = 0

    def _take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self._data):
            raise ContainerError(
                f"{self._path}: truncated at byte {self.offset} while reading {what}"
            )
        chunk = self._data[self.offset : end]
        self.offset = end
        return chunk

    def magic(self, expected: bytes) -> None:
        got = self._take(len(expected), "magic")
        if got != expected:
            raise ContainerError(
                f"{self._path}: bad magic at byte 0: {got!r} (expected {expected!r})"
            )

    def u8(self, what: str) -> int:
        return self._take(1, what)[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self._take(8, what))[0]

    def i64(self, what: str) -> int:
        return struct.unpack("<q", self._take(8, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self._take(8, what))[0]

    def raw(self, count: int, what: str) -> bytes:
        return self._take(count, what)

    def f64_array(self, count: int, what: str) -> np.ndarray:
        data = self._take(8 * count, what)
        return np.frombuffer(data, dtype="<f8").astype(np.float64)

    def expect_end(self) -> None:
        if self.offset != len(self._data):
            raise ContainerError(
                f"{self._path}: {len(self._data) - self.offset} trailing bytes at "
                f"byte {self.offset}"
            )


class ByteWriter:
    """Accumulates the little-endian payload for one container file."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def magic(self, magic: bytes) -> None:
        self._parts.append(magic)

    def u8(self, value: int) -> None:
        self._parts.append(bytes([value]))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def i64(self, value: int) -> None:
        self._parts.append(struct.pack("<q", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def f64_array(self, values: np.ndarray) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype="<f8").tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


def write_atomic(path: str, data: bytes) -> None:
    """Write via a uniquely named temp file in the same directory, rename it
    over ``path``, then fsync the directory so the rename is durable."""
    directory = os.path.dirname(path) or "."
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ContainerError(f"{path}: cannot read: {exc}") from exc
