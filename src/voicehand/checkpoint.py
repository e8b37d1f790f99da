"""Binary weight checkpoints.

Layout, all integers little-endian:

    bytes 0..3   magic b"KWS1"
    bytes 4..7   format version (u32) = 1
    bytes 8..11  header length in bytes (u32)
    header       UTF-8 JSON: architecture, input shape, class names,
                 tensor names + shapes in payload order, free-form metadata;
                 strict JSON, so metadata holds no NaN or infinity
    payload      float32 values for every tensor, canonical layer order

The header is validated against the expected architecture before any
payload byte is interpreted, so a mismatched file fails loudly instead
of loading plausible garbage.
"""

import contextlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    NegativeVariance,
    NonFinitePayload,
    SpecMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .gestures import CLASS_NAMES
from .network import ARCH, INPUT_SHAPE, Network

MAGIC = b"KWS1"
FORMAT_VERSION = 1


def _header(tensors, metadata) -> dict:
    """The header of a file holding `tensors`, a network's `state_tensors()`."""
    return {
        "arch": list(ARCH),
        "input_shape": list(INPUT_SHAPE),
        "class_names": list(CLASS_NAMES),
        "dtype": "float32",
        "tensors": [{"name": name, "shape": list(a.shape)} for name, a in tensors],
        "metadata": dict(metadata or {}),
    }


def save_checkpoint(path, network: Network, metadata=None) -> None:
    """Write atomically: the bytes go to a temporary file next to `path`,
    which then replaces it, so a write that fails part-way leaves an
    earlier file at `path` as it was. Metadata must be strict JSON."""
    tensors = network.state_tensors()
    header = json.dumps(_header(tensors, metadata), sort_keys=True,
                        allow_nan=False).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in tensors)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, len(header)))
            f.write(header)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _parse(data: bytes, path) -> tuple:
    """(header, payload bytes) of a checkpoint file's contents; validates
    everything before the payload."""
    if len(data) < 12 or data[:4] != MAGIC:
        raise BadMagic(f"{path}: not a weight checkpoint")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    raw = data[12 : 12 + header_len]
    if len(raw) < header_len:
        raise TruncatedPayload(f"{path}: header cut short")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise SpecMismatch(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise SpecMismatch(f"{path}: header is not a JSON object")
    return header, data[12 + header_len :]


def read_header(path) -> dict:
    """Parse and validate everything before the payload."""
    return _parse(Path(path).read_bytes(), path)[0]


def load_checkpoint(path, network: Network) -> dict:
    """Load weights into `network` in place; returns header metadata.

    The file is read once. Its architecture descriptor, input shape,
    class names and tensor list must match what `save_checkpoint` writes
    for this network, every payload value must be finite and every
    batch-norm moving variance at least 0, as training's running average
    always is; on any failure the network is left as it was.
    """
    header, payload = _parse(Path(path).read_bytes(), path)
    tensors = network.state_tensors()
    expected = _header(tensors, None)
    for key in ("arch", "input_shape", "class_names", "tensors"):
        if header.get(key) != expected[key]:
            raise SpecMismatch(f"{path}: {key} differs from this network")
    count = sum(a.size for _, a in tensors)
    if len(payload) != 4 * count:
        raise TruncatedPayload(f"{path}: payload holds {len(payload) // 4} floats, expected {count}")
    values = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(values).all():
        raise NonFinitePayload(f"{path}: payload holds a NaN or infinite value")
    pieces, offset = [], 0
    for name, a in tensors:
        piece = values[offset : offset + a.size]
        if name.endswith(".moving_var") and (piece < 0).any():
            raise NegativeVariance(f"{path}: {name} holds a value below 0")
        pieces.append(piece)
        offset += a.size
    for (_, a), piece in zip(tensors, pieces):
        a[...] = piece.reshape(a.shape)
    network.mark_mutated()
    return header.get("metadata", {})
