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

import numpy as np

from .errors import (
    BadMagic,
    NonFinitePayload,
    SpecMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .network import ARCH, INPUT_SHAPE, Network

MAGIC = b"KWS1"
FORMAT_VERSION = 1


def _arch_json():
    return [dict(layer) for layer in ARCH]


def _header(network: Network, metadata) -> dict:
    return {
        "arch": _arch_json(),
        "input_shape": list(INPUT_SHAPE),
        "class_names": list(network.class_names),
        "dtype": "float32",
        "tensors": [{"name": name, "shape": list(a.shape)} for name, a in network.state_tensors()],
        "metadata": dict(metadata or {}),
    }


def save_checkpoint(path, network: Network, metadata=None) -> None:
    """Write atomically: the bytes go to a temporary file next to `path`,
    which then replaces it, so a write that fails part-way leaves an
    earlier file at `path` as it was. Metadata must be strict JSON."""
    header = json.dumps(_header(network, metadata), sort_keys=True,
                        allow_nan=False).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in network.state_tensors()
    )
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


def read_header(path) -> dict:
    """Parse and validate everything before the payload."""
    with open(path, "rb") as f:
        prefix = f.read(12)
        if len(prefix) < 12 or prefix[:4] != MAGIC:
            raise BadMagic(f"{path}: not a weight checkpoint")
        version, header_len = struct.unpack("<II", prefix[4:12])
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"{path}: format version {version}, expected {FORMAT_VERSION}")
        raw = f.read(header_len)
    if len(raw) < header_len:
        raise TruncatedPayload(f"{path}: header cut short")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise SpecMismatch(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise SpecMismatch(f"{path}: header is not a JSON object")
    return header


def load_checkpoint(path, network: Network) -> dict:
    """Load weights into `network` in place; returns header metadata.

    The file's architecture descriptor, class names, and tensor list must
    match the network exactly, and every payload value must be finite;
    on any failure the network is left as it was.
    """
    header = read_header(path)
    if header.get("arch") != _arch_json():
        raise SpecMismatch(f"{path}: architecture differs from this network")
    if header.get("input_shape") != list(INPUT_SHAPE):
        raise SpecMismatch(f"{path}: input shape differs from this network")
    if header.get("class_names") != list(network.class_names):
        raise SpecMismatch(f"{path}: class names differ from this network")
    tensors = network.state_tensors()
    expected = [{"name": name, "shape": list(a.shape)} for name, a in tensors]
    if header.get("tensors") != expected:
        raise SpecMismatch(f"{path}: tensor list differs from this network")

    count = sum(a.size for _, a in tensors)
    with open(path, "rb") as f:
        _, header_len = struct.unpack("<II", f.read(12)[4:12])
        f.seek(12 + header_len)
        payload = f.read()
    if len(payload) != 4 * count:
        raise TruncatedPayload(f"{path}: payload holds {len(payload) // 4} floats, expected {count}")
    values = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(values).all():
        raise NonFinitePayload(f"{path}: payload holds a NaN or infinite value")
    offset = 0
    for _, a in tensors:
        chunk = values[offset : offset + a.size].reshape(a.shape)
        a[...] = chunk.astype(a.dtype)
        offset += a.size
    network.mark_mutated()
    return header.get("metadata", {})
