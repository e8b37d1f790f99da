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

import json
import struct
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import CheckpointError
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


def _check_payload(values: np.ndarray, tensors, path) -> None:
    """The payload rule of save and load: every float32 value is finite
    and every batch-norm moving variance at least 0, as training's
    running average always is."""
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: payload holds a NaN or infinite value")
    offset = 0
    for name, a in tensors:
        if name.endswith(".moving_var") and (values[offset : offset + a.size] < 0).any():
            raise CheckpointError(f"{path}: {name} holds a value below 0")
        offset += a.size


def save_checkpoint(path, network: Network, metadata=None) -> None:
    """Write atomically (see `atomic.write_atomic`). Metadata must be
    strict JSON, and a network whose values break the payload rule, a
    float64 value beyond float32's range included, is refused before
    anything is written."""
    tensors = network.state_tensors()
    header = json.dumps(_header(tensors, metadata), sort_keys=True,
                        allow_nan=False).encode("utf-8")
    with np.errstate(over="ignore"):  # beyond float32's range is infinite, and refused
        values = np.concatenate([np.ravel(a).astype("<f4") for _, a in tensors])
    _check_payload(values, tensors, path)
    write_atomic(path, MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header
                 + values.tobytes())


def _parse(data: bytes, path) -> tuple:
    """(header, payload bytes) of a checkpoint file's contents; validates
    everything before the payload."""
    if len(data) < 12 or data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a weight checkpoint")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    raw = data[12 : 12 + header_len]
    if len(raw) < header_len:
        raise CheckpointError(f"{path}: header cut short")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    return header, data[12 + header_len :]


def load_checkpoint(path, network: Network) -> dict:
    """Load weights into `network` in place; returns header metadata.

    The file is read once. Its architecture descriptor, input shape,
    class names and tensor list must match what `save_checkpoint` writes
    for this network, and the payload must keep the rule save keeps (see
    `_check_payload`); on any failure the network is left as it was.
    """
    header, payload = _parse(Path(path).read_bytes(), path)
    tensors = network.state_tensors()
    expected = _header(tensors, None)
    for key in ("arch", "input_shape", "class_names", "tensors"):
        if header.get(key) != expected[key]:
            raise CheckpointError(f"{path}: {key} differs from this network")
    count = sum(a.size for _, a in tensors)
    if len(payload) != 4 * count:
        raise CheckpointError(f"{path}: payload holds {len(payload) // 4} floats, expected {count}")
    values = np.frombuffer(payload, dtype="<f4")
    _check_payload(values, tensors, path)
    offset = 0
    for _, a in tensors:
        a[...] = values[offset : offset + a.size].reshape(a.shape)
        offset += a.size
    network.mark_mutated()
    return header.get("metadata", {})
