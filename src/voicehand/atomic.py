"""Atomic file writes: the bytes go to a temporary file next to the
target, which then replaces it, so a write that fails part-way leaves an
earlier file at the path as it was and no temporary file behind. An
OSError names the target path, not the temporary file."""

import contextlib
import os


def write_atomic(path, data: bytes) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, os.fspath(path)) from e
        raise
