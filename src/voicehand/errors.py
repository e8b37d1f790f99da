"""The package's three error classes, one per CLI exit code. Each declares
its exit code and the label its stderr line starts with; the message
names the check that failed."""


class VoicehandError(Exception):
    """Data the engine cannot use: unreadable audio or dataset, a bad
    gesture table or DAC wiring, a tensor or trace a layer cannot take.
    Base class of the other two."""

    exit_code = 2
    label = "data error"


class UsageError(VoicehandError):
    """Bad command-line flags or config file."""

    exit_code = 1
    label = "usage error"


class CheckpointError(VoicehandError):
    """A weight checkpoint that cannot be loaded or saved, or weights that
    load but whose network output is not finite."""

    exit_code = 3
    label = "checkpoint error"
