"""Exception types raised across the package. Each base class declares the
CLI's exit code for it and the label its stderr line starts with."""


class VoicehandError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    label = "data error"


class UsageError(VoicehandError):
    """Bad command-line flags or config file."""

    exit_code = 1
    label = "usage error"


# --- WAV decoding ---

class NotRiff(VoicehandError):
    """Input bytes are not a RIFF/WAVE container."""


class UnsupportedEncoding(VoicehandError):
    """WAV is not 16-bit integer PCM."""


class UnsupportedChannels(VoicehandError):
    """WAV is not single-channel."""


class UnsupportedSampleRate(VoicehandError):
    """WAV is not sampled at 16 kHz."""


# --- dataset indexing ---

class MissingSplitLists(VoicehandError):
    """validation_list.txt or testing_list.txt is absent from the dataset root."""


class EmptyDataset(VoicehandError):
    """No labeled WAV files were found under the dataset root."""


class EmptyNoisePool(VoicehandError):
    """Noise mixing requested with a positive gain but no noise clips available."""


# --- features / network ---

class BadWindowLength(VoicehandError):
    """Sample window is not exactly one second of 16 kHz audio."""


class ShapeMismatch(VoicehandError):
    """Tensor shape does not match what a layer or operation expects."""


class EmptyBatch(VoicehandError):
    """Train-mode operation received a batch with no examples."""


class StaleTrace(VoicehandError):
    """Backward pass attempted with a trace recorded before the network was mutated."""


# --- training / evaluation ---

class EmptyTrainingSplit(VoicehandError):
    """Training requested on an index whose train split is empty."""


class EmptySplit(VoicehandError):
    """Evaluation requested on an empty split."""


# --- actuator command encoding ---

class DuplicateChannel(VoicehandError):
    """Two fingers mapped to the same DAC channel."""


class ChannelOutOfRange(VoicehandError):
    """DAC channel outside 0..7."""


class CodeOutOfRange(VoicehandError):
    """DAC code outside 0..65535."""


# --- checkpoint files ---

class CheckpointError(VoicehandError):
    """Base class for a weight checkpoint that cannot be loaded."""

    exit_code = 3
    label = "checkpoint error"


class BadMagic(CheckpointError):
    """Checkpoint file does not start with the expected magic bytes."""


class UnsupportedVersion(CheckpointError):
    """Checkpoint format version is not supported."""


class SpecMismatch(CheckpointError):
    """Checkpoint header describes a different network architecture."""


class TruncatedPayload(CheckpointError):
    """Checkpoint parameter payload is shorter than the header promises."""


class NonFinitePayload(CheckpointError):
    """Checkpoint parameter payload holds a NaN or infinite value."""


class NegativeVariance(CheckpointError):
    """Checkpoint payload holds a batch-norm moving variance below 0."""


class NonFiniteOutput(CheckpointError):
    """Inference output holds a NaN or infinite value: the weights load
    but overflow."""
