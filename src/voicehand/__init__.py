"""voicehand: speech-command recognition driving a prosthetic hand.

Raw 16 kHz WAV in, 9-way word decision out, finger trajectories and
16-bit DAC command frames at the end. Everything between the audio and
the bytes (spectrogram, network, training) is implemented here on plain
numpy.
"""

from .adam import Adam
from .audio import PCM_SCALE, WINDOW_SAMPLES, NoisePool, mix_noise, to_window
from .checkpoint import load_checkpoint, read_header, save_checkpoint
from .commands import (
    DacFrame,
    Decision,
    StreamConfig,
    classify_window,
    decide,
    encode_dac_frames,
    frames_for,
    recognize_clip,
    stream_decode,
    trajectory_to_codes,
)
from .dataset import DatasetIndex, Entry, index_dataset, subsample_unknown
from .errors import VoicehandError
from .features import (
    FEATURE_SHAPE,
    HANN_WINDOW,
    HOP,
    SEGMENT_LENGTH,
    compute_features,
    log_compress,
    stft_power,
)
from .gestures import (
    CLASS_NAMES,
    FINGERS,
    KNOWN_WORDS,
    FingerTrajectory,
    GestureClass,
    GestureTable,
    lookup_trajectory,
)
from .gradcheck import gradient_check
from .network import (
    ARCH,
    INPUT_SHAPE,
    REFERENCE_LAYER_PARAMS,
    REFERENCE_NON_TRAINABLE,
    REFERENCE_TRAINABLE,
    Network,
    build_network,
    count_params,
    layer_table,
)
from .rng import substream
from .synth import TONE_FREQS, tone_samples, write_tone_dataset
from .train import ClipStore, EpochReport, TrainConfig, cross_entropy, evaluate, fit, one_hot, train_epoch
from .wav import SAMPLE_RATE, AudioClip, decode_wav, read_wav, write_wav

__version__ = "0.1.0"
