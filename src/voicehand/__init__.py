"""voicehand: speech-command recognition driving a prosthetic hand.

Raw 16 kHz WAV in, 9-way word decision out, finger trajectories and
16-bit DAC command frames at the end. Everything between the audio and
the bytes (spectrogram, network, training) is implemented here on plain
numpy.
"""

from .dataset import index_dataset
from .features import FEATURE_SHAPE, HANN_WINDOW, HOP, SEGMENT_LENGTH
from .network import build_network
from .synth import write_tone_dataset
from .train import evaluate

__version__ = "0.1.0"
