"""Gesture classes and the word-to-finger-trajectory lookup table.

Contraction semantics: 0 = full relaxation (no actuator heating),
1 = full contraction. Only the row for "two" is fixed by the control
convention; the rest of the default table follows the same counting
pattern and can be overridden from a JSON file.
"""

import enum
import json
from dataclasses import dataclass
from pathlib import Path

KNOWN_WORDS = ("zero", "one", "two", "three", "four", "five", "on", "off")
CLASS_NAMES = KNOWN_WORDS + ("unknown",)
FINGERS = ("thumb", "index", "middle", "ring", "little")


class GestureClass(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    THREE = 3
    FOUR = 4
    FIVE = 5
    ON = 6
    OFF = 7
    UNKNOWN = 8

    @property
    def word(self) -> str:
        return CLASS_NAMES[self]

    @classmethod
    def from_word(cls, word: str) -> "GestureClass":
        if word in KNOWN_WORDS:
            return cls(KNOWN_WORDS.index(word))
        return cls.UNKNOWN


@dataclass(frozen=True)
class FingerTrajectory:
    """Per-finger contraction targets, each in [0, 1]."""

    thumb: float
    index: float
    middle: float
    ring: float
    little: float

    def __post_init__(self):
        for name in FINGERS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} contraction {v} outside [0, 1]")

    def as_tuple(self):
        return (self.thumb, self.index, self.middle, self.ring, self.little)


# Counting poses: a raised finger is relaxed (0), a folded one contracted (1).
# "on" opens the hand, "off" closes it.
DEFAULT_GESTURES = {
    "zero": (1, 1, 1, 1, 1),
    "one": (1, 0, 1, 1, 1),
    "two": (1, 0, 0, 1, 1),
    "three": (1, 0, 0, 0, 1),
    "four": (1, 0, 0, 0, 0),
    "five": (0, 0, 0, 0, 0),
    "on": (0, 0, 0, 0, 0),
    "off": (1, 1, 1, 1, 1),
}

DEFAULT_CHANNEL_MAP = {"thumb": 0, "index": 1, "middle": 2, "ring": 3, "little": 4}


@dataclass(frozen=True)
class GestureTable:
    """Maps each of the 8 known words to a trajectory; unknown has no row.

    Also carries the per-DAC-channel max_fraction used to derive a
    software voltage cap, and the finger-to-channel assignment: each of
    the five fingers on its own channel in 0..7.
    """

    rows: dict
    max_fraction: tuple = (1.0,) * 8
    channel_map: dict = None

    def __post_init__(self):
        if set(self.rows) != set(KNOWN_WORDS):
            raise ValueError(f"gesture table must cover exactly {KNOWN_WORDS}")
        if len(self.max_fraction) != 8 or any(not 0.0 < f <= 1.0 for f in self.max_fraction):
            raise ValueError("max_fraction needs 8 values in (0, 1]")
        if self.channel_map is None:
            object.__setattr__(self, "channel_map", dict(DEFAULT_CHANNEL_MAP))
        if set(self.channel_map) != set(FINGERS):
            raise ValueError(f"channels must map exactly {FINGERS}")
        channels = list(self.channel_map.values())
        if (any(isinstance(c, bool) or not isinstance(c, int) or not 0 <= c <= 7
                for c in channels)
                or len(set(channels)) < len(channels)):
            raise ValueError(f"channels must be distinct ints in 0..7, got {channels}")

    @classmethod
    def default(cls) -> "GestureTable":
        rows = {w: FingerTrajectory(*map(float, v)) for w, v in DEFAULT_GESTURES.items()}
        return cls(rows=rows)

    @classmethod
    def load(cls, path) -> "GestureTable":
        """A table from its JSON file; malformed contents raise ValueError,
        KeyError, TypeError or OverflowError. Trajectories and max_fraction
        are JSON lists of numbers and channels JSON integers; nothing is
        coerced, and a bool is not a number."""
        raw = _json_object(json.loads(Path(path).read_text()), "document")
        gestures = _json_object(raw["gestures"], "gestures")
        channels = _json_object(raw.get("channels", DEFAULT_CHANNEL_MAP), "channels")
        rows = {w: FingerTrajectory(*_numbers(v, f"gesture {w}")) for w, v in gestures.items()}
        max_fraction = _numbers(raw.get("max_fraction", [1.0] * 8), "max_fraction")
        return cls(rows=rows, max_fraction=max_fraction, channel_map=dict(channels))


def _json_object(value, what) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _numbers(value, what) -> tuple:
    """A JSON list of numbers (no bools) as a tuple of floats."""
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
        raise ValueError(f"{what} must be a JSON list of numbers, got {value!r}")
    return tuple(float(v) for v in value)


def lookup_trajectory(table: GestureTable, gesture: GestureClass):
    """Return the trajectory for a known word, or None (no command, hand
    state unchanged) for unknown."""
    if gesture == GestureClass.UNKNOWN:
        return None
    return table.rows[gesture.word]
