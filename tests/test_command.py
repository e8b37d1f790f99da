"""Class decision to finger trajectory to DAC wire bytes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicehand import commands
from voicehand.commands import (
    CMD_WRITE_UPDATE,
    DacFrame,
    decide,
    encode_dac_frames,
    frames_for,
    recognize_clip,
    trajectory_to_codes,
)
from voicehand.errors import ChannelOutOfRange, CodeOutOfRange, DuplicateChannel
from voicehand.gestures import (
    DEFAULT_GESTURES,
    FINGERS,
    FingerTrajectory,
    GestureClass,
    GestureTable,
    lookup_trajectory,
)
from voicehand.wav import AudioClip


def test_default_gesture_rows():
    rows = GestureTable.default().rows
    assert rows["two"].as_tuple() == (1.0, 0.0, 0.0, 1.0, 1.0)
    assert rows["five"].as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert rows["zero"].as_tuple() == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert rows["on"] == rows["five"]
    assert rows["off"] == rows["zero"]
    assert set(rows) == {"zero", "one", "two", "three", "four", "five", "on", "off"}


def test_trajectory_validation():
    with pytest.raises(ValueError):
        FingerTrajectory(1.5, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        FingerTrajectory(-0.1, 0, 0, 0, 0)


def test_lookup_unknown_returns_none():
    table = GestureTable.default()
    assert lookup_trajectory(table, GestureClass.UNKNOWN) is None
    assert lookup_trajectory(table, GestureClass.TWO).as_tuple() == (1.0, 0.0, 0.0, 1.0, 1.0)


def test_full_scale_codes():
    codes = trajectory_to_codes(FingerTrajectory(1.0, 0.0, 0.0, 1.0, 1.0))
    assert codes == (65535, 0, 0, 65535, 65535)


def test_codes_round_half_up():
    # 0.5 * 0.25 * 65535 = 8191.875, which must round up to 8192
    codes = trajectory_to_codes(FingerTrajectory(0.5, 0, 0, 0, 0),
                                max_fraction=(0.25,) * 8)
    assert codes[0] == 8192
    assert codes[1:] == (0, 0, 0, 0)


def test_max_fraction_indexed_by_channel_not_finger():
    # remap thumb to channel 5; its cap must come from slot 5
    channel_map = {"thumb": 5, "index": 1, "middle": 2, "ring": 3, "little": 4}
    max_fraction = (0.1, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0)
    codes = trajectory_to_codes(FingerTrajectory(1.0, 0, 0, 0, 0),
                                max_fraction=max_fraction, channel_map=channel_map)
    assert codes[0] == int(0.5 * 65535 + 0.5)


def test_dac_frame_bytes():
    frame = DacFrame(channel=3, code=0xABCD)
    assert frame.as_bytes() == bytes([0x33, 0xAB, 0xCD])


def test_known_word_frame_bytes_exact():
    table = GestureTable.default()
    trajectory = lookup_trajectory(table, GestureClass.TWO)
    frames = frames_for(trajectory, table)
    assert [list(f.as_bytes()) for f in frames] == [
        [48, 255, 255],
        [49, 0, 0],
        [50, 0, 0],
        [51, 255, 255],
        [52, 255, 255],
    ]


def test_command_byte_packs_opcode_and_channel():
    frames = encode_dac_frames((0, 0, 0, 0, 0))
    assert [f.as_bytes()[0] for f in frames] == [0x30, 0x31, 0x32, 0x33, 0x34]
    assert CMD_WRITE_UPDATE == 0x30


def test_custom_channel_map_changes_wire_order():
    channel_map = {"thumb": 7, "index": 1, "middle": 2, "ring": 3, "little": 4}
    frames = encode_dac_frames((100, 200, 300, 400, 500), channel_map)
    by_channel = {f.channel: f.code for f in frames}
    assert by_channel[7] == 100
    assert by_channel[1] == 200
    assert all(f.as_bytes()[0] == 0x30 | f.channel for f in frames)


def test_channel_validation():
    with pytest.raises(ChannelOutOfRange):
        encode_dac_frames((0,) * 5, {"thumb": 8, "index": 1, "middle": 2,
                                     "ring": 3, "little": 4})
    with pytest.raises(DuplicateChannel):
        encode_dac_frames((0,) * 5, {"thumb": 1, "index": 1, "middle": 2,
                                     "ring": 3, "little": 4})
    with pytest.raises(CodeOutOfRange):
        encode_dac_frames((70000, 0, 0, 0, 0))


def test_unknown_produces_no_frames():
    table = GestureTable.default()
    assert frames_for(None, table) == ()


def test_decide_known_and_unknown():
    table = GestureTable.default()
    probs = np.zeros(9)
    probs[int(GestureClass.TWO)] = 0.9
    probs[int(GestureClass.UNKNOWN)] = 0.1
    decision = decide(probs, table)
    assert decision.gesture == GestureClass.TWO
    assert np.isclose(decision.prob, 0.9)
    assert len(decision.frames) == 5

    probs = np.zeros(9)
    probs[int(GestureClass.UNKNOWN)] = 1.0
    held = decide(probs, table)
    assert held.gesture == GestureClass.UNKNOWN
    assert held.trajectory is None
    assert held.frames == ()


def test_decision_json_shape():
    table = GestureTable.default()
    probs = np.zeros(9)
    probs[int(GestureClass.TWO)] = 1.0
    doc = json.loads(decide(probs, table, t_ms=1500).to_json())
    assert doc["t_ms"] == 1500
    assert doc["class"] == "two"
    assert doc["prob"] == 1.0
    assert doc["trajectory"] == [1.0, 0.0, 0.0, 1.0, 1.0]
    assert doc["frames"] == [[48, 255, 255], [49, 0, 0], [50, 0, 0],
                             [51, 255, 255], [52, 255, 255]]

    no_time = json.loads(decide(probs, table).to_json())
    assert "t_ms" not in no_time
    assert no_time["accepted"] is True


def test_decide_below_the_threshold_holds_the_pose():
    table = GestureTable.default()
    probs = np.zeros(9)
    probs[int(GestureClass.TWO)] = 0.7
    probs[int(GestureClass.UNKNOWN)] = 0.3
    assert decide(probs, table, 0.7).frames == frames_for(table.rows["two"], table)
    held = decide(probs, table, np.nextafter(0.7, 1.0), t_ms=1500)
    assert (held.gesture, held.prob, held.t_ms) == (GestureClass.TWO, 0.7, 1500)
    assert held.trajectory is None
    assert held.frames == ()
    assert not held.accepted
    assert json.loads(decide(probs, table, 0.8).to_json()) == {
        "class": "two", "prob": 0.7, "accepted": False, "trajectory": None, "frames": []}


@pytest.mark.parametrize("gesture, prob, threshold, accepted", [
    (GestureClass.TWO, 0.6, 0.7, False),  # a known word below the threshold
    (GestureClass.UNKNOWN, 0.9, 0.0, False),  # unknown, whatever the threshold
    (GestureClass.TWO, 0.7, 0.7, True),  # a known word at the threshold
])
def test_recognize_clip_sends_frames_only_when_accepted(monkeypatch, gesture, prob, threshold,
                                                        accepted):
    probs = np.full(9, (1.0 - prob) / 8)
    probs[int(gesture)] = prob
    monkeypatch.setattr(commands, "classify_window", lambda network, window: probs)
    table = GestureTable.default()
    decision = recognize_clip(None, AudioClip(np.zeros(16000, dtype=np.int16)), table, threshold)
    assert decision.gesture == gesture
    assert decision.accepted is accepted
    if accepted:
        assert decision.trajectory == table.rows[gesture.word]
        assert len(decision.frames) == 5
    else:
        assert decision.trajectory is None
        assert decision.frames == ()


def test_gesture_table_json_round_trip(tmp_path):
    table = GestureTable.default()
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "gestures": {w: list(t.as_tuple()) for w, t in table.rows.items()},
        "max_fraction": list(table.max_fraction),
        "channels": table.channel_map,
    }))
    back = GestureTable.load(path)
    assert back.rows == table.rows
    assert back.max_fraction == table.max_fraction
    assert back.channel_map == table.channel_map


def test_gesture_table_rejects_bad_fraction():
    rows = GestureTable.default().rows
    with pytest.raises(ValueError):
        GestureTable(rows=rows, max_fraction=(0.0,) * 8)
    with pytest.raises(ValueError):
        GestureTable(rows=rows, max_fraction=(1.5,) * 8)
    with pytest.raises(ValueError):
        GestureTable(rows={"zero": rows["zero"]})


def test_fingers_order_is_thumb_first():
    assert FINGERS == ("thumb", "index", "middle", "ring", "little")


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_codes_monotone_in_value(a, b):
    lo, hi = sorted((a, b))
    code_lo = trajectory_to_codes(FingerTrajectory(lo, 0, 0, 0, 0))[0]
    code_hi = trajectory_to_codes(FingerTrajectory(hi, 0, 0, 0, 0))[0]
    assert code_lo <= code_hi
    assert 0 <= code_lo <= 65535 and 0 <= code_hi <= 65535
