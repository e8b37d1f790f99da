"""The package's declared surface: one error class per exit code, the
names the package root exports, and the benchmark script that imports
from the root."""

import importlib
import inspect
import sys
from pathlib import Path
from types import ModuleType

import voicehand
import voicehand.errors as errors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_errors_declares_one_class_per_exit_code():
    classes = {name: (cls.exit_code, cls.label)
               for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, BaseException)}
    assert classes == {
        "VoicehandError": (2, "data error"),
        "UsageError": (1, "usage error"),
        "CheckpointError": (3, "checkpoint error"),
    }


def test_package_root_exports_what_readme_lists():
    names = {name for name, value in vars(voicehand).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == {"build_network", "evaluate", "index_dataset", "write_tone_dataset",
                     "SEGMENT_LENGTH", "HOP", "HANN_WINDOW", "FEATURE_SHAPE"}


def test_benchmark_checkpoint_script_imports(monkeypatch):
    # its main() trains only when run as a script
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "make_checkpoint", raising=False)
    module = importlib.import_module("make_checkpoint")
    assert callable(module.main)
