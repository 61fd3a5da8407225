"""tools/output_digests.py --diff: its exit status, on stubbed digest runs."""

import importlib.util
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class _InlinePool:
    """A stand-in for the process pool that runs each call at once."""

    def __init__(self, **_):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *_):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("other, status", [
    (["figure 1b trace.csv 00aa", "noise a exit=1"], 0),
    (["figure 1b trace.csv 00aa", "noise a exit=2"], 1),
    (["figure 1b trace.csv 00aa"], 1)])
def test_diff_exits_1_when_a_line_differs(monkeypatch, capsys, other,
                                          status):
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    this = ["figure 1b trace.csv 00aa", "noise a exit=1"]
    monkeypatch.setattr(tool, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(tool, "digests", lambda src, work: (
        this if src.name == "this" else other))
    monkeypatch.setattr(sys, "argv", ["output_digests.py", "--src", "this",
                                      "--diff", "other"])
    assert tool.main() == status
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"{status} of 2 lines differ")
