"""Golden CLI output: stdout of fixed configs, byte for byte.

Each case names a file under ``tests/golden/`` holding the expected stdout.
The cases cover the formats that the benchmark digests leave out: trace in
all three formats over every text strategy, identify in all three formats,
theorems in jsonl and pretty, and ``list``. To re-record every file after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from limitlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_TRACES = {
    "memorizer-canonical": (
        {},
        ("--scientist", "memorizer", "--language", "{1,2,3}",
         "--strategy", "canonical", "--horizon", "10"),
    ),
    "annotator-padded": (
        {},
        ("--scientist", "confidence_annotating:memorizer:3", "--language", "{2,5}",
         "--strategy", "padded:0.25", "--seed", "7", "--horizon", "16"),
    ),
    "set-driven-window": (
        {},
        ("--scientist", "set_driven:last_novel", "--language", "odds",
         "--strategy", "shuffled-window:3", "--seed", "5", "--horizon", "14"),
    ),
    "set-driven-long": (
        {},
        ("--scientist", "set_driven:last_novel", "--language", "evens",
         "--strategy", "shuffled-window:8", "--horizon", "128"),
    ),
    "visionary-repetition": (
        {},
        ("--scientist", "dumb_visionary:evens", "--language", "evens",
         "--strategy", "repetition-heavy:0.5", "--seed", "9", "--horizon", "12"),
    ),
    "letters-last-novel": (
        {"universe": "letters", "strategy": {"name": "padded", "pause_density": 0.5}},
        ("--scientist", "last_novel", "--language", "{b,d,f}",
         "--seed", "3", "--horizon", "12"),
    ),
}

_IDENTIFY_CONFIG = {
    "scientist": "memorizer",
    "languages": ["{}", "{2}", "{1,3}", "evens"],
    "strategies": [
        "canonical",
        "padded:0.25",
        {"name": "padded", "pause_density": 0},
        {"name": "shuffled-window", "window": 2},
        "repetition-heavy:0.5",
    ],
    "seeds": [0, 4],
    "horizon": 12,
}

# name -> (config file contents or None, argv)
CASES: dict[str, tuple[dict | None, tuple[str, ...]]] = {}
for _name, (_config, _argv) in _TRACES.items():
    for _fmt in ("jsonl", "csv", "pretty"):
        CASES[f"trace-{_name}.{_fmt}"] = (_config or None, ("trace", *_argv, "--format", _fmt))
for _fmt in ("jsonl", "csv", "pretty"):
    CASES[f"identify.{_fmt}"] = (_IDENTIFY_CONFIG, ("identify", "--format", _fmt))
for _fmt in ("jsonl", "pretty"):
    CASES[f"theorems.{_fmt}"] = (None, ("theorems", "--trials", "300", "--format", _fmt))
CASES["list.pretty"] = (None, ("list",))


def _argv(name: str, tmp_dir: Path) -> list[str]:
    config, argv = CASES[name]
    if config is None:
        return list(argv)
    path = tmp_dir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return [argv[0], "--config", str(path), *argv[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(tmp_path, capsys, name):
    code = main(_argv(name, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(_argv(name, Path(tmp)))
            if code != 0:
                raise SystemExit(f"{name}: exit {code}")
            (GOLDEN / f"{name}.txt").write_text(out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    _record()
