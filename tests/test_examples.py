"""Smoke tests for the runnable examples.

The fastest examples run end-to-end in a subprocess; the rest are
compile-checked so a refactor cannot silently break them (the full
scripts run in the benchmark stage of CI, not here).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert {
        "quickstart.py",
        "college_ranking.py",
        "house_search.py",
        "multiview_tuning.py",
        "robustness_study.py",
    } <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_examples_compile(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "name", ["quickstart.py", "house_search.py", "dynamic_updates.py"]
)
def test_example_runs(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
