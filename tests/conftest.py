"""Tests that start `python -m parset` in a child process get the parset
that the tests import, also when it is not installed (pytest puts src/ on
the test process's sys.path only)."""

import os
from pathlib import Path

import parset

_SRC = str(Path(parset.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
