"""Shared benchmark fixtures: a cross-test result store and file output.

Every Figure 9 panel's series table and shape-claim report is printed to
stdout (``-s`` is set in ``pytest.ini``) and saved under
``benchmarks/results/`` so EXPERIMENTS.md can reference a stable artifact.
The end-to-end numbers the repository tracks come from
``benchmarks/cycle/run.py``, not from these panels.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_store() -> dict:
    """Session-wide storage so later panels can run cross-panel checks
    (e.g. refresh cost: update- vs insertion-generating)."""
    return {}


@pytest.fixture(scope="session")
def save_result():
    """Persist a named report under benchmarks/results/ (atomically, so an
    interrupted run never leaves a truncated artifact)."""
    from repro.io.atomic import atomic_write_text

    RESULTS_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> pathlib.Path:
        return atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")

    return save

