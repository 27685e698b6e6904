"""Atomic file replacement: a write lands whole or not at all."""

import pytest

from repro.io import atomic
from repro.io.atomic import atomic_write_text


class TestAtomicWrites:
    def test_write_replaces_contents(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        result = atomic_write_text(target, "new")
        assert result == target
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_preserves_previous_contents(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("previous")

        def broken_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(atomic.os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk on fire"):
            atomic_write_text(target, "partial")
        assert target.read_text() == "previous"
        # The temp file was cleaned up rather than stranded.
        assert list(tmp_path.iterdir()) == [target]
