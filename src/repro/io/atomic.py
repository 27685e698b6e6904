"""Atomic file replacement, the one way this package writes a file.

A leaf module: it imports nothing from :mod:`repro`, so modules below
:mod:`repro.io` (``obs``, ``cli``) can use it without pulling in
:mod:`repro.io.persist`.
"""

from __future__ import annotations

import os
import pathlib
import tempfile


def atomic_write_text(path: pathlib.Path | str, text: str) -> pathlib.Path:
    """Write *text* to *path* atomically (tempfile + ``os.replace``).

    A reader — or a crashed writer — can then never observe a truncated or
    half-written file: the content appears in one rename.  The temporary
    file lives in the target's directory so the replace stays on one
    filesystem.
    """
    target = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent or pathlib.Path("."),
        prefix=target.name + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target
