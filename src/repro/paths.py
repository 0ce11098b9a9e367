"""Shared output-path preparation for every report-writing command.

The ``repro obs``/``repro chaos`` span and metrics writers in
:mod:`repro.obs.export` and the ``repro lint --report`` writer route
destination paths through :func:`prepare_output_path` so a bad
``--csv``/``--spans``/``--report`` destination fails up front with an
actionable message instead of a bare ``FileNotFoundError`` deep inside
``open``.
"""

from __future__ import annotations

import os


def prepare_output_path(path: str, what: str = "output") -> str:
    """Make ``path`` writable: create parent dirs, verify access.

    Raises :class:`OSError` with an actionable message (which path, what
    failed) rather than letting ``open`` raise a bare
    ``FileNotFoundError``/``PermissionError`` later.
    """
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        raise OSError(
            f"cannot create directory {parent!r} for {what} file {path!r}: "
            f"{exc.strerror or exc}"
        ) from exc
    if os.path.isdir(path):
        raise OSError(f"{what} path {path!r} is a directory, not a file")
    probe = path if os.path.exists(path) else parent
    if not os.access(probe, os.W_OK):
        raise OSError(f"{what} path {path!r} is not writable")
    return path
