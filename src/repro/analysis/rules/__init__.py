"""The detlint rule pack.  Importing this package registers every rule
with :mod:`repro.analysis.core`'s registry; add a new module here (and
import it below) to ship a new rule."""

from repro.analysis.rules import determinism, isolation, wire

__all__ = ["determinism", "isolation", "wire"]
