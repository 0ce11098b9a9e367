"""Upper applications (§3): what peer lists are *for*.

* :mod:`~repro.apps.guess` — GUESS [19] non-forwarding search: answer
  queries from the local peer list, whose pointers carry each peer's
  shared-file count in ``attached_info``; the hit rate grows with list
  size.
"""

from repro.apps.guess import GuessSearch

__all__ = ["GuessSearch"]
