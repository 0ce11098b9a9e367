"""ROADMAP item 1(a): the obituary nobody believes, as a named test.

The sequence below was found by ``test_stateful_fuzz.py`` and lived only
in an untracked ``.hypothesis/examples`` directory.  Node 23357 changes
its attached info (every holder records ``last_event_seq = 1`` for it,
its own row keeps 0), a joiner downloads that self-row from it, becomes
its ring predecessor, detects its crash and announces a LEAVE with
``seq = 0 + 1`` — which every other live node drops as already seen.

Strict xfail: the fix (ROADMAP item 1(b)) moves seq numbers in spans and
regenerates ``BENCH_health.json``; the PR that lands it deletes the
marker, and cannot forget to, because an unexpected pass fails tier-1.
"""

import pytest

from tests.integration.test_stateful_fuzz import PeerWindowMachine


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a failure-detection LEAVE whose seq the "
           "detector under-counted is dropped as stale (stale pointers at "
           "4: {23357})",
)
def test_obituary_with_undercounted_seq_is_still_believed():
    machine = PeerWindowMachine()
    machine.setup(seed=0)
    machine.crash(0)
    machine.crash(0)
    machine.info_change(3, 0)
    machine.join(3)
    machine.crash(0)
    machine.crash(0)
    machine.crash(1)
    machine.teardown()
