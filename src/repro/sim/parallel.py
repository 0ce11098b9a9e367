"""Conservative parallel discrete-event execution (the ONSP model).

ONSP [17] partitioned the simulated overlay across MPI ranks and
synchronized with parallel discrete-event techniques.  This module
reproduces that execution model on a single host:

* The model is partitioned into :class:`LogicalProcess` instances (LPs),
  each owning a private :class:`~repro.sim.engine.Simulator`.
* Cross-LP interactions are *messages* with a mandatory minimum latency —
  the **lookahead** — exactly like ONSP's network-latency lookahead over
  Myrinet links.
* Execution proceeds in *epochs* of length ``lookahead``: within one
  epoch, no message sent by any LP can affect another LP (its delivery
  time falls in a later epoch), so all LPs can safely run an epoch
  independently.  This is the classic conservative window / bounded-lag
  scheme, the same safety argument as null-message (Chandy–Misra–Bryant)
  protocols with uniform lookahead.

Each epoch runs the LPs one after another in rank order, which is fully
deterministic.  What this engine is for is *correctness*, not speed: it is
a determinism and LP-isolation oracle.  A fixed-seed partitioned run must
be bit-for-bit the sequential run — the property parallel DES has to
preserve, and the one the test suite verifies — so any state one LP can
see of another outside the message fabric shows up as a divergence (it
found the shared-``Pointer`` and the boundary-settlement bugs).  In CPython
partitioning is not a speed-up: the ledger's ``sim.parallel.lp2_wall_ratio``
— two LPs against one queue on the same ring — reads about 1 (single
readings scatter 0.85–1.3; 1.25 is the one ISSUE 14 quotes), and a thread
pool on top measured 1.35× the sequential wall time under the GIL, so
there is none.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.sim.engine import SimulationError, Simulator


class LogicalProcess:
    """One partition of the model, owning a private event queue."""

    def __init__(self, rank: int, parallel: "ParallelSimulator"):
        self.rank = rank
        self.parallel = parallel
        self.sim = Simulator()
        # Messages produced this epoch, to be exchanged at the barrier:
        # (dest_rank, deliver_time, handler, args)
        self._outbox: List[Tuple[int, float, Callable, tuple]] = []
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule_local(self, delay: float, callback: Callable, *args: Any):
        """Schedule an intra-LP event; no lookahead constraint."""
        return self.sim.schedule(delay, callback, *args)

    def send(self, dest_rank: int, latency: float, handler: Callable, *args: Any) -> None:
        """Send a cross-LP message.

        ``latency`` must be at least the configured lookahead — this is the
        conservative-synchronization contract; violating it would allow a
        message to arrive inside the current safe window.
        """
        if dest_rank == self.rank:
            self.schedule_local(latency, handler, *args)
            return
        if latency < self.parallel.lookahead:
            raise SimulationError(
                f"cross-LP latency {latency} below lookahead "
                f"{self.parallel.lookahead}"
            )
        self._outbox.append((dest_rank, self.sim.now + latency, handler, args))
        self.messages_sent += 1

    def _run_epoch(self, until: float) -> None:
        self.sim.run(until=until)

    def _drain_outbox(self) -> List[Tuple[int, float, Callable, tuple]]:
        out, self._outbox = self._outbox, []
        return out


class ParallelSimulator:
    """Epoch-barrier conservative parallel simulator.

    Parameters
    ----------
    nranks:
        Number of logical processes.
    lookahead:
        Minimum cross-LP message latency, in simulated seconds.  Epoch
        length equals the lookahead.
    """

    def __init__(self, nranks: int, lookahead: float):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if lookahead <= 0:
            raise ValueError("lookahead must be > 0")
        self.lookahead = float(lookahead)
        self.lps = [LogicalProcess(rank, self) for rank in range(nranks)]
        self._now = 0.0
        self.epochs_run = 0

    @property
    def nranks(self) -> int:
        return len(self.lps)

    @property
    def now(self) -> float:
        return self._now

    def lp(self, rank: int) -> LogicalProcess:
        return self.lps[rank]

    def lp_for(self, key: int) -> LogicalProcess:
        """Deterministic partitioning helper: key → LP by modulo."""
        return self.lps[key % len(self.lps)]

    def run(self, until: float) -> float:
        """Run all LPs to simulated time ``until`` in lookahead-wide epochs."""
        if until < self._now:
            raise SimulationError("cannot run backwards")
        while self._now < until:
            epoch_end = min(self._now + self.lookahead, until)
            for lp in self.lps:
                lp._run_epoch(epoch_end)
            # Barrier: exchange cross-LP messages.  Deterministic order:
            # by source rank, then send order (outbox is FIFO).
            for src in self.lps:
                for dest_rank, t, handler, args in src._drain_outbox():
                    dest = self.lps[dest_rank]
                    dest.messages_received += 1
                    dest.sim.schedule_at(max(t, epoch_end), handler, *args)
            self._now = epoch_end
            self.epochs_run += 1
        # Boundary settlement: cross-LP deliveries landing exactly at
        # `until` were scheduled during the final barrier above and
        # would otherwise only execute on the *next* run() call.  The
        # sequential engine runs events at exactly t == until within
        # the same call, and windowed telemetry strides
        # (repro.obs.stream) rely on both engines agreeing on which
        # stride a boundary event belongs to.  Any sends these events
        # produce land at least one lookahead past `until`, so a
        # single extra pass settles the boundary.
        for lp in self.lps:
            lp._run_epoch(until)
        for src in self.lps:
            for dest_rank, t, handler, args in src._drain_outbox():
                dest = self.lps[dest_rank]
                dest.messages_received += 1
                dest.sim.schedule_at(max(t, until), handler, *args)
        return self._now

    def total_messages(self) -> Dict[str, int]:
        return {
            "sent": sum(lp.messages_sent for lp in self.lps),
            "received": sum(lp.messages_received for lp in self.lps),
        }
