"""The engine against a model: every public scheduling operation driven
by hypothesis next to a naive reference — a list of entries sorted by
``(time, seq)`` on demand, minus the cancelled ones."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.engine import Simulator

# Few distinct values, so equal-time ties and cancels of queued-behind
# events are the common case, not the rare one.
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0])


class Entry:
    def __init__(self, time, seq, chain):
        self.time, self.seq, self.chain = time, seq, chain
        self.state = "pending"


class Model:
    """What the engine must do, written the slow way."""

    def __init__(self):
        self.now = 0.0
        self.entries = {}  # seq -> Entry; an event's seq is also its label
        self.log = []

    def add(self, time, chain=None):
        seq = len(self.entries)
        self.entries[seq] = Entry(time, seq, chain)
        return seq

    def head(self):
        pending = [e for e in self.entries.values() if e.state == "pending"]
        return min(pending, key=lambda e: (e.time, e.seq), default=None)

    def cancel(self, label):
        entry = self.entries[label]
        if entry.state == "pending":
            entry.state = "cancelled"

    def step(self):
        entry = self.head()
        if entry is None:
            return False
        self.now = entry.time
        entry.state = "done"
        self.log.append(entry.seq)
        if entry.chain is not None:
            # A callback that cancels a later event and schedules a new
            # one at its own timestamp.
            self.cancel(entry.chain)
            self.add(self.now)
        return True

    def run(self, until):
        while (entry := self.head()) is not None and entry.time <= until:
            self.step()
        self.now = until


class EngineVsModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.model = Model()
        self.handles = {}  # label -> EventHandle
        self.log = []

    # -- the operations ----------------------------------------------------

    def _fire_chain(self, label, victim):
        self.log.append(label)
        self.handles[victim].cancel()
        new = len(self.handles)
        self.handles[new] = self.sim.schedule_at(self.sim.now, self.log.append, new)

    @rule(delay=DELAYS)
    def schedule(self, delay):
        label = self.model.add(self.model.now + delay)
        self.handles[label] = self.sim.schedule(delay, self.log.append, label)

    @rule(delay=DELAYS)
    def schedule_at(self, delay):
        time = self.model.now + delay
        label = self.model.add(time)
        self.handles[label] = self.sim.schedule_at(time, self.log.append, label)

    @precondition(lambda self: self.handles)
    @rule(delay=DELAYS, data=st.data())
    def schedule_chain(self, delay, data):
        victim = data.draw(st.sampled_from(sorted(self.handles)))
        label = self.model.add(self.model.now + delay, chain=victim)
        self.handles[label] = self.sim.schedule(delay, self._fire_chain, label, victim)

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        # Any handle ever issued: pending, fired or already cancelled.
        label = data.draw(st.sampled_from(sorted(self.handles)))
        self.model.cancel(label)
        self.handles[label].cancel()

    @rule()
    def step(self):
        assert self.sim.step() == self.model.step()

    @rule(ahead=DELAYS)
    def run_until(self, ahead):
        until = self.model.now + ahead
        self.model.run(until)
        assert self.sim.run(until=until) == until

    # -- what must agree after every one of them ------------------------------

    @invariant()
    def same_history(self):
        assert self.log == self.model.log
        assert self.sim.events_executed == len(self.model.log)
        assert self.sim.now == self.model.now

    @invariant()
    def same_head(self):
        head = self.model.head()
        assert self.sim.peek() == (None if head is None else head.time)

    @invariant()
    def same_handle_states(self):
        assert len(self.handles) == len(self.model.entries)
        live = 0
        for label, entry in self.model.entries.items():
            handle = self.handles[label]
            assert handle.active == (entry.state == "pending")
            assert handle.done == (entry.state == "done")
            live += handle.active
        assert len(self.sim) >= live  # cancelled entries may still be queued


TestEngineVsModel = EngineVsModel.TestCase
TestEngineVsModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
