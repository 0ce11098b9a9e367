"""Good/bad fixture pairs for the determinism rules."""

from repro.analysis import lint_source

SRC = "src/repro/core/fixture.py"


def rules_fired(src, rel_path=SRC):
    return sorted({f.rule for f in lint_source(src, rel_path=rel_path)})


# -- DET001: wall clock ----------------------------------------------------

def test_det001_flags_time_time():
    assert "DET001" in rules_fired("import time\nt = time.time()\n")


def test_det001_flags_aliased_and_from_imports():
    assert "DET001" in rules_fired(
        "import time as walltime\nt = walltime.perf_counter()\n"
    )
    assert "DET001" in rules_fired(
        "from time import monotonic\nt = monotonic()\n"
    )


def test_det001_flags_datetime_now():
    assert "DET001" in rules_fired(
        "from datetime import datetime\nstamp = datetime.now()\n"
    )


def test_det001_allows_sim_clock_and_exempts_no_engine_module():
    assert rules_fired("def f(runtime):\n    return runtime.now\n") == []
    # No engine or obs module is a sanctioned wall-clock reader.
    for rel in ("src/repro/obs/profile.py", "src/repro/sim/parallel.py",
                "src/repro/sim/engine.py", "src/repro/net/transport.py"):
        assert "DET001" in rules_fired(
            "import time\nt = time.perf_counter()\n", rel_path=rel)


def test_det001_allowlists_the_live_clock_module():
    # repro.live.clock is the realtime backend's one sanctioned time
    # source; reading the host clock there is the module's whole job.
    good = "import time\n\ndef wall_epoch():\n    return time.time()\n"
    assert rules_fired(good, rel_path="src/repro/live/clock.py") == []


def test_det001_still_flags_the_rest_of_repro_live():
    # The allowlist is the clock module, not the package: every other
    # live module must take time from the RealtimeClock.
    bad = "import time\nt = time.time()\n"
    for rel in (
        "src/repro/live/runtime.py",
        "src/repro/live/node.py",
        "src/repro/live/swarm.py",
    ):
        assert "DET001" in rules_fired(bad, rel_path=rel)


# -- DET002: global / unseeded RNG -----------------------------------------

def test_det002_flags_stdlib_random_import():
    assert "DET002" in rules_fired("import random\n")
    assert "DET002" in rules_fired("from random import shuffle\n")


def test_det002_flags_numpy_global_draws():
    assert "DET002" in rules_fired(
        "import numpy as np\nx = np.random.randint(4)\n"
    )
    assert "DET002" in rules_fired(
        "import numpy as np\nnp.random.seed(0)\n"
    )


def test_det002_flags_unseeded_default_rng():
    assert "DET002" in rules_fired(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )


def test_det002_allows_seeded_generators_and_streams():
    assert rules_fired(
        "import numpy as np\nrng = np.random.default_rng(42)\n"
    ) == []
    assert rules_fired(
        "from repro.sim.rng import RandomStreams\n"
        "rng = RandomStreams(7).get('churn')\n"
    ) == []


def test_det002_exempts_the_rng_module_itself():
    assert rules_fired(
        "import numpy as np\ngen = np.random.default_rng()\n",
        rel_path="src/repro/sim/rng.py",
    ) == []


# -- DET003: unordered iteration feeding decisions -------------------------

BAD_SET_SEND = (
    "def broadcast(self, peers):\n"
    "    for p in set(peers):\n"
    "        self.runtime.send(p)\n"
)

GOOD_SORTED_SEND = (
    "def broadcast(self, peers):\n"
    "    for p in sorted(set(peers)):\n"
    "        self.runtime.send(p)\n"
)


def test_det003_flags_set_iteration_into_send():
    assert rules_fired(BAD_SET_SEND) == ["DET003"]


def test_det003_accepts_sorted_wrapper():
    assert rules_fired(GOOD_SORTED_SEND) == []


def test_det003_flags_dict_keys_feeding_removal():
    src = (
        "def sweep(self, table):\n"
        "    for k in table.keys():\n"
        "        self.peer_list.remove(k)\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_flags_named_set_variable():
    src = (
        "def relay(self, targets):\n"
        "    chosen = set(targets)\n"
        "    for t in chosen:\n"
        "        self.transport.send(t)\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_flags_first_match_return_from_set():
    # Returning the "first" element of a set picks a hash-order winner.
    src = (
        "def pick(self, pool):\n"
        "    for t in set(pool):\n"
        "        return t\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_flags_comprehension_feeding_sink():
    src = (
        "def fanout(self, peers):\n"
        "    self.transport.send([p for p in set(peers)])\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_allows_membership_and_pure_accounting():
    src = (
        "def count(self, peers, seen):\n"
        "    excluded = set(seen)\n"
        "    total = 0\n"
        "    for p in peers:\n"
        "        if p in excluded:\n"
        "            total += 1\n"
        "    return total\n"
    )
    assert rules_fired(src) == []


# -- DET004: float accumulation over unordered collections -----------------


def test_det004_flags_sum_over_set_feeding_state():
    src = (
        "def rebalance(self, peers):\n"
        "    self.ctx.total_rate = sum(p.rate for p in set(peers))\n"
    )
    assert rules_fired(src) == ["DET004"]


def test_det004_flags_sum_over_set_bound_name_returned():
    src = (
        "def total_rate(self, peers):\n"
        "    live = set(peers)\n"
        "    return sum(p.rate for p in live)\n"
    )
    assert rules_fired(src) == ["DET004"]


def test_det004_flags_loop_accumulator_feeding_metric():
    src = (
        "def publish(self, peers):\n"
        "    acc = 0.0\n"
        "    for p in set(peers):\n"
        "        acc += p.rate\n"
        "    self.ctx.obs.set_gauge('rate', acc)\n"
    )
    assert rules_fired(src) == ["DET004"]


def test_det004_allows_sorted_sum():
    src = (
        "def total_rate(self, peers):\n"
        "    return sum(p.rate for p in sorted(set(peers)))\n"
    )
    assert rules_fired(src) == []


def test_det004_allows_local_only_totals():
    # The total never reaches state, a metric, or a return.
    src = (
        "def debug(self, peers):\n"
        "    t = sum(p.rate for p in set(peers))\n"
        "    print(t)\n"
    )
    assert rules_fired(src) == []


def test_det004_allows_ordered_iterables():
    src = (
        "def total_rate(self, peers):\n"
        "    return sum(p.rate for p in peers)\n"
    )
    assert rules_fired(src) == []


def test_det004_suppression_for_int_sums():
    src = (
        "def live_count(self, peers):\n"
        "    return sum(1 for p in set(peers))  # detlint: ignore[DET004]\n"
    )
    assert rules_fired(src) == []
