"""Good/bad fixture pairs for ISO001/ISO002, including a reconstruction
of the PR 2 shared-Pointer covert channel that ISO001 exists to catch."""

from repro.analysis import lint_source

SRC = "src/repro/core/fixture.py"


def rules_fired(src, rel_path=SRC):
    return sorted({f.rule for f in lint_source(src, rel_path=rel_path)})


# -- ISO001: payload aliasing ----------------------------------------------

#: The PR 2 bug, reconstructed: a bridge-subscribe handler stores the
#: *received Pointer object* in long-lived node state.  With the
#: in-memory transport that object is the subscriber's live pointer, so
#: event application on one node silently mutates the other — a covert
#: channel across the LP boundary that broke seq/partitioned equivalence.
PR2_SHARED_POINTER_BUG = (
    "def on_bridge_subscribe(self, msg):\n"
    "    ctx = self.ctx\n"
    "    ptr, propagate = msg.payload\n"
    "    ctx.bridge_subscribers[ptr.node_id.value] = ptr\n"
)

PR2_SHARED_POINTER_FIXED = (
    "def on_bridge_subscribe(self, msg):\n"
    "    ctx = self.ctx\n"
    "    ptr, propagate = msg.payload\n"
    "    ctx.bridge_subscribers[ptr.node_id.value] = ptr.copy()\n"
)


def test_iso001_catches_the_pr2_shared_pointer_bug():
    assert rules_fired(PR2_SHARED_POINTER_BUG) == ["ISO001"]


def test_iso001_accepts_the_copy_fix():
    assert rules_fired(PR2_SHARED_POINTER_FIXED) == []


def test_iso001_flags_install_of_raw_payload_elements():
    src = (
        "def on_download(self, msg):\n"
        "    ctx = self.ctx\n"
        "    for p in msg.payload:\n"
        "        ctx.peer_list.add(p)\n"
    )
    assert rules_fired(src) == ["ISO001"]


def test_iso001_accepts_copied_payload_elements():
    src = (
        "def on_download(self, msg):\n"
        "    ctx = self.ctx\n"
        "    for p in msg.payload:\n"
        "        ctx.peer_list.add(p.copy())\n"
    )
    assert rules_fired(src) == []


def test_iso001_flags_listcomp_aliasing_into_state():
    src = (
        "def on_tops(self, reply):\n"
        "    ctx = self.ctx\n"
        "    ctx.pending_tops = [p for p in reply.payload]\n"
    )
    assert rules_fired(src) == ["ISO001"]


def test_iso001_tracks_payload_params_directly():
    # Continuation handlers often receive the already-extracted payload.
    src = (
        "def got_download(self, payload, done):\n"
        "    pointers, tops = payload\n"
        "    self.cached = pointers\n"
    )
    assert rules_fired(src) == ["ISO001"]


def test_iso001_allows_scalar_field_reads():
    src = (
        "def on_mcast(self, msg):\n"
        "    ctx = self.ctx\n"
        "    event = msg.payload\n"
        "    ctx.seen_events[event.subject_id.value] = event.seq\n"
    )
    assert rules_fired(src) == []


def test_iso001_treats_merge_as_a_copying_installer():
    # TopNodeList.merge stores a pointer's fields as a row, never the object.
    src = (
        "def on_tops(self, reply):\n"
        "    ctx = self.ctx\n"
        "    ctx.top_list.merge(list(reply.payload))\n"
    )
    assert rules_fired(src) == []


def test_iso001_constructor_calls_sanitize():
    src = (
        "def on_join(self, msg):\n"
        "    ctx = self.ctx\n"
        "    info = msg.payload\n"
        "    ctx.record = EventRecord(info.kind, info.seq)\n"
    )
    assert rules_fired(src) == []


# -- ISO002: service boundary ----------------------------------------------

def test_iso002_flags_reaching_another_nodes_ctx():
    src = (
        "class FailureDetectorService:\n"
        "    def probe(self, peer):\n"
        "        return peer.ctx.peer_list\n"
    )
    assert rules_fired(src) == ["ISO002"]


def test_iso002_flags_indexing_the_node_table():
    src = (
        "class MaintenanceService:\n"
        "    def refresh(self, net, addr):\n"
        "        target = net.nodes[addr]\n"
        "        return target.level\n"
    )
    assert rules_fired(src) == ["ISO002"]


def test_iso002_allows_own_ctx_and_non_service_classes():
    good_service = (
        "class JoinService:\n"
        "    def start(self):\n"
        "        return self.ctx.peer_list\n"
    )
    assert rules_fired(good_service) == []
    # Harness classes legitimately index the node table.
    harness = (
        "class PeerWindowNetwork:\n"
        "    def node(self, key):\n"
        "        return self.nodes[key]\n"
    )
    assert rules_fired(harness) == []


# -- ISO003: cross-LP shared mutable state ---------------------------------


def test_iso003_flags_mutation_of_module_level_dict():
    src = (
        "_CACHE = {}\n"
        "\n"
        "def handle(self, msg):\n"
        "    _CACHE[msg.src] = msg.payload\n"
    )
    assert "ISO003" in rules_fired(src)


def test_iso003_flags_mutating_method_on_module_level_list():
    src = (
        "PENDING = []\n"
        "\n"
        "def enqueue(self, msg):\n"
        "    PENDING.append(msg)\n"
    )
    assert "ISO003" in rules_fired(src)


def test_iso003_flags_shared_counter_next():
    src = (
        "import itertools\n"
        "_ids = itertools.count()\n"
        "\n"
        "def fresh_id(self):\n"
        "    return next(_ids)\n"
    )
    assert rules_fired(src) == ["ISO003"]


def test_iso003_flags_shared_counter_in_lambda_default_factory():
    src = (
        "import itertools\n"
        "from dataclasses import dataclass, field\n"
        "_ids = itertools.count()\n"
        "\n"
        "@dataclass\n"
        "class Record:\n"
        "    rid: int = field(default_factory=lambda: next(_ids))\n"
    )
    assert rules_fired(src) == ["ISO003"]


def test_iso003_flags_class_body_mutable_default():
    src = (
        "class JoinService:\n"
        "    pending = []\n"
        "\n"
        "    def start(self):\n"
        "        return None\n"
    )
    assert rules_fired(src) == ["ISO003"]


def test_iso003_allows_per_instance_state():
    src = (
        "class JoinService:\n"
        "    def __init__(self):\n"
        "        self.pending = []\n"
        "\n"
        "    def enqueue(self, msg):\n"
        "        self.pending.append(msg)\n"
    )
    assert rules_fired(src) == []


def test_iso003_allows_locally_shadowed_names():
    src = (
        "_CACHE = {}\n"
        "\n"
        "def handle(self, msg):\n"
        "    _CACHE = {}\n"
        "    _CACHE[msg.src] = 1\n"
        "    return _CACHE\n"
    )
    assert rules_fired(src) == []


def test_iso003_allows_module_constants_read_only():
    src = (
        "_DEFAULTS = {'probe_interval': 8.0}\n"
        "\n"
        "def probe_interval(self):\n"
        "    return _DEFAULTS['probe_interval']\n"
    )
    assert rules_fired(src) == []


def test_iso003_exempts_host_side_modules():
    src = (
        "_REGISTRY = {}\n"
        "\n"
        "def register(rule):\n"
        "    _REGISTRY[rule.id] = rule\n"
    )
    assert rules_fired(src, rel_path="src/repro/analysis/core.py") == []
    assert "ISO003" in rules_fired(src, rel_path="src/repro/net/svc.py")


def test_iso003_suppression_with_justification():
    src = (
        "import itertools\n"
        "_msg_ids = itertools.count()\n"
        "\n"
        "def fresh_id(self):\n"
        "    return next(_msg_ids)  # detlint: ignore[ISO003]\n"
    )
    assert rules_fired(src) == []
