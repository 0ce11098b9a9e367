"""Good/bad fixture pairs for ISO002 and ISO003."""

from repro.analysis import lint_source

SRC = "src/repro/core/fixture.py"


def rules_fired(src, rel_path=SRC):
    return sorted({f.rule for f in lint_source(src, rel_path=rel_path)})


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


def test_iso003_flags_shared_counter_bound_next_as_default_factory():
    src = (
        "import itertools\n"
        "from dataclasses import dataclass, field\n"
        "_ids = itertools.count()\n"
        "\n"
        "@dataclass\n"
        "class Record:\n"
        "    rid: int = field(default_factory=_ids.__next__)\n"
    )
    assert rules_fired(src) == ["ISO003"]


def test_iso003_flags_bound_mutator_handed_out_from_a_function():
    src = (
        "_seen = []\n"
        "\n"
        "def recorder(self):\n"
        "    return _seen.append\n"
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
