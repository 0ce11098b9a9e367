"""Protocol configuration validation tests."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import PAPER_COMMON_CONFIG, ProtocolConfig
from repro.core.errors import ConfigError


class TestDefaults:
    def test_paper_values(self):
        c = PAPER_COMMON_CONFIG
        assert c.id_bits == 128  # §2
        assert c.top_list_size == 8  # §2: "commonly we set t = 8"
        assert c.event_message_bits == 1000  # §5.1
        assert c.multicast_processing_delay == 1.0  # §5.1
        assert c.multicast_attempts == 3  # §4.2
        assert c.refresh_multiple == 2.0  # §4.6
        assert c.expiry_multiple == 3.0  # §4.6

    def test_with_returns_modified_copy(self):
        c = ProtocolConfig()
        c2 = c.with_(id_bits=16)
        assert c2.id_bits == 16
        assert c.id_bits == 128

    def test_describe_is_complete(self):
        d = ProtocolConfig().describe()
        assert d["top_list_size"] == 8
        assert "probe_interval" in d


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"id_bits": 0},
            {"id_bits": 257},
            {"top_list_size": 0},
            {"probe_interval": 0.0},
            {"probe_timeout": -1.0},
            {"probe_misses_to_fail": 0},
            {"event_message_bits": 0},
            {"multicast_processing_delay": -0.1},
            {"multicast_attempts": 0},
            {"multicast_ack_timeout": 0.0},
            {"refresh_multiple": 0.0},
            {"refresh_multiple": 3.0, "expiry_multiple": 2.0},
            {"level_check_interval": 0.0},
            {"raise_fraction": 0.0},
            {"raise_fraction": 1.0},
            {"report_timeout": 0.0},
            {"warmup_extra_levels": -1},
            {"download_grace": -1.0},
            {"join_retry_backoff": 0.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs)


#: The fields with an upper bound, each with a value above it.
OUT_OF_RANGE = {
    "id_bits": 257, "raise_fraction": 1.0, "join_pow_bits": 33,
}


def _numeric_fields():
    return [f for f in fields(ProtocolConfig) if f.type in ("int", "float")]


class TestEveryFieldIsChecked:
    """One loop over the dataclass fields: the type, NaN and the range of
    every field, each refusal naming the field."""

    @pytest.mark.parametrize("name", [f.name for f in _numeric_fields()])
    def test_nan_is_refused(self, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            ProtocolConfig(**{name: float("nan")})

    @pytest.mark.parametrize("name", [f.name for f in _numeric_fields()])
    def test_a_non_number_is_refused(self, name):
        for value in ("30", None, True):
            with pytest.raises(ConfigError, match=rf"^{name} must be an int"):
                ProtocolConfig(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in _numeric_fields()])
    def test_below_the_range_is_refused(self, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be"):
            ProtocolConfig(**{name: -1})

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
    def test_above_the_range_is_refused(self, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be in"):
            ProtocolConfig(**{name: OUT_OF_RANGE[name]})

    def test_an_int_field_refuses_a_float_and_a_float_field_takes_an_int(self):
        ints = [f.name for f in _numeric_fields() if f.type == "int"]
        floats = [f.name for f in _numeric_fields() if f.type == "float"]
        assert ints and floats
        for name in ints:
            with pytest.raises(ConfigError, match=rf"^{name} must be an int, got 2.0"):
                ProtocolConfig(**{name: 2.0})
        assert ProtocolConfig(probe_interval=30, raise_fraction=0.5).probe_interval == 30

    def test_a_bool_field_takes_only_a_bool(self):
        bools = [f.name for f in fields(ProtocolConfig) if f.type == "bool"]
        assert bools == ["obituary_verify"]
        for value in (1, "yes", None):
            with pytest.raises(ConfigError, match=r"^obituary_verify must be a bool"):
                ProtocolConfig(obituary_verify=value)

    def test_every_field_is_int_float_or_bool(self):
        assert {f.type for f in fields(ProtocolConfig)} == {"int", "float", "bool"}


# -- the config surface -----------------------------------------------------

REPO = Path(__file__).resolve().parents[2]

#: Paper parameters that stay settable although no run sets them, with
#: the section that fixes each.
PAPER_PARAMETERS = {
    "top_list_size": "§2 t",
    "event_message_bits": "§5.1",
    "heartbeat_bits": "§5.1",
    "ack_bits": "§5.1",
    "pointer_bits": "§5.1",
    "refresh_multiple": "§4.6",
    "expiry_multiple": "§4.6",
}


def _documented_fields():
    """The names the ``Attributes`` entries of the docstring document
    (``a / b:`` documents two)."""
    names = []
    for line in ProtocolConfig.__doc__.splitlines():
        entry = re.fullmatch(r"    ([a-z_]+(?: / [a-z_]+)*):", line)
        if entry:
            names += entry.group(1).split(" / ")
    return names


def _names_set_by_callers():
    """Every keyword argument and string dict key in ``src/``,
    ``benchmarks/`` and ``scripts/`` (the config module's own tables
    excepted): where a run can set a field, by call or by override dict."""
    own = REPO / "src" / "repro" / "core" / "config.py"
    names = set()
    for root in ("src", "benchmarks", "scripts"):
        for path in sorted((REPO / root).rglob("*.py")):
            if path == own:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
    return names


class TestConfigSurface:
    def test_docstring_documents_exactly_the_fields(self):
        documented = _documented_fields()
        assert sorted(documented) == sorted(f.name for f in fields(ProtocolConfig))
        assert len(documented) == len(set(documented))

    def test_every_field_is_set_by_a_run_or_is_a_paper_parameter(self):
        """A knob nothing turns is a deliberate, reviewed addition to
        :data:`PAPER_PARAMETERS`, not a default left behind."""
        unset = {f.name for f in fields(ProtocolConfig)} - _names_set_by_callers()
        assert unset <= set(PAPER_PARAMETERS), sorted(unset - set(PAPER_PARAMETERS))
        assert set(PAPER_PARAMETERS) <= {f.name for f in fields(ProtocolConfig)}
