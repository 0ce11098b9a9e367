"""Observability determinism: the no-perturbation and byte-identity contracts.

Three properties, each load-bearing for the tentpole design:

* **non-perturbation** — enabling observability changes no protocol
  behaviour: identical stats/levels with tracing on vs off;
* **seq <-> parallel byte identity** — with the registry and tracer
  enabled, the exported span JSONL and the aggregated metrics snapshot
  are byte-for-byte identical between the sequential engine and any
  partitioning (the spans' per-node ids and sim-clock timestamps are
  partition-invariant by construction);
* **chaos replay** — two same-seed instrumented chaos runs emit
  identical span logs, and instrumentation leaves the chaos determinism
  digest untouched.
"""

import json

import pytest

from repro.obs.export import spans_to_jsonl, validate_span_lines

from .test_parallel_equivalence import run_scenario


def snapshot_json(net):
    return json.dumps(net.metrics_snapshot(), sort_keys=True)


class TestObservedEquivalence:
    @pytest.fixture(scope="class")
    def observed_sequential(self):
        return run_scenario(observability=True)

    def test_observability_does_not_perturb_protocol(self, observed_sequential):
        plain = run_scenario()
        assert plain.stats_summary() == observed_sequential.stats_summary()
        assert plain.level_histogram() == observed_sequential.level_histogram()

    def test_spans_were_recorded(self, observed_sequential):
        spans = observed_sequential.spans()
        assert spans
        names = {s.name for s in spans}
        # The churn scenario exercises probing, dissemination, and joins.
        assert {"probe", "mcast.root", "mcast.hop", "join"} <= names

    def test_span_export_passes_schema(self, observed_sequential):
        lines = spans_to_jsonl(observed_sequential.spans()).splitlines()
        assert validate_span_lines(lines) == []

    def test_partitioned_spans_byte_identical(self, observed_sequential):
        par = run_scenario(parallel=4, observability=True)
        assert spans_to_jsonl(par.spans()) == spans_to_jsonl(
            observed_sequential.spans()
        )

    def test_partitioned_metrics_byte_identical(self, observed_sequential):
        par = run_scenario(parallel=4, observability=True)
        assert snapshot_json(par) == snapshot_json(observed_sequential)

    def test_mcast_hops_link_to_parents(self, observed_sequential):
        by_id = {s.span_id: s for s in observed_sequential.spans()}
        hops = [s for s in by_id.values() if s.name == "mcast.hop"]
        assert hops
        for hop in hops:
            assert hop.parent_id in by_id
            assert by_id[hop.parent_id].trace_id == hop.trace_id


class TestChaosReplay:
    @pytest.fixture(scope="class")
    def observed_result(self):
        from repro.chaos import SCENARIOS, ChaosRunner

        return ChaosRunner(SCENARIOS["smoke"], seed=3, observe=True).run()

    def test_replay_emits_identical_span_log(self, observed_result):
        from repro.chaos import SCENARIOS, ChaosRunner

        again = ChaosRunner(SCENARIOS["smoke"], seed=3, observe=True).run()
        assert spans_to_jsonl(again.spans) == spans_to_jsonl(observed_result.spans)
        assert again.trace == observed_result.trace
        assert json.dumps(again.metrics, sort_keys=True) == json.dumps(
            observed_result.metrics, sort_keys=True
        )

    def test_observation_leaves_chaos_digest_unchanged(self, observed_result):
        from repro.chaos import SCENARIOS, ChaosRunner

        plain = ChaosRunner(SCENARIOS["smoke"], seed=3).run()
        assert plain.trace == observed_result.trace
        assert plain.spans == []
        assert plain.metrics == {}

    def test_chaos_spans_validate(self, observed_result):
        assert observed_result.spans
        lines = spans_to_jsonl(observed_result.spans).splitlines()
        assert validate_span_lines(lines) == []
