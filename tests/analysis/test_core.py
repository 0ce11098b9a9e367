"""Framework behavior: suppressions, baseline, finding JSON schema."""

import json

import pytest

from repro.analysis import Baseline, Finding, all_rules, lint_source, run_lint
from repro.analysis.core import parse_suppressions, wants_skip_file

BAD_CLOCK = "import time\nt = time.time()\n"


def rule_ids():
    return [r.id for r in all_rules()]


def test_registry_has_the_full_rule_pack():
    assert rule_ids() == [
        "DET001", "DET002", "DET003", "DET004", "ISO002", "ISO003",
        "OBS001", "OBS002", "WIRE001",
    ]


def test_lint_source_reports_rule_and_location():
    findings = lint_source(BAD_CLOCK, rel_path="src/repro/core/x.py")
    assert [f.rule for f in findings] == ["DET001"]
    assert findings[0].line == 2
    assert findings[0].snippet == "t = time.time()"


def test_suppression_comment_silences_one_rule():
    src = "import time\nt = time.time()  # detlint: ignore[DET001]\n"
    assert lint_source(src, rel_path="src/repro/core/x.py") == []


def test_suppression_is_per_rule_not_blanket():
    src = "import time\nt = time.time()  # detlint: ignore[DET002]\n"
    findings = lint_source(src, rel_path="src/repro/core/x.py")
    assert [f.rule for f in findings] == ["DET001"]


def test_suppression_accepts_multiple_rules():
    sup = parse_suppressions("x = 1  # detlint: ignore[DET001, ISO001]\n")
    assert sup == {1: {"DET001", "ISO001"}}


def test_skip_file_marker():
    assert wants_skip_file("# detlint: skip-file\nimport time\n")
    findings = lint_source(
        "# detlint: skip-file\nimport time\nt = time.time()\n",
        rel_path="src/repro/core/x.py",
    )
    assert findings == []


def test_tests_and_benchmarks_are_exempt():
    assert lint_source(BAD_CLOCK, rel_path="tests/core/test_x.py") == []
    assert lint_source(BAD_CLOCK, rel_path="benchmarks/bench_x.py") == []


def test_finding_json_round_trip():
    f = lint_source(BAD_CLOCK, rel_path="src/repro/core/x.py")[0]
    obj = json.loads(json.dumps(f.to_dict()))
    assert Finding.from_dict(obj) == f
    assert obj["fingerprint"] == f.fingerprint


def test_fingerprint_survives_line_shifts():
    shifted = "import time\n\n\n\nt = time.time()\n"
    a = lint_source(BAD_CLOCK, rel_path="src/repro/core/x.py")[0]
    b = lint_source(shifted, rel_path="src/repro/core/x.py")[0]
    assert a.line != b.line
    assert a.fingerprint == b.fingerprint


def test_baseline_round_trip_and_split():
    findings = lint_source(
        "import time\na = time.time()\nb = time.time()\n",
        rel_path="src/repro/core/x.py",
    )
    assert len(findings) == 2
    baseline = Baseline.from_findings(findings[:1])
    reloaded = Baseline.loads(baseline.dumps())
    assert reloaded.counts == baseline.counts
    new, grandfathered = reloaded.split(findings)
    # Identical snippets share a fingerprint; the count-1 budget absorbs
    # exactly one of the two occurrences.
    assert len(grandfathered) == 1 and len(new) == 1


def test_baseline_rejects_unknown_version():
    with pytest.raises(ValueError):
        Baseline.from_dict({"version": 99, "findings": []})


def test_baseline_save_creates_parent_dirs(tmp_path):
    target = tmp_path / "sub" / "dir" / "baseline.json"
    Baseline().save(str(target))
    assert json.loads(target.read_text())["version"] == 1


def test_run_lint_reports_unparsable_files(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = run_lint([str(tmp_path)], root=str(tmp_path))
    assert [f.rule for f in findings] == ["PARSE"]


def test_run_lint_walks_directories_sorted(tmp_path):
    (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
    findings = run_lint([str(tmp_path)], root=str(tmp_path))
    assert [f.path for f in findings] == ["a.py", "b.py"]


def test_baseline_survives_a_file_rename():
    old = lint_source(BAD_CLOCK, rel_path="src/repro/core/old_name.py")
    baseline = Baseline.from_findings(old)
    renamed = lint_source(BAD_CLOCK, rel_path="src/repro/core/new_name.py")
    assert renamed[0].fingerprint != old[0].fingerprint  # path moved
    new, grandfathered = baseline.split(renamed)
    # The (rule, snippet) content key carries the budget across.
    assert new == [] and len(grandfathered) == 1


def test_baseline_survives_rename_plus_line_shift_combined():
    old = lint_source(BAD_CLOCK, rel_path="src/repro/core/old_name.py")
    baseline = Baseline.loads(Baseline.from_findings(old).dumps())
    shifted = "import time\n\n\n\nt = time.time()\n"
    moved = lint_source(shifted, rel_path="src/repro/core/new_name.py")
    assert moved[0].line != old[0].line
    new, grandfathered = baseline.split(moved)
    assert new == [] and len(grandfathered) == 1


def test_rename_fallback_shares_one_budget_pool():
    # One grandfathered occurrence cannot absorb both the finding at the
    # recorded path AND a same-snippet finding in a renamed file.
    old = lint_source(BAD_CLOCK, rel_path="src/repro/core/old_name.py")
    baseline = Baseline.from_findings(old)
    both = old + lint_source(BAD_CLOCK, rel_path="src/repro/core/copy.py")
    new, grandfathered = baseline.split(both)
    assert len(grandfathered) == 1 and len(new) == 1
    # The exact-fingerprint match wins the budget even when the renamed
    # finding comes first in input order.
    new, grandfathered = baseline.split(list(reversed(both)))
    assert [f.path for f in grandfathered] == ["src/repro/core/old_name.py"]


def test_rename_fallback_requires_matching_rule_and_snippet():
    old = lint_source(BAD_CLOCK, rel_path="src/repro/core/old_name.py")
    baseline = Baseline.from_findings(old)
    other = lint_source(
        "import random\nr = random.random()\n",
        rel_path="src/repro/core/new_name.py",
    )
    new, grandfathered = baseline.split(other)
    assert grandfathered == []  # DET002 cannot ride a DET001 budget
    assert new == other


def test_rename_fallback_never_matches_blank_snippets():
    f = Finding(rule="PARSE", path="a.py", line=1, col=0,
                message="syntax error", snippet="")
    baseline = Baseline.from_findings([f])
    g = Finding(rule="PARSE", path="b.py", line=9, col=0,
                message="syntax error", snippet="")
    new, _ = baseline.split([g])
    assert new == [g]
