"""Framework behavior: suppressions, exemptions, finding JSON schema."""

import json

from repro.analysis import Finding, all_rules, lint_source, run_lint
from repro.analysis.core import parse_suppressions, wants_skip_file

BAD_CLOCK = "import time\nt = time.time()\n"


def rule_ids():
    return [r.id for r in all_rules()]


def test_registry_has_the_full_rule_pack():
    assert rule_ids() == [
        "DET001", "DET002", "DET003", "ISO002", "ISO003", "WIRE001",
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
    assert Finding(**obj) == f


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
