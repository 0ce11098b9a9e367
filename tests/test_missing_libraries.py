"""What works on an install that has numpy but neither scipy nor networkx.

``sys.modules[name] = None`` makes ``import name`` raise ``ImportError``
in that interpreter — the same as the library not being installed.
networkx is no dependency at all: with it blocked, everything in
``repro.baselines`` and a full tournament work.  Without scipy everything
but a transit-stub build and a t-interval must run; those two raise the
interpreter's own error.
"""

from tests.conftest import fresh_python

BLOCK = "import sys; sys.modules['scipy'] = sys.modules['networkx'] = None\n"


def run_blocked(code: str) -> str:
    return fresh_python(BLOCK + code)


def test_import_and_cli_help():
    assert run_blocked("import repro; print(repro.__version__)").strip()
    out = run_blocked(
        "import runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert "usage:" in out


def test_detailed_run():
    out = run_blocked(
        "from repro import PeerWindowNetwork\n"
        "net = PeerWindowNetwork(master_seed=1)\n"
        "net.seed_nodes([50_000.0] * 40)\n"
        "net.run(until=60.0)\n"
        "print(len(net.live_nodes()), net.mean_error_rate())\n"
    )
    assert out.split() == ["40", "0.0"]


def test_everything_in_baselines_and_a_six_contestant_tournament():
    out = run_blocked(
        "import repro.baselines as baselines\n"
        "from repro.compare import TournamentConfig, contestant_names, run_tournament\n"
        "print(all(hasattr(baselines, name) for name in baselines.__all__))\n"
        "for scheme in baselines.closed_forms(1000, 3600.0):\n"
        "    assert scheme.report(5000.0)['pointers'] >= 0.0\n"
        "doc = run_tournament(TournamentConfig(\n"
        "    contestants=tuple(contestant_names()), n_nodes=30,\n"
        "    duration=60.0, window=30.0))\n"
        "print(len(doc['rows']), sorted(row['contestant'] for row in doc['rows'])[-1])\n"
    )
    assert out.split() == ["True", "6", "random-walk"]


def test_the_calls_that_need_a_library_raise_import_error():
    out = run_blocked(
        "from repro.experiments.stats import summarize_metric\n"
        "from repro.net import TransitStubTopology\n"
        "print(summarize_metric('x', [1.0]).mean)\n"
        "for call in (TransitStubTopology,\n"
        "             lambda: summarize_metric('x', [1.0, 2.0])):\n"
        "    try:\n"
        "        call()\n"
        "    except ImportError as exc:\n"
        "        print(exc.name.partition('.')[0])\n"
    )
    assert out.split() == ["1.0", "scipy", "scipy"]
