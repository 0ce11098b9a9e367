"""The import budget: what a fresh interpreter loads for each entry point.

Module scope under ``src/repro`` imports the standard library, numpy and
``repro.*`` (DESIGN.md §6, *Import discipline*).  The property is pinned
by membership in ``sys.modules``, never by time: every row runs
``sys.executable -c "import X"`` and reads the names back.
"""

import importlib
import pkgutil

import pytest

import repro
from tests.conftest import fresh_python

ENTRY_POINTS = [
    "repro", "repro.cli", "repro.compare", "repro.chaos", "repro.experiments",
    "repro.experiments.scalable", "repro.baselines", "repro.apps", "repro.obs",
    "repro.analysis", "repro.workloads", "repro.kernel", "repro.sim",
    "repro.net", "repro.live", "repro.live.swarm",
]
#: Libraries no entry point may load by being imported.
NEVER = {"scipy", "networkx", "matplotlib", "pandas", "hypothesis", "pytest"}


def loaded_modules(code: str) -> set:
    """Run ``code`` in a fresh interpreter; the names in its ``sys.modules``."""
    out = fresh_python(code + "\nimport sys; print(' '.join(sys.modules))")
    return set(out.splitlines()[-1].split())


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_importing_an_entry_point_loads_numpy_and_repro_only(entry):
    roots = {name.partition(".")[0] for name in loaded_modules(f"import {entry}")}
    assert "repro" in roots and "numpy" in roots
    assert not roots & NEVER
    assert ("asyncio" in roots) == entry.startswith("repro.live")


def test_a_transit_stub_build_loads_scipy_sparse_and_nothing_more():
    """The default scalable engine is the one paper path that needs scipy:
    it gets ``scipy.sparse``, not ``scipy.stats``, and never networkx."""
    names = loaded_modules(
        "from repro.experiments.scalable import ScalableParams, ScalableSim\n"
        "ScalableSim(ScalableParams(n_target=2000, duration_s=120.0,"
        " warmup_s=60.0)).run()"
    )
    assert "scipy.sparse.csgraph" in names
    assert "scipy.stats" not in names
    assert "networkx" not in names


def test_every_name_a_package_exports_resolves():
    packages = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    assert len(packages) > 10
    for name in packages:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
