"""The guard × bug matrix (``scripts/guard_matrix.py``, DESIGN.md §13)
stays runnable: every plant's anchor text occurs exactly once in the file
it names, so a refactor that moves a planted site fails here instead of
silently disabling that row of the matrix."""

import importlib.util
import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_spec = importlib.util.spec_from_file_location(
    "guard_matrix", os.path.join(ROOT, "scripts", "guard_matrix.py")
)
guard_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard_matrix)


@pytest.mark.parametrize("plant", guard_matrix.PLANTS, ids=lambda p: p.id)
def test_every_plant_anchor_occurs_exactly_once(plant):
    with open(os.path.join(ROOT, plant.path), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(plant.old) == 1, f"{plant.id}: re-anchor it in {plant.path}"
    assert plant.new != plant.old
    assert not plant.site or plant.site in plant.old


def test_plant_ids_are_unique():
    ids = [p.id for p in guard_matrix.PLANTS]
    assert len(ids) == len(set(ids))
