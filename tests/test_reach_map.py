"""The reach map (``scripts/reach_map.py``, DESIGN.md §6) keys every kind of
``def`` the same way on both sides: the hook in a child process records a
call, and the ``ast`` walk finds the definition at the same (file, first
line counting decorators)."""

import importlib.util
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_spec = importlib.util.spec_from_file_location(
    "reach_map", os.path.join(ROOT, "scripts", "reach_map.py")
)
reach_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach_map)

FIXTURE = '''
import functools
import threading


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


class Box:
    @traced
    @functools.lru_cache(maxsize=None)
    def decorated(self):
        def nested():
            return 1
        return nested()

    @property
    def size(self):
        return 2


def in_thread():
    return Box().size


def never_called():
    return 3


Box().decorated() + Box().size
worker = threading.Thread(target=in_thread)
worker.start()
worker.join()
'''


def test_every_called_def_is_reached_and_the_uncalled_one_is_not(tmp_path):
    package = tmp_path / "fixture"
    keys_dir, hook_dir = tmp_path / "keys", tmp_path / "hook"
    for directory in (package, keys_dir, hook_dir):
        directory.mkdir()
    (package / "mod.py").write_text(FIXTURE)
    proc = reach_map.run_hooked([sys.executable, str(package / "mod.py")], keys_dir, hook_dir)
    assert proc.returncode == 0, proc.stdout
    defs = reach_map.functions(package)
    reached = reach_map.reached(keys_dir)
    assert {name: key in reached for key, (name, _) in defs.items()} == {
        "traced": True,
        "traced.wrapper": True,
        "Box.decorated": True,
        "Box.decorated.nested": True,
        "Box.size": True,
        "in_thread": True,
        "never_called": False,
    }
