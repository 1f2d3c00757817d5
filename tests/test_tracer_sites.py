"""Every function the traced benchmark wraps is still where it looks for it.

perfbench/tracing.py replaces each (module, object path, attribute) site of
LAYERS in its owner's __dict__; a name dropped from a module would otherwise
only fail inside a traced benchmark run.  The file is loaded, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))  # tracing imports its sibling stats
    had_stats = "stats" in sys.modules
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
        if not had_stats:
            sys.modules.pop("stats", None)


def test_every_traced_site_resolves():
    sites = [site for sites in _tracing().LAYERS.values() for site in sites]
    assert len(sites) >= 18
    for module, path, attr in sites:
        owner = importlib.import_module(f"rectbeacon.{module}")
        if path:
            owner = owner.__dict__[path]
        assert attr in owner.__dict__, (module, path, attr)
