"""Every hook target of the benchmark tracer must exist in the package.

perfbench/tracer.py wraps functions at the module attributes through which
their callers look them up. A refactor that moves or renames one of them
makes the tracer report that layer's metrics as missing; this test names
the target instead.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracer = _load_tracer()
    assert tracer.HOOKS
    assert tracer.Tracer().missing() == {}
