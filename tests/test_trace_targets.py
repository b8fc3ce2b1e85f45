"""Every name the benchmark takes from the package must exist in it.

perfbench/tracer.py wraps functions at the module attributes through which
their callers look them up, and the benchmark's scripts import enkpf names
from the modules they name. A refactor that moves or renames one of them
makes the tracer report that layer's metrics as missing, or the benchmark
fail to start; these tests name the target instead.
"""

import ast
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _dotted(node) -> str | None:
    """'a.b.c' of an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _enkpf_references(path: Path) -> set[str]:
    """Dotted enkpf names in a script: each `from enkpf... import name` and
    each `enkpf.<module>.<attr>` chain."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "enkpf":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None and dotted.split(".")[0] == "enkpf":
                names.add(dotted)
    return names


def test_every_name_the_benchmark_imports_resolves():
    tracer = _load_tracer()
    used = {path.name: _enkpf_references(path) for path in sorted(PERFBENCH.glob("*.py"))}
    assert all(used[name] for name in ("cases.py", "run.py", "setup_probe.py"))
    missing = []
    for script, names in used.items():
        for name in sorted(names):
            try:
                tracer._resolve(name)
            except (ImportError, AttributeError):
                missing.append(f"{script}: {name}")
    assert missing == []
