"""The benchmark in bench/ reaches into gradsteer by name: its tracer wraps
names in the consumer modules, and its worker, runner and self-tests call
package functions. Without running a solve, check that every such name
still resolves and every such call still binds to the callee's signature.
"""

import ast
import importlib
import importlib.util
import inspect

import pytest

import gradsteer
from gradsteer import adjoint, cli, core, models
from gradsteer.cli import parse_config

from conftest import REPO

BENCH = REPO / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
_SITES = list(_TRACER.SPAN_SITES) + [(c, n) for c, n, _ in _TRACER.COUNT_SITES]


@pytest.mark.parametrize("consumer,name", _SITES)
def test_tracer_site_resolves(consumer, name):
    module = importlib.import_module(f"gradsteer.{consumer}")
    assert callable(getattr(module, name, None)), f"{consumer}.{name}"


def _chain(node):
    """['root', 'attr', ...] for an attribute chain on a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("script", ["worker.py", "run.py", "test_bench.py"])
def test_bench_names_resolve_and_calls_bind(script):
    # the scripts bind these names to the package modules and to a parsed
    # config; `cfg` is resolved against the shipped reference config
    roots = {"gradsteer": gradsteer, "adjoint": adjoint, "cli": cli,
             "core": core, "models": models,
             "cfg": parse_config(REPO / "configs" / "michaelis_menten.cfg")}
    tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
    resolved = 0
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node
        chain = _chain(target) if isinstance(target, ast.Attribute) else None
        if not chain or chain[0] not in roots:
            continue
        obj = roots[chain[0]]
        for attr in chain[1:]:
            assert hasattr(obj, attr), f"{script}: {'.'.join(chain)}"
            obj = getattr(obj, attr)
        resolved += 1
        if isinstance(node, ast.Call) and not any(
                isinstance(a, ast.Starred) for a in node.args) and all(
                k.arg for k in node.keywords):
            inspect.signature(obj).bind(*node.args,
                                        **{k.arg: k.value for k in node.keywords})
    assert resolved > 0
