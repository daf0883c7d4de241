"""The package's public surface: no public function that only tests call,
and none that the benchmark reads renamed away unnoticed.

Every public top-level function of `src/fedcsi/*.py` must be referenced,
by name or as an attribute, somewhere in the package's own modules
(`__init__.py` re-exports and is not counted).  Every span name that
`perfbench/` reads must be such a function, and must fire in a traced
experiment, or its benchmark metrics read 0.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

from conftest import desk_config

import fedcsi
from fedcsi import orchestrator
from fedcsi.attacks import AttackPlan
from fedcsi.llpf import LlpfConfig

PACKAGE = Path(fedcsi.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"

# kept for the planned round trace, which reports each station's share of
# StoMedian's aggregation weight; and the one-job gradient that the
# benchmark's per-layer conv timings (perfbench/bench.py) call
ALLOWED = {"aggregation.sto_median_probabilities", "nn.batch_gradient"}

# spans the benchmark still reads under the names of functions that are
# gone (`filter_caches` and `make_samples` replaced them), so their metrics
# read 0 until the benchmark hooks the new names and these sets empty
GONE = {"llpf.filter_cache", "channel.make_sample"}
# fired only by the benchmark's per-layer conv timings
NOT_IN_EXPERIMENTS = {"nn.batch_gradient"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _public_functions(tree: ast.Module):
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _referenced_names(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_in_the_package():
    modules = _modules()
    referenced = _referenced_names(modules.values())
    unused = sorted(f"{module}.{name}" for module, tree in modules.items()
                    for name in _public_functions(tree) if name not in referenced)
    assert unused == sorted(ALLOWED), f"public functions only tests call: {unused}"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's `bench` and `tracer` modules, imported as it runs them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def _spans_read(bench, tracer) -> set[str]:
    return ({*bench.END_TO_END_SPANS, *tracer.HOOKS}
            | {name for name, _ in bench.SPAN_METRICS.values()})


def test_every_span_the_benchmark_reads_is_a_public_function(perfbench):
    public = {f"{module}.{name}" for module, tree in _modules().items()
              for name in _public_functions(tree)}
    assert _spans_read(*perfbench) - public == GONE


def test_every_span_the_benchmark_reads_fires_in_a_traced_experiment(perfbench):
    bench, tracer = perfbench
    config = desk_config(rounds=1, llpf=LlpfConfig(enabled=True),
                         attack=AttackPlan(mode="reverse", ratio=0.25))
    with tracer.Tracer().install() as trace:
        orchestrator.run_experiment(config)
    fired = {span[tracer.NAME] for span in trace.spans}
    assert _spans_read(bench, tracer) - fired == GONE | NOT_IN_EXPERIMENTS
