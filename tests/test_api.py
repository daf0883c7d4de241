"""The package's public surface: no public function that only tests call.

Every public top-level function of `src/fedcsi/*.py` must be referenced,
by name or as an attribute, somewhere in the package's own modules
(`__init__.py` re-exports and is not counted).
"""
import ast
from pathlib import Path

import fedcsi

PACKAGE = Path(fedcsi.__file__).parent

# kept for the planned round trace, which reports each station's share of
# StoMedian's aggregation weight; and the one-job gradient that the
# benchmark's per-layer conv timings (perfbench/bench.py) call
ALLOWED = {"aggregation.sto_median_probabilities", "nn.batch_gradient"}


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
