"""No package module reads a ``_``-prefixed name from another package module,
only ``qubit_core`` calls ``einsum``, and the package exports exactly the
public names its ``__init__`` imports."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = "chsh_steering"
SOURCE = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list[str]:
    """``module.name`` for every private name the source takes from the package."""
    tree = ast.parse(source)
    modules = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            in_package = node.level > 0 or (node.module or "").split(".")[0] == PACKAGE
            if not in_package:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, PACKAGE):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    if any(_is_private(part) for part in alias.name.split(".")):
                        found.append(alias.name)
                    if alias.asname:
                        modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_checker_finds_each_form():
    source = (
        "from . import violation_search as vs, lhs_oracle\n"
        "from .simplex import lp_feasibility, _simplex_pivots\n"
        "from chsh_steering.cli import _finite_float\n"
        "import chsh_steering.qubit_core as qc\n"
        "vs._scan_lhs(lhs_oracle.MEMBER, qc._PAULIS, qc.__name__)\n"
    )
    assert sorted(private_reads(source)) == [
        "chsh_steering.cli._finite_float",
        "chsh_steering.qubit_core._PAULIS",
        "simplex._simplex_pivots",
        "violation_search._scan_lhs",
    ]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def einsum_calls(source: str) -> list[int]:
    """Line of every call to ``einsum``, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "einsum"
                       or getattr(node.func, "attr", None) == "einsum"))


def test_einsum_checker_finds_each_form():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "np.einsum('ij->', a)\n"
        "einsum('ij->', a)\n"
        "numpy.einsum('i,i->', a, b).real\n"
        "einsum_path = np.einsum_path\n"
    )
    assert einsum_calls(source) == [3, 4, 5]


@pytest.mark.parametrize("path", sorted(set(SOURCE.glob("*.py"))
                                         - {SOURCE / "qubit_core.py"}),
                         ids=lambda p: p.name)
def test_only_qubit_core_calls_einsum(path):
    # Every two-qubit expectation goes through qubit_core.expectation_table.
    assert einsum_calls(path.read_text(encoding="utf-8")) == []


def test_exports_match_imports():
    package = importlib.import_module(PACKAGE)
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert sorted(public - set(package.__all__)) == []


# Public names that nothing in the package or perfbench calls, kept because
# the README documents them (the library example, homodyne_pdf, the qubit
# projectors) or the roadmap reuses them (model_correlations certifies a
# decomposition).
DOCUMENTED_API = {"decompose", "homodyne_pdf", "lp_membership", "model_correlations",
                  "projector_from_params"}
PERFBENCH = SOURCE.parents[1] / "perfbench"


def _public_definitions(body, prefix=""):
    """(qualified name, node) of every public function or class in ``body``
    and, inside a public class, of every public method or property."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef) and not prefix:
                yield from _public_definitions(node.body, f"{node.name}.")


def unreferenced_definitions(modules: dict[str, str], others=()) -> list[str]:
    """``module.name`` of every public top-level function or class of
    ``modules`` (module name -> source), and ``module.Class.name`` of every
    public method or property of such a class, that no source in ``modules``
    or ``others`` names, as a bare name or an attribute, outside its own
    definition. Docstrings and comments are not names."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    everything = [*trees.values(), *map(ast.parse, others)]
    inside = {}  # (module, qualified name) -> (name, ids of its definition's nodes)
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree.body):
            inside[(module, qualified)] = (node.name, {id(n) for n in ast.walk(node)})
    uses = {}  # name -> ids of the nodes that name it
    for tree in everything:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, set()).add(id(node))
    return sorted(f"{module}.{qualified}"
                  for (module, qualified), (name, own) in inside.items()
                  if not uses.get(name, set()) - own)


def test_unreferenced_checker_finds_each_form():
    modules = {
        "a": ("def called(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def documented():\n    '''Not the same as ``in_docstring``.'''\n"
              "def in_docstring(): pass\n"
              "class Annotated: pass\n"
              "def uses(x: Annotated): return called()\n"
              "def _private(): pass\n"
              "class Report:\n"
              "    def read(self): return self.shown\n"
              "    @property\n"
              "    def shown(self): return self.shown\n"
              "    def _hidden(self): pass\n"),
        "b": "from . import a\nvalue = a.documented\n",
    }
    assert unreferenced_definitions(modules) == ["a.Report", "a.Report.read",
                                                 "a.in_docstring", "a.recursive",
                                                 "a.uses"]
    assert unreferenced_definitions(modules, ["uses(recursive, Report().read)"]) == [
        "a.in_docstring"]


def test_every_public_definition_is_used():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    others = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    unused = unreferenced_definitions(modules, others)
    assert [name for name in unused if name.split(".")[1] not in DOCUMENTED_API] == []
    # Every exempt name exists and is still only documented, not used.
    assert sorted(name.split(".")[1] for name in unused) == sorted(DOCUMENTED_API)
