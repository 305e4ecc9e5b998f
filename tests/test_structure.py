"""Static checks on the package: the benchmark's hooks into it resolve, no
module, test or script keeps an import it never uses, every module-level
function and class of the package is named somewhere, the certificate
checker shares only the claim's definitions with the prover, the package
imports nothing beyond the standard library and numpy, and no check in the
package is an `assert`."""

import ast
import importlib
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "markoffmodp"


def test_benchmark_hooks_resolve(monkeypatch):
    # the traced benchmark wraps these names; it runs in no test otherwise
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    missing = [f"{m.__name__}.{attr}" for m, attr, _, _ in layers.WRAPS if not hasattr(m, attr)]
    assert missing == []


def test_benchmark_imports_resolve():
    # every `from markoffmodp... import name` in bench/, and every attribute
    # read off a markoffmodp module imported that way
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("markoffmodp"):
                source = importlib.import_module(node.module)
                for alias in node.names:
                    target = getattr(source, alias.name, None)
                    if target is None:
                        try:
                            target = importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            missing.append(f"{path.name}: {node.module}.{alias.name}")
                            continue
                    if isinstance(target, types.ModuleType):
                        modules[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)):
                missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert missing == []


def test_coefficient_rings_share_one_protocol():
    # trired duck-types its two coefficient rings, so a public name on one
    # ring only is a method or constant that the other one lacks
    from markoffmodp.trired import SYM, prime_ring

    def public(ring):
        return {name for name in dir(ring) if not name.startswith("_")}

    assert public(SYM) == public(prime_ring(7, 3)) - {"p"}
    assert "norm" in public(SYM)


def _unused_imports(tree):
    """(line, name) of each import whose name its enclosing function (or the
    module, for a top-level import) never reads."""
    out = []

    def visit(scope):
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node)
                continue
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                stack.extend(ast.iter_child_nodes(node))
                continue
            out.extend((node.lineno, n) for n in names if n not in used)

    visit(tree)
    return out


def test_no_unused_imports():
    found = []
    for folder in (PACKAGE, ROOT / "tests"):
        for path in sorted(folder.glob("*.py")):
            found += [f"{folder.name}/{path.name}:{line} {name}"
                      for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_unused_import_detector():
    src = (
        "import os\n"
        "from math import gcd, comb\n"
        "def f():\n"
        "    from .rings import KPoly, CycloElem\n"
        "    return CycloElem, gcd\n"
        "def g(KPoly):\n"
        "    return os\n"
    )
    assert sorted(_unused_imports(ast.parse(src))) == [(2, "comb"), (4, "KPoly")]


def _unnamed_definitions(trees):
    """(file, name) of each module-level function or class in `trees` (file
    -> parsed module) that no code names outside its own definition.  A name
    counts as read, as an attribute, as an imported name or as an identifier
    string (a `getattr` target such as the benchmark's wrap table)."""
    defined, named = [], {}  # name -> {(file, definition it sits in)}
    for file, tree in trees.items():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                defined.append((file, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                named.setdefault(name, set()).add((file, owner))
    return [(file, name) for file, name in defined
            if not named.get(name, set()) - {(file, name)}]


def test_every_package_definition_is_named():
    # a helper that outlives its last caller shows up here
    files = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *BENCH.glob("*.py")]
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text()) for path in files}
    package = str(PACKAGE.relative_to(ROOT))
    found = [f"{file}: {name}" for file, name in _unnamed_definitions(trees)
             if file.startswith(package)]
    assert found == []


def test_unnamed_definition_detector():
    src = (
        "def used():\n"
        "    return getattr(m, 'wrapped')\n"
        "def wrapped():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Lonely:\n"
        "    def method(self):\n"
        "        return Lonely\n"
        "used()\n"
    )
    assert _unnamed_definitions({"m.py": ast.parse(src)}) == [
        ("m.py", "recursive"), ("m.py", "Lonely")]


def _reachable(defs, root):
    """The names in `defs` (name -> function definition) that `root` reaches
    by naming them, directly or through each other; root included."""
    seen, stack = set(), [root]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs]
    return seen


def test_checker_shares_only_the_claims_definitions():
    # recheck may read what a claim means (the hash, the plan, the exempt
    # classes and the acceptance rule) but no other code of the prover
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _reachable(defs, "recheck_errors") & _reachable(defs, "certify") == {
        "_hash_payload", "canonical_json", "_is_exempt", "build_plan", "default_nd",
        "residual_divides_target", "verdict_failures"}


def test_no_assert_in_package():
    # `python -O` strips assert statements, and with them the check
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_numpy():
    # numpy is the one runtime dependency; sympy and scipy serve only as test
    # oracles, so an import of either in the package would break an install
    # without the test extra
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert found == []
