"""Every public name of sdlab has a caller on a run path, and every import a reader.

A public top-level name or public method counts as used when it is
referenced outside its own definition: in ``src/``, in ``perfbench/``
(whose tracer names the layers it wraps by string) or in the acceptance
gate.  Unit tests do not count, so an analysis that only its own unit
test reaches shows up here.  References are counted by bare name, so a
public name must be defined only once.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdlab"
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# not yet on a run path; each is kept for the ROADMAP open item that wires it in
# (with what only it calls: DensityEstimate, tightness_modulus and the private helpers)
ALLOWED = {
    "sde.density_estimate": "item 2, the density-duality verifier",
    "grids.SpaceTimeField.from_function": "item 2, the exponent check's sampled densities",
    "sde.weak_convergence_scan": "item 3, the weak-convergence verifier",
    "pde.energy_monitor": "item 3, the degiorgi verifier",
}


def _references(tree) -> Counter:
    """Identifiers a tree names: variables, attributes and identifier strings."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _public_definitions():
    """(qualified name, bare name, defining node) of each public name and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [(node.name, node)]
            elif isinstance(node, ast.Assign):
                names = [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name, defn in names:
                if name.startswith("_") or (isinstance(defn, ast.FunctionDef)
                                            and _is_click_command(defn)):
                    continue
                yield f"{module}.{name}", name, defn
                if isinstance(defn, ast.ClassDef):
                    for item in defn.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            yield f"{module}.{name}.{item.name}", item.name, item


def test_public_names_defined_once():
    # callers are counted by bare name: a second definition would share the first one's
    defs = list(_public_definitions())
    counts = Counter(name for _, name, _ in defs)
    twice = {qual for qual, name, _ in defs if counts[name] > 1}
    assert not twice, "public names defined more than once in sdlab"


def test_public_api_has_callers():
    refs = Counter()
    for path in CALLERS:
        refs += _references(ast.parse(path.read_text()))
    unused = {qual for qual, name, defn in _public_definitions()
              if refs[name] - _references(defn)[name] <= 0}
    assert not unused - set(ALLOWED), "public names with no caller outside the unit tests"
    # a name that gained a caller leaves the allowlist
    assert not set(ALLOWED) - unused, "allowlisted names that now have a caller"


def _unread_imports(tree) -> set:
    """Names a module imports but never reads; ``__all__`` counts as a read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_every_import_is_read():
    unread = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _unread_imports(ast.parse(path.read_text()))}
    assert not unread, "imports that nothing in their module reads"
