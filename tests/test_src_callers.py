"""Every public function and class in src/ has a caller in src/.

A name counts as called when some `ast.Name`, `ast.Attribute` or import alias
in src/ mentions it outside the definition itself. The match is by name, not
by binding, with one refinement: a call site reaches only the definitions of
that name whose parameters accept its arguments. So `ledger.is_revoked(s, t)`
does not keep alive a one-argument `is_revoked` of another class. The fence
finds code that nothing in the simulator or the CLI can reach, and code
reached only from tests.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

SRC = Path(__file__).resolve().parent.parent / "src"

# Public names with no caller in src/ that stay, each with the reason.
ALLOWED = {
    "KeyStore.sign_count": "perfbench reads the KeyStore's sign total",
    "KeyStore.verify_count": "perfbench reads the KeyStore's verify total",
    "MetricsReport.conservation_delta": "perfbench checks byte conservation with it",
    "CrsAuthority.publish_update": "perfbench wraps it as the crs.publish_update span",
    "OcspResponder.handle_raw": "the responder's byte entry; ROADMAP item 7 gives it a caller",
}


class CallShape(NamedTuple):
    positional: int
    keywords: frozenset
    unpacked: bool  # *args or **kwargs at the call site: accepts any signature


def _call_shape(call: ast.Call) -> CallShape:
    return CallShape(
        positional=len(call.args),
        keywords=frozenset(k.arg for k in call.keywords if k.arg is not None),
        unpacked=any(isinstance(a, ast.Starred) for a in call.args)
        or any(k.arg is None for k in call.keywords),
    )


def _references(tree: ast.AST) -> list[tuple[ast.AST, str, Optional[CallShape]]]:
    """(node, name, call shape or None) for every name the tree mentions."""
    called = {id(c.func): _call_shape(c) for c in ast.walk(tree) if isinstance(c, ast.Call)}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node, node.id, called.get(id(node))))
        elif isinstance(node, ast.Attribute):
            refs.append((node, node.attr, called.get(id(node))))
        elif isinstance(node, ast.alias):
            refs.append((node, node.name.rpartition(".")[2], None))
    return refs


def _accepts(fn: ast.AST, is_method: bool, shape: Optional[CallShape]) -> bool:
    """Whether a call of this shape can bind to fn's parameters."""
    if shape is None or shape.unpacked or isinstance(fn, ast.ClassDef):
        return True
    a = fn.args
    params = a.posonlyargs + a.args
    if is_method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
        params = params[1:]
    if shape.positional > len(params) and a.vararg is None:
        return False
    names = {p.arg for p in a.args[len(a.posonlyargs) :] + a.kwonlyargs}
    if a.kwarg is None and not shape.keywords <= names:
        return False
    required = params[: len(params) - len(a.defaults)]
    bound = {p.arg for p in params[: shape.positional]} | shape.keywords
    required_kw = [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is None]
    return all(p.arg in bound for p in required + required_kw)


def _public_defs(tree: ast.AST, prefix: str = ""):
    """(qualified name, node, is_method) for each public def and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield prefix + node.name, node, isinstance(tree, ast.ClassDef)
            yield from _public_defs(node, prefix + node.name + ".")
        else:
            yield from _public_defs(node, prefix)


def uncalled_public_names(root: Path = SRC) -> set[str]:
    """Qualified names of the public defs and classes in src/ that no call
    site in src/ reaches."""
    refs = defaultdict(list)
    defs = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node, name, shape in _references(tree):
            refs[name].append((node, shape))  # held, so that ids stay unique
        defs.extend(_public_defs(tree))
    uncalled = set()
    for qualname, node, is_method in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(
            id(ref) not in inside and _accepts(node, is_method, shape)
            for ref, shape in refs[node.name]
        ):
            uncalled.add(qualname)
    return uncalled


def test_every_public_name_has_a_src_caller():
    missing = sorted(uncalled_public_names() - ALLOWED.keys())
    assert not missing, f"public names with no caller in src/: {missing}"


def test_every_allowed_name_still_lacks_a_caller():
    """An allowed name that gains a caller leaves the list."""
    stale = sorted(ALLOWED.keys() - uncalled_public_names())
    assert not stale, f"allowed names that now have a caller or are gone: {stale}"


def test_the_scan_on_a_small_module(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def spin(self, n):\n"
        "        return self.spin(n - 1) if n else 0\n"
        "    def used(self, a, b=0):\n"
        "        return a\n"
        "class Other:\n"
        "    def used(self):\n"
        "        return 1\n"
        "def run():\n"
        "    return Box().used(1), Other\n"
    )
    # spin is called only from its own body, the one call of used passes an
    # argument that Other.used does not take, and nothing mentions run
    assert uncalled_public_names(tmp_path) == {"Box.spin", "Other.used", "run"}
