"""Every name a library module imports is used in that module, every
private module-level name is read somewhere in the library, every public
function, class and method of the library is read outside its own
definition by the library, the benchmark or the scripts (a name only the
tests read is a second way to do a job, unless it is listed with its
reason), only `exact.over_lcm` takes the lcm of denominators, and only
`exact.as_size` raises a bound on a size.

The package namespace loads a module on the first read of one of its
names: a fresh `import geopoly` loads no module of the package, and every
public name is its defining module's own object.  Only the standard
library is needed, so the checks run wherever the tests do.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import geopoly

SOURCES = sorted(Path(geopoly.__file__).resolve().parent.glob("*.py"))
SUBMODULES = [p.stem for p in SOURCES if p.stem not in ("__init__", "__main__")]
REPO = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, skipping ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of the names inside string annotations."""
    out = []
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                out += [(n.id, node.lineno) for n in ast.walk(inner) if isinstance(n, ast.Name)]
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {name for name, _ in _annotation_reads(tree)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_detector_flags_an_unused_name():
    source = "import os\nfrom math import comb, factorial, gcd\nx: 'comb' = os.sep\ny = 'gcd'\n"
    tree = ast.parse(source)
    assert set(_imported(tree)) - _used(tree) == {"factorial", "gcd"}


def _private_defined(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` -> line of its def, class or assignment; dunders skipped."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _reads(tree: ast.Module, lineages: dict[str, set[str]]) -> list[tuple[str, int, set | None]]:
    """(name, line, classes) of every name loaded, attribute name, and name
    inside a string annotation.  ``classes`` holds the classes whose method
    the read can name: none for a bare name; the lineage of C for ``C.m``,
    and for ``self.m`` or ``cls.m`` inside C; None, any class, for every
    other attribute."""
    out = [(n.id, n.lineno, set()) for n in ast.walk(tree) if isinstance(n, ast.Name)
           and isinstance(n.ctx, ast.Load)]

    def visit(node: ast.AST, around: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            around = node.name
        if isinstance(node, ast.Attribute):
            base = getattr(node.value, "id", None)
            owner = around if base in ("self", "cls") else base
            out.append((node.attr, node.lineno, lineages.get(owner)))
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(tree, None)
    return out + [(name, line, set()) for name, line in _annotation_reads(tree)]


def _read(tree: ast.Module) -> set[str]:
    return {name for name, _, _ in _reads(tree, {})}


def test_no_dead_private_name():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    read = set().union(*map(_read, trees.values()))
    dead = [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_defined(tree).items()
        if name not in read
    ]
    assert dead == [], f"private names defined but never read in the library: {dead}"


def test_detector_flags_an_unused_private_name():
    source = (
        "import os\n_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
        "def _f(x: '_T') -> None:\n    return _A\n"
        "class _T: pass\n_D: int = 4\nos._D\ndef _g(): _g = 1\n"
    )
    tree = ast.parse(source)
    assert set(_private_defined(tree)) - _read(tree) == {"_B", "_C", "_f", "_g"}


def _public_defined(tree: ast.Module) -> dict[str, ast.AST]:
    """Public top-level function or class ``name``, and ``Class.method`` of
    every public method, -> its definition."""
    out = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{cls.name}.{node.name}"] = node
    return {name: node for name, node in out.items() if not name.split(".")[-1].startswith("_")}


def _lineages(trees) -> dict[str, set[str]]:
    """Each class of ``trees`` -> itself and its base classes among them."""
    bases = {
        cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }

    def lineage(name: str) -> set[str]:
        return {name}.union(*(lineage(b) for b in bases[name] if b in bases))

    return {name: lineage(name) for name in bases}


def _unread_public(sources: dict[str, ast.Module], readers: dict[str, ast.Module]) -> list[str]:
    """``file: name (line n)`` of each public name of ``sources`` that no tree
    of ``readers`` reads outside the name's own definition.  A method ``C.m``
    counts as read by an attribute read of ``m`` whose class is C or a
    subclass of C, or is unknown (`_reads`)."""
    lineages = _lineages([*sources.values(), *readers.values()])
    where: dict[str, list[tuple[str, int, set | None]]] = {}
    for file, tree in readers.items():
        for name, line, classes in _reads(tree, lineages):
            where.setdefault(name, []).append((file, line, classes))
    return [
        f"{file}: {name} (line {node.lineno})"
        for file, tree in sources.items()
        for name, node in _public_defined(tree).items()
        if all(
            at == file and node.lineno <= line <= node.end_lineno
            or "." in name and classes is not None and name.split(".")[0] not in classes
            for at, line, classes in where.get(name.split(".")[-1], ())
        )
    ]


# The library's readers: the tests are not among them, so a name only a test
# reads is flagged.  The strings of `__init__`'s export table read nothing.
READERS = SOURCES + sorted(p for d in ("perfbench", "scripts") for p in (REPO / d).rglob("*.py"))

# Public names kept with no reader among READERS, each for its reason.
UNREAD_ALLOWED = {
    "set_partitions_count": "exhaustive oracle the Stirling tests compare tables against",
    "r_stirling_count": "exhaustive oracle the Stirling tests compare tables against",
    "specialize": "README API for the named slices; due a reader in an id that checks "
                  "the slice tables against enumeration",
    "pow_series": "due a reader in an id that checks w_n^(m) at rational m against its EGF",
    # value wrappers: README API, whose `_*_sides` the registry's checks read
    "eval_minus_one": "value wrapper of the MINUS_ONE check's sides",
    "degenerate_bernoulli2": "value wrapper of the EQ34_THM2 check's sides",
}


def _trees(paths) -> dict[str, ast.Module]:
    return {str(p.relative_to(REPO)): ast.parse(p.read_text(), filename=str(p)) for p in paths}


def test_no_dead_public_name():
    unread = _unread_public(_trees(SOURCES), _trees(READERS))
    dead = [entry for entry in unread if entry.split()[1] not in UNREAD_ALLOWED]
    assert dead == [], f"public names no library, benchmark or script code reads: {dead}"
    # an allowance goes, with its reason, once its name has a reader
    assert sorted(entry.split()[1] for entry in unread) == sorted(UNREAD_ALLOWED), unread


def test_detector_flags_a_name_only_a_test_reads():
    lib = ast.parse(
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def tested(): pass\n"
        "class P:\n"
        "    def kept(self) -> 'P': return self.kept\n"
        "    def dead(self) -> 'P': return P()\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "class Q:\n    def make(self) -> 'Q': return Q()\n"
    )
    bench = ast.parse("from lib import P, used\nused()\nP().kept()\n")
    test = ast.parse("from lib import P, recursive, tested\ntested()\nP().dead()\nrecursive(2)\n")
    assert _unread_public({"lib.py": lib}, {"lib.py": lib, "bench.py": bench}) == [
        "lib.py: recursive (line 3)", "lib.py: tested (line 4)", "lib.py: Q (line 10)",
        "lib.py: P.dead (line 7)", "lib.py: Q.make (line 11)",
    ]
    # counted as a reader, the test would hide the first three; Q reads only itself
    assert _unread_public({"lib.py": lib}, {"lib.py": lib, "bench.py": bench, "t.py": test}) == [
        "lib.py: Q (line 10)", "lib.py: Q.make (line 11)",
    ]
    assert not any(p.is_relative_to(REPO / "tests") for p in READERS)


def test_detector_resolves_a_method_by_its_class():
    # PowerSeries.zero went unflagged while the library read PolyQ.zero():
    # a method's reads through its class, or self inside it, count for it alone
    lib = ast.parse(
        "class Base:\n    def shared(self): pass\n"
        "class A(Base):\n    def zero(self): return A()\n"
        "    def total(self): return self.shared()\n"
        "class B:\n    def zero(self): return B()\n    def shared(self): pass\n"
        "    def kept(self): pass\n"
        "def scan(items): return [zero for zero in items]\n"
    )
    bench = ast.parse("from lib import A, B, scan\nA.zero()\nA().total()\nB().kept()\nscan([])\n")
    assert _unread_public({"lib.py": lib}, {"lib.py": lib, "bench.py": bench}) == [
        "lib.py: B.zero (line 7)", "lib.py: B.shared (line 8)",
    ]


def _owned(tree: ast.Module, flagged) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of every node ``flagged`` accepts."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if flagged(node):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _callee(call: ast.Call) -> str:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")


def _denominator_lcms(tree: ast.Module) -> list[tuple[str, int]]:
    """Every ``lcm`` call that has a ``.denominator`` anywhere among its arguments."""
    return _owned(tree, lambda node: (
        isinstance(node, ast.Call)
        and _callee(node) == "lcm"
        and any(
            isinstance(n, ast.Attribute) and n.attr == "denominator"
            for arg in node.args
            for n in ast.walk(arg)
        )
    ))


def test_only_over_lcm_scales_by_the_lcm_of_denominators():
    # writing rationals over their lcm is one decision: exact.over_lcm makes it,
    # HsuShiueParams.integer_form and every integer kernel read it
    found = [
        (path.name, owner, line)
        for path in SOURCES
        for owner, line in _denominator_lcms(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert [(name, owner) for name, owner, _ in found] == [("exact.py", "over_lcm")], found


def test_detector_flags_an_lcm_of_denominators():
    source = (
        "import math\nfrom math import lcm\n"
        "def f(x, y):\n    return lcm(x.denominator, y.denominator)\n"
        "def g(cs):\n    def inner():\n        return math.lcm(*(c.denominator for c in cs))\n"
        "    return inner\n"
        "def h(p, q):\n    return lcm(p.den, q.den), lcm(*p.nums)\n"
        "D = lcm(F.denominator, 2)\n"
    )
    assert _denominator_lcms(ast.parse(source)) == [("f", 4), ("inner", 7), ("<module>", 11)]


def _bound_raises(tree: ast.Module) -> list[tuple[str, int]]:
    """Every ``raise ValueError(...)`` with "must be >=" or "must be <=" in the
    text of its message: a bound, lower or upper, on a size."""
    return _owned(tree, lambda node: (
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and _callee(node.exc) == "ValueError"
        and any(
            isinstance(n, ast.Constant)
            and isinstance(n.value, str)
            and ("must be >=" in n.value or "must be <=" in n.value)
            for arg in node.exc.args
            for n in ast.walk(arg)
        )
    ))


def test_only_as_size_raises_a_lower_bound():
    # "a size is an int from its least to its most value" is one rule:
    # exact.as_size checks it, and every size of the library goes through it
    found = [
        (path.name, owner, line)
        for path in SOURCES
        for owner, line in _bound_raises(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert [(name, owner) for name, owner, _ in found] == [("exact.py", "as_size")] * 2, found


def test_detector_flags_a_lower_bound_raise():
    source = (
        "def f(n):\n    if n < 0:\n        raise ValueError(f\"n must be >= 0, got {n}\")\n"
        "class C:\n    def g(self, k):\n        raise ValueError(\"k must be >= 1\")\n"
        "def h(n):\n    raise ValueError(f\"n must be <= 9, got {n}\")\n"
        "def i(n):\n    raise TypeError(\"n must be >= 0\")\n"
        "raise ValueError(\"x must be >= \" + str(2))\n"
    )
    assert _bound_raises(ast.parse(source)) == [
        ("f", 3), ("g", 6), ("h", 8), ("<module>", 11)
    ]


def test_import_leaves_dataclasses_and_inspect_out(fresh_python):
    # a cold import without a bytecode cache paid about a third of its time
    # for dataclasses and the inspect module it imports; a bare
    # `import geopoly` loads no module, so probe after loading every one
    modules = ", ".join(f"geopoly.{p.stem}" for p in SOURCES if p.stem != "__init__")
    probe = (f"import sys\nfrom geopoly import *\nimport {modules}\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = fresh_python("-c", probe)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


# The names `from geopoly import ...` gave before the package loaded its
# modules on demand, less the three since deleted; none of them may go
# missing from the namespace.
EAGER_SURFACE = (
    "CheckReport EvalConfig HsuShiueParams IDENTITY_IDS PolyQ PowerSeries Rational StirlingTable "
    "apply_operator as_rational barred_preferential_count bernoulli_number bernoulli_numbers "
    "bernoulli_poly binom_deform bpa_number build_table cached_table "
    "carlitz_beta degenerate_bernoulli2 degenerate_euler digamma divide "
    "eval_dobinski_numeric eval_eq17_18 eval_eq30_family eval_minus_one eval_theorem5 exp_poly "
    "exp_series falling_factorial gamma_euler gen_factorial geometric_at geometric_poly "
    "gf_bernoulli2_degenerate gf_carlitz_beta gf_degenerate_euler gf_w howard_power_sum "
    "hurwitz_zeta inverse log2 log_series ordered_set_partitions_count pi pow_int pow_series "
    "r_stirling_count rising_factorial run run_all set_partitions_count specialize spivey_step "
    "verify_against_gf zeta_int"
).split()


def test_import_loads_no_module_until_a_name_is_read(fresh_python):
    out = fresh_python(
        "-c",
        "import sys, geopoly\n"
        "loaded = lambda: ' '.join(sorted(m for m in sys.modules if m.startswith('geopoly')))\n"
        "print(loaded())\ngeopoly.build_table\nprint(loaded())",
    )
    assert out.returncode == 0, out.stderr
    bare, after_read = (line.split() for line in out.stdout.splitlines())
    assert bare == ["geopoly"]
    # reading one name loads its layer and what that imports, not the registry or the CLI
    assert "geopoly.stirling" in after_read
    assert not {"geopoly.analytic", "geopoly.identities", "geopoly.mellin", "geopoly.cli"} & set(
        after_read
    )


def test_every_public_name_is_its_owners_object(fresh_python):
    out = fresh_python(
        "-c",
        "import geopoly\nfrom importlib import import_module\n"
        "print([name for name in geopoly.__all__ if getattr(geopoly, name) is not\n"
        "       getattr(import_module('geopoly.' + geopoly._OWNER[name]), name)])",
    )
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def test_every_module_is_reachable_as_an_attribute(fresh_python):
    out = fresh_python(
        "-c",
        f"import sys, geopoly\nnames = {SUBMODULES!r}\n"
        "print([n for n in names if getattr(geopoly, n) is not sys.modules['geopoly.' + n]])",
    )
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
    # the documented spelling, through the package alone
    out = fresh_python("-c", "import geopoly\nprint(len(geopoly.identities.REGISTRY) > 0, "
                       "callable(geopoly.identities.run))")
    assert (out.returncode, out.stdout) == (0, "True True\n"), out.stderr


def test_dir_and_star_import_list_every_public_name(fresh_python):
    out = fresh_python(
        "-c",
        "import geopoly\nnamespace = {}\nexec('from geopoly import *', namespace)\n"
        "print(sorted(set(geopoly.__all__) - set(dir(geopoly))))\n"
        "print(sorted(set(geopoly.__all__) - set(namespace)))",
    )
    assert (out.returncode, out.stdout) == (0, "[]\n[]\n"), out.stderr


def test_unknown_name_raises_attribute_error(fresh_python):
    out = fresh_python(
        "-c",
        "import geopoly\ntry:\n    geopoly.nope\nexcept AttributeError as e:\n    print(e)\n"
        "print(hasattr(geopoly, 'nope'))",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["module 'geopoly' has no attribute 'nope'", "False"]


def test_export_table_matches_the_modules():
    assert sorted(geopoly._EXPORTS) == SUBMODULES
    names = [name for names in geopoly._EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == len(geopoly.__all__), "a name listed twice"
    assert set(EAGER_SURFACE) <= set(geopoly.__all__)
    for owner, names in geopoly._EXPORTS.items():
        module = import_module(f"geopoly.{owner}")
        for name in names:
            assert name in vars(module), (owner, name)
            home = getattr(vars(module)[name], "__module__", None) or ""
            # a function or class of the package is listed under the module that defines it
            assert not home.startswith("geopoly.") or home == module.__name__, (owner, name, home)
