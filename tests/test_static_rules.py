"""The package's static rules, checked on the syntax tree of every module.

Runtime invariants and the ``verify`` checks raise explicitly, since
``python -O`` strips ``assert``: no module asserts.
Nothing is floating point, and ``math`` serves only integer gcd/lcm.
Brute-force oracles live only in ``verify``, and the character oracle and the
sl2 form and Clebsch-Gordan oracles never read the closed forms they check.
Only ``cli`` writes the JSON and DOT output formats.
No dense fill makes a private ``Fraction(0)`` for every list it fills, and
``sl2rep`` builds no dense fill at all.
No module reaches into the private API of ``fractions``, which changes
between the Python versions the package supports.  The label and structure
layers ``virasoro``, ``fusion``, ``kacmod`` and ``wpq`` work on integer
numerators and bind neither ``fractions`` nor a module that loads it
(``braidfmat``, ``verify``) at module level.
Every public function and method has a caller in the package, or is
documented in the README; ``verify`` does not count as a caller, except of
its own functions.
Each registry property runs once as the registry runs it, with no
arguments, in ``test_acceptance.py``; any other test that re-runs one so,
through ``PROPERTIES`` or by the function's name, takes ``monkeypatch``, to
run it against a mutant or with a counter.  A call with keywords runs a
property past its registry range, and any test may make one.
"""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import triplet

SOURCES = sorted(Path(triplet.__file__).parent.glob("*.py"))
# The test modules that may not re-run a registry property as it stands.
TESTS = sorted(
    path for path in Path(__file__).parent.glob("test_*.py") if path.name != "test_acceptance.py"
)
MATH_ALLOWED = {"gcd", "lcm"}
README = Path(__file__).resolve().parents[1] / "README.md"
# Private names of `fractions.Fraction`: the `_normalize` keyword, the
# `_from_coprime_ints` constructor and the `_numerator`/`_denominator` slots.
FRACTIONS_PRIVATE = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}
# Decorators that register the function they wrap; the registry calls it.
REGISTRARS = {"_property"}
# The layers that work on integer numerators, and the modules they may import
# only inside a function, where a call that needs a Fraction loads them: the
# modules whose import loads the Fraction stack.
INTEGER_LAYERS = ["fusion.py", "kacmod.py", "virasoro.py", "wpq.py"]
FRACTION_MODULES = {"fractions", "braidfmat", "verify"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.name}:{node.lineno}"


def test_sources_found():
    assert {"cli.py", "verify.py", "virasoro.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert(path):
    found = [_where(path, n) for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float(path):
    found = [
        _where(path, n)
        for n in ast.walk(_tree(path))
        if (isinstance(n, ast.Constant) and isinstance(n.value, (float, complex)))
        or (isinstance(n, ast.Name) and n.id == "float")
    ]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_math_only_for_gcd_and_lcm(path):
    tree = _tree(path)
    aliases = set()
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad += [_where(path, node) for a in node.names if a.name not in MATH_ALLOWED]
    # Every use of the module is an attribute read of gcd or lcm.
    allowed_reads = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MATH_ALLOWED
    }
    bad += [
        _where(path, node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in aliases and id(node) not in allowed_reads
    ]
    assert bad == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_oracles_only_in_verify(path):
    if path.name == "verify.py":
        return
    found = [
        _where(path, n)
        for n in _tree(path).body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name.endswith("_oracle")
    ]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_output_formats_only_in_cli(path):
    # The library layers return values; only `cli` turns them into JSON or DOT.
    if path.name == "cli.py":
        return
    found = [
        _where(path, n)
        for n in ast.walk(_tree(path))
        if (
            isinstance(n, ast.FunctionDef)
            and (n.name in ("to_json", "from_json") or n.name.endswith("_dot"))
        )
        or (isinstance(n, ast.Import) and any(a.name in ("json", "_json") for a in n.names))
        or (isinstance(n, ast.ImportFrom) and n.module in ("json", "_json"))
    ]
    assert found == []


def _is_fraction_zero(node: ast.AST) -> bool:
    """A call `Fraction(0)` (or `Rat(0)`, or through a module attribute)."""
    return (
        isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("Fraction", "Rat")
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 0
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_dense_fills_use_the_shared_zero(path):
    # A list filled with a private Fraction(0) makes another zero for every
    # fill; a fill shares one zero object.
    found = [
        _where(path, n)
        for n in ast.walk(_tree(path))
        if isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and any(
            isinstance(side, ast.List) and any(_is_fraction_zero(x) for x in side.elts)
            for side in (n.left, n.right)
        )
    ]
    assert found == []


def _list_fills(path: Path) -> list[str]:
    """Each list built by repetition, `[...] * n` or `n * [...]`."""
    return [
        _where(path, n)
        for n in ast.walk(_tree(path))
        if isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and (isinstance(n.left, ast.List) or isinstance(n.right, ast.List))
    ]


def test_sl2rep_builds_no_dense_fill():
    # `sl2rep` stores only the nonzero entries of its maps, so its memory
    # grows with them; the dense matrices exist only as the text `cli` writes.
    sl2rep_py = next(path for path in SOURCES if path.name == "sl2rep.py")
    assert _list_fills(sl2rep_py) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_fractions_api(path):
    found = [
        _where(path, n)
        for n in ast.walk(_tree(path))
        if (isinstance(n, ast.Attribute) and n.attr in FRACTIONS_PRIVATE)
        or (isinstance(n, ast.keyword) and n.arg in FRACTIONS_PRIVATE)
        or (isinstance(n, ast.Name) and n.id in FRACTIONS_PRIVATE)
    ]
    assert found == []


def _module_level_fraction_imports(path: Path) -> list[str]:
    """Imports of a module of FRACTION_MODULES, under any name and by any
    path, that run when `path` is imported: every one outside a function
    body."""
    tree = _tree(path)
    in_functions = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        if FRACTION_MODULES & {part for name in names for part in name.split(".")}:
            found.append(_where(path, node))
    return found


@pytest.mark.parametrize("name", INTEGER_LAYERS)
def test_integer_layers_bind_no_fractions_at_module_level(name):
    # `weights`, `fuse-L`, `fuse-C`, `kac-diagram`, `decompose` and
    # `o0-check` load only these layers, and so no Fraction stack;
    # `tests/test_cli.py` checks the modules that each call loads.
    path = next(path for path in SOURCES if path.name == name)
    assert _module_level_fraction_imports(path) == []


def _names_used(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _names_reached(path: Path, root: str) -> set[str]:
    """The names used by function `root` of `path` and, transitively, by the
    module-level functions it calls."""
    functions = {n.name: n for n in _tree(path).body if isinstance(n, ast.FunctionDef)}
    pending, seen, used = [root], set(), set()
    while pending:
        name = pending.pop()
        if name not in seen:
            seen.add(name)
            names = _names_used(functions[name])
            used |= names
            pending += sorted(names & functions.keys())
    return used


def _name_counts(node: ast.AST) -> Counter:
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name)) + Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    )


def _public_defs(tree: ast.Module) -> list[ast.FunctionDef]:
    """Public top-level functions and public methods of top-level classes."""
    defs = []
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        defs += [n for n in body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]
    return defs


def _is_registered(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in REGISTRARS
        for d in node.decorator_list
    )


def _unnamed_public_defs(sources: list[Path], readme: str) -> list[str]:
    """Public functions and methods that no source names outside their own
    definition, that no registering decorator wraps, and that no README code
    span mentions.  Names in ``verify.py`` count only for its own functions:
    a production function that only ``verify`` calls is unnamed."""
    trees = {path: _tree(path) for path in sources}
    counts = {path: _name_counts(tree) for path, tree in trees.items()}
    production = sum((c for path, c in counts.items() if path.name != "verify.py"), Counter())
    fenced = re.findall(r"```(.*?)```", readme, flags=re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", " ", readme, flags=re.S))
    documented = set(re.findall(r"\w+", " ".join(fenced + inline)))
    unnamed = []
    for path, tree in trees.items():
        named = production + counts[path] if path.name == "verify.py" else production
        for node in _public_defs(tree):
            outside = named[node.name] - _name_counts(node)[node.name]
            if not (_is_registered(node) or outside or node.name in documented):
                unnamed.append(f"{_where(path, node)} {node.name}")
    return unnamed


def test_every_public_function_is_named_outside_its_definition():
    assert _unnamed_public_defs(SOURCES, README.read_text()) == []


def test_package_exports_exactly_its_public_imports():
    # `triplet` resolves each exported name from its module on first use,
    # through the `_EXPORTS` table.  A stale name in the table, say of a
    # deleted class, fails the second check.
    assert triplet.__all__ == list(triplet._EXPORTS)
    assert not [name for name in triplet.__all__ if name.startswith("_")]
    for name, module in triplet._EXPORTS.items():
        home = importlib.import_module(f"triplet.{module}")
        assert getattr(triplet, name) is getattr(home, name), name
    assert set(triplet.__all__) <= set(dir(triplet))
    with pytest.raises(AttributeError, match="no_such_name"):
        triplet.no_such_name  # noqa: B018
    # A bare `import triplet` loads no submodule (and so no `fractions`).
    script = "import sys, triplet; print([m for m in sys.modules if m.startswith('triplet.')])"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(Path(triplet.__file__).parents[1])},
    )
    assert result.stdout == "[]\n"


def _readme_layout_modules(text: str) -> list[str]:
    """The modules that the README's "Library layout" table lists, in order."""
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `triplet\.(\w+)`", section, re.MULTILINE)


def test_readme_layout_lists_exactly_the_modules():
    # One row per module of the package, and none for a module that is gone.
    listed = _readme_layout_modules(README.read_text())
    assert sorted(listed) == sorted(
        path.stem for path in SOURCES if path.stem not in ("__init__", "__main__")
    )


def _reruns_a_property(node: ast.AST, names: set[str]) -> bool:
    """A call with no arguments of `PROPERTIES[...][...]`, or one through a
    module attribute, or of a registered function by one of `names` or as
    an attribute of its registered name."""
    if not isinstance(node, ast.Call) or node.args or node.keywords:
        return False
    func = node.func
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Subscript):
        registry = func.value.value
        name = registry.id if isinstance(registry, ast.Name) else getattr(registry, "attr", None)
        return name == "PROPERTIES"
    if isinstance(func, ast.Attribute):
        return func.attr in REGISTERED
    return isinstance(func, ast.Name) and func.id in names


# The registry's functions, by their names in `verify.py`.
REGISTERED = {
    node.name
    for node in _tree(next(path for path in SOURCES if path.name == "verify.py")).body
    if isinstance(node, ast.FunctionDef) and _is_registered(node)
}


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.name)
def test_properties_rerun_only_under_monkeypatch(path):
    # `test_acceptance.py` runs every property once; a plain re-run elsewhere
    # only repeats it.  A registered function may be called by its own name
    # or under the name it is imported as.
    tree = _tree(path)
    names = REGISTERED | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in REGISTERED
    }
    found = [
        f"{_where(path, n)} {n.name}"
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef)
        and n.name.startswith("test_")
        and "monkeypatch" not in {a.arg for a in n.args.args}
        and any(_reruns_a_property(call, names) for call in ast.walk(n))
    ]
    assert found == []


def test_cg_oracle_does_not_read_fusion():
    verify_py = next(path for path in SOURCES if path.name == "verify.py")
    assert not _names_reached(verify_py, "cg_oracle") & {"fuse_C", "fusion"}


# The closed forms the sl2 oracles are compared with.
SL2_CLOSED_FORMS = {"cg_maps", "_cg_system", "invariant_form"}


def test_sl2_oracles_do_not_read_the_closed_forms():
    verify_py = next(path for path in SOURCES if path.name == "verify.py")
    for oracle in ("invariant_form_oracle", "cg_system_oracle"):
        assert not _names_reached(verify_py, oracle) & SL2_CLOSED_FORMS, oracle


def test_static_rules_catch_a_violation(tmp_path):
    # The walks above see each kind of violation they are meant to reject.
    src = tmp_path / "mutant.py"
    src.write_text("import math\nassert True\nx = 0.5\ny = float(1)\nz = math.sqrt(2)\n")
    with pytest.raises(AssertionError):
        test_no_assert(src)
    with pytest.raises(AssertionError):
        test_no_float(src)
    with pytest.raises(AssertionError):
        test_math_only_for_gcd_and_lcm(src)
    layout = "## Library layout\n\n| `triplet.base` | x |\n| `triplet.gone` | y |\n\n## CLI\n"
    assert _readme_layout_modules(f"# t\n\n{layout}| `triplet.cli` | z |\n") == ["base", "gone"]
    src.write_text("from math import gcd, isqrt\n")
    with pytest.raises(AssertionError):
        test_math_only_for_gcd_and_lcm(src)
    src.write_text("class CharOracle:\n    pass\ndef cg_oracle(m, n):\n    return []\n")
    with pytest.raises(AssertionError):
        test_oracles_only_in_verify(src)
    for text in (
        "class Label:\n    def to_json(self):\n        return {}\n",
        "class Label:\n    @staticmethod\n    def from_json(data):\n        return Label()\n",
        "def diagram_to_dot(diagram):\n    return ''\n",
        "import json\n",
        "from json import dumps\n",
        "from _json import encode_basestring_ascii\n",
    ):
        src.write_text(text)
        with pytest.raises(AssertionError):
            test_output_formats_only_in_cli(src)
    for text in (
        "row = [Fraction(0)] * 3\n",
        "m = [[fractions.Fraction(0)] * n for _ in range(n)]\n",
        "v = n * [Rat(0)]\n",
    ):
        src.write_text(text)
        with pytest.raises(AssertionError):
            test_dense_fills_use_the_shared_zero(src)
    src.write_text("row = [ZERO] * 3\nv = [Fraction(1)] * 3\nw = [Fraction(0), Fraction(1)]\n")
    test_dense_fills_use_the_shared_zero(src)
    for text in ("e = [[ZERO] * dim for _ in range(dim)]\n", "row = dim * [0]\n"):
        src.write_text(text)
        assert _list_fills(src) == ["mutant.py:1"]
    src.write_text("e = tuple(k * (n - k + 1) for k in range(n))\nw = [0, 1] + [2]\n")
    assert _list_fills(src) == []
    for text in (
        "x = Fraction(r, d, _normalize=False)\n",
        "x = Fraction._from_coprime_ints(r, d)\n",
        "n = x._numerator\n",
        "d = x._denominator\n",
    ):
        src.write_text(text)
        with pytest.raises(AssertionError):
            test_no_private_fractions_api(src)
    src.write_text("n, d = x.numerator, x.denominator\ny = Fraction(n, d)\n")
    test_no_private_fractions_api(src)
    for text in (
        "import fractions\n",
        "import fractions as f\n",
        "from fractions import Fraction\n",
        "from .braidfmat import Phase\n",
        "from . import base, braidfmat\n",
        "import triplet.braidfmat\n",
        "from .verify import PROPERTIES\n",
        "try:\n    from fractions import Fraction\nexcept ImportError:\n    pass\n",
        "class Weight:\n    from .braidfmat import Phase\n",
    ):
        src.write_text(text)
        assert len(_module_level_fraction_imports(src)) == 1, text
    src.write_text(
        "from .base import ratio_str\n"
        "def weight(num, den):\n    from fractions import Fraction\n    return Fraction(num, den)\n"
    )
    assert _module_level_fraction_imports(src) == []
    for text in (
        "def test_rerun():\n    PROPERTIES['fusion']['dimension_grading']()\n",
        "def test_rerun(tmp_path):\n    verify.PROPERTIES[suite][name]()\n",
        "def test_rerun():\n    verify.fuse_C_equals_cg_oracle()\n",
        "from triplet.verify import fuse_C_equals_cg_oracle as check\n"
        "def test_rerun():\n    check()\n",
    ):
        src.write_text(text)
        with pytest.raises(AssertionError):
            test_properties_rerun_only_under_monkeypatch(src)
    src.write_text(
        "def test_mutant(monkeypatch):\n    PROPERTIES['fusion']['dimension_grading']()\n"
        "def test_names():\n    assert PROPERTIES['fusion']\n"
        "def test_depth():\n    verify.cg_biorthogonality_and_completeness(n_max=7)\n"
        "    PROPERTIES['virasoro']['weight_translation_symmetry'](oracle_max=79)\n"
    )
    test_properties_rerun_only_under_monkeypatch(src)
    src.write_text("def cg_oracle(m, n):\n    return _peel(m, n)\ndef _peel(m, n):\n    return fuse_C(m)\n")
    assert "fuse_C" in _names_reached(src, "cg_oracle")
    src.write_text(
        "def invariant_form_oracle(n):\n    return sl2rep.invariant_form(n).matrix\n"
        "def cg_system_oracle(m, n):\n    return _solve(m, n)\n"
        "def _solve(m, n):\n    return sl2rep._cg_system(m, n)\n"
    )
    assert _names_reached(src, "invariant_form_oracle") & SL2_CLOSED_FORMS == {"invariant_form"}
    assert _names_reached(src, "cg_system_oracle") & SL2_CLOSED_FORMS == {"_cg_system"}
    src.write_text(
        "class Seq:\n    def splits(self):\n        return self.splits()\n"
        "def used():\n    return Seq()\n"
        "def unused(n):\n    return unused(n - 1)\n"
        "def main():\n    return used()\n"
    )
    assert _unnamed_public_defs([src], "`main`") == ["mutant.py:2 splits", "mutant.py:6 unused"]
    # A function that only `verify` names is unnamed; verify's own helper,
    # named only in `verify`, is not.
    src.write_text("def helper():\n    return 1\n")
    verify_py = tmp_path / "verify.py"
    verify_py.write_text("def check():\n    return _run(helper)\ndef _run(fn):\n    return check()\n")
    assert _unnamed_public_defs([src, verify_py], "") == ["mutant.py:1 helper"]
