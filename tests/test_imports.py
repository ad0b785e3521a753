import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mgl").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (no linter is installed)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = "from dataclasses import dataclass\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["dataclass (line 1)"]


# The package's __init__ imports only to re-export.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_modules_import_nothing_they_do_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphaned_private_helpers(sources: dict[str, str]) -> list[str]:
    """Functions, classes and methods named with one leading underscore
    that nothing outside their own body references, over all the modules
    given as {file name: source}."""
    trees = {name: ast.parse(source) for name, source in sources.items()}

    def references(root) -> Counter:
        found = Counter()
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        return found

    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    orphans = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and everywhere[node.name] == references(node)[node.name]):
                orphans.append(f"{name}: {node.name} (line {node.lineno})")
    return orphans


def test_orphaned_private_helpers_are_found():
    source = (
        "def _used():\n    return 1\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n"
        "class Box:\n"
        "    def _helper(self):\n        return _used()\n"
        "    def value(self):\n        return self._helper()\n"
    )
    assert orphaned_private_helpers({"m.py": source}) == ["m.py: _recursive (line 3)"]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert orphaned_private_helpers(sources) == []


def unraised_errors(errors: str, sources) -> list[str]:
    """Exception classes of the module source `errors`, other than the base
    MglError, that no `raise` statement in any of `sources` names."""
    defined = [node.name for node in ast.parse(errors).body
               if isinstance(node, ast.ClassDef) and node.name != "MglError"]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return [name for name in defined if name not in raised]


def test_unraised_errors_are_found():
    errors = "".join(f"class {name}(MglError):\n    pass\n"
                     for name in ("Called", "Bare", "Qualified", "Caught"))
    sources = [
        "raise Called('x')\n",
        "try:\n    f()\nexcept Caught:\n    raise\nraise Bare\n",
        "raise errors.Qualified('y') from None\n",
    ]
    assert unraised_errors(errors, sources) == ["Caught"]


def test_every_error_class_is_raised():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unraised_errors(sources["errors.py"], sources.values()) == []


def direct_lapack_calls(source: str) -> list[str]:
    """Calls of a scipy LAPACK wrapper other than through forms._lapack,
    which turns a nonzero info into EigSolverFailure: `lapack.name(...)`,
    or a call of a name bound to an expression that reads `lapack.name`;
    and wrappers imported by name, whose calls this cannot tell apart."""
    tree = ast.parse(source)
    imported = [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "scipy.linalg.lapack" for alias in node.names]

    def reads_lapack(node) -> bool:
        return any(isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                   and sub.value.id == "lapack" for sub in ast.walk(node))

    aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and reads_lapack(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id in aliases
                  or isinstance(node.func, ast.Attribute) and reads_lapack(node.func))]
    return imported + [f"{ast.unparse(node.func)} (line {node.lineno})" for node in calls]


def test_direct_lapack_calls_are_found():
    source = (
        "from scipy.linalg import lapack\n"
        "from .forms import _lapack\n"
        "w = _lapack(lapack.dstevd, d, e)\n"
        "trd = lapack.zhetrd if c else lapack.dsytrd\n"
        "_lapack(trd, a)\n"
        "trd(a)\n"
        "lapack.dpttrf(d, e)\n"
        "from scipy.linalg.lapack import dpttrs\n"
    )
    assert direct_lapack_calls(source) == [
        "dpttrs (line 8)", "trd (line 6)", "lapack.dpttrf (line 7)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lapack_is_called_only_through_the_info_check(path):
    assert direct_lapack_calls(path.read_text(encoding="utf-8")) == []


def private_reads(source: str) -> list[str]:
    """Private names a module reads from others: `from .m import _name` and
    attribute reads `x._name`, dunders excepted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_private_reads_are_found():
    source = (
        "from __future__ import annotations\n"
        "from .forms import FormOperator, _gemm\n"
        "x = spectral._floor(f) + len(f.__dict__) + f.dim\n"
    )
    assert private_reads(source) == ["_gemm (line 2)", "_floor (line 3)"]


def test_cli_reads_no_private_name_of_another_module():
    # The command-line front end parses flags, loads specs, makes one library
    # call per command and emits its report: it reaches into no module.
    cli = next(p for p in SOURCES if p.name == "cli.py")
    assert private_reads(cli.read_text(encoding="utf-8")) == []


def names(source: str, name: str) -> list[int]:
    """Lines where a module names `name`: as a variable, an attribute or a
    string (a `__dict__` key)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if name in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "value", None)))


def test_names_are_found():
    source = (
        "q = F._householder\n"
        "F.__dict__.pop('_householder')\n"
        "_householder = 1\n"
        "x = '_householder_count'\n"
    )
    assert names(source, "_householder") == [1, 2, 3]


def test_only_forms_names_the_reflectors():
    # The reflectors' lifetime has one owner: the other modules reach them
    # only through FormOperator's methods (`_release_reflectors` among them).
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert {name: lines for name, source in sources.items()
            if (lines := names(source, "_householder")) and name != "forms.py"} == {}


def package_imports(source: str) -> set[str]:
    """The modules of the package that a module imports: `from .m import x`,
    `from . import m`, `from mgl.m import x` and `import mgl.m` all name m."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "mgl":
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("mgl."))
    return found


def test_package_imports_are_found():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import blas\n"
        "from .forms import FormOperator\n"
        "from . import errors\n"
        "from mgl.graphs import DENSE_DIM_BOUND\n"
        "import mgl.cones\n"
    )
    assert package_imports(source) == {"forms", "errors", "graphs", "cones"}


def test_spectral_and_domination_import_nothing_from_each_other():
    # Each owns its time grid: a change to dominate's default --t must not
    # move the Beurling-Deny times, nor the reverse.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert "domination" not in package_imports(sources["spectral"])
    assert "spectral" not in package_imports(sources["domination"])
