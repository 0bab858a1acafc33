"""What a fresh interpreter loads: each command imports only what it uses;
and what each file imports: no polynomial module reaches the oracle tier, no
library module reaches the registry or the corpora, and the test oracles
reach nothing of the package; and that every test helper has a caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the modules whose routes are polynomial: the exponential enumerations in
# oracle and the alpha search in mis are out of their reach
POLYNOMIAL = ("critical", "graphs", "matching", "ore")
# the line the benchmark times as set-up
SETUP = "import critset, critset.cli; critset.registry()"
# loaded on first use only: the process pool by --workers K > 1, fixtures by
# the fixtures command; dataclasses and inspect by nothing
LAZY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect",
        "critset.fixtures")
FIXTURE = str(Path(SRC, "critset", "fixtures", "fig233.edges"))
# whether each run loads the registry (props) and the corpora (corpus):
# registry() needs props alone, analyze neither, conjecture no registry
COMMAND_LOADS = [
    ("setup", SETUP, True, False),
    ("analyze", ["analyze", FIXTURE, "--json"], False, False),
    ("check", ["check", "--all", FIXTURE], True, False),
    ("conjecture", ["conjecture", "--max-n", "3"], False, True),
    ("fuzz", ["fuzz", "--n", "5..6", "--p", "0.3", "--count", "2",
              "--seed", "1"], True, True),
]


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_setup_line_loads_no_pool_dataclasses_or_fixtures():
    extra = _modules_after(SETUP) - _modules_after("pass")
    assert sorted(name for name in extra if name.startswith("critset")) == [
        "critset", "critset.cli", "critset.critical", "critset.graphs",
        "critset.ke", "critset.matching", "critset.mis", "critset.oracle",
        "critset.ore", "critset.props"]
    assert [name for name in LAZY if name in extra] == []


def test_setup_line_builds_no_subset_lanes():
    # the lane cache fills on the first table asked for, never at import or
    # in registry(), so the benchmark's setup_s carries none of it; nor do
    # the square test's masks or any Facts' square verdict
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "\n".join([
        "from critset import oracle", "verdicts = []",
        "real = oracle.Facts.squares_hold",
        "oracle.Facts.squares_hold = lambda f: verdicts.append(f) or real(f)",
        SETUP,
        "print(oracle._lanes, oracle._square_masks.cache_info().currsize,"
        " verdicts)"])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "{} 0 []\n"


@pytest.mark.parametrize("run,props,corpus",
                         [entry[1:] for entry in COMMAND_LOADS],
                         ids=[entry[0] for entry in COMMAND_LOADS])
def test_each_command_loads_the_registry_and_corpora_it_runs(run, props,
                                                             corpus):
    if isinstance(run, list):
        run = ("import contextlib, io\nfrom critset.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main({run!r}) == 0")
    loaded = _modules_after(run)
    assert ("critset.props" in loaded, "critset.corpus" in loaded) == (
        props, corpus)


@pytest.mark.parametrize("module", ["critset.cli", "critset.props",
                                    "critset.corpus", "critset.fixtures"])
def test_module_imports_alone(module):
    assert module in _modules_after(f"import {module}")


def test_every_exported_name_resolves():
    import critset
    assert [name for name in critset.__all__
            if not hasattr(critset, name)] == []


def test_all_lists_every_public_name_once():
    # every public name the package file binds is exported, so a deletion
    # cannot leave an import behind that __all__ no longer names
    import critset
    tree = ast.parse(Path(critset.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert len(critset.__all__) == len(set(critset.__all__))
    assert sorted(public - set(critset.__all__)) == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The names a module's imports bind, anywhere in it, with the line of
    each; `import a.b` binds a, and the future import binds nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(
                node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def test_package_init_imports_exactly_what_it_exports():
    # each exported name is bound once: by a top-level import, or by the
    # lazy table whose names __getattr__ serves from props or corpus
    import critset
    from critset import corpus, props
    tree = ast.parse(Path(critset.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported + list(critset._LAZY)) == sorted(
        set(critset.__all__))
    source = {"props": props, "corpus": corpus}
    assert [name for name, module in critset._LAZY.items()
            if getattr(critset, name) is not getattr(source[module], name)
            ] == []


@pytest.mark.parametrize(
    "path", sorted(Path(SRC, "critset").glob("*.py"))
    + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    # no linter runs here, so an import a change leaves behind fails this,
    # in the package and in the tests; a name counts as used where it is
    # read, and the package file's __all__ strings use the names it
    # re-exports
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    if path.name == "__init__.py":
        import critset
        used.update(critset.__all__)
    assert {name: line for name, line in _imported_names(tree).items()
            if name not in used} == {}


def _named(tree: ast.AST) -> list[str]:
    """The names tree reads, imports or takes as arguments (fixtures)."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            if isinstance(node, ast.Attribute) else node.arg
            if isinstance(node, ast.arg) else node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.arg, ast.alias))]


def test_every_test_helper_has_a_caller():
    # a reference or fixture whose last caller goes is deleted with it: each
    # top-level def of oracles.py and conftest.py is named in tests/ outside
    # those defs, directly or through the defs named
    here = Path(__file__).parent
    helpers = {node.name: node for name in ("oracles.py", "conftest.py")
               for node in ast.parse((here / name).read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = [name for path in here.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if path.name not in ("oracles.py", "conftest.py")
            or getattr(node, "name", None) not in helpers
            for name in _named(node)]
    reached = set()
    while todo:
        name = todo.pop()
        if name in helpers and name not in reached:
            reached.add(name)
            todo += _named(helpers[name])
    assert len(helpers) > 20
    assert sorted(set(helpers) - reached) == []


def test_every_file_read_names_its_encoding():
    # a read in the locale's encoding refuses a UTF-8 label under the C
    # locale, and reads other labels from the same bytes under another
    calls = [(path.name, node)
             for path in sorted(Path(SRC, "critset").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(
                 node.func, "attr", None)) in ("open", "read_text")]
    assert len(calls) >= 2
    assert [f"{name}:{node.lineno}" for name, node in calls
            if "encoding" not in {k.arg for k in node.keywords}] == []


def _imports(path: Path, at_import: bool = False) -> set[str]:
    """Every module a file imports, anywhere in it, with the package's
    relative imports read as critset.<name>; `from M import x` counts as
    importing both M and M.x, as x may be a module. With at_import, only
    the imports that run when the file is imported: none inside a function
    or under `if TYPE_CHECKING:`."""
    found = set()
    todo: list[ast.AST] = [ast.parse(path.read_text())]
    while todo:
        node = todo.pop()
        if at_import and (isinstance(node, ast.FunctionDef) or (
                isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING")):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"critset.{base}" if base else "critset"
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", POLYNOMIAL)
def test_polynomial_modules_never_import_the_oracle_tier(module):
    path = Path(SRC) / "critset" / f"{module}.py"
    assert sorted(_imports(path) & {"critset.oracle", "critset.mis"}) == []


@pytest.mark.parametrize("module", POLYNOMIAL + ("mis", "ke", "oracle"))
def test_library_modules_never_import_the_registry_or_corpora(module):
    path = Path(SRC) / "critset" / f"{module}.py"
    assert sorted(_imports(path) & {"critset.props", "critset.corpus"}) == []


@pytest.mark.parametrize("module", ["__init__", "cli", "props"])
def test_start_up_modules_import_the_rest_inside_functions(module):
    # the setup line imports these three; each imports the registry or the
    # corpora only inside the functions that need them
    path = Path(SRC) / "critset" / f"{module}.py"
    assert sorted(_imports(path, at_import=True)
                  & {"critset.props", "critset.corpus"}) == []
    assert sorted(_imports(path) & {"critset.props", "critset.corpus"}) != []


def test_oracles_import_nothing_from_the_package():
    # the brute-force references stay independent of the code they check
    imported = _imports(Path(__file__).parent / "oracles.py")
    assert sorted(m for m in imported if m.split(".")[0] == "critset") == []
