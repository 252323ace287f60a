"""The public surface: the names ``lvdiag`` exports, the README's library example,
what importing the command line loads, and the code's hygiene (no unused import,
no private function that nothing calls, no test helper written out in two test
modules, one module that makes the record classes)."""

import ast
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import lvdiag

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "lvdiag").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

PUBLIC_NAMES = [
    "AgreementReport",
    "DiagnosticsReport",
    "DivergenceError",
    "InitialValueProblem",
    "IntegrationError",
    "IntegratorConfig",
    "MethodKind",
    "ModelParams",
    "NonFiniteError",
    "PopulationState",
    "PositivityError",
    "SegmentCrossing",
    "SeriesSolution",
    "StepSizeUnderflowError",
    "Trajectory",
    "UnknownPresetError",
    "conservation_drift",
    "divergence_time",
    "failure_report",
    "method_series",
    "methods_agree",
    "preset",
    "preset_names",
    "sample_series",
    "self_intersection",
    "solve",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(lvdiag.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(lvdiag, name) is not None, name
    assert len(PUBLIC_NAMES) == 26


def test_agreement_report_has_one_field_per_cascade():
    """ADM and HPM build one cascade, so the report has one field for both."""
    fields = [f.name for f in dataclasses.fields(lvdiag.AgreementReport)]
    assert fields == ["adomian", "vim"]


def _library_example():
    """The python block under the README's ``## Library`` heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    section = section[: section.index("\n## ", 1)]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S)
    assert block is not None, "no python block under ## Library"
    return block.group(1)


def test_readme_library_example_runs():
    exec(compile(_library_example(), "README.md", "exec"), {})


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names(node):
    """Every name that ``node`` loads, bare or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _exported_names(tree):
    """The strings listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    tree = _parse(path)
    used = _referenced_names(tree) | _exported_names(tree)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    assert sorted(name for name in imported if name not in used) == []


def _src_callers():
    """Each name that src/ loads, mapped to the top-level functions that load it
    (None for module-level code and classes)."""
    callers = {}
    for path in SOURCES:
        for node in _parse(path).body:
            owner = node.name if isinstance(node, ast.FunctionDef) else None
            for name in _referenced_names(node):
                callers.setdefault(name, set()).add(owner)
    return callers


def test_every_private_function_is_called_from_src():
    """A top-level ``_name`` function that only the tests (or itself) use is dead code."""
    defined = {
        node.name: path.name
        for path in SOURCES
        for node in _parse(path).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    }
    callers = _src_callers()
    unused = [f"{module}:{name}" for name, module in defined.items() if not callers.get(name, set()) - {name}]
    assert sorted(unused) == []


def test_no_test_helper_is_defined_twice():
    """A top-level helper (any function not named ``test_*``) whose arguments
    and body another test module repeats belongs in one module, imported by the other."""
    homes = {}
    for path in TESTS:
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
                code = ast.dump(node.args), tuple(map(ast.dump, node.body))
                homes.setdefault(code, {})[path.name] = node.name
    assert [modules for modules in homes.values() if len(modules) > 1] == []


def test_every_public_function_is_used_by_src_or_the_readme():
    """A public function that no other src/ function uses and the README's
    library example does not call is surface that only the tests need."""
    callers = _src_callers()
    example = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(ast.parse(_library_example()))
        if isinstance(node, ast.Call)
    }
    functions = [name for name in lvdiag.__all__ if inspect.isfunction(getattr(lvdiag, name))]
    unused = [name for name in functions if not callers.get(name, set()) - {name} and name not in example]
    assert unused == []


def test_importing_the_cli_loads_no_writer():
    """``verify`` writes no file, so ``import lvdiag.cli`` leaves ``lvdiag.output`` and ``json`` unloaded."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, lvdiag.cli; print(sorted({'json', 'lvdiag.output'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout == "[]\n"


def test_only_the_record_module_applies_dataclass():
    """Every record class is made by ``_record.record``, which shares one set of
    methods; ``dataclasses.dataclass`` anywhere else would compile its own."""
    applied = [
        path.name
        for path in SOURCES
        if path.name != "_record.py"
        for node in ast.walk(_parse(path))
        if (isinstance(node, ast.Name) and node.id == "dataclass")
        or (isinstance(node, ast.Attribute) and node.attr == "dataclass")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "dataclass" for alias in node.names))
    ]
    assert applied == []
