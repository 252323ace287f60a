"""The public surface: the names ``lvdiag`` exports and the README's library example."""

import dataclasses
import pathlib
import re

import lvdiag

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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
    "adomian_components",
    "adomian_series",
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
    "taylor_coefficients",
    "vim_iterates",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(lvdiag.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(lvdiag, name) is not None, name
    assert len(PUBLIC_NAMES) == 30


def test_agreement_report_has_one_field_per_cascade():
    """ADM and HPM build one cascade, so the report has one field for both."""
    fields = [f.name for f in dataclasses.fields(lvdiag.AgreementReport)]
    assert fields == ["order", "adomian", "vim"]


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    section = section[: section.index("\n## ", 1)]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S)
    assert block is not None, "no python block under ## Library"
    exec(compile(block.group(1), "README.md", "exec"), {})
