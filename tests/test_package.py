"""The package surface: every public name of `skewcalc`, the README's API
sketch, and the submodules that load only on first use."""

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import skewcalc

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# every name `skewcalc/__init__.py` has exported since 1.0.0, by its module
EXPORTS = {
    "cancel": [
        "FiniteDimAlgebra", "ImplicationDAG", "Verdict", "certify",
        "commutative_quotient", "counterexample_registry", "direct_product",
        "is_vnr", "local_decomposition", "nilradical", "quotient_by_ideal",
        "scalar_field_algebra", "units_generated", "univariate_quotient",
        "verify_fixture", "verify_generating_set", "verify_isomorphism_bounded",
        "verify_morphism",
    ],
    "divisor": [
        "ClosureReport", "SubwordHit", "divisor_closure", "is_controlling",
        "subalgebra_closure_bounded", "subword_search",
    ],
    "errors": [
        "BadParamsError", "ExprSyntaxError", "InsufficientDataError",
        "MissingEvidenceError", "NotADomainError", "ResourceLimitError",
        "SkewcalcError", "ValidationError",
    ],
    "families": [
        "FAMILY_IDS", "FamilySpec", "build", "build_localized_qweyl",
        "finite_rank_quantum_weyl", "gwa", "laurent", "minus_one_plane",
        "quantum_torus", "quantum_weyl1", "skew_poly", "weyl1",
    ],
    "invariants": [
        "CenterBasis", "GrowthTable", "center_bounded", "center_torus",
        "gk_estimate", "growth_dims", "is_locally_algebraic",
        "is_locally_nilpotent",
    ],
    "presentation": [
        "Element", "GeneratorInfo", "Morphism", "OreStep", "Presentation",
        "RewriteRule", "ValidationReport", "commutator", "identity_morphism",
        "ore_extend", "parse_element", "tensor_product",
    ],
    "scalars": [
        "CYCLOTOMIC", "PRIME", "RATFUNC_Q", "RATIONAL", "FieldDescriptor",
        "Scalar", "scalar_parse",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
SUBMODULES = ["cancel", "divisor", "errors", "families", "invariants",
              "linalg", "poly", "presentation", "scalars"]


def _python(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_every_public_name_is_its_module_attribute():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"skewcalc.{module}")
        for name in names:
            assert getattr(skewcalc, name) is getattr(mod, name), name


def test_all_and_dir_list_the_public_names():
    assert sorted(skewcalc.__all__) == NAMES
    assert set(NAMES) <= set(dir(skewcalc))
    assert set(SUBMODULES) <= set(dir(skewcalc))
    assert skewcalc.__version__ == "1.0.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from skewcalc import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert namespace["weyl1"] is skewcalc.families.weyl1


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        skewcalc.no_such_name


def test_the_readme_api_sketch_runs(capsys):
    text = README.read_text()
    sketch = re.search(r"## Python API sketch\n\n```python\n(.*?)```", text, re.S)
    exec(sketch.group(1), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[1]"
    assert len(lines) > 1


def test_check_and_mul_leave_the_invariant_layers_unexecuted():
    # type() does not trigger a lazy load; a loaded module is a ModuleType
    weyl = str(pathlib.Path(skewcalc.__file__).parent / "fixtures" / "weyl1.alg")
    unloaded = _python(
        "import contextlib, io, sys, types\n"
        "import skewcalc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    skewcalc.cli.run(['check', {weyl!r}])\n"
        f"    skewcalc.cli.run(['mul', {weyl!r}, '--lhs', 'y', '--rhs', 'x'])\n"
        "print(*sorted(name for name, m in sys.modules.items()"
        " if name.startswith('skewcalc.') and type(m) is not types.ModuleType))"
    )
    assert unloaded == ["skewcalc.cancel", "skewcalc.divisor",
                        "skewcalc.invariants", "skewcalc.poly"]


def test_every_submodule_is_in_sys_modules_after_import():
    # what a tracer that patches `sys.modules[name]` by name relies on
    loaded = _python(
        "import sys, skewcalc\n"
        "print(*sorted(n for n in sys.modules if n.startswith('skewcalc.')))\n"
        "print(skewcalc.cancel.certify.__module__)"
    )
    assert loaded[:-1] == [f"skewcalc.{name}" for name in SUBMODULES]
    assert loaded[-1] == "skewcalc.cancel"


def test_running_the_cli_as_a_module_does_not_warn():
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "skewcalc.cli", "registry"],
        capture_output=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
