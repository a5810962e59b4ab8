"""The package surface: every public name of `skewcalc`, the README's API
sketch, and the submodules that load only on first use."""

import importlib
import json
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


FIXTURES = pathlib.Path(skewcalc.__file__).parent / "fixtures"

# `run(*argv)` calls the CLI in process, its report going to a bytes-backed
# stdout as in a real process; `unloaded()` lists the registered submodules
# that were never executed (type() does not trigger a lazy load, and a
# loaded module is a ModuleType)
_CLI_PRELUDE = (
    "import contextlib, io, json, sys, types\n"
    "import skewcalc.cli\n"
    "def run(*argv):\n"
    "    out = io.TextIOWrapper(io.BytesIO(), encoding='utf-8')\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        return skewcalc.cli.run(list(argv))\n"
    "def unloaded():\n"
    "    return sorted(name for name, m in sys.modules.items()\n"
    "                  if name.startswith('skewcalc.') and type(m) is not types.ModuleType)\n"
)


def _python(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


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
    weyl = str(FIXTURES / "weyl1.alg")
    out = _python(
        _CLI_PRELUDE
        + f"print(run('check', {weyl!r}), run('mul', {weyl!r}, '--lhs', 'y', '--rhs', 'x'))\n"
        "print(*unloaded())"
    ).split()
    assert out[:2] == ["0", "0"]
    assert out[2:] == ["skewcalc.cancel", "skewcalc.divisor",
                       "skewcalc.invariants", "skewcalc.poly"]


def test_commands_without_a_family_leave_families_unexecuted():
    minusone = str(FIXTURES / "minusone.alg")
    out = _python(
        _CLI_PRELUDE
        + "print(run('decompose', '--poly=-1,0,1'),"
        " run('nilradical', '--field', 'gf(7)', '--poly=1,0,1'))\n"
        "print(*unloaded())\n"
        f"print(run('check', {minusone!r}), run('mul', {minusone!r}, '--lhs', 'y', '--rhs', 'x'))\n"
        "print('families' if 'skewcalc.families' in unloaded() else 'loaded')"
    ).splitlines()
    assert out[0] == "0 0"
    assert out[1].split() == ["skewcalc.divisor", "skewcalc.families", "skewcalc.invariants"]
    assert out[2:] == ["0 0", "families"]


# stdlib modules that the package does without: `dataclasses` brings in
# `inspect`, and `fractions` brings in `decimal`
_SLOW_IMPORTS = ("dataclasses", "decimal", "fractions", "inspect")


def test_no_command_imports_dataclasses_or_fractions():
    fx = {name: str(FIXTURES / f"{name}.alg") for name in ("weyl1", "poly2", "a1q")}
    calls = {
        "check": ["check", fx["weyl1"]],
        "mul": ["mul", fx["weyl1"], "--lhs", "y^2", "--rhs", "x^2"],
        "growth": ["growth", fx["poly2"], "--N", "4"],
        "certify": ["certify", fx["weyl1"], "--degree-cap", "2", "--N", "6"],
        "divisor": ["divisor", fx["a1q"], "--from", "x*y - y*x", "--degree-cap", "2",
                    "--max-rounds", "2"],
        "decompose": ["decompose", "--poly=-1,0,1"],
    }
    # the interpreter's own start-up may load some of them; only what the
    # package adds counts
    code = (
        f"started = set(__import__('sys').modules)\n{_CLI_PRELUDE}"
        "def added():\n"
        f"    return sorted((set(sys.modules) - started) & set({_SLOW_IMPORTS!r}))\n"
        "steps = [['import', 0, added()]]\n"
        f"for name, argv in {calls!r}.items():\n"
        "    steps.append([name, run(*argv), added()])\n"
        "print(json.dumps(steps))"
    )
    steps = json.loads(_python(code))
    assert steps == [["import", 0, []]] + [[name, 0, []] for name in calls]


def test_every_submodule_is_in_sys_modules_after_import():
    # what a tracer that patches `sys.modules[name]` by name relies on
    loaded = _python(
        "import sys, skewcalc\n"
        "print(*sorted(n for n in sys.modules if n.startswith('skewcalc.')))\n"
        "print(skewcalc.cancel.certify.__module__)"
    ).split()
    assert loaded[:-1] == [f"skewcalc.{name}" for name in SUBMODULES]
    assert loaded[-1] == "skewcalc.cancel"


def test_running_the_cli_as_a_module_does_not_warn():
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "skewcalc.cli", "registry"],
        capture_output=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == b""
