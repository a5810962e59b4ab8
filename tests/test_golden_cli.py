"""Golden CLI reports: fixed command lines run in-process through
`cli.run`, with stdout bytes and the exit code compared to the files
under `tests/golden/`.

A change that alters a report on purpose re-records the files with

    PYTHONPATH=src python tests/test_golden_cli.py --record

and says which files changed and why.
"""

import io
import json
import pathlib
import sys

import pytest

from skewcalc import cli

ROOT = pathlib.Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
FIXTURES = ROOT.parent / "src/skewcalc/fixtures"

_FIELDS = {
    "q": "rational",
    "gf2": "gf(2)",
    "gf7": "gf(7)",
    "gf1000003": "gf(1000003)",
    "qq": "ratfunc(q)",
    "cyc3": "cyclotomic(3)",
}
# (field tag, moduli): squarefree and repeated factors, split and irreducible
_MODULI = {
    "q": ["-1,0,1", "1,0,1", "0,0,1", "2,-3,1", "-2,0,0,1", "1,0,0,0,1"],
    "gf2": ["1,0,1", "0,1,1", "1,1,1", "1,0,0,1"],
    "gf7": ["6,0,1", "1,0,1", "1,0,0,1", "0,1,2,1"],
    "gf1000003": ["1,0,1,0,1", "-1,0,1", "0,0,1,1"],
    "qq": ["-1,0,1", "1,0,1", "0,1,1", "-4,0,1"],
    "cyc3": ["1,1,1", "-1,0,1", "0,0,1", "1,0,1"],
}

CASES = [
    *((f"check_{f}", ["check", f"@{f}.alg"])
      for f in ("a1q", "b1q3", "laurent2", "minusone", "poly2", "t2q3", "weyl1")),
    ("check_t2q3_text", ["check", "@t2q3.alg", "--format", "text"]),
    ("mul_weyl1", ["mul", "@weyl1.alg", "--lhs", "y^3", "--rhs", "x^3"]),
    ("mul_weyl1_text", ["mul", "@weyl1.alg", "--lhs", "y^2", "--rhs", "x^2",
                        "--format", "text"]),
    ("mul_a1q", ["mul", "@a1q.alg", "--lhs", "y^2", "--rhs", "x^2"]),
    ("mul_b1q3", ["mul", "@b1q3.alg", "--lhs", "z^-1*y", "--rhs", "x*z"]),
    ("mul_laurent2", ["mul", "@laurent2.alg", "--lhs", "x1^-1*x2", "--rhs", "x1^2"]),
    ("mul_t2q3", ["mul", "@t2q3.alg", "--lhs", "x2^2", "--rhs", "x1^-1"]),
    ("mul_minusone", ["mul", "@minusone.alg", "--lhs", "y", "--rhs", "x + y"]),
    ("center_minusone", ["center", "@minusone.alg", "--max-degree", "4"]),
    ("center_weyl1_text", ["center", "@weyl1.alg", "--max-degree", "3",
                           "--format", "text"]),
    ("center_t2q3", ["center", "@t2q3.alg", "--max-degree", "3"]),
    ("center_torus_t2q3", ["center-torus", "@t2q3.alg"]),
    ("center_torus_t2q3_text", ["center-torus", "@t2q3.alg", "--format", "text"]),
    ("center_torus_weyl1", ["center-torus", "@weyl1.alg"]),
    ("growth_poly2", ["growth", "@poly2.alg", "--N", "6"]),
    ("growth_weyl1_text", ["growth", "@weyl1.alg", "--N", "6", "--format", "text"]),
    ("gkdim_weyl1", ["gkdim", "@weyl1.alg", "--N", "8"]),
    ("gkdim_laurent2", ["gkdim", "@laurent2.alg", "--N", "6"]),
    ("divisor_a1q", ["divisor", "@a1q.alg", "--from", "x*y - y*x",
                     "--degree-cap", "3", "--max-rounds", "2"]),
    ("divisor_poly2_text", ["divisor", "@poly2.alg", "--from", "x",
                            "--degree-cap", "2", "--format", "text"]),
    ("divisor_t2q3", ["divisor", "@t2q3.alg", "--from", "x1^2", "--degree-cap", "2"]),
    ("divisor_weyl1", ["divisor", "@weyl1.alg", "--from", "x^2",
                       "--degree-cap", "3", "--max-rounds", "2"]),
    ("divisor_weyl1_text", ["divisor", "@weyl1.alg", "--from", "x*y",
                            "--degree-cap", "3", "--max-rounds", "2",
                            "--format", "text"]),
    ("divisor_b1q3", ["divisor", "@b1q3.alg", "--from", "z*x", "--degree-cap", "3",
                      "--max-rounds", "3", "--max-deg-a", "1", "--max-deg-b", "1"]),
    # past the benchmark's caps (2-3): single-term closures at caps 6 and 8
    ("divisor_poly2_cap8", ["divisor", "@poly2.alg", "--from", "x^2*y",
                            "--degree-cap", "8", "--max-rounds", "3"]),
    ("divisor_poly2_cap8_text", ["divisor", "@poly2.alg", "--from", "x^2*y",
                                 "--degree-cap", "8", "--max-rounds", "3",
                                 "--format", "text"]),
    ("controlling_t2q3_cap6", ["controlling", "@t2q3.alg", "--from", "x1^2*x2",
                               "--degree-cap", "6"]),
    ("controlling_t2q3_cap6_text", ["controlling", "@t2q3.alg", "--from", "x1^2*x2",
                                    "--degree-cap", "6", "--format", "text"]),
    ("controlling_poly2", ["controlling", "@poly2.alg", "--from", "x", "--from", "y",
                           "--degree-cap", "2"]),
    ("controlling_minusone_text", ["controlling", "@minusone.alg", "--from", "x^2",
                                   "--degree-cap", "2", "--format", "text"]),
    ("certify_minusone", ["certify", "@minusone.alg", "--degree-cap", "2", "--N", "8"]),
    ("certify_minusone_ml", ["certify", "@minusone.alg", "--assert", "ML_FULL",
                             "--degree-cap", "2", "--N", "8"]),
    ("certify_weyl1_text", ["certify", "@weyl1.alg", "--degree-cap", "2", "--N", "8",
                            "--format", "text"]),
    ("certify_laurent2", ["certify", "@laurent2.alg", "--degree-cap", "2", "--N", "6"]),
    ("verify_iso_ex5_5_1", ["verify-iso", "--fixture", "ex5_5_1"]),
    ("verify_iso_ex5_5_2_text", ["verify-iso", "--fixture", "ex5_5_2",
                                 "--format", "text"]),
    ("verify_iso_unknown", ["verify-iso", "--fixture", "ex0"]),
    ("registry", ["registry"]),
    ("registry_verify", ["registry", "--verify"]),
    ("registry_text", ["registry", "--format", "text"]),
    ("usage_error", ["center", "@weyl1.alg", "--max-degree", "0"]),
    *((f"{cmd}_{tag}_{i}", [cmd, "--field", _FIELDS[tag], f"--poly={poly}"])
      for tag, polys in _MODULI.items()
      for i, poly in enumerate(polys)
      for cmd in ("nilradical", "decompose")),
    ("decompose_q_text", ["decompose", "--poly", "-1,0,1", "--format", "text"]),
]


def _argv(args):
    return [str(FIXTURES / a[1:]) if a.startswith("@") else a for a in args]


def run_in_process(argv):
    """(exit code, stdout bytes) of one `cli.run` call."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        rc = cli.run(argv)
        out.flush()
    finally:
        sys.stdout, sys.stderr = saved
    return rc, buf.getvalue()


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, args):
    rc, stdout = run_in_process(_argv(args))
    assert rc == _exit_codes()[name]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_golden_files_match_the_case_list():
    names = {c[0] for c in CASES}
    assert len(names) == len(CASES)
    assert set(_exit_codes()) == names
    assert {p.stem for p in GOLDEN.glob("*.out")} == names


def _record():
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    codes = {}
    for name, args in CASES:
        codes[name], stdout = run_in_process(_argv(args))
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --record")
    _record()
