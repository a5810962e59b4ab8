import contextlib
import io
import json
import pathlib
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc.cli import _as_presentation, parse_algebra_file, print_algebra, run
from skewcalc.errors import BadParamsError, ExprSyntaxError, SkewcalcError
from skewcalc.families import MAX_FAMILY_N, FamilySpec
from skewcalc.invariants import MAX_DIM
from skewcalc.presentation import Presentation
from skewcalc.scalars import RATIONAL, FieldDescriptor
from test_rewriting import _diagonal_oracle

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src/skewcalc/fixtures"


def _run(*argv, inp=None):
    return subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", *argv],
        capture_output=True, input=inp,
    )


def test_run_writes_text_to_a_stream_without_a_buffer():
    argv = ["mul", str(FIXTURES / "weyl1.alg"), "--lhs", "y", "--rhs", "x", "--format", "text"]
    text, binary = io.StringIO(), io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    for stream in (text, binary):
        with contextlib.redirect_stdout(stream):
            assert run(argv) == 0
    binary.flush()
    assert text.getvalue().encode() == binary.buffer.getvalue()
    assert "command: mul\n" in text.getvalue()


def test_parse_print_parse_identity_on_all_fixtures():
    for path in sorted(FIXTURES.glob("*.alg")):
        obj = parse_algebra_file(path.read_text())
        text = print_algebra(obj)
        obj2 = parse_algebra_file(text)
        assert print_algebra(obj2) == text
        if isinstance(obj, Presentation):
            assert obj.describe() == obj2.describe()
        else:
            assert obj == obj2


def test_parse_family_stanza():
    spec = parse_algebra_file("family quantum_torus n=2 l=3 a12=1")
    assert isinstance(spec, FamilySpec)
    assert spec.family_id == "QUANTUM_TORUS"
    assert str(spec.field) == "cyclotomic(3)"


def test_print_algebra_reads_the_raw_parameters_of_its_own_spec():
    # q^1 = q^4 at l=3, so the two specs are equal; each prints its own text
    first = parse_algebra_file("family quantum_torus n=2 l=3 a12=1;")
    second = parse_algebra_file("family quantum_torus n=2 l=3 a12=4;")
    assert first == second
    assert print_algebra(first) == "family quantum_torus a12=1 l=3 n=2;\n"
    assert print_algebra(second) == "family quantum_torus a12=4 l=3 n=2;\n"
    # a key the family does not read is a parse error, not a silent no-op
    with pytest.raises(ExprSyntaxError, match="no parameter 'zzz' at line 1, column 17"):
        parse_algebra_file("family poly n=2 zzz=5;")
    # an equal spec that the parser did not produce has no text to print
    with pytest.raises(BadParamsError, match="not produced by the parser"):
        print_algebra(FamilySpec.make("POLY", FieldDescriptor(RATIONAL), n=2))


def test_center_torus_needs_a_root_of_unity(tmp_path):
    # over ratfunc(q), x1*x2 = q*x2*x1 and only 1 is central: the full
    # lattice that l = 1 gives would claim every monomial is central
    generic = tmp_path / "generic.alg"
    generic.write_text("family quantum_torus n=2 a12=1;")
    out = _run("center-torus", str(generic))
    assert out.returncode == 3
    assert b"root of unity" in out.stderr
    commutative = tmp_path / "commutative.alg"
    commutative.write_text("family quantum_torus n=2;")
    out = _run("center-torus", str(commutative))
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"]["index"] == 1


def test_mul_inverts_a_product_of_letters_that_do_not_commute():
    out = _run("mul", str(FIXTURES / "t2q3.alg"),
               "--lhs", "(x1*x2)^-1", "--rhs", "x1*x2")
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"]["product"] == "1"


@pytest.mark.parametrize("m,n", [(300, 300), (299, 301)])
def test_mul_of_high_powers_in_a_skew_polynomial_ring(tmp_path, m, n):
    # x^a*x^b is one monomial times prod q_ij^(a_j*b_i): the product of
    # two words of 600 letters takes no rewriting
    text = "family skew_poly n=3 l=5 a12=1 a13=2 a23=3;"
    path = tmp_path / "skew.alg"
    path.write_text(text)
    out = _run("mul", str(path), "--lhs", f"x3^{m}*x2^{n}", "--rhs", f"x2^{n}*x1^{m}")
    assert out.returncode == 0
    p = _as_presentation(parse_algebra_file(text))
    q = p.field.q()
    q_matrix = {(1, 2): q, (1, 3): q ** 2, (2, 3): q ** 3}
    (lhs, c1), = _diagonal_oracle(p, q_matrix, (0, 0, m), (0, n, 0)).items()
    (rhs, c2), = _diagonal_oracle(p, q_matrix, (0, n, 0), (m, 0, 0)).items()
    (mono, c), = _diagonal_oracle(p, q_matrix, lhs, rhs).items()
    result = json.loads(out.stdout)["result"]
    assert result == {"lhs": str(p.from_terms({lhs: c1})),
                      "rhs": str(p.from_terms({rhs: c2})),
                      "product": str(p.from_terms({mono: c1 * c2 * c}))}


def test_parse_error_has_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_algebra_file(
            "algebra a {\n  field rational;\n  gens x, y;\n  rule x*y = ;\n}"
        )
    assert err.value.line >= 1 and err.value.col >= 1


def test_reports_are_byte_identical():
    a = _run("divisor", str(FIXTURES / "a1q.alg"),
             "--from", "x*y - y*x", "--degree-cap", "3", "--max-rounds", "2")
    b = _run("divisor", str(FIXTURES / "a1q.alg"),
             "--from", "x*y - y*x", "--degree-cap", "3", "--max-rounds", "2")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_center_command_basis(tmp_path):
    out = _run("center", str(FIXTURES / "minusone.alg"), "--max-degree", "4")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["format_version"] == 1
    assert report["result"]["basis"] == ["1", "y^2", "x^2", "y^4", "x^2*y^2", "x^4"]


def test_gkdim_snaps_for_weyl():
    out = _run("gkdim", str(FIXTURES / "weyl1.alg"), "--N", "12")
    report = json.loads(out.stdout)
    assert report["result"]["snap"] == 2
    assert isinstance(report["result"]["estimate"], float)


def test_exit_code_contract(tmp_path):
    # 1: usage
    assert _run("no-such-command").returncode == 1
    assert _run("center", str(FIXTURES / "weyl1.alg"),
                "--max-degree", "0").returncode == 1
    # 2: parse
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra a { field rational; gens x; rule x*x = ; }")
    assert _run("check", str(bad)).returncode == 2
    # 3: validation
    invalid = tmp_path / "invalid.alg"
    invalid.write_text(
        "algebra a { field rational; gens x, y; rule y*x = x*y + x*y^2; }"
    )
    assert _run("check", str(invalid)).returncode == 3
    # 4: resource, naming the cap
    out = _run("divisor", str(FIXTURES / "poly2.alg"), "--from", "x", "--degree-cap", "100")
    assert out.returncode == 4
    assert b"MAX_CLOSURE_PASSES = 64" in out.stderr
    # 0: success
    assert _run("check", str(FIXTURES / "poly2.alg")).returncode == 0


def test_a_zero_closure_input_is_bad_params():
    # the torus is a domain: a zero element of F is bad input, exit 3
    for cmd in ("divisor", "controlling"):
        out = _run(cmd, str(FIXTURES / "t2q3.alg"), "--from", "0")
        assert out.returncode == 3
        assert b"[BAD_PARAMS]" in out.stderr and b"NOT_A_DOMAIN" not in out.stderr


def test_text_format():
    out = _run("check", str(FIXTURES / "a1q.alg"), "--format", "text")
    assert out.returncode == 0
    assert b"format_version: 1" in out.stdout
    # no subcommand takes --seed
    assert _run("check", str(FIXTURES / "a1q.alg"), "--seed", "5").returncode == 1


def test_assert_flag_attaches():
    out = _run("certify", str(FIXTURES / "minusone.alg"),
               "--assert", "ML_FULL", "--degree-cap", "2", "--N", "8")
    report = json.loads(out.stdout)
    rules = {v["rule"] for v in report["result"]["verdicts"]}
    assert "R10" in rules


def test_registry_command():
    out = _run("registry")
    report = json.loads(out.stdout)
    ids = {f["id"] for f in report["result"]["fixtures"]}
    assert ids == {"ex5_5_1", "ex5_5_2"}


def test_poly_accepts_leading_minus():
    out = _run("decompose", "--poly", "-1,0,1")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["result"]["factor_count"] == 2
    out = _run("nilradical", "--poly", "-1,0,1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["nilradical_dim"] == 0


def test_non_terminating_rules_exit_4_promptly(tmp_path):
    # z*z*y -> z*x*y -> z*z*y cycles through the rewriting heap
    path = tmp_path / "cycle.alg"
    path.write_text("algebra a { field rational; gens x, y, z; "
                    "rule z*x = x*z + z^2; rule z*y = y*z + x*y; }")
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "check", str(path)],
        capture_output=True, timeout=60,
    )
    assert out.returncode == 4
    assert b"MAX_REWRITE_STEPS" in out.stderr


def test_exponent_cap_exits_4_promptly():
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "mul", str(FIXTURES / "poly2.alg"),
         "--lhs", "x^100000000", "--rhs", "x"],
        capture_output=True, timeout=60,
    )
    assert out.returncode == 4
    assert b"MAX_EXPONENT" in out.stderr


def _weyl_over(tmp_path, modulus):
    path = tmp_path / "w.alg"
    path.write_text(
        f"algebra w {{\n  field gf({modulus});\n  gens x, y;\n"
        "  rule y*x = x*y + 1;\n}\n"
    )
    return str(path)


def test_check_over_a_large_prime_field_is_prompt(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "check",
         _weyl_over(tmp_path, 1000000000000000003)],
        capture_output=True, timeout=10,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["algebra"]["field"] == "gf(1000000000000000003)"


def test_field_moduli_composite_or_past_the_primality_cap(tmp_path):
    out = _run("check", _weyl_over(tmp_path, 1000000000000000001))
    assert out.returncode == 2
    out = _run("check", _weyl_over(tmp_path, 2**89 - 1))
    assert out.returncode == 4
    assert b"PRIME_CAP" in out.stderr


def test_long_coefficient_literal_exits_4():
    out = _run("mul", str(FIXTURES / "poly2.alg"), "--lhs", "7" * 5000, "--rhs", "x")
    assert out.returncode == 4
    assert b"int_max_str_digits" in out.stderr


def test_coefficient_too_long_to_print_exits_4():
    # 7^10000 has 8451 digits: under MAX_EXPONENT, past int_max_str_digits
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "mul", str(FIXTURES / "poly2.alg"),
         "--lhs", "7^10000", "--rhs", "x"],
        capture_output=True, timeout=60,
    )
    assert out.returncode == 4, out.stderr
    assert b"int_max_str_digits" in out.stderr


def test_decompose_over_a_large_prime_field_is_prompt():
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "decompose",
         "--field", "gf(1000003)", "--poly", "1,0,1,0,1"],
        capture_output=True, timeout=20,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["factor_count"] == 4


def test_decompose_with_a_huge_constant_term_is_prompt():
    # the rational-root test would trial-divide 10^30 + 57 up to 10^15
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "decompose",
         "--field", "rational", "--poly", "1000000000000000000000000000057,0,1"],
        capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert time.perf_counter() - start < 1.0
    result = json.loads(out.stdout)["result"]
    assert result["status"] == "DECOMPOSED" and result["factor_count"] == 1


def test_a_modulus_of_high_degree_is_uncapped_and_a_constant_one_refused():
    # k[x]/(f) has no degree cap: x^199 + 1 over GF(7) is built in full
    poly = ",".join(["1"] + ["0"] * 198 + ["1"])
    out = _run("nilradical", "--field", "gf(7)", "--poly", poly)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["dim"] == 199
    assert _run("decompose", "--poly", "5").returncode == 3


def _limit_memory():
    # 1 GiB of address space: a run that grows without bound fails fast
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("text", [
    ")",
    "algebra a { field rational; gens x, y; rule y*x = x*y); }",
])
def test_a_stray_close_paren_is_a_parse_error(tmp_path, text):
    path = tmp_path / "paren.alg"
    path.write_text(text)
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "check", str(path)],
        capture_output=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert out.returncode == 2, out.stderr
    assert b"unmatched ')'" in out.stderr


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet="x*y()1 ;={}#\n−", max_size=20)
       | st.builds("algebra a {{ field rational; gens x, y; {} }}".format,
                   st.text(alphabet="x*y()1 ;={}#\n−", max_size=20)))
def test_every_file_parses_or_fails_with_a_place(text):
    try:
        parse_algebra_file(text)
    except ExprSyntaxError as err:
        assert err.line >= 1 and err.col >= 1 and err.pos <= len(text)
        assert f"at line {err.line}, column {err.col}" in str(err)
    except SkewcalcError:
        pass


def _parse_error(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse_algebra_file(text)
    return err.value


def test_an_unknown_generator_in_a_rule_gives_its_line_and_column():
    err = _parse_error("algebra a {\n  field rational;\n  gens x, y;\n"
                       "  rule y*x = x*y + z;\n}\n")
    assert (err.line, err.col) == (4, 20)
    assert str(err) == "unknown generator 'z' at line 4, column 20"


def test_a_rule_may_come_before_the_generators_it_names():
    early = parse_algebra_file(
        "algebra w { rule y*x = x*y + 1; field rational; gens x; gens y; }")
    late = parse_algebra_file(
        "algebra w { field rational; gens x, y; rule y*x = x*y + 1; }")
    assert print_algebra(early) == print_algebra(late)


def test_unicode_minus_and_dot_read_in_files_as_in_lhs():
    ascii_ = parse_algebra_file(
        "algebra w { field rational; gens x, y; rule y*x = -2*x*y - 1; }")
    unicode_ = parse_algebra_file(
        "algebra w { field rational; gens x, y; rule y·x = −2·x·y − 1; }")
    assert print_algebra(unicode_) == print_algebra(ascii_)
    path = FIXTURES / "weyl1.alg"
    assert (json.loads(_run("mul", str(path), "--lhs", "y − x", "--rhs", "2·x").stdout)
            == json.loads(_run("mul", str(path), "--lhs", "y - x", "--rhs", "2*x").stdout))


@pytest.mark.parametrize("text,line,col", [
    # a second stanza
    ("family weyl1;\nfamily poly n=2;\n", 2, 1),
    ("algebra a { field rational; gens x; }\n# two\nfamily weyl1;", 3, 1),
    # a second rule for one pair
    ("algebra a {\n field rational;\n gens x, y;\n rule y*x = x*y;\n"
     " rule y*x = x*y + 1;\n}", 5, 2),
    # a second field line
    ("algebra a {\n field rational;\n field gf(7);\n gens x;\n}", 3, 2),
    # a second line for one flag
    ("algebra a { field rational; gens x; flag F=1;\n flag F=2; }", 2, 2),
    # a second value for one family key
    ("family poly n=2 n=3;", 1, 17),
    # a key the family does not read
    ("family weyl1 foo=3;", 1, 14),
    ("family quantum_torus n=3 l=3 a12=1 a12x=4;", 1, 36),
    # a two-digit index: x1 and x10 would commute with no word
    ("family quantum_torus n=12 l=3 a110=1;", 1, 31),
    ("family gwa a0=1 a10=2;", 1, 17),
    ("family gwa n=2 a0=1;", 1, 12),
    ("family laurent n=2 a12=1;", 1, 20),
    ("family weyl1 n=2;", 1, 14),
    # two fields
    ("family poly n=2 l=3\n  p=5;", 2, 3),
])
def test_input_the_parser_would_drop_is_a_parse_error(tmp_path, text, line, col):
    err = _parse_error(text)
    assert (err.line, err.col) == (line, col)
    path = tmp_path / "dropped.alg"
    path.write_text(text)
    out = _run("check", str(path))
    assert out.returncode == 2
    assert f"at line {line}, column {col}".encode() in out.stderr


@pytest.mark.parametrize("text", [
    "family poly n=2 p=7;",
    "family laurent n=1 l=5;",
    "family skew_poly n=3 a12=1 a23=2;",
    "family quantum_torus n=9 l=3 a19=1 a89=2;",
    "family weyl1 p=5;",
    "family quantum_weyl1 l=5;",
    "family localized_qweyl1 l=3;",
    "family minus_one_plane;",
    "family gwa a0=1 a1=1 a9=0;",
])
def test_every_key_a_family_reads_parses(text):
    words = text.rstrip(";").split()
    assert print_algebra(parse_algebra_file(text)) == " ".join(words[:2] + sorted(words[2:])) + ";\n"


def test_several_gens_lines_add_up():
    p = parse_algebra_file(
        "algebra a { field rational; gens x; gens y inv, z; # a comment\n }")
    assert [(g.name, g.invertible) for g in p.gens] == [
        ("x", False), ("y", True), ("z", False)]


@pytest.mark.parametrize("text", [
    "algebra a { field rational; gens x+y; }",
    "algebra a { field nosuch; gens x; }",
    "algebra a { field rational; gens x; rule x*x = ; }",
    "algebra a { field rational; gens x, y; rule y*x = x*y +; }",
    "family no_such_family n=2;",
    "algebra a { field rational; gens x; ",
])
def test_malformed_files_are_parse_errors(text):
    err = _parse_error(text)
    assert err.line == 1 and 1 <= err.col <= len(text) + 1


@pytest.mark.parametrize("value", [
    "STRATIFORM=abc",          # not an integer
    "STRATIFORM=" + "9" * 5000,  # too long for int()
    "=3",                      # no flag name
])
def test_a_bad_assert_is_a_usage_error(value):
    out = _run("certify", str(FIXTURES / "weyl1.alg"), "--assert", value)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith(b"usage error: argument --assert")


def test_family_exponents_share_the_exponent_cap(tmp_path):
    path = tmp_path / "torus.alg"
    path.write_text("family quantum_torus n=2 a12=30000000;")
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "check", str(path)],
        capture_output=True, timeout=60,
    )
    assert out.returncode == 4, out.stderr
    assert b"exponent a12 exceeds the cap MAX_EXPONENT = 10000" in out.stderr
    path.write_text("family quantum_torus n=2 a12=10000;")
    assert _run("check", str(path)).returncode == 0


@pytest.mark.parametrize("family", ["poly", "laurent", "skew_poly", "quantum_torus"])
def test_family_n_is_capped(tmp_path, family):
    path = tmp_path / "family.alg"
    path.write_text(f"family {family} n={MAX_FAMILY_N + 1};")
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "check", str(path)],
        capture_output=True, timeout=20,
    )
    assert out.returncode == 4, out.stderr
    assert f"exceeds the cap MAX_FAMILY_N = {MAX_FAMILY_N}".encode() in out.stderr
    path.write_text(f"family {family} n={MAX_FAMILY_N};")
    out = _run("check", str(path))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["result"]["ok"] is True


@pytest.mark.parametrize("argv", [
    ["center", str(FIXTURES / "weyl1.alg"), "--max-degree", "99999"],
    ["certify", str(FIXTURES / "weyl1.alg"), "--degree-cap", "99999"],
    ["center", str(FIXTURES / "t2q3.alg"), "--max-degree", "1000000000"],
])
def test_a_center_past_the_dimension_cap_exits_4_promptly(argv):
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", *argv],
        capture_output=True, timeout=20, preexec_fn=_limit_memory,
    )
    assert out.returncode == 4, out.stderr
    assert f"exceeds the cap MAX_DIM = {MAX_DIM}".encode() in out.stderr


def test_a_growth_table_past_the_dimension_cap_exits_4_promptly():
    # dim F_N of the Weyl algebra is (N + 1)(N + 2)/2, counted, not built
    out = subprocess.run(
        [sys.executable, "-m", "skewcalc.cli", "growth",
         str(FIXTURES / "weyl1.alg"), "--N", "100000"],
        capture_output=True, timeout=5, preexec_fn=_limit_memory,
    )
    assert out.returncode == 4, out.stderr
    assert f"growth span exceeds the cap MAX_DIM = {MAX_DIM}".encode() in out.stderr
