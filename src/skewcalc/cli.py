"""Command-line front end: presentation-file parsing, command dispatch,
and deterministic TEXT/JSON reports.

A presentation file holds one stanza, `algebra NAME { ... }` or
`family NAME k=v ...;`. `_FileParser` reads it with the element
scanner, extended by names, punctuation and `#` comments, so a rule's
right side follows the `--lhs` grammar and a syntax error gives the
line and column in the file.

Exit codes: 0 success, 1 usage, 2 parse error, 3 validation/data error,
4 resource limit, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import cancel, divisor, families, invariants
from .errors import (
    BadParamsError,
    ExprSyntaxError,
    InsufficientDataError,
    MissingEvidenceError,
    NotADomainError,
    ResourceLimitError,
    SkewcalcError,
    ValidationError,
)
from .presentation import (
    GeneratorInfo,
    Presentation,
    RewriteRule,
    _ElementParser,
    parse_element,
)
from .scalars import (
    CYCLOTOMIC,
    MAX_EXPONENT,
    PRIME,
    RATFUNC_Q,
    RATIONAL,
    FieldDescriptor,
    _exponent_cap_error,
    _ScalarParser,
    scalar_parse,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# presentation-file grammar


class _FileParser(_ElementParser):
    """The `.alg` grammar on the element scanner. Names, punctuation and
    rule right sides are read at offsets into the whole file, `#` starts
    a comment that runs to the end of its line, and a syntax error gives
    the line and column. Rule right sides are read once the stanza's
    field and generators are known (`pres` is None until then)."""

    def __init__(self, text):
        _ScalarParser.__init__(self, None, text)
        self.pres = None

    def skip_ws(self):
        super().skip_ws()
        while self.text.startswith("#", self.pos):
            end = self.text.find("\n", self.pos)
            self.pos = len(self.text) if end < 0 else end
            super().skip_ws()

    def here(self) -> int:
        """The offset of the next character that is no blank or comment."""
        self.skip_ws()
        return self.pos

    def fail(self, msg, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - self.text.rfind("\n", 0, pos)
        raise ExprSyntaxError(f"{msg} at line {line}, column {col}", pos, line, col)

    def unexpected(self, wanted):
        c = self.peek()
        if c == ")":
            self.fail("unmatched ')'")
        self.fail(f"expected {wanted}, found {c!r}" if c else
                  f"expected {wanted}, found the end of the file")

    def word(self, wanted="a name") -> str:
        name = self.name()
        if not name:
            self.unexpected(wanted)
        return name

    def accept(self, mark) -> bool:
        """Step over `mark`, a name or one punctuation character, if it
        comes next."""
        start = self.pos
        if mark.isalpha():
            if self.name() == mark:
                return True
        elif self.peek() == mark:
            self.pos += 1
            return True
        self.pos = start
        return False

    def expect(self, mark):
        if not self.accept(mark):
            self.unexpected(repr(mark))

    def skip_to_semicolon(self) -> int:
        """Step to the next ';' or '}' and return the end of the last
        character before it that is no blank or comment."""
        end = self.here()
        while self.peek() not in ("", ";", "}"):
            self.pos += 1
            end = self.pos
        return end


def _parse_field(text):
    """The field of a spec `rational`, `ratfunc(q)`, `gf(P)` or
    `cyclotomic(L)`; any other spec is a BadParamsError."""
    m = text.strip()
    if m == "rational":
        return FieldDescriptor(RATIONAL)
    if m == "ratfunc(q)":
        return FieldDescriptor(RATFUNC_Q)
    for name, kind in (("gf", PRIME), ("cyclotomic", CYCLOTOMIC)):
        if m.startswith(name + "(") and m.endswith(")"):
            try:
                return FieldDescriptor(kind, int(m[len(name) + 1:-1]))
            except (ValueError, BadParamsError):
                break
    raise BadParamsError(f"unrecognized field {m!r}")


def _parse_algebra_stanza(fp):
    name = fp.word()
    fp.expect("{")
    field = None
    gens = []
    rule_sites = []  # (left name, right name, offset of the rule, of its right side)
    flags = {}
    while not fp.accept("}"):
        at = fp.here()
        keyword = fp.word("a keyword or '}'")
        if keyword == "field":
            if field is not None:
                fp.fail("a second field line", at)
            start = fp.here()
            try:
                field = _parse_field(fp.text[start:fp.skip_to_semicolon()])
            except BadParamsError as exc:
                fp.fail(str(exc), start)
        elif keyword == "gens":
            gens.append(GeneratorInfo(fp.word(), len(gens) + 1, fp.accept("inv")))
            while fp.accept(","):
                gens.append(GeneratorInfo(fp.word(), len(gens) + 1, fp.accept("inv")))
        elif keyword == "rule":
            left = fp.word()
            fp.expect("*")
            right = fp.word()
            fp.expect("=")
            rule_sites.append((left, right, at, fp.here()))
            fp.skip_to_semicolon()
        elif keyword == "flag":
            fname = fp.word()
            if fname in flags:
                fp.fail(f"a second line for flag {fname!r}", at)
            flags[fname] = fp.int_literal() if fp.accept("=") else True
        else:
            fp.fail(f"unknown keyword {keyword!r}", at)
        fp.expect(";")
    end = fp.pos
    if field is None:
        fp.fail("algebra stanza is missing a field declaration")
    if not gens:
        fp.fail("algebra stanza is missing generators")
    fp.field, fp.pres = field, Presentation(field, gens)
    positions = {g.name: pos for pos, g in enumerate(gens)}
    rules = {}
    for left, right, at, start in rule_sites:
        lhs = f"{left}*{right}"
        if left not in positions or right not in positions:
            fp.fail(f"rule left side {lhs!r} names an unknown generator", at)
        j, i = positions[left], positions[right]
        if not j > i:
            fp.fail(f"rule left side {lhs!r} must have the later generator first", at)
        if (j, i) in rules:
            fp.fail(f"a second rule for {lhs!r}", at)
        fp.pos = start
        value = fp.expr()
        fp.expect(";")
        swap_mono = tuple(int(k in (i, j)) for k in range(len(gens)))
        tail = tuple(sorted((m, c) for m, c in value.terms.items() if m != swap_mono))
        rules[(j, i)] = RewriteRule(j, i, value.coefficient(swap_mono), tail)
    fp.pos = end
    return Presentation(
        field, gens, rules=list(rules.values()), flags=flags,
        flag_provenance={k: "asserted(user-file)" for k in flags},
        notes=(name,),
    )


def _family_field(fid, raw):
    if "l" in raw:
        return FieldDescriptor(CYCLOTOMIC, raw["l"])
    if "p" in raw:
        return FieldDescriptor(PRIME, raw["p"])
    if fid in ("QUANTUM_WEYL1", "LOCALIZED_QWEYL1", "SKEW_POLY",
               "QUANTUM_TORUS", "GWA"):
        return FieldDescriptor(RATFUNC_Q)
    return FieldDescriptor(RATIONAL)


# the keys of a family line besides `l` and `p`: `aij` takes single digits
_FAMILY_KEYS = {"POLY": "n", "LAURENT": "n", "SKEW_POLY": "n|a[0-9]{2}",
                "QUANTUM_TORUS": "n|a[0-9]{2}", "GWA": "a[0-9]"}


def _parse_family_stanza(fp):
    at = fp.here()
    family = fp.word("a family name")
    fid = next((f for f in families.FAMILY_IDS if f.lower() == family.lower()), None)
    if fid is None:
        fp.fail(f"unknown family {family!r}", at)
    raw = {}
    while fp.peek() not in ("", ";"):
        key_at = fp.here()
        key = fp.word("a parameter name or ';'")
        if not re.fullmatch(f"[lp]|{_FAMILY_KEYS.get(fid, '[lp]')}", key):
            fp.fail(f"family {fid.lower()} has no parameter {key!r}", key_at)
        if key in raw:
            fp.fail(f"a second value for {key!r}", key_at)
        if key in ("l", "p") and raw.keys() & {"l", "p"}:
            fp.fail("a field is given by l or by p, not both", key_at)
        fp.expect("=")
        raw[key] = fp.int_literal()
    fp.accept(";")
    field = _family_field(fid, raw)
    params = {}
    if "n" in raw:
        params["n"] = raw["n"]
    exponents = _family_exponents(raw)
    if fid in ("SKEW_POLY", "QUANTUM_TORUS"):
        q = field.q() if field.kind in (RATFUNC_Q, CYCLOTOMIC) else None
        if exponents and q is None:
            fp.fail("commutation exponents need a q-field (l=... or the default)", at)
        params["q_matrix"] = tuple(
            sorted(((pair, q ** a) for pair, a in exponents.items()))
        )
    if fid in ("QUANTUM_WEYL1", "LOCALIZED_QWEYL1"):
        params["q"] = field.q()
    if fid == "GWA":
        coeffs = {int(k[1:]): field.from_int(v) for k, v in raw.items() if k[0] == "a"}
        if not coeffs:
            fp.fail("gwa needs coefficients a0=, a1=, a2=", at)
        params["a"] = tuple(sorted(coeffs.items()))
        params["q"] = field.q()
    return families.FamilySpec(fid, field, tuple(sorted(params.items())),
                               raw=tuple(sorted(raw.items())))


def _family_exponents(raw: dict) -> dict:
    """The `aij=v` parameters of a family line as {(i, j): v}; a v past
    MAX_EXPONENT in absolute value is a resource limit."""
    out = {}
    for key, v in raw.items():
        if len(key) == 3:  # `aij`: the parser lets no other such key by
            if abs(v) > MAX_EXPONENT:
                raise _exponent_cap_error(f"exponent {key}")
            out[(int(key[1]), int(key[2]))] = v
    return out


def parse_algebra_file(text: str):
    """Parse the one `algebra` or `family` stanza of a file into a
    validated object."""
    fp = _FileParser(text)
    at = fp.here()
    kind = fp.word("'algebra' or 'family'")
    if kind == "algebra":
        obj = _parse_algebra_stanza(fp)
    elif kind == "family":
        obj = _parse_family_stanza(fp)
    else:
        fp.fail(f"expected 'algebra' or 'family', found {kind!r}", at)
    if fp.peek():
        fp.fail("text after the stanza; a file holds one stanza")
    _as_presentation(obj).require_validated()  # a family is built eagerly
    return obj


def print_algebra(obj) -> str:
    """Canonical text form; parse(print(parse(s))) == parse(s)."""
    if not isinstance(obj, Presentation):  # a families.FamilySpec
        if obj.raw is None:
            raise BadParamsError("family spec was not produced by the parser")
        parts = [f"family {obj.family_id.lower()}"]
        parts.extend(f"{k}={v}" for k, v in obj.raw)
        return " ".join(parts) + ";\n"
    p = obj
    name = p.notes[0] if p.notes else "a"
    lines = [f"algebra {name} {{", f"  field {p.field};"]
    gen_parts = [
        g.name + (" inv" if g.invertible else "") for g in p.gens
    ]
    lines.append(f"  gens {', '.join(gen_parts)};")
    for (j, i) in sorted(p.rules):
        rule = p.rules[(j, i)]
        if rule.leading.is_one() and not rule.tail:
            continue
        swap_mono = tuple(1 if k in (i, j) else 0 for k in range(len(p.gens)))
        value = p.from_terms(
            dict(rule.tail) | (
                {swap_mono: rule.leading} if not rule.leading.is_zero() else {}
            )
        )
        lines.append(f"  rule {p.gens[j].name}*{p.gens[i].name} = {value};")
    for fname in sorted(p.flags):
        v = p.flags[fname]
        lines.append(f"  flag {fname};" if v is True else f"  flag {fname}={v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _as_presentation(obj) -> Presentation:
    return obj if isinstance(obj, Presentation) else families.build(obj)


# ---------------------------------------------------------------------------
# reports


def _round6(x: float) -> float:
    return float(f"{x:.6f}")


def emit_report(result: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(result, indent=2) + "\n").encode()
    lines = []

    def render(value, indent=0, label=None):
        pad = "  " * indent
        prefix = f"{pad}{label}: " if label is not None else pad
        if isinstance(value, dict):
            if label is not None:
                lines.append(f"{pad}{label}:")
            for k, v in value.items():
                render(v, indent + (1 if label is not None else 0), k)
        elif isinstance(value, list):
            if label is not None:
                lines.append(f"{pad}{label}:")
            for v in value:
                if isinstance(v, (dict, list)):
                    render(v, indent + 1)
                    lines.append("")
                else:
                    lines.append(f"{'  ' * (indent + 1)}- {v}")
        else:
            lines.append(f"{prefix}{value}")

    render(result)
    return ("\n".join(lines).rstrip("\n") + "\n").encode()


def _report(command, algebra_desc, caps, result, provenance):
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "algebra": algebra_desc,
        "caps": caps,
        "result": result,
        "provenance": provenance,
    }


def _closure_result(report):
    return {
        "status": report.status,
        "degree_cap": report.degree_cap,
        "rounds": [
            {
                "new_subwords": [
                    {
                        "a": str(h.f.algebra.monomial(h.a)),
                        "g": str(h.g),
                        "b": str(h.f.algebra.monomial(h.b)),
                        "f": str(h.f),
                    }
                    for h in r["new_subwords"]
                ],
                "span_dim": r["span_dim"],
            }
            for r in report.rounds
        ],
        "basis_dim": report.basis_dim(),
        "certified_basis": sorted(
            (str(e) for e in report.certified_basis), key=lambda s: (len(s), s)
        ),
    }


def _verdict_dicts(verdicts):
    return [
        {
            "property": v.property,
            "status": v.status,
            "rule": v.rule,
            "paper_ref": v.paper_ref,
            "evidence": _stringify(v.evidence),
        }
        for v in verdicts
    ]


def _stringify(value):
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, (int, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# command implementations


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_algebra_file(fh.read())
    except OSError as exc:
        raise BadParamsError(f"cannot read {path}: {exc}") from exc


def _assert_flag(text):
    """An `--assert` value, NAME or NAME=V with V an integer, as a
    (name, value) pair; NAME alone asserts True."""
    name, eq, value = text.partition("=")
    if not name:
        raise argparse.ArgumentTypeError(f"{text!r} names no flag")
    if not eq:
        return name, True
    try:
        return name, int(value)
    except ValueError:  # not an integer, or too long for int()
        raise argparse.ArgumentTypeError(
            f"{name}: the value must be an integer of at most "
            f"{sys.get_int_max_str_digits()} digits") from None


def _apply_asserts(p, asserts):
    """`p` with the (name, value) pairs of `--assert` added as flags."""
    if asserts:
        p = p.with_flags(dict(asserts), "asserted(user)")
    return p


def _cmd_check(args):
    obj = _load(args.file)
    p = _as_presentation(obj)
    report = p.validate()
    result = {
        "ok": report.ok,
        "failures": [list(f) for f in report.failures],
        "sigma_status": report.sigma_status,
        "roundtrip": print_algebra(obj).strip(),
    }
    return _report("check", p.describe(), {}, result,
                   [{"claim": "presentation is confluent and PBW-valid",
                     "status": "COMPUTED" if report.ok else "FAILED",
                     "paper_ref": "Definition 4.1"}])


def _cmd_mul(args):
    p = _as_presentation(_load(args.file))
    lhs = parse_element(p, args.lhs)
    rhs = parse_element(p, args.rhs)
    prod = lhs * rhs
    result = {"lhs": str(lhs), "rhs": str(rhs), "product": str(prod)}
    return _report("mul", p.describe(), {}, result,
                   [{"claim": "product in PBW normal form", "status": "COMPUTED",
                     "paper_ref": "invented"}])


def _cmd_center(args):
    p = _as_presentation(_load(args.file))
    cb = invariants.center_bounded(p, args.max_degree)
    result = {
        "degree_bound": cb.degree_bound,
        "basis": [str(e) for e in cb.basis],
        "dimension": len(cb.basis),
    }
    return _report("center", p.describe(), {"max_degree": args.max_degree}, result,
                   [{"claim": f"center basis to degree {args.max_degree}",
                     "status": "COMPUTED", "paper_ref": "Example 5.5"}])


def _cmd_center_torus(args):
    spec = _load(args.file)
    if not isinstance(spec, families.FamilySpec) or spec.family_id != "QUANTUM_TORUS":
        raise BadParamsError("center-torus needs a `family quantum_torus` file")
    raw = dict(spec.raw)
    n = raw["n"]
    a = [[0] * n for _ in range(n)]
    for (i, j), v in _family_exponents(raw).items():
        a[i - 1][j - 1] = v
        a[j - 1][i - 1] = -v
    # without l=, q is not a root of unity and no test mod l applies
    if "l" not in raw and any(any(row) for row in a):
        raise BadParamsError("center-torus needs q to be a root of unity (l=)")
    l = raw.get("l", 1)
    out = invariants.center_torus(n, l, a)
    result = {
        "lattice_basis": out["lattice_basis"],
        "index": out["index"],
    }
    return _report("center-torus", _as_presentation(spec).describe(),
                   {"n": n, "l": l}, result,
                   [{"claim": "central sublattice via Hermite normal form",
                     "status": "COMPUTED", "paper_ref": "Example 5.10"}])


def _cmd_growth(args):
    p = _as_presentation(_load(args.file))
    table = invariants.growth_dims(p, args.N)
    result = {"dims": table.dims, "gen_space": table.gen_space}
    return _report("growth", p.describe(), {"N": args.N}, result,
                   [{"claim": "filtration dimensions", "status": "COMPUTED",
                     "paper_ref": "Lemma 3.1"}])


def _cmd_gkdim(args):
    p = _as_presentation(_load(args.file))
    table = invariants.growth_dims(p, args.N)
    est = invariants.gk_estimate(table)
    result = {
        "estimate": _round6(est["estimate"]),
        "snap": est["snap"],
        "window_fit": {
            "window": est["window_fit"]["window"],
            "points": est["window_fit"]["points"],
            "slope_vs_inv_n": _round6(est["window_fit"]["slope_vs_inv_n"]),
            "residual": _round6(est["window_fit"]["residual"]),
        },
    }
    return _report("gkdim", p.describe(), {"N": args.N}, result,
                   [{"claim": "GK-dimension estimate from growth data",
                     "status": "ESTIMATED", "paper_ref": "Lemma 3.1"}])


def _divisor_caps(args):
    return {
        "degree_cap": args.degree_cap,
        "max_rounds": args.max_rounds,
        "max_deg_a": args.max_deg_a,
        "max_deg_b": args.max_deg_b,
    }


def _cmd_divisor(args):
    p = _as_presentation(_load(args.file))
    p = _apply_asserts(p, args.assert_flags)
    F = [parse_element(p, t) for t in args.from_exprs]
    caps = _divisor_caps(args)
    report = divisor.divisor_closure(p, F, caps)
    return _report("divisor", p.describe(), caps, _closure_result(report),
                   [{"claim": "certified divisor-subalgebra approximation",
                     "status": "COMPUTED", "paper_ref": "Lemma 4.4"}])


def _cmd_controlling(args):
    p = _as_presentation(_load(args.file))
    p = _apply_asserts(p, args.assert_flags)
    F = [parse_element(p, t) for t in args.from_exprs]
    caps = _divisor_caps(args)
    out = divisor.is_controlling(p, F, caps)
    result = {"status": out["status"], "closure": _closure_result(out["report"])}
    return _report("controlling", p.describe(), caps, result,
                   [{"claim": "controlling-set certification",
                     "status": "COMPUTED", "paper_ref": "Proposition 5.2"}])


def _cmd_certify(args):
    p = _as_presentation(_load(args.file))
    p = _apply_asserts(p, args.assert_flags)
    caps = {
        "degree_cap": args.degree_cap,
        "max_rounds": args.max_rounds,
        "N": args.N,
    }
    inputs = {"center": invariants.center_bounded(p, args.degree_cap)}
    try:
        inputs["closure_one"] = divisor.divisor_closure(
            p, [p.one()],
            {"degree_cap": args.degree_cap, "max_rounds": args.max_rounds},
        )
    except NotADomainError:
        pass
    try:
        inputs["gk"] = invariants.gk_estimate(invariants.growth_dims(p, args.N))
    except (InsufficientDataError, ResourceLimitError):
        pass
    verdicts = cancel.certify(p, inputs)
    return _report("certify", p.describe(), caps,
                   {"verdicts": _verdict_dicts(verdicts)},
                   [{"claim": f"rule {v.rule} for {v.property}",
                     "status": v.status, "paper_ref": v.paper_ref}
                    for v in verdicts])


def _cmd_verify_iso(args):
    for fixture in cancel.counterexample_registry():
        if fixture["id"] == args.fixture:
            out = fixture["verify"]()
            result = {
                "fixture": fixture["id"],
                "iso_status": out["iso"]["status"],
                "base_noncommutative": out["base_noncommutative"],
                "base_commutative": out["base_commutative"],
                "pass": cancel.fixture_passes(out),
            }
            claim = ("isomorphism (homomorphisms both ways, generator round trip)"
                     " + base non-isomorphism")
            return _report("verify-iso", {"fixture": fixture["id"]}, {}, result,
                           [{"claim": claim, "status": "COMPUTED",
                             "paper_ref": fixture["paper_ref"]}])
    raise BadParamsError(f"unknown fixture {args.fixture!r}")


def _findim_from_args(args):
    field = _parse_field(args.field)
    coeffs = [scalar_parse(field, t.strip()) for t in args.poly.split(",")]
    return cancel.univariate_quotient(field, coeffs)


def _coordinates(a, v):
    """Every coordinate of the dict vector `v` of `a`, as text."""
    zero = a.field.zero()
    return [str(v.get(i, zero)) for i in range(a.dim)]


def _cmd_nilradical(args):
    a = _findim_from_args(args)
    nil = cancel.nilradical(a)
    result = {
        "dim": a.dim,
        "basis_names": list(a.basis_names),
        "nilradical_dim": len(nil["basis"]),
        "nilradical_basis": [_coordinates(a, v) for v in nil["basis"]],
        "certified": nil["certified"],
        "note": nil["note"],
    }
    return _report("nilradical", a.describe(),
                   {"field": args.field, "poly": args.poly}, result,
                   [{"claim": "trace-form nilradical", "status": "COMPUTED",
                     "paper_ref": "Corollary 0.6"}])


def _cmd_decompose(args):
    a = _findim_from_args(args)
    dec = cancel.local_decomposition(a)
    result = {
        "status": dec["status"],
        "factor_count": len(dec["factors"]),
        "factors": [
            {
                "dim": f["algebra"].dim,
                "idempotent": _coordinates(a, f["idempotent"]),
                "local_certified": f["local_certified"],
            }
            for f in dec["factors"]
        ],
        "nilradical_certified": dec["nilradical_certified"],
    }
    return _report("decompose", a.describe(),
                   {"field": args.field, "poly": args.poly}, result,
                   [{"claim": "orthogonal local decomposition",
                     "status": "COMPUTED", "paper_ref": "Corollary 0.6(3)"}])


def _cmd_registry(args):
    fixtures = cancel.counterexample_registry()
    entries = []
    for fx in fixtures:
        entry = {
            "id": fx["id"],
            "paper_ref": fx["paper_ref"],
            "refuted_property": fx["refuted_property"],
            "dotted_edges": [list(e) for e in fx["dotted_edges"]],
        }
        if args.verify:
            entry["verified"] = cancel.verify_fixture(fx)
        entries.append(entry)
    return _report("registry", {}, {"verify": bool(args.verify)},
                   {"fixtures": entries},
                   [{"claim": "dotted-edge counterexample coverage",
                     "status": "CATALOGED", "paper_ref": "Figure 1"}])


# ---------------------------------------------------------------------------
# argument parsing / dispatch


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="skewcalc", description="Exact skew-polynomial calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if needs_file:
            sp.add_argument("file")
        sp.add_argument("--format", choices=("text", "json"), default="json")
        return sp

    add("check", _cmd_check)
    sp = add("mul", _cmd_mul)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp = add("center", _cmd_center)
    sp.add_argument("--max-degree", dest="max_degree", type=int, default=4)
    add("center-torus", _cmd_center_torus)
    sp = add("growth", _cmd_growth)
    sp.add_argument("--N", type=int, default=12)
    sp = add("gkdim", _cmd_gkdim)
    sp.add_argument("--N", type=int, default=12)
    for name, fn in (("divisor", _cmd_divisor), ("controlling", _cmd_controlling)):
        sp = add(name, fn)
        sp.add_argument("--from", dest="from_exprs", action="append", required=True)
        sp.add_argument("--degree-cap", dest="degree_cap", type=int, default=4)
        sp.add_argument("--max-rounds", dest="max_rounds", type=int, default=4)
        sp.add_argument("--max-deg-a", dest="max_deg_a", type=int, default=2)
        sp.add_argument("--max-deg-b", dest="max_deg_b", type=int, default=2)
        sp.add_argument("--assert", dest="assert_flags", action="append",
                        type=_assert_flag, default=[])
    sp = add("certify", _cmd_certify)
    sp.add_argument("--degree-cap", dest="degree_cap", type=int, default=4)
    sp.add_argument("--max-rounds", dest="max_rounds", type=int, default=4)
    sp.add_argument("--N", type=int, default=12)
    sp.add_argument("--assert", dest="assert_flags", action="append",
                    type=_assert_flag, default=[])
    sp = add("verify-iso", _cmd_verify_iso, needs_file=False)
    sp.add_argument("--fixture", required=True)
    for name, fn in (("nilradical", _cmd_nilradical), ("decompose", _cmd_decompose)):
        sp = add(name, fn, needs_file=False)
        sp.add_argument("--field", default="rational")
        sp.add_argument("--poly", required=True,
                        help="ascending modulus coefficients, comma separated")
    sp = add("registry", _cmd_registry, needs_file=False)
    sp.add_argument("--verify", action="store_true")
    return parser


def _caps_positive(args):
    for attr in ("max_degree", "N", "degree_cap", "max_rounds",
                 "max_deg_a", "max_deg_b"):
        v = getattr(args, attr, None)
        if v is not None and v < 1:
            raise _UsageError(f"--{attr.replace('_', '-')} must be positive")


def _glue_poly_values(argv):
    """Rewrite `--poly -1,0,1` as `--poly=-1,0,1`: argparse takes a
    value with a leading minus for an option unless it is one number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--poly" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = "--poly=" + arg
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_poly_values(argv))
        _caps_positive(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        out = emit_report(args.fn(args), args.format)
        # a text stream without bytes underneath, such as an io.StringIO
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:
            stream, out = sys.stdout, out.decode()
        stream.write(out)
        stream.flush()
        return 0
    except ExprSyntaxError as exc:
        print(f"parse error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit [{exc.code}]: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, BadParamsError, NotADomainError,
            InsufficientDataError, MissingEvidenceError) as exc:
        print(f"validation error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except SkewcalcError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
