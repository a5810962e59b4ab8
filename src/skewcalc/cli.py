"""Command-line front end: presentation-file parsing, command dispatch,
and deterministic TEXT/JSON reports.

Exit codes: 0 success, 1 usage, 2 parse error, 3 validation/data error,
4 resource limit, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cancel import (
    certify,
    counterexample_registry,
    fixture_passes,
    local_decomposition,
    nilradical,
    univariate_quotient,
    verify_fixture,
)
from .divisor import divisor_closure, is_controlling
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
from .families import FAMILY_IDS, FamilySpec, build
from .invariants import center_bounded, center_torus, gk_estimate, growth_dims
from .presentation import (
    GeneratorInfo,
    Presentation,
    RewriteRule,
    parse_element,
)
from .scalars import (
    CYCLOTOMIC,
    PRIME,
    RATFUNC_Q,
    RATIONAL,
    FieldDescriptor,
    scalar_parse,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# presentation-file grammar


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _loc(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c in " \t\r\n":
                i += 1
                continue
            if c == "#":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if c in "{};,=":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c.isalnum() or c in "_+-*/^().":
                j = i
                depth = 0
                # an expression atom runs until whitespace or a structural
                # character at depth zero
                while j < n:
                    ch = text[j]
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        if depth == 0:
                            break
                        depth -= 1
                    elif depth == 0 and (ch in " \t\r\n{};,=#"):
                        break
                    j += 1
                self.tokens.append(("ATOM", text[i:j], i))
                i = j
                continue
            line, col = self._loc(i)
            raise ExprSyntaxError(f"unexpected character {c!r}", i, line, col)

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            line, col = self._loc(len(self.text))
            raise ExprSyntaxError("unexpected end of input", len(self.text), line, col)
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            line, col = self._loc(tok[2])
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2], line, col)
        return tok

    def fail(self, msg, tok=None):
        pos = tok[2] if tok else (
            self.tokens[self.index - 1][2] if self.index else 0
        )
        line, col = self._loc(pos)
        raise ExprSyntaxError(msg, pos, line, col)


def _parse_field(text, tz):
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
    tz.fail(f"unrecognized field {m!r}")


def _collect_expr(tz):
    """Join atom tokens until ';' into one expression string."""
    parts = []
    while True:
        tok = tz.peek()
        if tok is None or tok[0] == ";":
            break
        tok = tz.next()
        parts.append(tok[1])
    if not parts:
        tz.fail("missing expression")
    return " ".join(parts)


def _parse_algebra_stanza(name, tz):
    tz.expect("{")
    field = None
    gens = []
    rule_texts = []
    flags = {}
    while True:
        tok = tz.next()
        if tok[0] == "}":
            break
        if tok[0] != "ATOM":
            tz.fail(f"unexpected {tok[1]!r}", tok)
        keyword = tok[1]
        if keyword == "field":
            field = _parse_field(_collect_expr(tz), tz)
            tz.expect(";")
        elif keyword == "gens":
            while True:
                gtok = tz.expect("ATOM")
                gname = gtok[1]
                invertible = False
                nxt = tz.peek()
                if nxt and nxt[0] == "ATOM" and nxt[1] == "inv":
                    tz.next()
                    invertible = True
                    nxt = tz.peek()
                gens.append(GeneratorInfo(gname, len(gens) + 1, invertible))
                if nxt and nxt[0] == ",":
                    tz.next()
                    continue
                tz.expect(";")
                break
        elif keyword == "rule":
            lhs = tz.expect("ATOM")[1]
            tz.expect("=")
            rhs = _collect_expr(tz)
            tz.expect(";")
            rule_texts.append((lhs, rhs, tz.tokens[tz.index - 1][2]))
        elif keyword == "flag":
            ftok = tz.expect("ATOM")
            fname = ftok[1]
            value = True
            nxt = tz.peek()
            if nxt and nxt[0] == "=":
                tz.next()
                vtok = tz.expect("ATOM")
                try:
                    value = int(vtok[1])
                except ValueError:
                    tz.fail("flag value must be an integer", vtok)
            tz.expect(";")
            flags[fname] = value
        else:
            tz.fail(f"unknown keyword {keyword!r}", tok)
    if field is None:
        tz.fail("algebra stanza is missing a field declaration")
    if not gens:
        tz.fail("algebra stanza is missing generators")
    scaffold = Presentation(field, gens)
    positions = {g.name: pos for pos, g in enumerate(gens)}
    rules = []
    for lhs, rhs, _ in rule_texts:
        if "*" not in lhs:
            tz.fail(f"rule left side {lhs!r} must be Gj*Gi")
        left_name, right_name = (s.strip() for s in lhs.split("*", 1))
        if left_name not in positions or right_name not in positions:
            tz.fail(f"rule left side {lhs!r} names an unknown generator")
        j, i = positions[left_name], positions[right_name]
        if not j > i:
            tz.fail(f"rule left side {lhs!r} must have the later generator first")
        value = parse_element(scaffold, rhs)
        swap_mono = tuple(
            1 if k in (i, j) else 0 for k in range(len(gens))
        )
        leading = value.coefficient(swap_mono)
        tail = tuple(
            sorted(
                ((m, c) for m, c in value.terms.items() if m != swap_mono),
                key=lambda t: t[0],
            )
        )
        rules.append(RewriteRule(j, i, leading, tail))
    return Presentation(
        field, gens, rules=rules, flags=flags,
        flag_provenance={k: "asserted(user-file)" for k in flags},
        notes=(name,),
    )


_FAMILY_ALIASES = {fid.lower(): fid for fid in FAMILY_IDS}


def _family_field(fid, raw):
    if "l" in raw:
        return FieldDescriptor(CYCLOTOMIC, raw["l"])
    if "p" in raw:
        return FieldDescriptor(PRIME, raw["p"])
    if fid in ("QUANTUM_WEYL1", "LOCALIZED_QWEYL1", "SKEW_POLY",
               "QUANTUM_TORUS", "GWA"):
        return FieldDescriptor(RATFUNC_Q)
    return FieldDescriptor(RATIONAL)


def _parse_family_stanza(tz):
    ftok = tz.expect("ATOM")
    fid = _FAMILY_ALIASES.get(ftok[1].lower())
    if fid is None:
        tz.fail(f"unknown family {ftok[1]!r}", ftok)
    raw = {}
    while True:
        tok = tz.peek()
        if tok is None or tok[0] == ";":
            if tok:
                tz.next()
            break
        ktok = tz.expect("ATOM")
        tz.expect("=")
        vtok = tz.expect("ATOM")
        try:
            raw[ktok[1]] = int(vtok[1])
        except ValueError:
            tz.fail("family parameters must be integers", vtok)
    field = _family_field(fid, raw)
    params = {}
    if "n" in raw:
        params["n"] = raw["n"]
    exponents = {
        (int(k[1]), int(k[2])): v
        for k, v in raw.items()
        if len(k) == 3 and k[0] == "a" and k[1:].isdigit()
    }
    if fid in ("SKEW_POLY", "QUANTUM_TORUS"):
        q = field.q() if field.kind in (RATFUNC_Q, CYCLOTOMIC) else None
        if exponents and q is None:
            tz.fail("commutation exponents need a q-field (l=... or the default)")
        params["q_matrix"] = tuple(
            sorted(((pair, q ** a) for pair, a in exponents.items()))
        )
    if fid in ("QUANTUM_WEYL1", "LOCALIZED_QWEYL1"):
        params["q"] = field.q()
    if fid == "GWA":
        coeffs = {
            int(k[1:]): field.from_int(v)
            for k, v in raw.items()
            if k[0] == "a" and k[1:].isdigit() and len(k) == 2
        }
        if not coeffs:
            tz.fail("gwa needs coefficients a0=, a1=, a2=")
        params["a"] = tuple(sorted(coeffs.items()))
        params["q"] = field.q()
    return FamilySpec(fid, field, tuple(sorted(params.items())),
                      raw=tuple(sorted(raw.items())))


def parse_algebra_file(text: str):
    """Parse one `algebra` or `family` stanza into a validated object."""
    tz = _Tokenizer(text)
    tok = tz.next()
    if tok[0] != "ATOM":
        tz.fail(f"expected 'algebra' or 'family', found {tok[1]!r}", tok)
    if tok[1] == "algebra":
        name = tz.expect("ATOM")[1]
        p = _parse_algebra_stanza(name, tz)
        p.require_validated()
        return p
    if tok[1] == "family":
        spec = _parse_family_stanza(tz)
        build(spec)  # validate eagerly
        return spec
    tz.fail(f"expected 'algebra' or 'family', found {tok[1]!r}", tok)


def print_algebra(obj) -> str:
    """Canonical text form; parse(print(parse(s))) == parse(s)."""
    if isinstance(obj, FamilySpec):
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
    return build(obj) if isinstance(obj, FamilySpec) else obj


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
                        "a": _mono_str(h.f.algebra, h.a),
                        "g": str(h.g),
                        "b": _mono_str(h.f.algebra, h.b),
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


def _mono_str(p, m):
    parts = [
        g.name if e == 1 else f"{g.name}^{e}"
        for g, e in zip(p.gens, m)
        if e != 0
    ]
    return "*".join(parts) if parts else "1"


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


def _apply_asserts(p, asserts):
    extra = {}
    for flag in asserts or ():
        if "=" in flag:
            k, v = flag.split("=", 1)
            extra[k] = int(v)
        else:
            extra[flag] = True
    if extra:
        p = p.with_flags(extra, "asserted(user)")
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
    cb = center_bounded(p, args.max_degree)
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
    if not isinstance(spec, FamilySpec) or spec.family_id != "QUANTUM_TORUS":
        raise BadParamsError("center-torus needs a `family quantum_torus` file")
    raw = dict(spec.raw)
    n = raw["n"]
    a = [[0] * n for _ in range(n)]
    for key, v in raw.items():
        if len(key) == 3 and key[0] == "a" and key[1:].isdigit():
            i, j = int(key[1]) - 1, int(key[2]) - 1
            a[i][j] = v
            a[j][i] = -v
    # without l=, q is not a root of unity and no test mod l applies
    if "l" not in raw and any(any(row) for row in a):
        raise BadParamsError("center-torus needs q to be a root of unity (l=)")
    l = raw.get("l", 1)
    out = center_torus(n, l, a)
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
    table = growth_dims(p, args.N)
    result = {"dims": table.dims, "gen_space": table.gen_space}
    return _report("growth", p.describe(), {"N": args.N}, result,
                   [{"claim": "filtration dimensions", "status": "COMPUTED",
                     "paper_ref": "Lemma 3.1"}])


def _cmd_gkdim(args):
    p = _as_presentation(_load(args.file))
    table = growth_dims(p, args.N)
    est = gk_estimate(table)
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
    report = divisor_closure(p, F, caps)
    return _report("divisor", p.describe(), caps, _closure_result(report),
                   [{"claim": "certified divisor-subalgebra approximation",
                     "status": "COMPUTED", "paper_ref": "Lemma 4.4"}])


def _cmd_controlling(args):
    p = _as_presentation(_load(args.file))
    p = _apply_asserts(p, args.assert_flags)
    F = [parse_element(p, t) for t in args.from_exprs]
    caps = _divisor_caps(args)
    out = is_controlling(p, F, caps)
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
    inputs = {"center": center_bounded(p, args.degree_cap)}
    try:
        inputs["closure_one"] = divisor_closure(
            p, [p.one()],
            {"degree_cap": args.degree_cap, "max_rounds": args.max_rounds},
        )
    except NotADomainError:
        pass
    try:
        inputs["gk"] = gk_estimate(growth_dims(p, args.N))
    except (InsufficientDataError, ResourceLimitError):
        pass
    verdicts = certify(p, inputs)
    return _report("certify", p.describe(), caps,
                   {"verdicts": _verdict_dicts(verdicts)},
                   [{"claim": f"rule {v.rule} for {v.property}",
                     "status": v.status, "paper_ref": v.paper_ref}
                    for v in verdicts])


def _cmd_verify_iso(args):
    for fixture in counterexample_registry():
        if fixture["id"] == args.fixture:
            out = fixture["verify"]()
            result = {
                "fixture": fixture["id"],
                "iso_status": out["iso"]["status"],
                "base_noncommutative": out["base_noncommutative"],
                "base_commutative": out["base_commutative"],
                "pass": fixture_passes(out),
            }
            claim = ("isomorphism (homomorphisms both ways, generator round trip)"
                     " + base non-isomorphism")
            return _report("verify-iso", {"fixture": fixture["id"]}, {}, result,
                           [{"claim": claim, "status": "COMPUTED",
                             "paper_ref": fixture["paper_ref"]}])
    raise BadParamsError(f"unknown fixture {args.fixture!r}")


def _findim_from_args(args):
    field = _parse_field_arg(args.field)
    coeffs = [scalar_parse(field, t.strip()) for t in args.poly.split(",")]
    return univariate_quotient(field, coeffs)


def _parse_field_arg(text):
    class _Dummy:
        def fail(self, msg, tok=None):
            raise BadParamsError(msg)

    return _parse_field(text, _Dummy())


def _coordinates(a, v):
    """Every coordinate of the dict vector `v` of `a`, as text."""
    zero = a.field.zero()
    return [str(v.get(i, zero)) for i in range(a.dim)]


def _cmd_nilradical(args):
    a = _findim_from_args(args)
    nil = nilradical(a)
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
    dec = local_decomposition(a)
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
    fixtures = counterexample_registry()
    entries = []
    for fx in fixtures:
        entry = {
            "id": fx["id"],
            "paper_ref": fx["paper_ref"],
            "refuted_property": fx["refuted_property"],
            "dotted_edges": [list(e) for e in fx["dotted_edges"]],
        }
        if args.verify:
            entry["verified"] = verify_fixture(fx)
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
        sp.add_argument("--seed", type=int, default=0)
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
        sp.add_argument("--assert", dest="assert_flags", action="append", default=[])
    sp = add("certify", _cmd_certify)
    sp.add_argument("--degree-cap", dest="degree_cap", type=int, default=4)
    sp.add_argument("--max-rounds", dest="max_rounds", type=int, default=4)
    sp.add_argument("--N", type=int, default=12)
    sp.add_argument("--assert", dest="assert_flags", action="append", default=[])
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
        report = args.fn(args)
        sys.stdout.buffer.write(emit_report(report, args.format))
        sys.stdout.buffer.flush()
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
