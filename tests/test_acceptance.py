"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line) each. Tolerances are pinned here and nowhere else: all algebraic
identities are exact (zero tolerance); GK estimates snap within 0.25.
"""

import itertools
import json
import pathlib
import random
import subprocess
import sys

from boxing import box
from skewcalc.cancel import (
    ImplicationDAG,
    _dag_close,
    certify,
    commutative_quotient,
    counterexample_registry,
    is_vnr,
    local_decomposition,
    nilradical,
    scalar_field_algebra,
    units_generated,
    univariate_quotient,
    verify_generating_set,
)
from skewcalc.divisor import divisor_closure
from skewcalc.families import (
    build_localized_qweyl,
    gwa,
    laurent,
    minus_one_plane,
    poly,
    quantum_torus,
    quantum_weyl1,
    skew_poly,
    weyl1,
)
from skewcalc.invariants import (
    center_bounded,
    center_torus,
    gk_estimate,
    growth_dims,
    is_locally_algebraic,
)
from skewcalc.presentation import (
    Element,
    commutator,
    identity_morphism,
    ore_extend,
    parse_element,
)
from skewcalc.scalars import CYCLOTOMIC, RATFUNC_Q, RATIONAL, FieldDescriptor

Q = FieldDescriptor(RATIONAL)
RQ = FieldDescriptor(RATFUNC_Q)
C3 = FieldDescriptor(CYCLOTOMIC, 3)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src/skewcalc/fixtures"

GK_SNAP_TOLERANCE = 0.25


def _report(n, ok):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_quantum_weyl_relation_identities():
    p = quantum_weyl1()
    q = RQ.q()
    x, y = p.generator("x"), p.generator("y")
    z = x * y - y * x
    ok = ((y * x).scale(q - RQ.one()) - (z - p.one())).is_zero()
    ok = ok and ((x * y).scale(q - RQ.one()) - (z.scale(q) - p.one())).is_zero()
    _report(1, ok)


def test_criterion_02_associativity_property_suite():
    families = [
        ("POLY", poly(2, Q)),
        ("LAURENT", laurent(2, Q)),
        ("SKEW_POLY", skew_poly(2, {(1, 2): C3.q()}, C3)),
        ("QUANTUM_TORUS", quantum_torus(2, {(1, 2): C3.q()}, C3)),
        ("WEYL1", weyl1(Q)),
        ("QUANTUM_WEYL1", quantum_weyl1()),
        ("LOCALIZED_QWEYL1", build_localized_qweyl(C3.q())),
        ("MINUS_ONE_PLANE", minus_one_plane(Q)),
        ("GWA", gwa({0: C3.one(), 1: C3.one()}, C3.q())),
    ]
    ok = True
    for name, p in families:
        monos = p.filtration_basis(3)
        els = [Element(p, {m: p.field.one()}) for m in monos]
        for a in els:
            for b in els:
                ab = a * b
                for c in els:
                    if not ((ab * c) - a * (b * c)).is_zero():
                        ok = False
        rng = random.Random(20260823)
        for _ in range(200):
            picks = []
            for _ in range(3):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    coef = p.field.from_int(rng.randint(-3, 3))
                    if not coef.is_zero():
                        terms[rng.choice(monos)] = coef
                picks.append(Element(p, terms) if terms else p.one())
            a, b, c = picks
            if not ((a * b) * c - a * (b * c)).is_zero():
                ok = False
    _report(2, ok)


def test_criterion_03_centers():
    ok = True
    # minus-one plane: center to degree 6 is spanned by monomials in x^2, y^2
    cb = center_bounded(minus_one_plane(Q), 6)
    expected = {
        (i, j) for i in range(0, 7, 2) for j in range(0, 7, 2) if i + j <= 6
    }
    ok = ok and {e.leading_monomial() for e in cb.basis} == expected
    ok = ok and all(len(e.terms) == 1 for e in cb.basis)
    # Weyl algebra in characteristic zero: trivial center
    wb = center_bounded(weyl1(Q), 6)
    ok = ok and len(wb.basis) == 1 and wb.basis[0].degree() == 0
    # localized quantum Weyl algebra at a primitive cube root of unity
    p = build_localized_qweyl(C3.q())
    gens = [p.generator(g.name) for g in p.gens]
    for t in ("x^3", "y^3", "z^3"):
        e = parse_element(p, t)
        ok = ok and all(commutator(e, g).is_zero() for g in gens)
    # x^3*y^3 = (z^3 - 1)/(q - 1)^3, so 1 - (1-q)^3*x^3*y^3 equals z^3 and
    # the unit z^{-3} inverts it exactly
    q = C3.q()
    one = p.one()
    x3y3 = parse_element(p, "x^3*y^3")
    inner = one - x3y3.scale((C3.one() - q) ** 3)
    zm3 = parse_element(p, "z^-3")
    ok = ok and (zm3 * inner - one).is_zero()
    ok = ok and (inner - parse_element(p, "z^3")).is_zero()
    _report(3, ok)


def _in_lattice(basis, u):
    u = list(u)
    for row in basis:
        piv = next(i for i, v in enumerate(row) if v != 0)
        if u[piv] % row[piv] != 0:
            continue
        f = u[piv] // row[piv]
        u = [a - f * b for a, b in zip(u, row)]
    return all(v == 0 for v in u)


def test_criterion_04_torus_center_oracle():
    ok = True
    for n in (2, 3):
        if n == 2:
            a = [[0, 1], [-1, 0]]
        else:
            a = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
        for l in (1, 2, 3, 4):
            out = center_torus(n, l, a)
            basis = out["lattice_basis"]
            if n == 2:
                ok = ok and out["index"] == l * l
            for u in itertools.product(range(-l, l + 1), repeat=n):
                central = all(
                    sum(a[i][j] * u[j] for j in range(n)) % l == 0
                    for i in range(n)
                )
                ok = ok and central == _in_lattice(basis, u)
    # algebra-level brute force for n = 2: commute monomials against gens
    for l in (2, 3, 4):
        field = FieldDescriptor(CYCLOTOMIC, l)
        p = quantum_torus(2, {(1, 2): field.q()}, field)
        out = center_torus(2, l, [[0, 1], [-1, 0]])
        gens = [p.generator(g.name) for g in p.gens]
        for u in itertools.product(range(-l, l + 1), repeat=2):
            e = Element(p, {u: field.one()})
            central = all(commutator(e, g).is_zero() for g in gens)
            ok = ok and central == _in_lattice(out["lattice_basis"], u)
    _report(4, ok)


def test_criterion_05_growth_and_gk():
    ok = True
    dims = growth_dims(weyl1(Q), 8).dims
    ok = ok and dims == [(n + 1) * (n + 2) // 2 for n in range(9)]
    for n in (1, 2, 3):
        est = gk_estimate(growth_dims(poly(n, Q), 12))
        ok = ok and est["snap"] == n
        ok = ok and abs(est["estimate"] - n) <= GK_SNAP_TOLERANCE
    west = gk_estimate(growth_dims(weyl1(Q), 12))
    ok = ok and west["snap"] == 2 and abs(west["estimate"] - 2) <= GK_SNAP_TOLERANCE
    # adjoining a central Ore variable raises the estimate by one
    for base in (weyl1(Q), quantum_weyl1()):
        sigma = identity_morphism(base)
        ok = ok and is_locally_algebraic(base, sigma, bound=5)["status"] == "TRUE"
        ext = ore_extend(base, "t")
        e0 = gk_estimate(growth_dims(base, 12))["estimate"]
        e1 = gk_estimate(growth_dims(ext, 12))["estimate"]
        ok = ok and abs(e1 - (e0 + 1)) <= GK_SNAP_TOLERANCE
    _report(5, ok)


def test_criterion_06_divisor_closures():
    ok = True
    # z = xy - yx controls the quantum Weyl algebra
    a1q = quantum_weyl1()
    z = parse_element(a1q, "x*y - y*x")
    caps = {"degree_cap": 3, "max_rounds": 2}
    rep_z = divisor_closure(a1q, [z], caps)
    ok = ok and rep_z.status == "FULL" and len(rep_z.rounds) <= 2
    # 1 controls the quantum torus and the localized quantum Weyl algebra
    t2 = quantum_torus(2, {(1, 2): C3.q()}, C3)
    rep_t = divisor_closure(t2, [t2.one()], {"degree_cap": 2, "max_rounds": 2})
    ok = ok and rep_t.status == "FULL"
    b1q = build_localized_qweyl(C3.q())
    rep_b = divisor_closure(
        b1q, [b1q.one()],
        {"degree_cap": 3, "max_rounds": 3, "max_deg_a": 3, "max_deg_b": 3},
    )
    ok = ok and rep_b.status == "FULL"
    # idempotence: re-closing the certified basis reproduces it
    for p, rep, c in ((a1q, rep_z, caps),
                      (t2, rep_t, {"degree_cap": 2, "max_rounds": 2})):
        again = divisor_closure(p, rep.certified_basis, c)
        ok = ok and again.status == "FULL"
        ok = ok and {str(e) for e in again.certified_basis} == {
            str(e) for e in rep.certified_basis
        }
    # stability under a central Ore extension: closure of z stays downstairs
    ext = ore_extend(a1q, "t").with_flags({"DOMAIN": True}, "asserted(test)")
    z_ext = parse_element(ext, "x*y - y*x")
    rep_e = divisor_closure(ext, [z_ext], caps)
    t_pos = ext.gen_position("t")
    ok = ok and all(
        m[t_pos] == 0 for e in rep_e.certified_basis for m in e.terms
    )
    # k[x,y] from {x}: inconclusive, certified span is the powers of x
    kxy = poly(2, Q)
    rep_k = divisor_closure(kxy, [kxy.generator("x1")], caps)
    ok = ok and rep_k.status == "INCONCLUSIVE"
    ok = ok and {e.leading_monomial() for e in rep_k.certified_basis} == {
        (i, 0) for i in range(4)
    }
    _report(6, ok)


def test_criterion_07_commutative_checks():
    ok = True
    # k[x,y]/(x^2, xy, y^2): nilradical span{x, y}, one local factor
    a = commutative_quotient(
        Q, ["x", "y"], [(1, 1)],
        {0: [Q.zero(), Q.zero(), Q.one()], 1: [Q.zero(), Q.zero(), Q.one()]},
    )
    nil = nilradical(a)
    ok = ok and a.dim == 3 and len(nil["basis"]) == 2 and nil["certified"]
    dec = local_decomposition(a)
    ok = ok and dec["status"] == "DECOMPOSED" and len(dec["factors"]) == 1
    # von Neumann regular fixtures
    ok = ok and is_vnr(univariate_quotient(Q, [Q.from_int(-1), Q.zero(), Q.one()]))
    ok = ok and not is_vnr(univariate_quotient(Q, [Q.zero(), Q.zero(), Q.one()]))
    # generating sets over k[x]/(x^2): t + x*t^2 generates, t^2 does not
    b = univariate_quotient(Q, [Q.zero(), Q.zero(), Q.one()])
    f = {(1,): b.unit, (2,): box(Q, b._e(1))}
    ok = ok and verify_generating_set(b, 1, [f], 4)["status"] == "GENERATES"
    k = scalar_field_algebra(Q)
    ok = ok and verify_generating_set(
        k, 1, [{(2,): k.unit}], 4
    )["status"] == "INCONCLUSIVE"
    _report(7, ok)


def test_criterion_08_counterexample_fixtures():
    ok = True
    dag = ImplicationDAG()
    covered = set()
    for fx in counterexample_registry():
        out = fx["verify"]()
        ok = ok and out["iso"]["status"] == "ISO_BOUNDED"
        ok = ok and out["base_noncommutative"] and out["base_commutative"]
        covered.update(fx["dotted_edges"])
    ok = ok and covered == set(dag.dotted_edges)
    _report(8, ok)


def test_criterion_09_rule_engine():
    ok = True
    # Weyl algebra: R1 + R9, delta-cancellative refuted
    w = weyl1(Q)
    wv = {v.property: v for v in certify(w, {"center": center_bounded(w, 4)})}
    ok = ok and wv["UNIVERSALLY_CANCELLATIVE"].rule == "R1"
    ok = ok and wv["UNIVERSALLY_MORITA_CANCELLATIVE"].rule == "R1"
    ok = ok and wv["SIGMA_CANCELLATIVE_STRONG"].rule == "R9"
    ok = ok and wv["DELTA_CANCELLATIVE"].status == "REFUTED_BY_EXAMPLE"
    # minus-one plane with ML_FULL: R10, sigma-cancellative refuted
    m = minus_one_plane(Q).with_flags({"ML_FULL": True}, "asserted(user)")
    mv = {v.property: v for v in certify(
        m, {"gk": gk_estimate(growth_dims(m, 12))}
    )}
    ok = ok and mv["DELTA_CANCELLATIVE"].rule == "R10"
    ok = ok and mv["SIGMA_CANCELLATIVE_STRONG"].status == "REFUTED_BY_EXAMPLE"
    # quantum torus at a root of unity with AZUMAYA + full center closure: R11
    t = quantum_torus(2, {(1, 2): C3.q()}, C3).with_flags(
        {"AZUMAYA": True}, "asserted(user)"
    )
    lattice = center_torus(2, 3, [[0, 1], [-1, 0]])
    zc = laurent(len(lattice["lattice_basis"]), C3)
    zrep = divisor_closure(zc, [zc.one()], {"degree_cap": 2, "max_rounds": 2})
    tv = certify(t, {"closure_center_full": zrep.status == "FULL"})
    by_rule = {}
    for v in tv:
        by_rule.setdefault(v.rule, set()).add(v.property)
    ok = ok and by_rule.get("R11") == {
        "STRONGLY_CANCELLATIVE",
        "STRONGLY_MORITA_CANCELLATIVE",
        "DERIVED_CANCELLATIVE_STRONG",
    }
    # verdict sets are DAG-closed and replay-verifiable
    for verdicts in (list(wv.values()), list(mv.values()), tv):
        closed = _dag_close(
            [v for v in verdicts if v.status != "REFUTED_BY_EXAMPLE"]
        )
        ok = ok and {(v.property, v.status) for v in closed} <= {
            (v.property, v.status) for v in verdicts
        } | {(v.property, "REFUTED_BY_EXAMPLE") for v in verdicts}
    wv2 = {v.property: (v.status, v.rule) for v in certify(
        w, {"center": center_bounded(w, 4)}
    )}
    ok = ok and wv2 == {k: (v.status, v.rule) for k, v in wv.items()}
    for fx in counterexample_registry():
        out = fx["verify"]()
        ok = ok and out["iso"]["status"] == "ISO_BOUNDED"
    _report(9, ok)


def test_criterion_10_cli_contract(tmp_path):
    from skewcalc.cli import parse_algebra_file, print_algebra

    ok = True
    for path in sorted(FIXTURES.glob("*.alg")):
        obj = parse_algebra_file(path.read_text())
        text = print_algebra(obj)
        ok = ok and print_algebra(parse_algebra_file(text)) == text

    def run(*argv, **kw):
        return subprocess.run(
            [sys.executable, "-m", "skewcalc.cli", *argv],
            capture_output=True, **kw,
        )

    one = run("center", str(FIXTURES / "minusone.alg"), "--max-degree", "4")
    two = run("center", str(FIXTURES / "minusone.alg"), "--max-degree", "4")
    ok = ok and one.returncode == 0 and one.stdout == two.stdout
    ok = ok and run("no-such-command").returncode == 1
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra a { field rational; gens x; rule x*x = ; }")
    ok = ok and run("check", str(bad)).returncode == 2
    invalid = tmp_path / "invalid.alg"
    invalid.write_text(
        "algebra a { field rational; gens x, y; rule y*x = x*y + x*y^2; }"
    )
    ok = ok and run("check", str(invalid)).returncode == 3
    ok = ok and run(
        "divisor", str(FIXTURES / "poly2.alg"), "--from", "x",
        "--degree-cap", "100",
    ).returncode == 4
    _report(10, ok)
