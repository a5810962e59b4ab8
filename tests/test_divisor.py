import random

import pytest

from skewcalc import divisor
from skewcalc.errors import NotADomainError, ResourceLimitError
from skewcalc.families import (
    FamilySpec,
    build,
    laurent,
    minus_one_plane,
    poly,
    quantum_torus,
    quantum_weyl1,
    weyl1,
)
from skewcalc.divisor import (
    _inv_degree,
    _sandwich,
    _subword_pairs,
    divisor_closure,
    is_controlling,
    subalgebra_closure_bounded,
    subword_search,
)
from skewcalc.presentation import (
    Element,
    grlex_key,
    mono_degree,
    ore_extend,
    parse_element,
)
from skewcalc.scalars import CYCLOTOMIC, RATIONAL, FieldDescriptor
from test_linalg import ref_solve
from test_rewriting import FAMILIES, _presentation

Q = FieldDescriptor(RATIONAL)
C3 = FieldDescriptor(CYCLOTOMIC, 3)


def test_subword_search_finds_factorizations():
    p = poly(2, Q)
    f = parse_element(p, "x1^2*x2")
    hits = subword_search(p, f, {"max_deg_a": 1, "max_deg_b": 1})
    assert all(h.verify() for h in hits)
    gs = {str(h.g) for h in hits}
    assert "x2" in gs and "x1^2*x2" in gs


def reference_subword_search(p, f, max_a, max_b):
    """`subword_search` before it handed its columns to `solve` as dicts:
    one dense solve per monomial pair over the sorted row monomials.
    Returns the hits as (a, g, b)."""
    hits = []
    for m_a in p.filtration_basis(max_a):
        for m_b in p.filtration_basis(max_b):
            g_bound = f.degree() + _inv_degree(p, m_a) + _inv_degree(p, m_b)
            candidates = p.filtration_basis(g_bound)
            cols = [_sandwich(p, m_a, m, m_b) for m in candidates]
            row_monos = sorted(
                {mono for col in cols for mono in col} | set(f.terms), key=grlex_key
            )
            zero = p.field.zero()
            matrix = [[col.get(mono, zero) for col in cols] for mono in row_monos]
            rhs = [f.coefficient(mono) for mono in row_monos]
            sol = ref_solve(matrix, rhs, p.field)
            if sol is not None and any(not c.is_zero() for c in sol):
                hits.append((m_a, Element(p, dict(zip(candidates, sol))), m_b))
    return hits


def test_subword_search_matches_the_dense_reference():
    checked = 0
    for name in sorted(FAMILIES):
        p = _presentation(name)
        if not name.startswith("fixture:") or not p.has_flag("DOMAIN"):
            continue
        gens = [p.generator(g.name) for g in p.gens]
        for f in (gens[0], gens[-1] * gens[0], gens[0] * gens[-1] + p.one()):
            hits = subword_search(p, f, {"max_deg_a": 1, "max_deg_b": 1})
            assert [(h.a, h.g, h.b) for h in hits] == reference_subword_search(p, f, 1, 1)
            checked += 1
    assert checked == 3 * 7  # all 7 fixtures are flagged DOMAIN


def test_subword_search_requires_domain():
    p = poly(1, Q).with_flags({}, None)
    p.flags.pop("DOMAIN", None)
    with pytest.raises(NotADomainError):
        subword_search(p, p.one(), {})


def test_subalgebra_closure_powers_of_x():
    p = poly(2, Q)
    span = subalgebra_closure_bounded(p, [p.generator("x1")], 4)
    assert len(span) == 5  # 1, x, x^2, x^3, x^4


def test_subalgebra_closure_names_its_pass_cap(monkeypatch):
    # 1, x, ..., x^4 take four passes: the fourth finds nothing new
    p = poly(2, Q)
    monkeypatch.setattr(divisor, "MAX_CLOSURE_PASSES", 3)
    with pytest.raises(ResourceLimitError, match="MAX_CLOSURE_PASSES = 3") as err:
        subalgebra_closure_bounded(p, [p.generator("x1")], 4)
    assert err.value.details == {"cap": "MAX_CLOSURE_PASSES", "limit": 3}
    monkeypatch.setattr(divisor, "MAX_CLOSURE_PASSES", 4)
    assert len(subalgebra_closure_bounded(p, [p.generator("x1")], 4)) == 5


def test_subalgebra_closure_z_powers():
    p = quantum_weyl1()
    z = parse_element(p, "x*y - y*x")
    # z has degree 2: its powers up to z^3 need cap 6
    span6 = subalgebra_closure_bounded(p, [z], 6)
    assert len(span6) == 4
    span3 = subalgebra_closure_bounded(p, [z], 3)
    assert len(span3) == 2


def test_subalgebra_closure_minus_one_plane_even_span():
    p = minus_one_plane(Q)
    s = [parse_element(p, "x^2"), parse_element(p, "y^2")]
    span = subalgebra_closure_bounded(p, s, 4)
    assert len(span) == 6


def test_divisor_closure_z_controls_quantum_weyl():
    p = quantum_weyl1()
    z = parse_element(p, "x*y - y*x")
    report = divisor_closure(p, [z], {"degree_cap": 3, "max_rounds": 2})
    assert report.status == "FULL"
    assert len(report.rounds) <= 2


def test_divisor_closure_kxy_from_x_inconclusive():
    p = poly(2, Q)
    report = divisor_closure(p, [p.generator("x1")],
                             {"degree_cap": 3, "max_rounds": 2})
    assert report.status == "INCONCLUSIVE"
    monos = {e.leading_monomial() for e in report.certified_basis}
    assert monos == {(0, 0), (1, 0), (2, 0), (3, 0)}


def test_divisor_closure_torus_unit_is_controlling():
    p = quantum_torus(2, {(1, 2): C3.q()}, C3)
    out = is_controlling(p, [p.one()], {"degree_cap": 2, "max_rounds": 2})
    assert out["status"] == "CONTROLLING"


def test_divisor_closure_idempotent():
    p = quantum_weyl1()
    z = parse_element(p, "x*y - y*x")
    caps = {"degree_cap": 3, "max_rounds": 2}
    first = divisor_closure(p, [z], caps)
    again = divisor_closure(p, first.certified_basis, caps)
    assert again.status == "FULL"
    assert {str(e) for e in again.certified_basis} == {
        str(e) for e in first.certified_basis
    }


def test_closure_stable_under_ore_extension():
    # adjoining a central variable must not enlarge the closure of z
    p = quantum_weyl1()
    ext = ore_extend(p, "t")
    ext = ext.with_flags({"DOMAIN": True}, "asserted(test)")
    z = parse_element(ext, "x*y - y*x")
    report = divisor_closure(ext, [z], {"degree_cap": 3, "max_rounds": 2})
    t_pos = ext.gen_position("t")
    for e in report.certified_basis:
        assert all(m[t_pos] == 0 for m in e.terms)


# -- the order of the subword pairs ------------------------------------------


def reference_subword_pairs(p, max_a, max_b):
    """`_span_subwords`'s pairs before they were made lazily: every pair,
    sorted by (deg a + deg b, grlex a, grlex b)."""
    pairs = [(m_a, m_b)
             for m_a in p.filtration_basis(max_a)
             for m_b in p.filtration_basis(max_b)]
    pairs.sort(key=lambda t: (mono_degree(t[0]) + mono_degree(t[1]),
                              grlex_key(t[0]), grlex_key(t[1])))
    return pairs


def _pair_presentations():
    return [
        quantum_torus(2, {(1, 2): C3.q()}, C3),  # invertible generators
        poly(2, Q),
        quantum_weyl1(),
        build(FamilySpec.make("LOCALIZED_QWEYL1", C3, q=C3.q())),
        minus_one_plane(Q),
    ]


@pytest.mark.parametrize("p", _pair_presentations(), ids=repr)
def test_subword_pairs_come_in_the_sorted_order(p):
    for max_a in range(4):
        for max_b in range(4):
            assert list(_subword_pairs(p, max_a, max_b)) == \
                reference_subword_pairs(p, max_a, max_b)


def _closure_facts(report):
    return (
        report.status,
        [r["span_dim"] for r in report.rounds],
        [[(h.a, str(h.g), h.b) for h in r["new_subwords"]] for r in report.rounds],
        [str(e) for e in report.certified_basis],
    )


def _closure_inputs():
    """The benchmark's closure runs (presentation, F, caps): the fixed ones
    and a few seeded torus and poly(2) monomials of the same shapes."""
    caps3 = {"degree_cap": 3, "max_rounds": 2}
    caps2 = {"degree_cap": 2, "max_rounds": 2}
    t2, kxy, a1q, b1q, _ = _pair_presentations()
    runs = [
        (a1q, [parse_element(a1q, "x*y - y*x")], caps3),
        (t2, [t2.one()], caps2),
        (b1q, [b1q.one()],
         {"degree_cap": 3, "max_rounds": 3, "max_deg_a": 1, "max_deg_b": 1}),
        (kxy, [kxy.generator("x1")], caps3),
    ]
    rng = random.Random(20261019)
    for m in ((1, -1), (0, -2), (-1, 0), (2, 0)):
        runs.append((t2, [t2.from_terms({m: C3.from_int(rng.randint(2, 5))})], caps2))
    for m in ((2, 0), (3, 0), (1, 1), (1, 2)):
        runs.append((kxy, [kxy.from_terms({m: Q.from_int(rng.randint(-5, -2))})], caps3))
    return runs


def test_divisor_closure_reports_match_the_sorted_pair_order(monkeypatch):
    runs = _closure_inputs()
    lazy = [_closure_facts(divisor_closure(p, F, caps)) for p, F, caps in runs]
    monkeypatch.setattr(divisor, "_subword_pairs", reference_subword_pairs)
    eager = [_closure_facts(divisor_closure(p, F, caps)) for p, F, caps in runs]
    assert lazy == eager
    assert [facts[0] for facts in lazy] == ["FULL"] * 3 + ["INCONCLUSIVE"] + \
        ["FULL"] * 4 + ["INCONCLUSIVE"] * 2 + ["FULL"] * 2
