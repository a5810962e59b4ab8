import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    MAX_CLOSURE_PASSES,
    ClosureReport,
    SubwordHit,
    _generator_terms,
    _inv_degree,
    _is_full,
    _live_columns,
    _sandwich,
    _span_elements,
    _span_subwords,
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
from skewcalc.linalg import SpanBasis, nullspace
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor
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


# -- the live columns of a subword pass ---------------------------------------


def reference_is_full(p, span):
    for g in p.gens:
        if not span.contains(p.generator(g.name).terms):
            return False
        if g.invertible and not span.contains(p.gen_inverse(g.name).terms):
            return False
    return True


def reference_span_subwords(p, span, max_a, max_b, degree_cap):
    """`_span_subwords` before it kept a column table for the closure:
    every pass builds, reduces and solves all the columns a.m.b of each
    pair it meets."""
    working = span.copy()
    candidates = p.filtration_basis(degree_cap)
    hits = []
    for m_a, m_b in _subword_pairs(p, max_a, max_b):
        if reference_is_full(p, working):
            break
        cols = [span.reduce(_sandwich(p, m_a, m, m_b)) for m in candidates]
        for v in nullspace(cols, p.field):
            g = Element(p, {candidates[j]: c for j, c in v.items()})
            if g.is_zero() or not working.add(g.terms):
                continue
            a_el = Element(p, {m_a: p.field.one()})
            b_el = Element(p, {m_b: p.field.one()})
            f = a_el * g * b_el
            if not span.contains(f.terms):
                continue
            hits.append(SubwordHit(f, m_a, g, m_b))
    return hits


def _cap_grid_inputs():
    """Weyl over Q (its rule has a tail of lower degree), the minus-one
    plane and the Laurent plane, with degree caps 2-4 and both cofactor
    caps 1-2."""
    sources = [
        (weyl1(Q), ["x", "x^2", "x*y", "y^2 + x", "x^2*y"]),
        (minus_one_plane(Q), ["x^2", "x*y", "x + y"]),
        (laurent(2, Q), ["x1^2", "x1^-1*x2", "x1 + x2^-1"]),
    ]
    runs = []
    for p, exprs in sources:
        for text in exprs:
            F = [parse_element(p, text)]
            for cap in (2, 3, 4):
                for max_a in (1, 2):
                    for max_b in (1, 2):
                        runs.append((p, F, {"degree_cap": cap, "max_rounds": 3,
                                            "max_deg_a": max_a, "max_deg_b": max_b}))
    return runs


@pytest.mark.parametrize("inputs", [_closure_inputs, _cap_grid_inputs],
                         ids=["benchmark_runs", "cap_grid"])
def test_live_columns_give_the_reference_closures(monkeypatch, inputs):
    runs = inputs()
    live = [_closure_facts(divisor_closure(p, F, caps)) for p, F, caps in runs]
    monkeypatch.setattr(
        divisor, "_span_subwords",
        lambda p, span, max_a, max_b, degree_cap, columns, gen_terms:
            reference_span_subwords(p, span, max_a, max_b, degree_cap))
    reference = [_closure_facts(divisor_closure(p, F, caps)) for p, F, caps in runs]
    assert live == reference
    # both verdicts occur, and some closure finds subwords in its second round
    assert {facts[0] for facts in live} == {"FULL", "INCONCLUSIVE"}
    assert any(len(facts[2]) > 1 and facts[2][1] for facts in live)


def test_each_pair_builds_its_columns_once(monkeypatch):
    # x1^2 in k[x1, x2] at cap 3: two passes over all 36 pairs, 10 candidates
    p = poly(2, Q)
    F = [p.from_terms({(2, 0): Q.from_int(-3)})]
    caps = {"degree_cap": 3, "max_rounds": 2}
    calls = {"_sandwich": 0, "nullspace": 0}

    def counted(name):
        inner = getattr(divisor, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(divisor, name, counted(name))
    report = divisor_closure(p, F, caps)
    assert [r["span_dim"] for r in report.rounds] == [4, 4]
    assert calls["_sandwich"] == 36 * 10
    # 9 of the 36 pairs have no live column and make no null-space call
    assert calls["nullspace"] == 2 * (36 - 9)


def test_closures_share_the_column_table_of_their_presentation(monkeypatch):
    b1q = _pair_presentations()[3]
    caps = {"degree_cap": 3, "max_rounds": 3, "max_deg_a": 1, "max_deg_b": 1}
    first = _closure_facts(divisor_closure(b1q, [b1q.one()], caps))
    calls = []
    inner = divisor._sandwich
    monkeypatch.setattr(divisor, "_sandwich", lambda *args: calls.append(args) or inner(*args))
    # the same cap, on the presentation and on a `with_flags` copy: no column
    # is built again, and the report does not change
    assert _closure_facts(divisor_closure(b1q, [b1q.one()], caps)) == first
    copy = b1q.with_flags({"NOETHERIAN": True})
    assert _closure_facts(divisor_closure(copy, [copy.one()], caps)) == first
    assert calls == []
    # another cap builds its own table, and reports as on a fresh presentation
    caps2 = dict(caps, degree_cap=2)
    shared = _closure_facts(divisor_closure(b1q, [b1q.one()], caps2))
    assert calls and all(mono_degree(m) <= 2 for _, _, m, _ in calls)
    assert sorted(b1q._closure_columns) == [2, 3]
    fresh = _pair_presentations()[3]
    assert shared == _closure_facts(divisor_closure(fresh, [fresh.one()], caps2))


def test_shared_column_tables_give_the_fresh_closures():
    runs = _closure_inputs()
    order = list(range(len(runs)))
    random.Random(26).shuffle(order)
    shared = {i: _closure_facts(divisor_closure(*runs[i])) for i in order}
    fresh = {i: _closure_facts(divisor_closure(*_closure_inputs()[i])) for i in order}
    assert shared == fresh


@st.composite
def _column_problems(draw):
    """Sparse columns over GF(p) on rows 0..n-1, the rows below `low`
    inside F_cap, with a span on the inside rows to reduce them by."""
    p = draw(st.sampled_from([2, 3, 5]))
    field = FieldDescriptor(PRIME, p)
    n_rows = draw(st.integers(1, 7))
    low = draw(st.integers(0, n_rows))
    entry = st.integers(1, p - 1).map(field.from_int)

    def vector(rows):
        keys = draw(st.sets(st.sampled_from(rows), max_size=3)) if rows else set()
        return {k: draw(entry) for k in sorted(keys)}

    cols = [vector(range(n_rows)) for _ in range(draw(st.integers(1, 7)))]
    span = SpanBasis(field, lambda k: k)
    for _ in range(draw(st.integers(0, 3))):
        span.add(vector(range(low)))
    return field, cols, set(range(low)), span


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problem=_column_problems())
def test_live_columns_keep_the_null_basis(problem):
    field, cols, inside, span = problem
    full = nullspace([span.reduce(c) for c in cols], field)
    live = _live_columns(list(enumerate(cols)), inside)
    mapped = [{live[j][0]: x for j, x in v.items()}
              for v in nullspace([span.reduce(c) for _, c in live], field)]
    assert [list(v.items()) for v in mapped] == [list(v.items()) for v in full]
    dropped = set(range(len(cols))) - {j for j, _ in live}
    assert not any(j in v for v in full for j in dropped)


# -- closures without recomputation -------------------------------------------

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def reference_subalgebra_closure_bounded(p, S, degree_cap):
    """`subalgebra_closure_bounded` before the F_cap shortcut: the span of
    {1} + S, then passes over every element of S."""
    p.require_validated()
    span = SpanBasis(p.field, grlex_key)
    span.add(p.one().terms)
    gens = []
    for s in S:
        if s.is_zero():
            continue
        if s.degree() <= degree_cap:
            span.add(s.terms)
            gens.append(s)
    frontier = [Element(p, row) for row in span.basis_rows()]
    for _ in range(MAX_CLOSURE_PASSES):
        new_frontier = []
        for e in frontier:
            for s in gens:
                prod = e * s
                if prod.is_zero() or prod.degree() > degree_cap:
                    continue
                if span.add(prod.terms):
                    new_frontier.append(prod)
        if not new_frontier:
            return span
        frontier = new_frontier
    raise ResourceLimitError(
        f"subalgebra closure did not stabilize within "
        f"MAX_CLOSURE_PASSES = {MAX_CLOSURE_PASSES} passes",
        cap="MAX_CLOSURE_PASSES", limit=MAX_CLOSURE_PASSES)


def reference_divisor_closure(p, F, caps):
    """`divisor_closure` before its rounds extended the span: every round
    restarts the bounded closure from {1} + S."""
    p.require_validated()
    if not p.has_flag("DOMAIN"):
        raise NotADomainError("divisor closure requires a DOMAIN-flagged algebra")
    if not F or any(f.is_zero() for f in F):
        raise NotADomainError("F must be a nonempty list of nonzero elements")
    degree_cap = caps.get("degree_cap", 4)
    max_rounds = caps.get("max_rounds", 4)
    max_a = caps.get("max_deg_a", 2)
    max_b = caps.get("max_deg_b", 2)
    report = ClosureReport(list(F), degree_cap, dict(caps))
    gen_terms = _generator_terms(p)
    columns = {}  # (a, b) -> its live columns, for every round
    S = list(F)
    span = reference_subalgebra_closure_bounded(p, S, degree_cap)
    while len(report.rounds) < max_rounds:
        if _is_full(span, gen_terms):
            report.status = "FULL"
            break
        new_hits = _span_subwords(p, span, max_a, max_b, degree_cap, columns, gen_terms)
        if not new_hits:
            report.rounds.append({"new_subwords": [], "span_dim": len(span)})
            break
        S = S + [h.g for h in new_hits]
        span = reference_subalgebra_closure_bounded(p, S, degree_cap)
        report.rounds.append({"new_subwords": new_hits, "span_dim": len(span)})
    if _is_full(span, gen_terms):
        report.status = "FULL"
    report.certified_basis = _span_elements(p, span)
    return report


def _generators_and_inverses(p):
    out = []
    for g in p.gens:
        out.append(p.generator(g.name))
        if g.invertible:
            out.append(p.gen_inverse(g.name))
    return out


@pytest.mark.parametrize("name", [n for n in sorted(FAMILIES) if n.startswith("fixture:")])
def test_generators_close_to_the_whole_filtration_piece(name):
    p = _presentation(name)
    S = _generators_and_inverses(p)
    for cap in range(1, 5):
        span = subalgebra_closure_bounded(p, S, cap)
        assert len(span) == p.filtration_size(cap)
        assert span.basis_rows() == \
            reference_subalgebra_closure_bounded(p, S, cap).basis_rows()


def _recording_closes(monkeypatch):
    """Wrap `divisor._close` and count products; returns a list that gets,
    for each `_close` call, its `right` argument as text and the number of
    products the call formed."""
    calls, products = [], [0]
    close, mul = divisor._close, Element.__mul__

    def counted_mul(a, b):
        products[0] += 1
        return mul(a, b)

    def wrapper(p, span, frontier, right, S, degree_cap):
        before = products[0]
        out = close(p, span, frontier, right, S, degree_cap)
        calls.append(([str(s) for s in right], products[0] - before))
        return out
    monkeypatch.setattr(Element, "__mul__", counted_mul)
    monkeypatch.setattr(divisor, "_close", wrapper)
    return calls


def test_the_filtration_shortcut_and_its_boundary_cases(monkeypatch):
    calls = _recording_closes(monkeypatch)

    def closes(p, S, cap):
        """The closure's size and the number of products it formed."""
        del calls[:]
        span = subalgebra_closure_bounded(p, S, cap)
        assert span.basis_rows() == \
            reference_subalgebra_closure_bounded(p, S, cap).basis_rows()
        return len(span), sum(n for _, n in calls)

    t2 = _presentation("fixture:t2q3")
    gens = _generators_and_inverses(t2)
    x1, x1_inv, x2, x2_inv = gens
    three = t2.field.from_int(3)
    # no product: 3*x1 counts as x1, and x1*x2 only adds a monomial
    assert closes(t2, [x1 * three, x1_inv, x2, x2_inv], 2) == (13, 0)
    assert closes(t2, gens + [x1 * x2], 3) == (25, 0)
    # the loop: an inverse missing, cap 0 (the scalar 3 is multiplied),
    # a term that is not single, or a rule with a tail (y*x = x*y + 1)
    w = _presentation("fixture:weyl1")
    for p, S, cap, size in ((t2, [x1, x1_inv, x2], 2, 9),
                            (t2, gens + [t2.one() * three], 0, 1),
                            (t2, gens + [x1 + x2], 2, 13),
                            (w, _generators_and_inverses(w), 2, 6)):
        n, formed = closes(p, S, cap)
        assert n == size and formed > 0


def test_rounds_extend_single_terms_and_restart_otherwise(monkeypatch):
    calls = _recording_closes(monkeypatch)
    t2, kxy, a1q, _, _ = _pair_presentations()
    caps3 = {"degree_cap": 3, "max_rounds": 2}
    caps2 = {"degree_cap": 2, "max_rounds": 2}
    z = parse_element(a1q, "x*y - y*x")
    runs = [
        # x1^2 gives x1: the old rows meet x1 alone
        (kxy, [kxy.from_terms({(2, 0): Q.from_int(-3)})], caps3,
         [["-3*x1^2"], ["x1"]]),
        # x1^-1*x2 gives the generators and inverses: F_2, no product
        (t2, [t2.from_terms({(-1, 1): C3.from_int(3)})], caps2,
         [["3*x1^-1*x2"], ["x2", "x1", "x1^-1", "x2^-1"]]),
        # z is not a single term: the round restarts from {1} + S
        (a1q, [z], caps3, [[str(z)], [str(z), "x", "y"]]),
    ]
    for p, F, caps, rights in runs:
        del calls[:]
        report = divisor_closure(p, F, caps)
        assert _closure_facts(report) == _closure_facts(reference_divisor_closure(p, F, caps))
        assert [right for right, _ in calls] == rights
        if p is t2:
            assert calls[-1][1] == 0


_DOMAINS = {}


def _domain(name):
    """The presentation `name` of tests/test_rewriting.py, flagged DOMAIN
    where it is not (every one of them is a domain)."""
    if name not in _DOMAINS:
        p = _presentation(name)
        if not p.has_flag("DOMAIN"):
            p = p.with_flags({"DOMAIN": True}, "asserted(test)")
        _DOMAINS[name] = p
    return _DOMAINS[name]


@st.composite
def _closure_problems(draw):
    """A presentation of tests/test_rewriting.py, one or two elements of
    degree <= 2 (single terms half the time, so that rounds extend and
    take the F_cap shortcut, else one to three terms), and caps 2-3."""
    p = _domain(draw(st.sampled_from(sorted(FAMILIES))))
    monos = st.sampled_from(p.filtration_basis(2))
    coef = st.integers(-3, 3).filter(bool).map(p.field.from_int)
    size = draw(st.sampled_from([1, 3]))
    F = [p.from_terms(t) for t in draw(st.lists(
        st.dictionaries(monos, coef, min_size=1, max_size=size), min_size=1, max_size=2))]
    F = [f for f in F if not f.is_zero()] or [p.one()]
    caps = {"degree_cap": draw(st.integers(2, 3)), "max_rounds": draw(st.integers(1, 3)),
            "max_deg_a": draw(st.integers(1, 2)), "max_deg_b": draw(st.integers(1, 2))}
    return p, F, caps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=_closure_problems())
def test_closures_match_the_restarting_reference(problem):
    p, F, caps = problem
    assert _closure_facts(divisor_closure(p, F, caps)) == \
        _closure_facts(reference_divisor_closure(p, F, caps))


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_benchmark_closures_match_the_restarting_reference(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    jobs = [j for j in workloads.invariants_jobs(seed) if j.label.startswith("closure/")]
    reports = [j.prepare()() for j in jobs]
    assert all(j.check(r) for j, r in zip(jobs, reports))
    monkeypatch.setattr(divisor, "divisor_closure", reference_divisor_closure)
    assert [_closure_facts(j.prepare()()) for j in jobs] == \
        [_closure_facts(r) for r in reports]
