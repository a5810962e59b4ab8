"""Divisor-subalgebra machinery: subword search, bounded subalgebra
closure, the divisor-closure iteration, and controlling-set certification.

All computations are certified lower approximations: every element of a
certified span is genuinely reachable by the closure rules, and FULL
means the span provably contains a generating set. INCONCLUSIVE carries
no negative claim.
"""

from __future__ import annotations

from .errors import NotADomainError, ResourceLimitError
from .linalg import SpanBasis, add_scaled, nullspace, solve
from .presentation import Element, Presentation, grlex_key, mono_degree

# passes of a bounded closure (`_close`), each multiplying the newest span
# elements by the elements of S, before it gives up
MAX_CLOSURE_PASSES = 64


class SubwordHit:
    def __init__(self, f: Element, a: tuple, g: Element, b: tuple):
        self.f = f
        self.a = a  # monomial (left cofactor)
        self.g = g
        self.b = b  # monomial (right cofactor)

    def verify(self) -> bool:
        p = self.f.algebra
        a_el = Element(p, {self.a: p.field.one()})
        b_el = Element(p, {self.b: p.field.one()})
        return (a_el * self.g * b_el - self.f).is_zero()


class ClosureReport:
    def __init__(self, F: list, degree_cap: int, caps: dict):
        self.F = F
        self.degree_cap = degree_cap
        self.caps = caps
        self.rounds = []
        self.status = "INCONCLUSIVE"  # FULL | INCONCLUSIVE
        self.certified_basis = []  # Elements

    def basis_dim(self) -> int:
        return len(self.certified_basis)


def _inv_degree(p: Presentation, m) -> int:
    """Total degree carried by invertible generators in a monomial."""
    return sum(abs(e) for e, g in zip(m, p.gens) if g.invertible)


def _sandwich(p: Presentation, m_a, m, m_b) -> dict:
    """The product m_a.m.m_b of three monomials, as normal-form terms
    summed by `linalg.add_scaled`, the one scaled sparse sum."""
    prod = {}
    for mid, c1 in p._mono_mul(m_a, m).items():
        add_scaled(prod, p._mono_mul(mid, m_b), c1)
    return prod


def subword_search(p: Presentation, f: Element, caps: dict) -> list:
    """All factorizations f = a.g.b with monomial a, b within the caps.

    For each monomial pair the unknown g is found (or refuted) by one
    exact linear solve over a bounded filtration piece; every returned
    hit carries a re-verifiable certificate. Includes the trivial hit.
    """
    p.require_validated()
    if not p.has_flag("DOMAIN"):
        raise NotADomainError("subword search requires a DOMAIN-flagged algebra")
    if f.is_zero():
        raise NotADomainError("subword search requires nonzero f")
    max_a = caps.get("max_deg_a", 2)
    max_b = caps.get("max_deg_b", 2)
    deg_f = f.degree()
    hits = []
    a_monos = p.filtration_basis(max_a)
    b_monos = p.filtration_basis(max_b)
    for m_a in a_monos:
        for m_b in b_monos:
            g_bound = deg_f + _inv_degree(p, m_a) + _inv_degree(p, m_b)
            candidates = p.filtration_basis(g_bound)
            cols = [_sandwich(p, m_a, m, m_b) for m in candidates]
            sol = solve(cols, f.terms, p.field)
            if sol is None:
                continue
            g = Element(p, {candidates[j]: c for j, c in sol.items()})
            if g.is_zero():
                continue
            hit = SubwordHit(f, m_a, g, m_b)
            if not hit.verify():  # pragma: no cover - solve is exact
                continue
            hits.append(hit)
    return hits


def subalgebra_closure_bounded(p: Presentation, S: list, degree_cap: int) -> SpanBasis:
    """The span C that right multiplication by S reaches within the cap.

    S' is the nonzero elements of S of degree <= `degree_cap`. The first
    pass multiplies the reduced basis of span({1} + S') by each s in S',
    each later pass the products the pass before added; the products of
    degree <= `degree_cap` join C, until a pass adds none.

    If S' holds single terms only and monomials of p multiply to single
    terms (`_monomial`), C is spanned by the monomials that S' reaches
    from 1 within the cap, whatever the order. So if S' holds a multiple
    of each generator and inverse, C = F_cap, returned with no product
    formed: a standard monomial of degree d <= cap is its prefix of
    degree d - 1 times one of them.
    """
    p.require_validated()
    gens = [s for s in S if not s.is_zero() and s.degree() <= degree_cap]
    span = SpanBasis(p.field, grlex_key)
    for s in [p.one()] + gens:
        span.add(s.terms)
    return _close(p, span, _span_elements(p, span), gens, gens, degree_cap)


def _monomial(p: Presentation, S: list) -> bool:
    """Whether S holds single terms and p's rules have no tails and no
    elimination pairs, so that monomials multiply to single terms."""
    return (not p.elim and not any(r.tail for r in p.rules.values())
            and all(len(s.terms) == 1 for s in S))


def _close(p: Presentation, span: SpanBasis, frontier: list, right: list,
           S: list, degree_cap: int) -> SpanBasis:
    """Pass by pass, add to `span` the products of degree <= cap of the
    frontier by `right`, then of each pass's new elements by S. A
    `_monomial` S with every generator and inverse makes `span` F_cap at
    once (see `subalgebra_closure_bounded`)."""
    if _monomial(p, S) and ({next(iter(t)) for t in _generator_terms(p)}
                            <= {next(iter(s.terms)) for s in S}):
        span.pivots = {m: {} for m in p.filtration_basis(degree_cap)}
        return span
    for _ in range(MAX_CLOSURE_PASSES):
        grew = []
        for e in frontier:
            for s in right:
                prod = e * s
                if prod.is_zero() or prod.degree() > degree_cap:
                    continue
                if span.add(prod.terms):
                    grew.append(prod)
        if not grew:
            return span
        frontier, right = grew, S
    raise ResourceLimitError(
        f"subalgebra closure did not stabilize within "
        f"MAX_CLOSURE_PASSES = {MAX_CLOSURE_PASSES} passes",
        cap="MAX_CLOSURE_PASSES", limit=MAX_CLOSURE_PASSES)


def _span_elements(p: Presentation, span: SpanBasis) -> list:
    return [Element(p, row) for row in span.basis_rows()]


def _generator_terms(p: Presentation) -> list:
    """The terms of every generator and of every inverse: a span is full
    when it holds all of them."""
    out = []
    for g in p.gens:
        out.append(p.generator(g.name).terms)
        if g.invertible:
            out.append(p.gen_inverse(g.name).terms)
    return out


def _is_full(span: SpanBasis, gen_terms: list) -> bool:
    return all(span.contains(t) for t in gen_terms)


def _subword_pairs(p: Presentation, max_a: int, max_b: int):
    """The monomial pairs (a, b) with deg a <= max_a and deg b <= max_b,
    in (deg a + deg b, grlex a, grlex b) order, made as they are needed:
    for each total degree s, each a in grlex order is followed by the b of
    degree s - deg a in grlex order."""
    a_monos = p.filtration_basis(max_a)
    b_by_degree = {}
    for m_b in p.filtration_basis(max_b):
        b_by_degree.setdefault(mono_degree(m_b), []).append(m_b)
    for s in range(max_a + max_b + 1):
        for m_a in a_monos:
            for m_b in b_by_degree.get(s - mono_degree(m_a), ()):
                yield m_a, m_b


def _live_columns(cols: list, inside: set) -> list:
    """The columns of `cols`, pairs (j, column) with dict columns, that a
    null vector can use once every column is reduced against a span whose
    rows hold only monomials of `inside`.

    Reducing a column never touches a monomial outside `inside`. When such
    a monomial occurs in one column only, that column's coefficient is 0
    in every null vector: the column is dropped, and the count is made
    again over the rest, until no column is dropped.
    """
    while True:
        owner = {}  # monomial outside -> its one column, None if shared
        for j, col in cols:
            for mono in col:
                if mono not in inside:
                    owner[mono] = None if mono in owner else j
        lone = {j for j in owner.values() if j is not None}
        if not lone:
            return cols
        cols = [c for c in cols if c[0] not in lone]


def _span_subwords(p: Presentation, span: SpanBasis, max_a: int, max_b: int,
                   degree_cap: int, columns: dict, gen_terms: list) -> list:
    """All new subwords extractable from the span in one pass.

    For each monomial pair (a, b), the g with a.g.b inside the span form
    a linear space found by one exact null-space computation; solutions
    already in the span (or reducible against earlier finds) are skipped.
    Every hit certifies f := a.g.b as an explicit span element. The pairs
    come lazily from `_subword_pairs`, so none is built after the span is
    found full.

    `columns` maps a pair (a, b) to its live columns (j, a.m_j.b) over
    the candidates m_j, the standard monomials of F_cap. The first pass
    to meet the pair builds every column and keeps the live ones; later
    passes reuse them, since the products do not change between passes,
    only the span does. Each pass reduces only the live columns against
    the span and takes their null space; a pair with no live column makes
    no null-space call.

    The hits are those that all the columns give. The span lies in
    F_cap, so reducing a column never touches a monomial of degree
    > `degree_cap`. A column that alone holds such a monomial is 0 in
    every null vector, and `_live_columns` drops it, again and again. A
    dropped column is then a pivot column, since a free column is 1 in
    its basis vector. The null basis that is 1 at one free column and 0
    at the others is unique, and the live columns keep their order. So
    the live basis, mapped back to the candidates, has the same vectors
    in the same order.
    """
    working = span.copy()
    candidates = p.filtration_basis(degree_cap)
    inside = set(candidates)
    one = p.field.one()
    hits = []
    for m_a, m_b in _subword_pairs(p, max_a, max_b):
        live = columns.get((m_a, m_b))
        if live is None:
            live = columns[m_a, m_b] = _live_columns(
                [(j, _sandwich(p, m_a, m, m_b)) for j, m in enumerate(candidates)],
                inside)
        if not live:
            continue
        grew = False
        for v in nullspace([span.reduce(raw) for _, raw in live], p.field):
            g = Element(p, {candidates[live[j][0]]: c for j, c in v.items()})
            if g.is_zero() or not working.add(g.terms):
                continue
            grew = True
            f = Element(p, {m_a: one}) * g * Element(p, {m_b: one})
            if not span.contains(f.terms):  # pragma: no cover - solve is exact
                continue
            hits.append(SubwordHit(f, m_a, g, m_b))
        if grew and _is_full(working, gen_terms):
            break
    return hits


def divisor_closure(p: Presentation, F: list, caps: dict) -> ClosureReport:
    """Iterate subword extraction + bounded subalgebra closure."""
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
    S = [f for f in F if f.degree() <= degree_cap]  # the rest make no product
    span = subalgebra_closure_bounded(p, S, degree_cap)
    while len(report.rounds) < max_rounds:
        if _is_full(span, gen_terms):
            report.status = "FULL"
            break
        new_hits = _span_subwords(p, span, max_a, max_b, degree_cap, columns, gen_terms)
        if not new_hits:
            report.rounds.append({"new_subwords": [], "span_dim": len(span)})
            break
        new = [h.g for h in new_hits]
        S = S + new
        if _monomial(p, S):
            # the old span is closed under the old S: its rows meet the new S
            _close(p, span, _span_elements(p, span), new, S, degree_cap)
        else:
            span = subalgebra_closure_bounded(p, S, degree_cap)
        report.rounds.append({"new_subwords": new_hits, "span_dim": len(span)})
    if _is_full(span, gen_terms):
        report.status = "FULL"
    report.certified_basis = _span_elements(p, span)
    return report


def is_controlling(p: Presentation, F: list, caps: dict) -> dict:
    report = divisor_closure(p, F, caps)
    return {
        "status": "CONTROLLING" if report.status == "FULL" else "INCONCLUSIVE",
        "report": report,
    }
