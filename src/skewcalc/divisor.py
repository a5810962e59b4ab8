"""Divisor-subalgebra machinery: subword search, bounded subalgebra
closure, the divisor-closure iteration, and controlling-set certification.

All computations are certified lower approximations: every element of a
certified span is genuinely reachable by the closure rules, and FULL
means the span provably contains a generating set. INCONCLUSIVE carries
no negative claim.
"""

from __future__ import annotations

from .errors import NotADomainError, ResourceLimitError
from .linalg import SpanBasis, nullspace, solve
from .presentation import Element, Presentation, grlex_key, mono_degree

# passes of `subalgebra_closure_bounded`, each multiplying the newest span
# elements by every element of S, before it gives up
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
    """The product m_a.m.m_b of three monomials, as normal-form terms."""
    prod = {}
    for mid, c1 in p._mono_mul(m_a, m).items():
        for mono, c2 in p._mono_mul(mid, m_b).items():
            s = prod.get(mono)
            if s is None:
                prod[mono] = c1 * c2
                continue
            s = s + c1 * c2
            if s.is_zero():
                del prod[mono]
            else:
                prod[mono] = s
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
            if g_bound < 0:
                continue
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
    """Fixed point of span <- span + span*S within the degree cap."""
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


def _span_elements(p: Presentation, span: SpanBasis) -> list:
    return [Element(p, row) for row in span.basis_rows()]


def _is_full(p: Presentation, span: SpanBasis) -> bool:
    for g in p.gens:
        if not span.contains(p.generator(g.name).terms):
            return False
        if g.invertible and not span.contains(p.gen_inverse(g.name).terms):
            return False
    return True


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


def _span_subwords(p: Presentation, span: SpanBasis, max_a: int, max_b: int,
                   degree_cap: int) -> list:
    """All new subwords extractable from the span in one pass.

    For each monomial pair (a, b), the g with a.g.b inside the span form
    a linear space found by one exact null-space computation; solutions
    already in the span (or reducible against earlier finds) are skipped.
    Every hit certifies f := a.g.b as an explicit span element. The pairs
    come lazily from `_subword_pairs`, so none is built after the span is
    found full.
    """
    working = span.copy()
    candidates = p.filtration_basis(degree_cap)
    hits = []
    for m_a, m_b in _subword_pairs(p, max_a, max_b):
        if _is_full(p, working):
            break
        cols = [span.reduce(_sandwich(p, m_a, m, m_b)) for m in candidates]
        for v in nullspace(cols, p.field):
            g = Element(p, {candidates[j]: c for j, c in v.items()})
            if g.is_zero() or not working.add(g.terms):
                continue
            a_el = Element(p, {m_a: p.field.one()})
            b_el = Element(p, {m_b: p.field.one()})
            f = a_el * g * b_el
            if not span.contains(f.terms):  # pragma: no cover - solve is exact
                continue
            hits.append(SubwordHit(f, m_a, g, m_b))
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
    S = list(F)
    span = subalgebra_closure_bounded(p, S, degree_cap)
    while len(report.rounds) < max_rounds:
        if _is_full(p, span):
            report.status = "FULL"
            break
        new_hits = _span_subwords(p, span, max_a, max_b, degree_cap)
        if not new_hits:
            report.rounds.append({"new_subwords": [], "span_dim": len(span)})
            break
        S = S + [h.g for h in new_hits]
        span = subalgebra_closure_bounded(p, S, degree_cap)
        report.rounds.append({"new_subwords": new_hits, "span_dim": len(span)})
    if _is_full(p, span):
        report.status = "FULL"
    report.certified_basis = _span_elements(p, span)
    return report


def is_controlling(p: Presentation, F: list, caps: dict) -> dict:
    report = divisor_closure(p, F, caps)
    return {
        "status": "CONTROLLING" if report.status == "FULL" else "INCONCLUSIVE",
        "report": report,
    }
