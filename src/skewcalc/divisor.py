"""Divisor-subalgebra machinery: subword search, bounded subalgebra
closure, the divisor-closure iteration, and controlling-set certification.

All computations are certified lower approximations: every element of a
certified span is genuinely reachable by the closure rules, and FULL
means the span provably contains a generating set. INCONCLUSIVE carries
no negative claim.

A closure from single terms on a presentation whose rules have no tails
and no elimination pairs (`_monomial`: tori, skew polynomial rings, the
minus-one plane, polynomial and Laurent rings) runs on a set of exponent
vectors, since there a monomial times a monomial is the exponent sum
times a nonzero scalar. It forms no product, column or null space until
it builds its result. Every other closure runs on `SpanBasis` spans.
"""

from __future__ import annotations

from operator import add, sub

from .errors import BadParamsError, NotADomainError, ResourceLimitError
from .linalg import SpanBasis, add_scaled, nullspace, solve
from .presentation import Element, Presentation, grlex_key, mono_degree
from .scalars import box, unbox

# passes of a bounded closure (`_passes`), each multiplying the newest span
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
    {monomial: raw value} summed by `linalg.add_scaled`, the one scaled
    sparse sum."""
    prod = {}
    for mid, c1 in p._mono_mul(m_a, m).items():
        add_scaled(prod, p._mono_mul(mid, m_b), p.field, c1)
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
        raise BadParamsError("subword search requires nonzero f")
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
            sol = solve(cols, unbox(f.terms), p.field)
            if sol is None:
                continue
            g = Element(p, box(p.field, {candidates[j]: c for j, c in sol.items()}))
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
    from 1 within the cap, and the passes run on their exponent vectors
    (`_exponent_closure`).
    """
    p.require_validated()
    gens = [s for s in S if not s.is_zero() and s.degree() <= degree_cap]
    if _monomial(p, gens):
        vecs = _exponents(gens)
        span = SpanBasis(p.field, grlex_key)
        span.pivots = {m: {} for m in _exponent_closure(p, _from_one(p, vecs), vecs, vecs,
                                                         degree_cap)}
        return span
    return _span_closure(p, gens, degree_cap)


def _monomial(p: Presentation, S: list) -> bool:
    """Whether S holds single terms and p is q-commuting (its rules have
    no tails and it has no elimination pairs: `swap_scalars`), so that
    monomials multiply to single terms."""
    return p.swap_scalars() is not None and all(len(s.terms) == 1 for s in S)


def _passes(step, frontier: list, right: list, S: list) -> None:
    """Run the passes of a bounded closure: `step(frontier, right)` adds
    the products of degree <= cap of the frontier by `right` and returns
    those that grew the closure; each later pass multiplies them by S,
    until a pass adds none."""
    for _ in range(MAX_CLOSURE_PASSES):
        frontier = step(frontier, right)
        if not frontier:
            return
        right = S
    raise ResourceLimitError(
        f"subalgebra closure did not stabilize within "
        f"MAX_CLOSURE_PASSES = {MAX_CLOSURE_PASSES} passes",
        cap="MAX_CLOSURE_PASSES", limit=MAX_CLOSURE_PASSES)


def _span_closure(p: Presentation, S: list, degree_cap: int) -> SpanBasis:
    """The closure of span({1} + S), S nonzero and of degree <= cap."""
    span = SpanBasis(p.field, grlex_key)
    for s in [p.one()] + S:
        span.add(unbox(s.terms))
    return _close(span, _span_elements(p, span), S, S, degree_cap)


def _close(span: SpanBasis, frontier: list, right: list, S: list,
           degree_cap: int) -> SpanBasis:
    """Pass by pass, add to `span` the products of degree <= cap of the
    frontier by `right`, then of each pass's new elements by S."""
    def step(frontier, right):
        grew = []
        for e in frontier:
            for s in right:
                prod = e * s
                if prod.is_zero() or prod.degree() > degree_cap:
                    continue
                if span.add(unbox(prod.terms)):
                    grew.append(prod)
        return grew
    _passes(step, frontier, right, S)
    return span


def _exponents(S: list) -> list:
    """The exponent vector of each single-term element of S."""
    return [next(iter(s.terms)) for s in S]


def _generator_exponents(p: Presentation) -> set:
    """The standard monomials of degree 1: every generator and inverse."""
    return set(p.filtration_basis(1)[1:])


def _from_one(p: Presentation, S: list) -> set:
    """The exponent vectors of 1 and of S, where a closure starts."""
    return {(0,) * len(p.gens)} | set(S)


def _exponent_closure(p: Presentation, mons: set, right: list, S: list,
                      degree_cap: int) -> set:
    """`_close` on exponent vectors, for the vectors S of a `_monomial` S:
    a product of monomials is their exponent sum times a nonzero scalar.
    Every vector of `mons` meets `right`, then each pass's new vectors
    meet S; the sums of degree <= cap join `mons`, which is returned.

    If S holds every generator and inverse, the result is F_cap, with no
    pass: a standard monomial of degree d <= cap is its prefix of degree
    d - 1 times one of them."""
    if _generator_exponents(p) <= set(S):
        return set(p.filtration_basis(degree_cap))

    def step(frontier, right):
        grew = []
        for e in frontier:
            for s in right:
                m = tuple(map(add, e, s))
                if m not in mons and mono_degree(m) <= degree_cap:
                    mons.add(m)
                    grew.append(m)
        return grew
    _passes(step, list(mons), right, S)
    return mons


def _span_elements(p: Presentation, span: SpanBasis) -> list:
    return [Element(p, row) for row in span.basis_rows()]


def _generator_terms(p: Presentation) -> list:
    """The raw terms of every generator and of every inverse: a span is
    full when it holds all of them."""
    out = []
    for g in p.gens:
        out.append(unbox(p.generator(g.name).terms))
        if g.invertible:
            out.append(unbox(p.gen_inverse(g.name).terms))
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
    found full. This is the general path: `divisor_closure` calls it for
    multi-term S or rules with tails, and a `_monomial` closure takes
    `_exponent_subwords`, which builds no column.

    `columns` maps a pair (a, b) to its live columns (j, a.m_j.b) over
    the candidates m_j, the standard monomials of F_cap. The first pass
    to meet the pair builds every column and keeps the live ones; later
    passes reuse them, since the products do not change between passes,
    only the span does. The entry depends on the rules, the field and
    `degree_cap` only, so `divisor_closure` passes the table it keeps on
    the presentation for this cap, and any other caller may pass its own
    dict. Each pass reduces only the live columns against the span and
    takes their null space; a pair with no live column makes no
    null-space call.

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
            g = {candidates[live[j][0]]: c for j, c in v.items()}
            if not g or not working.add(g):
                continue
            grew = True
            g = Element(p, box(p.field, g))
            f = Element(p, {m_a: one}) * g * Element(p, {m_b: one})
            if not span.contains(unbox(f.terms)):  # pragma: no cover - solve is exact
                continue
            hits.append(SubwordHit(f, m_a, g, m_b))
        if grew and _is_full(working, gen_terms):
            break
    return hits


def _exponent_subwords(p: Presentation, mons: set, max_a: int, max_b: int,
                       degree_cap: int, full: set) -> list:
    """`_span_subwords` on the exponent vectors `mons` of a `_monomial`
    closure. The column a.m.b of a candidate m is a nonzero multiple of
    the monomial a+m+b, and no two candidates share it; so the null
    vectors of the pair (a, b) are the candidates m with a+m+b in `mons`,
    one each, in grlex order. Each f = a.m.b comes from the cached
    monomial products and is checked to lie in `mons`."""
    working = set(mons)
    inside = {m: j for j, m in enumerate(p.filtration_basis(degree_cap))}
    found = []
    for m_a, m_b in _subword_pairs(p, max_a, max_b):
        ab = tuple(map(add, m_a, m_b))
        new = sorted(({tuple(map(sub, t, ab)) for t in mons} - working) & inside.keys(),
                     key=inside.get)
        working.update(new)
        found += [(m_a, m, m_b) for m in new]
        if new and full <= working:
            break
    one, mul = p.field.one(), p.field.ops.mul
    hits = []
    for m_a, m, m_b in found:
        (am, c), = p._mono_mul(m_a, m).items()
        (f, d), = p._mono_mul(am, m_b).items()
        if f in mons:
            hits.append(SubwordHit(Element(p, box(p.field, {f: mul(c, d)})), m_a,
                                   Element(p, {m: one}), m_b))
    return hits


def _exponent_rounds(p: Presentation, report: ClosureReport, S: list,
                     max_a: int, max_b: int, max_rounds: int) -> None:
    """The rounds of `divisor_closure` for the exponent vectors S of a
    `_monomial` F: each round's subwords are single monomials, so the
    closure so far is closed under the old S and only meets the new."""
    cap = report.degree_cap
    full = _generator_exponents(p)
    mons = _exponent_closure(p, _from_one(p, S), S, S, cap)
    while len(report.rounds) < max_rounds and not full <= mons:
        hits = _exponent_subwords(p, mons, max_a, max_b, cap, full)
        new = _exponents([h.g for h in hits])
        if new:
            S = S + new
            mons = _exponent_closure(p, mons, new, S, cap)
        report.rounds.append({"new_subwords": hits, "span_dim": len(mons)})
        if not new:
            break
    if full <= mons:
        report.status = "FULL"
    one = p.field.one()
    report.certified_basis = [Element(p, {m: one})
                              for m in reversed(p.filtration_basis(cap)) if m in mons]


def divisor_closure(p: Presentation, F: list, caps: dict) -> ClosureReport:
    """Iterate subword extraction + bounded subalgebra closure.

    Each round extracts the subwords g of the span (f = a.g.b in the span
    for monomials a, b within the cofactor caps), adds them to S and
    closes again, until the span is FULL, a round finds no subword or
    `max_rounds` rounds have run.

    A `_monomial` S (the elements of F of degree <= cap) takes the rounds
    on exponent vectors (`_exponent_rounds`). Otherwise each round
    restarts the closure from {1} + S, and the live columns of each pair
    (see `_span_subwords`) are kept on the presentation, one table per
    `degree_cap`, shared with its `with_flags` copies and held for its
    lifetime: a later closure at the same cap, from any F and with any
    cofactor caps, builds no column a closure before it has built."""
    p.require_validated()
    if not p.has_flag("DOMAIN"):
        raise NotADomainError("divisor closure requires a DOMAIN-flagged algebra")
    if not F or any(f.is_zero() for f in F):
        raise BadParamsError("F must be a nonempty list of nonzero elements")
    degree_cap = caps.get("degree_cap", 4)
    max_rounds = caps.get("max_rounds", 4)
    max_a = caps.get("max_deg_a", 2)
    max_b = caps.get("max_deg_b", 2)
    report = ClosureReport(list(F), degree_cap, dict(caps))
    S = [f for f in F if f.degree() <= degree_cap]  # the rest make no product
    if _monomial(p, S):
        _exponent_rounds(p, report, _exponents(S), max_a, max_b, max_rounds)
        return report
    gen_terms = _generator_terms(p)
    # (a, b) -> its live columns, for every round and every later call
    columns = p._closure_columns.setdefault(degree_cap, {})
    span = _span_closure(p, S, degree_cap)
    while len(report.rounds) < max_rounds:
        if _is_full(span, gen_terms):
            report.status = "FULL"
            break
        new_hits = _span_subwords(p, span, max_a, max_b, degree_cap, columns, gen_terms)
        if not new_hits:
            report.rounds.append({"new_subwords": [], "span_dim": len(span)})
            break
        S = S + [h.g for h in new_hits]
        span = _span_closure(p, S, degree_cap)
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
