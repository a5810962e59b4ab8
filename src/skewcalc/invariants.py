"""Computable invariants: bounded centers, quantum-torus lattice centers,
growth tables and GK-dimension estimates, and local algebraicity /
nilpotency of tower maps.
"""

from __future__ import annotations

import math

from .errors import BadParamsError, InsufficientDataError, ResourceLimitError
from .linalg import SpanBasis, hnf_row, integer_kernel, nullspace
from .presentation import (
    Element,
    Morphism,
    Presentation,
    _delta_of,
    commutator,
    grlex_key,
    mono_degree,
)

# largest vector space an invariant works in: the filtration F_N whose
# dimensions `growth_dims` counts, and the monomials of degree <= d that
# `center_bounded` solves over
MAX_DIM = 20_000


def _dim_cap_error(what: str) -> ResourceLimitError:
    return ResourceLimitError(f"{what} exceeds the cap MAX_DIM = {MAX_DIM}",
                              cap="MAX_DIM", limit=MAX_DIM)


class GrowthTable:
    def __init__(self, dims: list, gen_space: str):
        self.dims = dims  # dims[n] = dim of span of products of <= n generators
        self.gen_space = gen_space


class CenterBasis:
    def __init__(self, degree_bound: int, basis: list):
        self.degree_bound = degree_bound
        self.basis = basis  # Elements, ascending leading monomial


# ---------------------------------------------------------------------------
# centers


def center_bounded(p: Presentation, d: int) -> CenterBasis:
    """Basis of {f : deg f <= d, [f, g] = 0 for every generator g}."""
    p.require_validated()
    size = p.filtration_size(d)
    if size > MAX_DIM:
        raise _dim_cap_error(f"the degree-{d} filtration ({size} monomials)")
    basis_monos = p.filtration_basis(d)
    gens = [p.generator(g.name) for g in p.gens]
    # one column per basis monomial: its commutators with the generators,
    # rows keyed (generator index, monomial)
    columns = []
    for m in basis_monos:
        e = Element(p, {m: p.field.one()})
        columns.append({
            (gi, mono): c
            for gi, g in enumerate(gens)
            for mono, c in commutator(e, g).terms.items()
        })
    out = [
        Element(p, {basis_monos[j]: c for j, c in v.items()})
        for v in nullspace(columns, p.field)
    ]
    out.sort(key=lambda e: grlex_key(e.leading_monomial()))
    return CenterBasis(d, out)


def center_torus(n: int, l: int, a: list) -> dict:
    """Central sublattice of the quantum torus with q_ij = zeta_l^{a_ij}.

    Returns {"lattice_basis": HNF rows of L, "index": [Z^n : L]} where
    L = {u : sum_j a_ij u_j = 0 mod l for all i}.
    """
    if l < 1:
        raise BadParamsError("l must be >= 1")
    if len(a) != n or any(len(r) != n for r in a):
        raise BadParamsError("a must be an n x n integer matrix")
    for i in range(n):
        for j in range(n):
            if a[i][j] != -a[j][i]:
                raise BadParamsError("a must be antisymmetric")
    stacked = [list(a[i]) + [l if j == i else 0 for j in range(n)] for i in range(n)]
    kernel = integer_kernel(stacked)
    basis = hnf_row([v[:n] for v in kernel])
    if len(basis) != n:
        raise BadParamsError("central lattice unexpectedly degenerate")
    index = 1
    for row in basis:
        pivot = next(x for x in row if x != 0)
        index *= pivot
    return {"lattice_basis": basis, "index": index}


# ---------------------------------------------------------------------------
# growth


def growth_dims(p: Presentation, N: int) -> GrowthTable:
    """dims[n] = dim V^n for n <= N, V = span(1, generators, inverses of
    invertible generators).

    V^n is F_n, the span of the standard monomials of degree <= n.
    `validate` refuses any rule tail of degree > 2, so no rewriting step
    lengthens a word, and the normal form of a product of n letters lies
    in F_n; a standard monomial of degree <= n is itself a reduced word
    of at most n letters. The standard monomials are a basis by the
    diamond lemma (Bergman, Adv. Math. 29, 1978), so dims[n] is their
    number, `filtration_size(n)`, and nothing is multiplied."""
    p.require_validated()
    if p.filtration_size(N) > MAX_DIM:
        raise _dim_cap_error("the growth span")
    dims = [p.filtration_size(n) for n in range(N + 1)]
    gen_space = "span(1, generators, inverses of invertible generators)"
    return GrowthTable(dims, gen_space)


def gk_estimate(table: GrowthTable) -> dict:
    """Windowed slope estimate of log dims[n] / log n with integer snap.

    Polynomial growth d*n^e has local log-log slope e + O(1/n); fitting
    the local slopes against 1/n over the tail half and reporting the
    intercept removes the leading finite-size bias.
    """
    dims = table.dims
    if len(dims) < 6:
        raise InsufficientDataError("need at least 6 growth entries")
    N = len(dims) - 1
    start = max(2, N // 2)
    xs, ys = [], []
    for n in range(start, N + 1):
        if dims[n] <= 0 or dims[n - 1] <= 0:
            raise InsufficientDataError("growth table has nonpositive entries")
        s = (math.log(dims[n]) - math.log(dims[n - 1])) / (
            math.log(n) - math.log(n - 1)
        )
        xs.append(1.0 / n)
        ys.append(s)
    k = len(xs)
    if k == 1:
        intercept, slope = ys[0], 0.0
    else:
        mx = sum(xs) / k
        my = sum(ys) / k
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx if sxx > 0 else 0.0
        intercept = my - slope * mx
    residual = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / k
    )
    snapped = None
    nearest = round(intercept)
    if abs(intercept - nearest) <= 0.25:
        snapped = int(nearest)
    return {
        "estimate": intercept,
        "snap": snapped,
        "window_fit": {
            "window": [start, N],
            "points": k,
            "slope_vs_inv_n": slope,
            "residual": residual,
        },
    }


# ---------------------------------------------------------------------------
# local algebraicity / nilpotency


def is_locally_algebraic(p: Presentation, sigma: Morphism, bound: int = 20) -> dict:
    """Search for a sigma-stable finite-dimensional space containing the
    generators by iterating sigma on their span."""
    p.require_validated()
    span = SpanBasis(p.field, grlex_key)
    elements = [p.one()] + [p.generator(g.name) for g in p.gens]
    for e in elements:
        span.add(e.terms)
    frontier = list(elements)
    trace = []
    for _ in range(bound):
        trace.append(
            {
                "dim": len(span),
                "max_degree": max(
                    mono_degree(m) for row in span.basis_rows() for m in row
                ),
            }
        )
        new_frontier = []
        for e in frontier:
            img = sigma.apply(e)
            if span.add(img.terms):
                new_frontier.append(img)
        if not new_frontier:
            return {
                "status": "TRUE",
                "witness": {
                    "dim": len(span),
                    "basis": [str(Element(p, row)) for row in span.basis_rows()],
                },
                "trace": trace,
            }
        frontier = new_frontier
    return {"status": "UNKNOWN", "witness": None, "trace": trace}


def is_locally_nilpotent(p: Presentation, delta: dict, bound: int = 20) -> dict:
    """delta: generator name -> Element (an ordinary derivation)."""
    p.require_validated()
    trace = []
    all_nil = True
    for g in p.gens:
        current = p.generator(g.name)
        seen = []
        gen_trace = []
        status = "UNKNOWN"
        for step in range(bound + 1):
            if current.is_zero():
                status = "TRUE"
                gen_trace.append("0")
                break
            for i, prev in enumerate(seen):
                if prev == current:
                    return {
                        "status": "FALSE",
                        "trace": trace
                        + [{"generator": g.name, "cycle": (i, step), "value": str(current)}],
                    }
            seen.append(current)
            gen_trace.append(str(current))
            current = _delta_of(p, delta, current)
        trace.append({"generator": g.name, "images": gen_trace, "status": status})
        if status != "TRUE":
            all_nil = False
    return {"status": "TRUE" if all_nil else "UNKNOWN", "trace": trace}
