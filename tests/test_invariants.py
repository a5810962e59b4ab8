import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import invariants
from skewcalc.errors import BadParamsError, InsufficientDataError, ResourceLimitError
from skewcalc.families import (
    laurent,
    minus_one_plane,
    poly,
    quantum_torus,
    quantum_weyl1,
    weyl1,
)
from skewcalc.invariants import (
    center_bounded,
    center_torus,
    gk_estimate,
    growth_dims,
    is_locally_algebraic,
    is_locally_nilpotent,
)
from skewcalc.linalg import SpanBasis
from skewcalc.presentation import (
    Element,
    GeneratorInfo,
    Presentation,
    _delta_of,
    commutator,
    grlex_key,
    identity_morphism,
    ore_extend,
    parse_element,
)
from skewcalc.scalars import CYCLOTOMIC, RATIONAL, FieldDescriptor
from test_linalg import ref_nullspace
from test_rewriting import FAMILIES, _presentation, _terminating_presentations

Q = FieldDescriptor(RATIONAL)
C3 = FieldDescriptor(CYCLOTOMIC, 3)


def test_center_weyl_is_trivial():
    cb = center_bounded(weyl1(Q), 4)
    assert len(cb.basis) == 1
    assert cb.basis[0].degree() == 0


def test_center_minus_one_plane_degree_4():
    cb = center_bounded(minus_one_plane(Q), 4)
    monos = {e.leading_monomial() for e in cb.basis}
    assert monos == {(0, 0), (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)}


def test_center_poly_is_everything():
    p = poly(2, Q)
    cb = center_bounded(p, 2)
    assert len(cb.basis) == len(p.filtration_basis(2))


def reference_center_bounded(p, d):
    """`center_bounded` before it handed its columns to `nullspace` as
    dicts: a dense matrix over the sorted (generator, monomial) rows, read
    cell by cell with `coefficient`, and the dense null space."""
    basis_monos = p.filtration_basis(d)
    gens = [p.generator(g.name) for g in p.gens]
    columns = [
        [commutator(Element(p, {m: p.field.one()}), g) for g in gens] for m in basis_monos
    ]
    row_monos = sorted(
        {(gi, mono) for col in columns for gi, c in enumerate(col) for mono in c.terms},
        key=lambda t: (t[0], grlex_key(t[1])),
    )
    matrix = [[col[gi].coefficient(mono) for col in columns] for gi, mono in row_monos]
    if matrix:
        vectors = ref_nullspace(matrix, p.field)
    else:
        vectors = [
            [p.field.one() if i == j else p.field.zero() for j in range(len(basis_monos))]
            for i in range(len(basis_monos))
        ]
    out = [Element(p, dict(zip(basis_monos, v))) for v in vectors]
    out.sort(key=lambda e: grlex_key(e.leading_monomial()))
    return out


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_center_bounded_matches_the_dense_reference(name):
    p = _presentation(name)
    top = 5 if p.filtration_size(5) <= 200 else 3  # the dense reference is slow
    for d in range(top + 1):
        assert center_bounded(p, d).basis == reference_center_bounded(p, d)


@pytest.mark.parametrize("name", ["weyl1_q", "qweyl1", "localized_qweyl", "mixed_tail"])
def test_center_bounded_makes_no_element_product(name, monkeypatch):
    p = _presentation(name)
    p.require_validated()
    expected = reference_center_bounded(p, 4)

    def refused(*args):
        raise AssertionError("center_bounded multiplied Elements")

    monkeypatch.setattr(Presentation, "multiply", refused)
    assert center_bounded(p, 4).basis == expected


def _exponent_vectors(p, d):
    """Brute force: how many exponent vectors have total degree <= d and
    no elimination pair with both exponents positive."""
    ranges = [range(-d if g.invertible else 0, d + 1) for g in p.gens]
    return sum(1 for e in itertools.product(*ranges)
               if sum(map(abs, e)) <= d
               and not any(e[i] > 0 and e[j] > 0 for i, j in p.elim))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_center_bounded_refuses_past_the_dimension_cap_before_building(name, monkeypatch):
    p = _presentation(name)
    for d in range(4):
        size = _exponent_vectors(p, d)
        assert len(p.filtration_basis(d)) == size
        p._basis_cache.clear()
        monkeypatch.setattr(invariants, "MAX_DIM", size - 1)
        with pytest.raises(ResourceLimitError, match=f"MAX_DIM = {size - 1}"):
            center_bounded(p, d)
        assert d not in p._basis_cache  # refused before the basis was built
        monkeypatch.setattr(invariants, "MAX_DIM", size)
        center_bounded(p, d)


def test_growth_dims_stops_at_the_dimension_cap(monkeypatch):
    monkeypatch.setattr(invariants, "MAX_DIM", 45)
    assert growth_dims(weyl1(Q), 8).dims[-1] == 45
    monkeypatch.setattr(invariants, "MAX_DIM", 44)
    with pytest.raises(ResourceLimitError, match="growth span exceeds the cap MAX_DIM = 44"):
        growth_dims(weyl1(Q), 8)


def reference_growth_dims(p, N):
    """`growth_dims` before it counted the standard monomials: V^n grown by
    multiplying a frontier by each element of V and reducing each product
    into a span."""
    p.require_validated()
    v_elements = []
    for g in p.gens:
        v_elements.append(p.generator(g.name))
        if g.invertible:
            v_elements.append(p.gen_inverse(g.name))
    span = SpanBasis(p.field, grlex_key)
    span.add(p.one().terms)
    dims = [len(span)]
    frontier = [p.one()]
    for _ in range(N):
        new_frontier = []
        for f in frontier:
            for v in v_elements:
                prod = f * v
                if span.add(prod.terms):
                    new_frontier.append(prod)
        dims.append(len(span))
        frontier = new_frontier
    return dims


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_growth_dims_matches_the_span_reference(name):
    p = _presentation(name)
    assert growth_dims(p, 10).dims == reference_growth_dims(p, 10)
    for d in range(7):
        assert p.filtration_size(d) == len(p.filtration_basis(d))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=_terminating_presentations(elim=True))
def test_growth_dims_matches_the_span_reference_on_random_presentations(p):
    if not p.validate().ok:
        return
    assert growth_dims(p, 6).dims == reference_growth_dims(p, 6)
    for d in range(7):
        assert p.filtration_size(d) == len(p.filtration_basis(d))


def test_filtration_size_counts_supports_without_an_elimination_pair():
    # gens x1..x4, x5^+-1 with pairs (x1, x2) and (x2, x3): the supports
    # in x1..x3 are {}, {x1}, {x2}, {x3}, {x1, x3}, so c = (1 + 3t + t^2)
    # (1 + t)(1 + 2t) = 1 + 6t + 12t^2 + 9t^3 + 2t^4
    gens = [GeneratorInfo(f"x{k}", k, invertible=k == 5) for k in range(1, 6)]
    p = Presentation(Q, gens, elim={(0, 1): {}, (1, 2): {}})
    for d in range(6):
        assert p.filtration_size(d) == len(p.filtration_basis(d)) == sum(
            c * math.comb(d, s) for s, c in enumerate([1, 6, 12, 9, 2]))
    assert p.filtration_size(-1) == len(p.filtration_basis(-1)) == 0


def test_center_torus_rank2():
    out = center_torus(2, 3, [[0, 1], [-1, 0]])
    assert out["index"] == 9
    assert out["lattice_basis"] == [[3, 0], [0, 3]]


def test_center_torus_validates_antisymmetry():
    with pytest.raises(BadParamsError):
        center_torus(2, 3, [[0, 1], [1, 0]])


def test_center_torus_l1_is_full_lattice():
    out = center_torus(2, 1, [[0, 1], [-1, 0]])
    assert out["index"] == 1


def test_growth_weyl_closed_form():
    dims = growth_dims(weyl1(Q), 8).dims
    assert dims == [(n + 1) * (n + 2) // 2 for n in range(9)]


def test_growth_torus_closed_form():
    q = C3.q()
    p = quantum_torus(2, {(1, 2): q}, C3)
    dims = growth_dims(p, 6).dims
    assert dims == [2 * n * n + 2 * n + 1 for n in range(7)]


def test_gk_estimates_snap():
    assert gk_estimate(growth_dims(poly(3, Q), 12))["snap"] == 3
    assert gk_estimate(growth_dims(weyl1(Q), 12))["snap"] == 2


def test_gk_insufficient_data():
    with pytest.raises(InsufficientDataError):
        gk_estimate(growth_dims(poly(1, Q), 4))


def test_locally_algebraic_identity():
    p = weyl1(Q)
    out = is_locally_algebraic(p, identity_morphism(p), bound=5)
    assert out["status"] == "TRUE"


def test_locally_nilpotent_d_dx():
    p = poly(2, Q)
    delta = {"x1": p.one(), "x2": p.zero()}
    assert is_locally_nilpotent(p, delta)["status"] == "TRUE"


def test_not_locally_nilpotent_euler():
    p = poly(1, Q)
    delta = {"x1": p.generator("x1")}  # Euler derivation: cycle x -> x
    assert is_locally_nilpotent(p, delta)["status"] == "FALSE"


def reference_apply_derivation(p: Presentation, delta: dict, x: Element) -> Element:
    """Extend generator images by the (untwisted) Leibniz rule."""
    out = p.zero()
    for m, c in x.terms.items():
        letters = p._letters(m)
        for k, (pos, sign) in enumerate(letters):
            name = p.gens[pos].name
            dg = delta[name]
            if sign == -1:
                ginv = p.gen_inverse(name)
                dg = (-ginv) * dg * ginv
            if dg.is_zero():
                continue
            prefix = p.one()
            for pp, ss in letters[:k]:
                nm = p.gens[pp].name
                prefix = prefix * (p.generator(nm) if ss == 1 else p.gen_inverse(nm))
            suffix = p.one()
            for pp, ss in letters[k + 1:]:
                nm = p.gens[pp].name
                suffix = suffix * (p.generator(nm) if ss == 1 else p.gen_inverse(nm))
            out = out + (prefix * dg * suffix).scale(c)
    return out


_DERIVATION_ALGEBRAS = [
    laurent(2, Q), weyl1(Q), poly(3, Q), quantum_torus(2, {(1, 2): C3.q()}, C3),
]


def _elements(p):
    exps = [st.integers(-2 if g.invertible else 0, 2) for g in p.gens]
    terms = st.dictionaries(st.tuples(*exps), st.integers(-3, 3), max_size=3)
    return terms.map(lambda t: p.from_terms(
        {m: p.field.from_int(c) for m, c in t.items() if c}))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_delta_of_with_identity_sigma_is_the_untwisted_leibniz_rule(data):
    p = data.draw(st.sampled_from(_DERIVATION_ALGEBRAS))
    delta = {g.name: data.draw(_elements(p)) for g in p.gens}
    x = data.draw(_elements(p))
    assert _delta_of(p, delta, x) == \
        reference_apply_derivation(p, delta, x)


def test_stratiform_lengths_of_the_families():
    assert weyl1(Q).flag("STRATIFORM") == 2
    assert quantum_weyl1().flag("STRATIFORM") == 1
