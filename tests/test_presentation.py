import random

import pytest

from skewcalc import presentation
from skewcalc.errors import (
    NegativeExponentError,
    ResourceLimitError,
    ValidationError,
)
from skewcalc.families import (
    laurent,
    minus_one_plane,
    poly,
    quantum_torus,
    quantum_weyl1,
    weyl1,
)
from skewcalc.presentation import (
    Element,
    GeneratorInfo,
    Presentation,
    RewriteRule,
    commutator,
    identity_morphism,
    ore_extend,
    parse_element,
    tensor_product,
)
from skewcalc.scalars import (
    CYCLOTOMIC, MAX_EXPONENT, RATFUNC_Q, RATIONAL, FieldDescriptor, scalar_parse,
)
from test_rewriting import reference_word_normal_form

Q = FieldDescriptor(RATIONAL)


def test_weyl_relation():
    p = weyl1(Q)
    x, y = p.generator("x"), p.generator("y")
    assert (y * x - x * y + p.one()).is_zero()
    assert commutator(x, y) == p.one()


def test_pbw_normal_form_is_sorted():
    p = weyl1(Q)
    x, y = p.generator("x"), p.generator("y")
    prod = y * y * x
    # y^2 x = x y^2 - 2y
    expected = x * y * y - y.scale(Q.from_int(2))
    assert prod == expected


def test_laurent_inverses_cancel():
    p = laurent(2, Q)
    x1 = p.generator("x1")
    x1_inv = p.gen_inverse("x1")
    assert (x1 * x1_inv) == p.one()
    assert (x1_inv * x1) == p.one()


def test_negative_exponent_rejected_without_inverse():
    p = poly(2, Q)
    with pytest.raises(NegativeExponentError):
        p.from_terms({(-1, 0): Q.one()})


def test_inconsistent_rule_rejected():
    # tail of degree 3 is not filtration compatible
    gens = [GeneratorInfo("x", 1), GeneratorInfo("y", 2)]
    bad = Presentation(
        Q, gens,
        rules=[RewriteRule(1, 0, Q.one(), (((1, 2), Q.one()),))],
    )
    report = bad.validate()
    assert not report.ok
    assert report.failures[0][0] == "INCONSISTENT_RULES"


def test_confluence_catches_bad_triple():
    # x3*x1 = x1*x3 + x2 but x3*x2 = 2*x2*x3 and x2*x1 = x1*x2:
    # overlapping reductions of x3*x2*x1 disagree
    gens = [GeneratorInfo("x1", 1), GeneratorInfo("x2", 2), GeneratorInfo("x3", 3)]
    two = Q.from_int(2)
    bad = Presentation(
        Q, gens,
        rules=[
            RewriteRule(2, 0, Q.one(), (((0, 1, 0), Q.one()),)),
            RewriteRule(2, 1, two, ()),
        ],
    )
    report = bad.validate()
    assert not report.ok


def test_validate_resolves_elimination_overlaps():
    # y*x = 2*x*y with x*y = h eliminated: (y*x)*y = 2*y*h but y*(x*y) = y*h.
    # The engine eliminates only in sorted words, so comparing two rewriting
    # strategies cannot see this; the overlap y*x*y does.
    gens = [GeneratorInfo("x", 1), GeneratorInfo("y", 2), GeneratorInfo("h", 3, invertible=True)]
    p = Presentation(Q, gens, rules=[RewriteRule(1, 0, Q.from_int(2), ())],
                     elim={(0, 1): {(0, 0, 1): Q.one()}})
    report = p.validate()
    assert not report.ok
    assert ("INCONSISTENT_RULES",
            "word y*x*y normalizes to different results: 2*y*h vs y*h") in report.failures
    with pytest.raises(ValidationError, match="INCONSISTENT_RULES"):
        p.require_validated()


def test_cycling_eliminations_hit_the_rewrite_step_cap():
    # x1*x2 = x3*x4 and x3*x4 = x1*x2: each word has one successor, so the
    # cycle never passes through the heap
    gens = [GeneratorInfo(f"x{k}", k) for k in range(1, 5)]
    p = Presentation(Q, gens, elim={(0, 1): {(0, 0, 1, 1): Q.one()},
                                    (2, 3): {(1, 1, 0, 0): Q.one()}})
    with pytest.raises(ResourceLimitError, match="MAX_REWRITE_STEPS"):
        p.word_normal_form([(0, 1), (1, 1)])
    with pytest.raises(ResourceLimitError, match="MAX_REWRITE_STEPS"):
        p.validate()


def test_rewrite_step_cap_scales_with_word_length(monkeypatch):
    # Weyl y^k*x^k takes k^3/3 + k^2/2 + 7k/6 steps: 2890 for k = 20 and
    # 9485 for k = 30. At 100 steps per letter the caps are 4000 and 6000.
    monkeypatch.setattr(presentation, "MAX_REWRITE_STEPS", 100)
    p = weyl1(Q)
    assert len(p.word_normal_form([(1, 1)] * 20 + [(0, 1)] * 20)) == 21
    with pytest.raises(ResourceLimitError, match="within 6000 steps"):
        p.word_normal_form([(1, 1)] * 30 + [(0, 1)] * 30)


def test_parse_element_roundtrip():
    p = quantum_weyl1()
    for text in ("x*y - y*x", "(1/(q - 1))*x^2*y", "q*x + 1", "-x + y^3"):
        e = parse_element(p, text)
        again = parse_element(p, str(e))
        assert e == again


def test_parse_element_negative_power_needs_inverse():
    p = laurent(1, Q)
    e = parse_element(p, "x1^-2")
    assert e == p.from_terms({(-2,): Q.one()})
    with pytest.raises(Exception):
        parse_element(poly(1, Q), "x1^-1")


def test_elements_divide_by_scalars_and_invert_units():
    p = laurent(2, Q)
    x1, x2 = p.generator("x1"), p.generator("x2")
    half = (x1 + x2) / p.one().scale(Q.from_int(2))
    assert half + half == x1 + x2
    with pytest.raises(ValidationError, match="nonzero scalar"):
        x1 / x2
    assert (x1 * x2) ** -2 == p.from_terms({(-2, -2): Q.one()})
    with pytest.raises(ValidationError, match="cannot invert"):
        (x1 + x2) ** -1


def test_inverse_of_a_monomial_word_in_a_quantum_torus():
    # (x1*x2)^-1 is x2^-1*x1^-1, which is not x1^-1*x2^-1 when x2*x1 = q*x1*x2
    c3 = FieldDescriptor(CYCLOTOMIC, 3)
    t = quantum_torus(3, {(1, 2): c3.q(), (2, 3): c3.q()}, c3)
    for text in ("x1*x2", "2*x1^2*x2^-1*x3", "x3^-1*x1", "q*x2"):
        m = parse_element(t, text)
        inv = parse_element(t, f"({text})^-1")
        assert m * inv == t.one() == inv * m
        assert parse_element(t, f"({text})^-2") == inv * inv


def test_ore_extend_refuses_a_sigma_that_breaks_a_relation():
    w = weyl1(Q)
    with pytest.raises(ValidationError) as err:
        ore_extend(w, "t", sigma_images={"x": w.generator("y"), "y": w.generator("x")})
    assert err.value.code == "BAD_SIGMA"
    lp = laurent(1, Q)
    with pytest.raises(ValidationError, match="x1\\*x1\\^-1 = 1") as err:
        ore_extend(lp, "t", sigma_images={"x1": lp.generator("x1") + lp.one()})
    assert err.value.code == "BAD_SIGMA"


def test_ore_extend_weyl_from_polynomial_ring():
    base = poly(1, Q)
    ext = ore_extend(base, "d", delta_images={"x1": base.one()})
    x, d = ext.generator("x1"), ext.generator("d")
    assert (d * x - x * d - ext.one()).is_zero()
    assert ext.validate().sigma_status == "BOUNDED_CERTIFIED"


def test_tensor_product_commutes_across_factors():
    a = weyl1(Q)
    t = tensor_product(a, poly(2, Q), assume_domain=True)
    g = [t.generator(g.name) for g in t.gens]
    assert commutator(g[0], g[2]).is_zero()
    assert commutator(g[1], g[3]).is_zero()
    assert not commutator(g[0], g[1]).is_zero()


def test_identity_morphism_applies():
    p = weyl1(Q)
    m = identity_morphism(p)
    e = parse_element(p, "x*y + 2*y")
    assert m.apply(e) == e


def _random_element(p, rng, monos):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(monos)
        c = p.field.from_int(rng.randint(-3, 3))
        if not c.is_zero():
            terms[m] = c
    return Element(p, terms) if terms else p.one()


@pytest.mark.parametrize("factory", [
    lambda: poly(2, Q),
    lambda: weyl1(Q),
    lambda: minus_one_plane(Q),
    lambda: laurent(2, Q),
    lambda: quantum_weyl1(),
    lambda: quantum_torus(
        2, {(1, 2): FieldDescriptor(CYCLOTOMIC, 3).q()}, FieldDescriptor(CYCLOTOMIC, 3)
    ),
])
def test_random_associativity_and_distributivity(factory):
    p = factory()
    monos = p.filtration_basis(3)
    rng = random.Random(20260823)
    for _ in range(40):
        a = _random_element(p, rng, monos)
        b = _random_element(p, rng, monos)
        c = _random_element(p, rng, monos)
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - a * b - a * c).is_zero()


def test_randomized_rewrite_strategy_agrees():
    p = weyl1(Q)
    rng = random.Random(7)
    word = [(1, 1), (0, 1), (1, 1), (1, 1), (0, 1), (0, 1)]
    baseline = p.word_normal_form(word)
    for _ in range(20):
        out = reference_word_normal_form(p, word, pick=lambda red, w: rng.choice(red))
        assert out == baseline


def test_require_validated_raises_on_bad_presentation():
    gens = [GeneratorInfo("x", 1), GeneratorInfo("y", 2)]
    bad = Presentation(
        Q, gens,
        rules=[RewriteRule(1, 0, Q.zero(), ())],
    )
    with pytest.raises(ValidationError):
        bad.require_validated()


def test_power_by_squaring_matches_repeated_product():
    p = quantum_weyl1()
    e = parse_element(p, "x + y - q")
    powers = [p.one()]
    for _ in range(7):
        powers.append(powers[-1] * e)
    assert [e ** n for n in range(8)] == powers
    assert parse_element(p, "(x + y - q)^7") == powers[7]


def test_exponent_literal_cap():
    p = laurent(1, Q)
    assert parse_element(p, f"x1^{MAX_EXPONENT}") == p.from_terms({(MAX_EXPONENT,): Q.one()})
    for text in (f"x1^{MAX_EXPONENT + 1}", f"x1^-{MAX_EXPONENT + 1}",
                 f"2^{MAX_EXPONENT + 1}", "x1^" + "7" * 5000):
        with pytest.raises(ResourceLimitError, match="MAX_EXPONENT"):
            parse_element(p, text)
    with pytest.raises(ResourceLimitError, match="MAX_EXPONENT"):
        scalar_parse(FieldDescriptor(RATFUNC_Q), f"q^{MAX_EXPONENT + 1}")


def test_filtration_basis_is_computed_once_per_presentation():
    p = laurent(2, Q)
    copy = p.with_flags({"NOETHERIAN": True})
    first = p.filtration_basis(3)
    assert isinstance(first, tuple)
    assert p.filtration_basis(3) is first  # kept, not rebuilt
    assert copy.filtration_basis(3) == first
    assert laurent(2, Q).filtration_basis(3) == first  # a fresh, empty cache
    assert len(first) == 25  # |a| + |b| <= 3 has 1 + 4 + 8 + 12 points
    assert poly(2, Q).filtration_basis(3) == tuple(m for m in first if min(m) >= 0)
