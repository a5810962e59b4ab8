import pytest

from skewcalc.errors import BadParamsError, UnsupportedGWAError
from skewcalc.families import (
    FamilySpec,
    build,
    build_localized_qweyl,
    finite_rank_quantum_weyl,
    gwa,
    laurent,
    minus_one_plane,
    poly,
    quantum_torus,
    quantum_weyl1,
    skew_poly,
    weyl1,
)
from skewcalc.presentation import commutator, parse_element
from skewcalc.scalars import CYCLOTOMIC, RATFUNC_Q, RATIONAL, FieldDescriptor

Q = FieldDescriptor(RATIONAL)
RQ = FieldDescriptor(RATFUNC_Q)
C3 = FieldDescriptor(CYCLOTOMIC, 3)


def test_poly_is_commutative():
    p = poly(3, Q)
    g = [p.generator(x.name) for x in p.gens]
    for a in g:
        for b in g:
            assert commutator(a, b).is_zero()
    assert p.flag("STRATIFORM") == 3


def test_weyl_flags_and_relation():
    p = weyl1(Q)
    assert p.has_flag("SIMPLE") and p.has_flag("UNITS_TRIVIAL")
    assert p.flag("STRATIFORM") == 2
    assert commutator(p.generator("x"), p.generator("y")) == p.one()


def test_quantum_weyl_relation():
    p = quantum_weyl1()
    q = p.field.q()
    x, y = p.generator("x"), p.generator("y")
    # y*x = q^{-1}*(x*y - 1): equivalently x*y - q*y*x = 1
    assert (x * y - (y * x).scale(q) - p.one()).is_zero()
    assert p.flag("STRATIFORM") == 1


def test_quantum_torus_commutation_and_inverses():
    q = C3.q()
    p = quantum_torus(2, {(1, 2): q}, C3)
    x1, x2 = p.generator("x1"), p.generator("x2")
    assert (x2 * x1 - (x1 * x2).scale(q)).is_zero()
    assert (x1 * p.gen_inverse("x1")) == p.one()


def test_skew_poly_vs_torus():
    q = C3.q()
    s = skew_poly(2, {(1, 2): q}, C3)
    assert not s.gens[0].invertible
    t = quantum_torus(2, {(1, 2): q}, C3)
    assert t.gens[0].invertible


def test_minus_one_plane_anticommutes():
    p = minus_one_plane(Q)
    x, y = p.generator("x"), p.generator("y")
    assert (y * x + x * y).is_zero()


def test_localized_qweyl_derived_relations():
    p = build_localized_qweyl(RQ.q())
    q = RQ.q()
    x, y, z = p.generator("x"), p.generator("y"), p.generator("z")
    one = p.one()
    # z = xy - yx; (q-1)yx = z - 1; (q-1)xy = qz - 1
    assert (x * y - y * x - z).is_zero()
    assert ((y * x).scale(q - RQ.one()) - z + one).is_zero()
    assert ((x * y).scale(q - RQ.one()) - z.scale(q) + one).is_zero()
    assert (z * p.gen_inverse("z")) == one


def test_gwa_defining_relations():
    q = RQ.q()
    a = {0: RQ.one(), 1: RQ.one()}  # a(h) = 1 + h
    p = gwa(a, q)
    x, y, h = p.generator("x"), p.generator("y"), p.generator("h")
    one = p.one()
    # y*x = a(h), x*y = a(q*h), x*h = q*h*x, y*h = q^{-1}*h*y
    assert (y * x - one - h).is_zero()
    assert (x * y - one - h.scale(q)).is_zero()
    assert (x * h - (h * x).scale(q)).is_zero()
    assert (y * h - (h * y).scale(q.inv())).is_zero()


def test_gwa_rejects_large_exponents():
    with pytest.raises(UnsupportedGWAError):
        gwa({3: RQ.one()}, RQ.q())


def test_finite_rank_quantum_weyl_is_tensor():
    q = RQ.q()
    p = finite_rank_quantum_weyl(2, [q, q])
    x1, y1 = p.generator("x1"), p.generator("y1")
    x2, y2 = p.generator("x2"), p.generator("y2")
    assert commutator(x1, x2).is_zero()
    assert commutator(y1, x2).is_zero()
    assert (x1 * y1 - (y1 * x1).scale(q) - p.one()).is_zero()
    assert (x2 * y2 - (y2 * x2).scale(q) - p.one()).is_zero()


def test_family_spec_build_roundtrip():
    spec = FamilySpec.make("POLY", Q, n=2)
    p = build(spec)
    assert p.family == "POLY"
    assert [g.name for g in p.gens] == ["x1", "x2"]


def test_family_spec_equality_ignores_raw():
    spec = FamilySpec.make("POLY", Q, n=2)
    parsed = FamilySpec("POLY", FieldDescriptor(RATIONAL), (("n", 2),), raw=(("n", 2),))
    assert parsed == spec and hash(parsed) == hash(spec)
    assert FamilySpec("POLY", Q, (("n", 2),), raw=(("n", 3),)) == spec
    assert len({spec, parsed}) == 1
    assert spec != FamilySpec.make("POLY", Q, n=3)
    assert spec != FamilySpec.make("LAURENT", Q, n=2)
    assert spec != FamilySpec.make("POLY", C3, n=2)


def test_bad_params():
    with pytest.raises(BadParamsError):
        build(FamilySpec.make("POLY", Q, n=0))
    with pytest.raises(BadParamsError):
        quantum_weyl1(RQ.one())  # q = 1 is not a deformation
    with pytest.raises(BadParamsError):
        build(FamilySpec.make("NOT_A_FAMILY", Q))


def test_laurent_flags():
    p = laurent(2, Q)
    assert all(g.invertible for g in p.gens)
    assert p.flag("STRATIFORM") == 2
