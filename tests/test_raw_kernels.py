"""The kernels on raw field values against the Scalar kernels they
replaced (`scalar_kernels.py`), the value operations of each field kind
against the Fraction reference of `test_scalars.py`, and the boundary:
what the public calls return holds Scalars only."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boxing import box, raw
import scalar_kernels as old
from skewcalc import cancel, families, linalg, poly
from skewcalc.cancel import (
    FiniteDimAlgebra,
    local_decomposition,
    nilradical,
    units_generated,
    univariate_quotient,
)
from skewcalc.divisor import ClosureReport, divisor_closure, subalgebra_closure_bounded
from skewcalc.errors import DivisionByZeroError
from skewcalc.invariants import center_bounded, growth_dims
from skewcalc.presentation import Element, parse_element
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATFUNC_Q, RATIONAL, FieldDescriptor, Scalar
from test_rewriting import FAMILIES, _presentation, _words
from test_scalars import RefField, _evaluate, _trees

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# the six field kinds of the kernel comparisons
KERNEL_FIELDS = [FieldDescriptor(RATIONAL), FieldDescriptor(PRIME, 7),
                 FieldDescriptor(PRIME, 32003), FieldDescriptor(RATFUNC_Q),
                 FieldDescriptor(CYCLOTOMIC, 3), FieldDescriptor(CYCLOTOMIC, 5)]
VALUE_FIELDS = ([(RATIONAL, None), (PRIME, 2), (PRIME, 7), (RATFUNC_Q, None)]
                + [(CYCLOTOMIC, l) for l in range(2, 7)])


# ---------------------------------------------------------------------------
# the value operations


@pytest.mark.parametrize("kind,param", VALUE_FIELDS)
@SETTINGS
@given(data=st.data())
def test_value_operations_match_the_fraction_reference_and_the_scalars(kind, param, data):
    # the operands are small expressions, with inverses, so that zero and
    # denominators of either sign before reduction come up
    field, ref = FieldDescriptor(kind, param), RefField(kind, param)
    ops = field.ops
    trees = _trees(kind in (RATFUNC_Q, CYCLOTOMIC))
    pairs = []
    for tree in (data.draw(trees), data.draw(trees), 0, Fraction(-3, 2)):
        tree = Fraction(tree) if isinstance(tree, int) else tree
        got, want = _evaluate(field, tree), _evaluate(ref, tree)
        if isinstance(want, type):
            assert got is want
            continue
        assert str(got) == str(want)
        pairs.append((got, want))
    assert ops.zero == field.zero().value and ops.one == field.one().value
    for k in (-2, 0, 1, 5):
        assert ops.from_int(k) == field.from_int(k).value
    for x, xr in pairs:
        v = x.value
        assert ops.is_zero(v) is xr.is_zero()
        assert str(Scalar(field, ops.neg(v))) == str(-xr)
        assert ops.neg(v) == (-x).value
        if xr.is_zero():
            with pytest.raises(DivisionByZeroError):
                ops.inv(v)
            with pytest.raises(DivisionByZeroError):
                x.inv()
        else:
            assert str(Scalar(field, ops.inv(v))) == str(xr.inv())
            assert ops.inv(v) == x.inv().value
            assert ops.pow(v, -2) == (x ** -2).value
        assert ops.pow(v, 3) == (x ** 3).value and str(x ** 3) == str(xr ** 3)
        for y, yr in pairs:
            w = y.value
            for op, scalar, reference in ((ops.add, x + y, xr + yr),
                                          (ops.sub, x - y, xr - yr),
                                          (ops.mul, x * y, xr * yr)):
                out = op(v, w)
                assert out == scalar.value
                assert str(Scalar(field, out)) == str(reference)


# ---------------------------------------------------------------------------
# the kernels against the Scalar kernels they replaced


def _scalars(field):
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if field.kind in (RATFUNC_Q, CYCLOTOMIC):
        return st.tuples(small, small).map(
            lambda t: field.from_fraction(t[0]) + field.from_fraction(t[1]) * field.q())
    return small.map(field.from_fraction)


def _nonzero(field):
    return _scalars(field).filter(lambda x: not x.is_zero())


def _rows(field, keys=6, size=4):
    """Dict rows of nonzero Scalars, their keys in drawn order."""
    row = st.lists(st.tuples(st.integers(0, keys - 1), _nonzero(field)),
                   max_size=size).map(dict)
    return st.lists(row, max_size=7)


def _polys(field, max_size=6):
    return st.lists(_scalars(field), max_size=max_size).map(old.trim)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_echelon_kernels_match_the_scalar_kernels_in_key_order(field, data):
    rows = data.draw(_rows(field))
    # three scaled sums in a row, so that a cancelled key can come back
    acc = dict(rows[0]) if rows else {}
    acc_raw = raw(acc)
    for other in rows[1:4]:
        c = data.draw(st.none() | _nonzero(field))
        if acc and data.draw(st.booleans()):  # make one entry cancel
            k = data.draw(st.sampled_from(sorted(acc)))
            other = dict(other)
            other[k] = -acc[k] if c is None else -acc[k] * c.inv()
        old.add_scaled(acc, other, c)
        linalg.add_scaled(acc_raw, raw(other), field, raw(c))
        assert list(box(field, acc_raw).items()) == list(acc.items())
    pivots = old._echelon([dict(r) for r in rows])
    got = linalg._echelon([raw(r) for r in rows], field)
    assert [(p, list(box(field, t).items())) for p, t in got.items()] == \
        [(p, list(t.items())) for p, t in pivots.items()]
    columns = rows
    rhs = data.draw(_rows(field, size=3).map(lambda rs: rs[0] if rs else {}))
    assert box(field, linalg.nullspace(raw(columns), field)) == \
        old.nullspace(columns, field)
    assert box(field, linalg.solve(raw(columns), raw(rhs), field)) == \
        old.solve(columns, rhs, field)
    assert box(field, linalg.solve_each(raw(columns), raw([rhs, {}]), field)) == \
        old.solve_each(columns, [rhs, {}], field)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_poly_kernels_match_the_scalar_kernels(field, data):
    a, b = data.draw(_polys(field, 5)), data.draw(_polys(field, 5))
    assert box(field, poly.mul(raw(a), raw(b), field)) == old.mul(a, b, field)
    if b:
        q, r = poly.divmod(raw(a), raw(b), field)
        assert (box(field, q), box(field, r)) == old.divmod(a, b, field)
    g, s, t = poly.xgcd(raw(a), raw(b), field)
    assert (box(field, g), box(field, s), box(field, t)) == old.xgcd(a, b, field)
    if a and len(a) <= 3:
        # products of small factors, so that roots and repeats come up
        f = old.mul(old.mul(a, a, field), data.draw(_polys(field, 3)) or [field.one()], field)
        parts = poly.factorization(raw(f), field)
        want = old.factorization(f, field)
        assert (parts if parts is None else [(box(field, h), m) for h, m in parts]) == want
        assert box(field, poly.roots(raw(f), field)) == old.roots(f, field)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_lincomb_matches_the_scalar_kernel_in_key_order(field, data):
    rows = data.draw(_rows(field))
    terms = [(data.draw(_scalars(field)), r) for r in rows]
    if len(terms) > 1 and terms[0][1]:  # one key cancels, then comes back
        k = next(iter(terms[0][1]))
        c0 = terms[0][0]
        terms.insert(1, (field.one(), {k: -(c0 * terms[0][1][k])}))
        terms.append((field.one(), {k: field.one()}))
    got = cancel._lincomb([(raw(c), raw(v)) for c, v in terms], field)
    assert list(box(field, got).items()) == list(old.lincomb(terms).items())


def test_the_families_cover_nineteen_presentations():
    assert len(FAMILIES) == 19


@pytest.mark.parametrize("name", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_word_normal_form_matches_the_scalar_kernel_in_key_order(name, data):
    p = _presentation(name)
    word = data.draw(_words(p, max_len=10))
    assert list(box(p.field, p.word_normal_form(word)).items()) == \
        list(old.word_normal_form(p, word).items())


# ---------------------------------------------------------------------------
# a leading scalar of 1 is not inverted


def test_a_laurent_ring_over_a_large_cyclotomic_field_takes_no_inverse(monkeypatch):
    field = FieldDescriptor(CYCLOTOMIC, 211)
    inverses = []
    inv, scalar_inv = field.ops.inv, Scalar.inv
    monkeypatch.setattr(field.ops, "inv", lambda c: inverses.append(c) or inv(c))
    monkeypatch.setattr(Scalar, "inv", lambda c: inverses.append(c) or scalar_inv(c))
    p = families.laurent(3, field)
    table = p._tables()[3]
    assert inverses == []
    monkeypatch.undo()
    reference = old._rewriting_tables(p)[3]  # every mixed-sign pair inverted
    assert [[row if row is None else [(f if f is None else Scalar(field, f), rep)
                                      for f, rep in row] for row in cells]
            for cells in table] == \
        [[row if row is None else list(row) for row in cells] for cells in reference]


# ---------------------------------------------------------------------------
# the boundary: public results hold Scalars


def _scalars_only(values):
    values = list(values)
    assert values and all(type(c) is Scalar for c in values)


def _element_coefficients(elements):
    return [c for e in elements for c in e.terms.values()]


def _algebra_coefficients(a: FiniteDimAlgebra):
    return [c for row in a.table for v in row for c in v.values()] + list(a.unit.values())


def test_the_invariants_deck_returns_scalars_only():
    Q, G5, C3 = (FieldDescriptor(RATIONAL), FieldDescriptor(PRIME, 5),
                 FieldDescriptor(CYCLOTOMIC, 3))
    m1, w5, weyl = families.minus_one_plane(Q), families.weyl1(G5), families.weyl1(Q)
    t2 = families.quantum_torus(2, {(1, 2): C3.q()}, C3)
    a1q, kxy = families.quantum_weyl1(), families.poly(2, Q)
    # centers
    for p, d in ((m1, 6), (w5, 6), (t2, 4)):
        _scalars_only(_element_coefficients(center_bounded(p, d).basis))
    assert growth_dims(weyl, 8).dims[-1] == 45
    # closures, span-based and on exponent vectors
    z = parse_element(a1q, "x*y - y*x")
    for p, F, caps in ((a1q, [z], {"degree_cap": 3, "max_rounds": 2}),
                       (t2, [t2.one()], {"degree_cap": 2, "max_rounds": 2}),
                       (kxy, [kxy.generator("x1")], {"degree_cap": 3, "max_rounds": 2})):
        rep = divisor_closure(p, F, caps)
        assert isinstance(rep, ClosureReport)
        hits = [h for r in rep.rounds for h in r["new_subwords"]]
        _scalars_only(_element_coefficients(rep.certified_basis + rep.F
                                            + [h.f for h in hits] + [h.g for h in hits]))
        span = subalgebra_closure_bounded(p, F, caps["degree_cap"])
        _scalars_only(c for row in span.basis_rows() for c in row.values())
    # k[x]/(f): nilradical, decomposition by CRT and by probing, units
    for field in (Q, FieldDescriptor(PRIME, 101)):
        a = univariate_quotient(field, [field.from_int(c) for c in (0, 0, -1, 0, 1)])
        _scalars_only(c for v in nilradical(a)["basis"] for c in v.values())
        probed = FiniteDimAlgebra(field, a.basis_names, a.table, a.unit)
        for alg in (a, probed):
            dec = local_decomposition(alg)
            assert dec["status"] == "DECOMPOSED"
            _scalars_only(c for e in dec["idempotents"] for c in e.values())
            for f in dec["factors"]:
                _scalars_only(f["idempotent"].values())
                _scalars_only(_algebra_coefficients(f["algebra"]))
        assert units_generated(a)["status"] == "TRUE"
    # products
    for p in (weyl, t2, a1q):
        x = p.from_terms({m: p.field.from_int(k + 2)
                          for k, m in enumerate(p.filtration_basis(2))})
        _scalars_only(_element_coefficients([x * x, x + x, x.scale(p.field.from_int(3)),
                                             x - x * x]))
    rng = random.Random(29)
    a = families.build_localized_qweyl(C3.q())
    for _ in range(5):
        m = tuple(rng.randint(0, 2) for _ in a.gens)
        e = Element(a, {m: C3.one()})
        _scalars_only(_element_coefficients([e * e]))
