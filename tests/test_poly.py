import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewcalc import poly
from skewcalc.errors import BadParamsError
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATFUNC_Q, RATIONAL, FieldDescriptor

Q = FieldDescriptor(RATIONAL)
F7 = FieldDescriptor(PRIME, 7)
F32003 = FieldDescriptor(PRIME, 32003)
FIELDS = [Q, F7, F32003, FieldDescriptor(RATFUNC_Q),
          *(FieldDescriptor(CYCLOTOMIC, l) for l in (3, 4, 5))]


# -- reference: the integer GF(p) kernel that `poly` replaced ----------------


def _gf_divmod(a, b, p):
    """Quotient and remainder of integer coefficient lists over GF(p)."""
    r = [x % p for x in a]
    n = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] * inv % p
        q[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] = (r[k + i] - c * y) % p
    r = r[:n]
    while r and not r[-1]:
        r.pop()
    return q, r


def _gf_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _gf_divmod(out, f, p)[1]


def _gf_powmod(base, e, f, p):
    """base^e mod f over GF(p) by square-and-multiply; f not constant."""
    out = [1]
    base = _gf_divmod(base, f, p)[1]
    while e:
        if e & 1:
            out = _gf_mulmod(out, base, f, p)
        e >>= 1
        if e:
            base = _gf_mulmod(base, base, f, p)
    return out


def _gf_gcd(a, b, p):
    """Monic gcd over GF(p); a is nonzero."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _gf_minus(a, c, p):
    """a - c over GF(p), trimmed."""
    out = list(a) + [0] * max(len(c) - len(a), 0)
    for i, y in enumerate(c):
        out[i] = (out[i] - y) % p
    while out and not out[-1]:
        out.pop()
    return out


def _gf_roots(f, p):
    """Distinct roots in range(p), ascending, of a nonzero polynomial over
    GF(p) (integer coefficients, ascending degree). Its linear factors are
    g = gcd(f, x^p - x), split by gcd(g, (x + a)^((p-1)/2) - 1) for
    a = 0, 1, ... (equal-degree splitting, deterministic)."""
    f = [x % p for x in f]
    while f and not f[-1]:
        f.pop()
    if not f:
        raise BadParamsError("the zero polynomial vanishes everywhere")
    if p == 2:  # f(0) = f[0], f(1) = sum(f)
        return [r for r, v in ((0, f[0]), (1, sum(f))) if v % 2 == 0]
    if len(f) == 1:
        return []
    g = _gf_gcd(f, _gf_minus(_gf_powmod([0, 1], p, f, p), [0, 1], p), p)
    roots, todo = [], [g]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            for a in range(p):
                w = _gf_minus(_gf_powmod([a, 1], (p - 1) // 2, g, p), [1], p)
                h = _gf_gcd(g, w, p)
                if 1 < len(h) < len(g):
                    todo += [h, _gf_divmod(g, h, p)[0]]
                    break
    return sorted(roots)


# -- reference: the rational-root test by trial division ----------------------


def reference_rational_roots(f, field):
    """The rational roots of f by the rational-root test, which
    `_rational_roots` replaced: every p/q with p dividing the constant
    term and q the leading coefficient, once cleared of denominators, is
    tried, p and q found by trial division up to their square roots."""
    den = lcm(*(c.value[1] for c in f))
    ints = [n * (den // d) for n, d in (c.value for c in f)]
    out = []
    if ints[0] == 0:
        out.append(field.zero())
        while ints[0] == 0:
            ints.pop(0)
    for pp in _divisors(abs(ints[0])):
        for qq in _divisors(abs(ints[-1])):
            for sign in (1, -1):
                g = gcd(pp, qq)
                cand = field.from_fraction(Fraction(sign * pp // g, qq // g))
                if cand not in out and poly.evaluate(f, cand, field).is_zero():
                    out.append(cand)
    return out


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# -- strategies --------------------------------------------------------------


def _scalars(field):
    ints = st.integers(-4, 4)
    if field.kind == RATIONAL:
        return st.builds(lambda a, b: field.from_fraction(Fraction(a, b)),
                         ints, st.integers(1, 3))
    if field.kind == PRIME:
        return st.integers(0, field.param - 1).map(field.from_int)
    q = field.q()
    return st.builds(lambda a, b: field.from_int(a) + field.from_int(b) * q, ints, ints)


def _polys(field, min_size=0, max_size=5):
    return st.lists(_scalars(field), min_size=min_size, max_size=max_size).map(poly.trim)


def _nonzero_polys(field, max_size=5):
    return _polys(field, 1, max_size).filter(bool)


@st.composite
def _field_and(draw, n, nonzero=()):
    field = draw(st.sampled_from(FIELDS))
    return field, [draw(_nonzero_polys(field) if i in nonzero else _polys(field))
                   for i in range(n)]


_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _deg(p):
    return len(p) - 1


# -- kernel properties -------------------------------------------------------


@_settings
@given(_field_and(2, nonzero={1}))
def test_divmod_is_division_with_remainder(case):
    field, (a, b) = case
    q, r = poly.divmod(a, b, field)
    assert poly.sub(a, poly.mul(q, b, field), field) == r
    assert _deg(r) < _deg(b)
    assert q == poly.trim(list(q)) and r == poly.trim(list(r))


@_settings
@given(_field_and(2))
def test_xgcd_gives_a_monic_common_divisor_in_the_ideal(case):
    field, (a, b) = case
    g, s, t = poly.xgcd(a, b, field)
    assert poly.sub(g, poly.mul(s, a, field), field) == poly.mul(t, b, field)
    if not a and not b:
        assert g == []
        return
    assert g[-1].is_one()
    assert poly.divmod(a, g, field)[1] == []
    assert poly.divmod(b, g, field)[1] == []


@_settings
@given(_field_and(2, nonzero={1}), st.integers(0, 9))
def test_powmod_equals_repeated_multiplication(case, e):
    field, (base, f) = case
    assume(len(f) >= 2)
    want = [field.one()]
    for _ in range(e):
        want = poly.divmod(poly.mul(want, base, field), f, field)[1]
    assert poly.powmod(base, e, f, field) == want


@_settings
@given(_field_and(1, nonzero={0}))
def test_every_returned_root_is_a_root(case):
    field, (f,) = case
    roots = poly.roots(f, field)
    assert len(set(roots)) == len(roots)
    assert all(poly.evaluate(f, r, field).is_zero() for r in roots)


@_settings
@given(st.data())
def test_roots_find_every_planted_root_over_q_and_gf(data):
    field = data.draw(st.sampled_from([Q, F7, F32003]))
    planted = data.draw(st.lists(_scalars(field), min_size=1, max_size=4))
    f = data.draw(_nonzero_polys(field, 3))
    for r in planted:
        f = poly.mul(f, [-r, field.one()], field)
    roots = poly.roots(f, field)
    assert set(planted) <= set(roots)
    assert all(poly.evaluate(f, r, field).is_zero() for r in roots)


def test_evaluate_is_horner():
    x = Q.from_int(3)
    assert poly.evaluate([], x, Q).is_zero()
    assert poly.evaluate([Q.from_int(c) for c in (1, 2, 1)], x, Q) == Q.from_int(16)


def test_roots_over_q_find_the_non_integer_roots():
    def q_poly(*coeffs):
        return [Q.from_int(c) for c in coeffs]

    assert poly.roots(q_poly(-1, 2), Q) == [Q.from_fraction(Fraction(1, 2))]
    # 6x^3 - x^2 - x = x (2x - 1) (3x + 1)
    found = poly.roots(q_poly(0, -1, -1, 6), Q)
    assert sorted(map(str, found)) == ["-1/3", "0", "1/2"]
    # 4x^2 + 2x - 2 = 2 (2x - 1) (x + 1): the candidates 2/4 and 2/2 are
    # 1/2 and 1 again, so each root is listed once
    assert sorted(map(str, poly.roots(q_poly(-2, 2, 4), Q))) == ["-1", "1/2"]


def test_roots_of_the_zero_polynomial_raise():
    with pytest.raises(BadParamsError):
        poly.roots([Q.zero(), Q.zero()], Q)


def test_roots_over_q_q_and_cyclotomic_fields_only_probe_small_integers():
    for field in (FieldDescriptor(RATFUNC_Q), FieldDescriptor(CYCLOTOMIC, 3)):
        q, one = field.q(), field.one()
        # (x - 2)(x - q): only 2 lies in -3..3
        f = poly.mul([-field.from_int(2), one], [-q, one], field)
        assert poly.roots(f, field) == [field.from_int(2)]


# -- GF(p) roots against the integer reference kernel ------------------------


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gf_roots_equal_the_integer_reference_at_large_primes(data):
    p = data.draw(st.sampled_from([32003, 1000003]))
    field = FieldDescriptor(PRIME, p)
    residues = st.integers(0, p - 1)
    coeffs = [1]
    for r in data.draw(st.lists(residues, max_size=4)):  # planted roots
        coeffs = [(a - r * b) % p for a, b in zip([0] + coeffs, coeffs + [0])]
    other = data.draw(st.lists(residues, min_size=1, max_size=4))
    assume(any(other))
    prod = [0] * (len(coeffs) + len(other) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(other):
            prod[i + j] = (prod[i + j] + a * b) % p
    f = [field.from_int(c) for c in prod]
    assert poly.roots(f, field) == [field.from_int(r) for r in _gf_roots(prod, p)]


# -- irreducibility ----------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 6), min_size=2, max_size=3), st.integers(1, 6))
def test_irreducible_over_gf7_at_degrees_2_and_3_is_no_root(coeffs, lead):
    f = [F7.from_int(c) for c in coeffs + [lead]]
    has_root = any(sum(c * r ** i for i, c in enumerate(coeffs + [lead])) % 7 == 0
                   for r in range(7))
    assert poly.irreducible(f, F7) is (not has_root)


def test_irreducible_answers_over_q():
    def ints(*cs):
        return [Q.from_int(c) for c in cs]

    assert poly.irreducible(ints(5), Q) is False
    assert poly.irreducible(ints(1, 2), Q) is True
    assert poly.irreducible(ints(-2, 0, 1), Q) is True  # x^2 - 2
    assert poly.irreducible(ints(-4, 0, 9), Q) is False  # (3x - 2)(3x + 2)
    assert poly.irreducible(ints(-2, 0, 0, 1), Q) is True  # x^3 - 2
    assert poly.irreducible(ints(1, 0, 0, 0, 1), Q) is None  # x^4 + 1: undecided
    assert poly.irreducible(ints(-1, 0, 0, 0, 1), Q) is False  # root 1


def test_irreducible_quadratics_over_q_are_those_with_no_square_discriminant():
    # brute force over every a x^2 + b x + c with |a|, |b|, |c| <= 6, a != 0:
    # irreducible over Q exactly when b^2 - 4ac is not the square of an integer
    r = range(-6, 7)
    for a in r:
        for b in r:
            for c in r:
                if a == 0:
                    continue
                disc = b * b - 4 * a * c
                square = disc >= 0 and isqrt(disc) ** 2 == disc
                f = [Q.from_int(c), Q.from_int(b), Q.from_int(a)]
                assert poly.irreducible(f, Q) is (not square), (a, b, c)


# -- rational roots against the rational-root test ---------------------------


def _random_rational_product(rng):
    """A product of up to four linear factors a x - b, some repeated, and
    of a random factor of degree <= 3, over Q with coefficients and
    denominators small enough for the trial division of the reference."""
    f = [Q.from_fraction(Fraction(rng.randint(1, 5), rng.randint(1, 3)))]
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(1, 4), rng.randint(-6, 6)
        for _ in range(rng.choice((1, 1, 2))):
            f = poly.mul(f, [Q.from_int(-b), Q.from_int(a)], Q)
    other = [Q.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 2)))
             for _ in range(rng.randint(1, 4))]
    return poly.mul(f, poly.trim(other) or [Q.one()], Q)


def test_rational_roots_equal_the_rational_root_test_in_order():
    rng = random.Random(25)
    for _ in range(400):
        f = _random_rational_product(rng)
        if len(f) > 1:
            assert poly.roots(f, Q) == reference_rational_roots(f, Q), f


def test_rational_roots_of_huge_coefficients():
    big = 10 ** 30 + 57
    # x^2 + big: the rational-root test would try about 10^15 divisors
    assert poly.roots([Q.from_int(big), Q.zero(), Q.one()], Q) == []
    # (3x + 7)(x - 10^20)^2 x: 0 first, then by |numerator|
    f = [Q.zero(), Q.one()]
    for factor in ([7, 3], [-10 ** 20, 1], [-10 ** 20, 1]):
        f = poly.mul(f, [Q.from_int(c) for c in factor], Q)
    assert poly.roots(f, Q) == [Q.zero(), Q.from_fraction(Fraction(-7, 3)),
                                Q.from_int(10 ** 20)]


# -- squarefree decomposition and factorization ------------------------------


def _field_poly(field, *coeffs):
    return [field.from_int(c) for c in coeffs]


def _check_squarefree(f, field, parts):
    """`squarefree`'s contract: lc(f) prod g^m = f with the g monic,
    squarefree, pairwise coprime and of degree >= 1, m strictly rising."""
    product = [f[-1]]
    for g, m in parts:
        assert len(g) > 1 and g[-1].is_one()
        assert len(poly.xgcd(g, poly.derivative(g, field), field)[0]) == 1
        for _ in range(m):
            product = poly.mul(product, g, field)
    assert product == f
    assert [m for _, m in parts] == sorted({m for _, m in parts})
    for i, (g, _) in enumerate(parts):
        for h, _ in parts[i + 1:]:
            assert len(poly.xgcd(g, h, field)[0]) == 1


def _multiplicity(f, r, field):
    m = 0
    while poly.evaluate(f, r, field).is_zero():
        f, m = poly.divmod(f, [-r, field.one()], field)[0], m + 1
    return m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_squarefree_parts_and_root_multiplicities(data):
    field = data.draw(st.sampled_from([Q, FieldDescriptor(PRIME, 2),
                                       FieldDescriptor(PRIME, 3), F7]))
    f = data.draw(_nonzero_polys(field, 3))
    assume(len(f) > 1 or field.kind == PRIME)
    for _ in range(data.draw(st.integers(0, 3))):
        g = data.draw(_nonzero_polys(field, 3))
        for _ in range(data.draw(st.integers(1, 7))):
            f = poly.mul(f, g, field)
    assume(len(f) > 1)
    parts = poly.squarefree(f, field)
    _check_squarefree(f, field, parts)
    if field.kind == PRIME:  # every root's multiplicity, by repeated division
        for k in range(field.param):
            r = field.from_int(k)
            want = [m for g, m in parts if poly.evaluate(g, r, field).is_zero()]
            assert want == ([_multiplicity(f, r, field)] if want else [])
            assert want or not poly.evaluate(f, r, field).is_zero()


def test_squarefree_takes_the_p_th_root_where_the_derivative_vanishes():
    f2, f3 = FieldDescriptor(PRIME, 2), FieldDescriptor(PRIME, 3)
    # over GF(2), x^3 (x + 1)^5 (x^2 + x + 1)^4: 4 is even, 3 and 5 are not
    f = [f2.one()]
    for g, m in (((0, 1), 3), ((1, 1), 5), ((1, 1, 1), 4)):
        for _ in range(m):
            f = poly.mul(f, _field_poly(f2, *g), f2)
    assert poly.squarefree(f, f2) == [(_field_poly(f2, 0, 1), 3),
                                      (_field_poly(f2, 1, 1, 1), 4),
                                      (_field_poly(f2, 1, 1), 5)]
    # 2 (x - 1)^3 over GF(3) = 2x^3 - 2, whose derivative is 0
    f = _field_poly(f3, -2, 0, 0, 2)
    assert not poly.derivative(f, f3)
    assert poly.squarefree(f, f3) == [(_field_poly(f3, -1, 1), 3)]


def test_factorization_orders_linear_factors_by_root_then_the_rest_by_multiplicity():
    # (x - 2)^2 (x + 1) (x^2 + 1) (x^2 - 2)^3 over Q: the rational-root
    # test meets -1 before 2
    parts = [((-2, 1), 2), ((1, 1), 1), ((1, 0, 1), 1), ((-2, 0, 1), 3)]
    f = [Q.one()]
    for g, m in parts:
        for _ in range(m):
            f = poly.mul(f, _field_poly(Q, *g), Q)
    assert poly.factorization(f, Q) == [
        (_field_poly(Q, 1, 1), 1), (_field_poly(Q, -2, 1), 2),
        (_field_poly(Q, 1, 0, 1), 1), (_field_poly(Q, -2, 0, 1), 3)]
    # (x^2 - 2)(x^2 - 3): a quartic without roots, which `irreducible`
    # leaves undecided
    f = poly.mul(_field_poly(Q, -2, 0, 1), _field_poly(Q, -3, 0, 1), Q)
    assert poly.factorization(f, Q) is None
    # over Q(q), x^2 + 1 has no root among the probed integers
    qq = FieldDescriptor(RATFUNC_Q)
    assert poly.factorization(_field_poly(qq, 1, 0, 1), qq) is None
    assert poly.factorization(_field_poly(qq, 0, 3), qq) == [(_field_poly(qq, 0, 1), 1)]
    # a linear remainder that `roots` does not probe is still a factor:
    # x - 5, and x - 5 after the probed root 1 of (x - 1)(x - 5)
    assert poly.factorization(_field_poly(qq, -5, 1), qq) == [(_field_poly(qq, -5, 1), 1)]
    f = poly.mul(_field_poly(qq, -1, 1), _field_poly(qq, -5, 1), qq)
    assert poly.factorization(f, qq) == [
        (_field_poly(qq, -1, 1), 1), (_field_poly(qq, -5, 1), 1)]
