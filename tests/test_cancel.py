import itertools
import random

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from skewcalc import cancel, cli, poly
from skewcalc.cancel import (
    FiniteDimAlgebra,
    ImplicationDAG,
    certify,
    commutative_quotient,
    counterexample_registry,
    direct_product,
    is_vnr,
    local_decomposition,
    nilradical,
    quotient_by_ideal,
    scalar_field_algebra,
    units_generated,
    univariate_quotient,
    verify_fixture,
    verify_generating_set,
    verify_isomorphism_bounded,
    verify_morphism,
)
from skewcalc.errors import (
    BadParamsError,
    MissingEvidenceError,
    ResourceLimitError,
    ValidationError,
)
from skewcalc.families import laurent, minus_one_plane, quantum_torus, weyl1
from skewcalc.invariants import center_bounded, gk_estimate, growth_dims
from skewcalc.linalg import SpanBasis, solve
from skewcalc.poly import roots
from skewcalc.divisor import divisor_closure
from skewcalc.presentation import Morphism, identity_morphism
from skewcalc.scalars import (
    CYCLOTOMIC,
    PRIME,
    RATFUNC_Q,
    RATIONAL,
    FieldDescriptor,
    scalar_parse,
)
from test_golden_cli import _FIELDS, _MODULI
from test_linalg import ref_solve, sparse, to_dense

Q = FieldDescriptor(RATIONAL)
F2 = FieldDescriptor(PRIME, 2)
F3 = FieldDescriptor(PRIME, 3)
C3 = FieldDescriptor(CYCLOTOMIC, 3)


def _q(field, *coeffs):
    return [field.from_int(c) for c in coeffs]


# -- finite-dimensional commutative layer -----------------------------------


def test_structure_constant_checks():
    with pytest.raises(BadParamsError):
        univariate_quotient(Q, _q(Q, 1))  # constant modulus


def test_bad_structure_constant_tables_raise():
    one = Q.one()
    e0, e1 = {0: one}, {1: one}
    with pytest.raises(BadParamsError, match="not commutative"):
        FiniteDimAlgebra(Q, ["1", "x"], [[e0, e1], [e0, e1]], e0)
    # e1*e1 = e0, e0*e0 = e0, e0*e1 = 0: (e1 e1) e0 = e0 but e1 (e1 e0) = 0
    with pytest.raises(BadParamsError, match="not associative"):
        FiniteDimAlgebra(Q, ["a", "b"], [[e0, {}], [{}, e0]], e0)
    # k[x]/(x^2) with x offered as the unit
    with pytest.raises(BadParamsError, match="unit is not a unit"):
        FiniteDimAlgebra(Q, ["1", "x"], [[e0, e1], [e1, {}]], e1)
    FiniteDimAlgebra(Q, ["1", "x"], [[e0, e1], [e1, {}]], e0)


def _table_mul(table, u, v):
    """The product of dict vectors u, v under the structure constants."""
    return cancel._lincomb(
        (ci * cj, table[i][j]) for i, ci in u.items() for j, cj in v.items())


def reference_check_laws(field, table, unit):
    """The n^3 check of the three laws that `FiniteDimAlgebra` made before
    Light's test, kept as the oracle: commutativity, then every product
    (e_i e_j) e_k against e_i (e_j e_k), then the unit, on a table of
    zero-free dict vectors."""
    n = len(table)
    e = [{i: field.one()} for i in range(n)]
    for i in range(n):
        for j in range(n):
            if table[i][j] != table[j][i]:
                raise BadParamsError("algebra is not commutative")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _table_mul(table, table[i][j], e[k]) != _table_mul(table, e[i], table[j][k]):
                    raise BadParamsError("algebra is not associative")
    for i in range(n):
        if _table_mul(table, unit, e[i]) != e[i]:
            raise BadParamsError("unit is not a unit")


def _verdict(check, *args):
    """The message of the BadParamsError that `check(*args)` raises, or
    None when it raises none."""
    try:
        check(*args)
    except BadParamsError as err:
        return str(err)
    return None


@st.composite
def _tables(draw):
    """(field, table, unit) over GF(2) or GF(3), dim 2 to 4 (an algebra of
    dim 1 is associative whatever its table): the table of
    k[x]/(f) or of a product of two such, its basis permuted (so that the
    unit is not always e_0), or a random symmetric table; then, each with
    some chance, an entry pair replaced, one entry made asymmetric and the
    unit replaced. Most draws are not associative."""
    field = FieldDescriptor(PRIME, draw(st.sampled_from([2, 3])))
    n = draw(st.integers(2, 4))

    def vec():
        return sparse(_q(field, *draw(st.lists(
            st.integers(0, field.param - 1), min_size=n, max_size=n))))

    def monic(d):
        return _q(field, *draw(st.lists(
            st.integers(0, field.param - 1), min_size=d, max_size=d)), 1)

    kind = draw(st.sampled_from(["quotient", "product", "random"]))
    if kind == "random":
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                table[i][j] = table[j][i] = vec()
        unit = {0: field.one()}
    else:
        d = draw(st.integers(1, n - 1)) if kind == "product" else n
        a = univariate_quotient(field, monic(d))
        if d < n:
            a = direct_product(a, univariate_quotient(field, monic(n - d)))
        perm = draw(st.permutations(range(n)))  # new index -> old index
        back = {old: new for new, old in enumerate(perm)}
        table = [[{back[k]: c for k, c in a.table[perm[i]][perm[j]].items()}
                  for j in range(n)] for i in range(n)]
        unit = {back[k]: c for k, c in a.unit.items()}
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = table[j][i] = vec()
    if draw(st.integers(0, 9)) == 0:
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = vec()
    if draw(st.integers(0, 4)) == 0:
        unit = vec()
    return field, table, unit


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_tables())
def test_light_test_gives_the_reference_verdict(case):
    field, table, unit = case
    expected = _verdict(reference_check_laws, field, table, unit)
    assert _verdict(FiniteDimAlgebra, field, ["b"] * len(table), table, unit) == expected


@st.composite
def _quotients(draw):
    """Arguments of `commutative_quotient` over GF(2), GF(3) or Q in one
    to three variables: a monic univariate relation of degree 1 to 3 on
    each variable, or a pure power of it among up to two monomial
    relations, which may also mix the variables."""
    field = draw(st.sampled_from([F2, F3, Q]))
    nv = draw(st.integers(1, 3))
    coef = st.integers(0, 2)
    uni, rels = {}, []
    for v in range(nv):
        if draw(st.booleans()):
            uni[v] = _q(field, *draw(st.lists(coef, min_size=1, max_size=3)), 1)
        else:
            rels.append(tuple(draw(st.integers(1, 3)) if w == v else 0 for w in range(nv)))
    for _ in range(draw(st.integers(0, 2))):
        r = tuple(draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv)))
        if any(r):
            rels.append(r)
    return field, [f"x{v}" for v in range(nv)], rels, uni


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_quotients())
def test_quotients_satisfy_the_laws_they_are_not_checked_for(case):
    # `commutative_quotient` proves its relations a Gröbner basis, so its
    # table satisfies the laws by construction: the check, and the n^3
    # reference below dim 10, pass on it
    try:
        a = commutative_quotient(*case)
    except BadParamsError:  # not a Gröbner basis
        reject()
    a._check_laws()
    if a.dim < 10:
        reference_check_laws(a.field, a.table, a.unit)


def test_only_tables_given_from_outside_are_checked(monkeypatch):
    checked = []
    check = FiniteDimAlgebra._check_laws
    monkeypatch.setattr(FiniteDimAlgebra, "_check_laws",
                        lambda a: checked.append(a.dim) or check(a))
    a = commutative_quotient(Q, ["x", "y"], [(1, 1)], {0: _q(Q, 0, -1, 1), 1: _q(Q, 0, 1, 1)})
    b = univariate_quotient(Q, _q(Q, -1, 0, 1))
    assert checked == []
    p = direct_product(a, b)
    q, _, _ = quotient_by_ideal(p, [{1: Q.one()}])
    cancel._subalgebra_on_idempotent(p, {0: Q.one()})  # the factor a
    FiniteDimAlgebra(Q, b.basis_names, b.table, b.unit)
    assert checked == [p.dim, q.dim, a.dim, b.dim]


def test_light_test_catches_a_failure_off_the_generating_set():
    # 1, x, y, z with x^2 = 0, y^2 = z, z^2 = 1 and every other product of
    # x, y, z zero. The greedy generating set is G = {1, x, y} (y^2 = z),
    # and the first failing triple in n^3 order is (x, z, z), whose middle
    # z is outside G: (x z) z = 0 but x (z z) = x. Light's test finds the
    # failure at y instead: (y y) z = 1 but y (y z) = 0
    one = Q.one()
    e = [{i: one} for i in range(4)]
    table = [e, [e[1], {}, {}, {}], [e[2], {}, e[3], {}], [e[3], {}, {}, e[0]]]
    fails = [(i, j, k) for i, j, k in itertools.product(range(4), repeat=3)
             if _table_mul(table, table[i][j], e[k]) != _table_mul(table, e[i], table[j][k])]
    assert fails[0] == (1, 3, 3)
    with pytest.raises(BadParamsError, match="not associative"):
        reference_check_laws(Q, table, e[0])
    with pytest.raises(BadParamsError, match="not associative"):
        FiniteDimAlgebra(Q, ["1", "x", "y", "z"], table, e[0])


def test_greedy_generating_sets():
    # k[x]/(f) is generated by 1 and x, whatever f; a product of two such
    # by the two units and the two x
    f5 = FieldDescriptor(PRIME, 5)
    for d in range(2, 9):
        assert univariate_quotient(Q, _q(Q, *range(1, d + 1), 1))._generators() == [0, 1]
        assert univariate_quotient(f5, _q(f5, *range(d), 1))._generators() == [0, 1]
    a = direct_product(univariate_quotient(Q, _q(Q, 0, 0, 0, 1)),
                       univariate_quotient(Q, _q(Q, -2, 0, 1)))
    assert a._generators() == [0, 1, 3, 4]
    assert scalar_field_algebra(Q)._generators() == [0]


def test_vector_keys_outside_the_basis_raise():
    one = Q.one()
    with pytest.raises(BadParamsError, match="range"):
        FiniteDimAlgebra(Q, ["1"], [[{0: one, 1: one}]], {0: one})
    with pytest.raises(BadParamsError, match="range"):
        FiniteDimAlgebra(Q, ["1"], [[{0: one}]], {0: one, 1: one})
    with pytest.raises(BadParamsError, match="range"):
        FiniteDimAlgebra(Q, ["1"], [[{-1: one}]], {0: one})
    with pytest.raises(BadParamsError, match="range"):  # a dense list is no dict
        FiniteDimAlgebra(Q, ["1"], [[[one]]], [one])


def test_explicit_zero_entries_build_the_same_algebra():
    z, one = Q.zero(), Q.one()
    a = FiniteDimAlgebra(Q, ["1", "x"], [[{0: one}, {1: one}], [{1: one}, {}]], {0: one})
    b = FiniteDimAlgebra(Q, ["1", "x"], [[{0: one, 1: z}, {0: z, 1: one}],
                                         [{1: one}, {0: z, 1: z}]], {0: one, 1: z})
    assert b.table == a.table and b.unit == a.unit
    assert a.table == univariate_quotient(Q, _q(Q, 0, 0, 1)).table  # k[x]/(x^2)


def test_nilradical_of_nilpotent_quotient():
    a = univariate_quotient(Q, _q(Q, 0, 0, 0, 1))  # k[x]/(x^3)
    nil = nilradical(a)
    assert len(nil["basis"]) == 2
    assert nil["certified"]
    assert not is_vnr(a)


def test_nilradical_in_characteristic_two():
    # over GF(2) the trace form of k[x]/((x+1)^2) vanishes, so its radical
    # is the whole algebra; the nilradical is spanned by 1 + x
    gf2 = FieldDescriptor(PRIME, 2)
    a = univariate_quotient(gf2, _q(gf2, 1, 0, 1))
    assert nilradical(a)["basis"] == [sparse(_q(gf2, 1, 1))]
    dec = local_decomposition(a)
    assert dec["status"] == "DECOMPOSED"
    assert len(dec["factors"]) == 1


@pytest.mark.parametrize("p", [2, 3, 7])
def test_nilradical_is_certified_in_characteristic_p(p):
    # k[x]/((x + 1)^2 (x + 2)): the nilradical is spanned by (x + 1)(x + 2)
    field = FieldDescriptor(PRIME, p)
    a = univariate_quotient(field, _q(field, 2, 5, 4, 1))
    nil = nilradical(a)
    assert nil["certified"] is True and nil["note"] is None
    assert nil["basis"] == [sparse(_q(field, 2, 3, 1))]
    assert local_decomposition(a)["nilradical_certified"] is True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3]),
       coeffs=st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_nilradical_counts_the_nilpotents_in_small_characteristic(p, coeffs):
    # k[x]/(f) over GF(p) with f monic of degree <= 4: the nilpotents form
    # the nilradical, so there are p^len(basis) of them among p^dim vectors
    field = FieldDescriptor(PRIME, p)
    a = univariate_quotient(field, _q(field, *coeffs, 1))
    basis = nilradical(a)["basis"]
    assert all(a.is_nilpotent(v) for v in basis)
    vectors = itertools.product([field.from_int(c) for c in range(p)], repeat=a.dim)
    assert sum(a.is_nilpotent(sparse(v)) for v in vectors) == p ** len(basis)


def test_nilradical_rejects_a_vector_that_is_not_nilpotent(monkeypatch):
    # a fault in the linear algebra must not pass as a nilradical
    a = univariate_quotient(Q, _q(Q, 0, 0, 1))  # k[x]/(x^2)
    monkeypatch.setattr(cancel, "nullspace", lambda columns, field: [{0: Q.one()}])
    with pytest.raises(ValidationError, match="not nilpotent") as err:
        nilradical(a)
    assert err.value.code == "NILRADICAL_NOT_NILPOTENT"


def test_vnr_fixtures():
    assert is_vnr(univariate_quotient(Q, _q(Q, -1, 0, 1)))  # k[x]/(x^2-1)
    assert not is_vnr(univariate_quotient(Q, _q(Q, 0, 0, 1)))  # k[x]/(x^2)
    assert is_vnr(scalar_field_algebra(Q))


def test_quotient_by_nilradical():
    a = univariate_quotient(Q, _q(Q, 0, 0, 1))
    nil = nilradical(a)
    quot, project, lift = quotient_by_ideal(a, nil["basis"])
    assert quot.dim == 1
    assert project(a.unit) == quot.unit


def test_local_decomposition_split():
    a = univariate_quotient(Q, _q(Q, -1, 0, 1))
    dec = local_decomposition(a)
    assert dec["status"] == "DECOMPOSED"
    assert len(dec["factors"]) == 2
    assert all(f["local_certified"] for f in dec["factors"])


def test_local_decomposition_field_is_single_factor():
    a = univariate_quotient(Q, _q(Q, -2, 0, 1))  # k[x]/(x^2-2), a field
    dec = local_decomposition(a)
    assert dec["status"] == "DECOMPOSED"
    assert len(dec["factors"]) == 1
    # the factor on the unit is the algebra itself, not a rebuilt copy
    assert dec["factors"][0]["algebra"] is a
    assert cancel._subalgebra_on_idempotent(a, a.unit) == (a, [a._e(0), a._e(1)])


def _probing(a):
    """`a` on the same basis and table, without the recorded modulus, so
    that `local_decomposition` probes it as it would any other algebra."""
    return FiniteDimAlgebra(a.field, a.basis_names, a.table, a.unit)


@pytest.mark.parametrize("field,coeffs,count", [
    (Q, (-1, 0, 0, 0, 1), 3),  # (x - 1)(x + 1)(x^2 + 1)
    (Q, (0, 0, -1, 0, 1), 3),  # x^2 (x - 1)(x + 1)
    (FieldDescriptor(PRIME, 5), (-1, 0, 0, 0, 1), 4),  # four linear factors
    (Q, (-2, 0, 1), 1),
])
def test_local_decomposition_tries_each_idempotent_once(monkeypatch, field, coeffs, count):
    # every split adds two idempotents and removes one, and an idempotent
    # that does not split is final: 2 * factors - 1 attempts at most
    calls = []
    split = cancel._split_idempotent
    monkeypatch.setattr(cancel, "_split_idempotent",
                        lambda q, e: calls.append(e) or split(q, e))
    dec = local_decomposition(_probing(univariate_quotient(field, _q(field, *coeffs))))
    assert len(dec["factors"]) == count
    assert len(calls) <= 2 * count - 1


def test_local_decomposition_with_nilpotents():
    a = direct_product(
        univariate_quotient(Q, _q(Q, 0, 0, 1)), scalar_field_algebra(Q)
    )
    dec = local_decomposition(a)
    assert dec["status"] == "DECOMPOSED"
    assert len(dec["factors"]) == 2


def reference_split_idempotent(q, e):
    """`_split_idempotent` before it stopped at a field: the minimal
    polynomial of every e*e_j is tried."""
    field = q.field
    one = field.one()
    if not e:
        return None
    for j in range(q.dim):
        u = q.mul(e, q._e(j))
        # minimal polynomial of u acting on e*q
        minp = q.min_poly(u, e)
        if len(minp) <= 2:
            continue
        for lam in poly.roots(minp, field):
            f = [-lam, one]
            g, rem = poly.divmod(minp, f, field)
            if rem:
                continue
            if poly.evaluate(g, lam, field).is_zero():
                continue  # repeated root; not usable for a clean split
            gcd, s, t = poly.xgcd(f, g, field)
            if len(gcd) != 1:
                continue
            # e1 = (t*g)(u)*e, by Horner in q
            e1 = {}
            for c in reversed(poly.mul(t, g, field)):
                e1 = cancel._lincomb([(one, q.mul(e1, u)), (c, e)])
            e2 = cancel._lincomb([(one, e), (-one, e1)])
            if (
                q.mul(e1, e1) == e1
                and q.mul(e2, e2) == e2
                and not q.mul(e1, e2)
                and e1
                and e2
            ):
                return e1, e2
    return None


def reference_certify_local(f):
    """`_certify_local` before it took the first full-degree verdict over
    GF(p) and Q: basis vectors are probed until one is decided."""
    nil = nilradical(f)
    q, _, _ = quotient_by_ideal(f, nil["basis"])
    if q.dim == 1:
        return True
    for j in range(q.dim):
        minp = q.min_poly(q._e(j))
        if len(minp) - 1 == q.dim:
            irr = poly.irreducible(minp, q.field)
            if irr is True:
                return True
            if irr is False:
                return False
    return None


@st.composite
def _factored_quotients(draw):
    """k[x]/(f) over Q or GF(p), f of degree <= 12 a product of one to
    three random monic factors of degree <= 4, each taken once or twice,
    so that the algebra splits and has nilpotents at times."""
    field = draw(st.sampled_from([Q, F2, FieldDescriptor(PRIME, 3),
                                  FieldDescriptor(PRIME, 7)]))
    f = [field.one()]
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
        g = [field.from_int(c) for c in coeffs] + [field.one()]
        for _ in range(draw(st.integers(1, 2))):
            if len(f) + len(g) - 2 <= 12:
                f = poly.mul(f, g, field)
    assume(len(f) > 1)
    return univariate_quotient(field, f)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=_factored_quotients())
def test_field_stops_give_the_reference_verdicts(a):
    q, _, _ = quotient_by_ideal(a, nilradical(a)["basis"])
    pending = [q.unit]
    while pending:  # the idempotents local_decomposition tries, in turn
        e = pending.pop(0)
        split = cancel._split_idempotent(q, e)
        assert split == reference_split_idempotent(q, e)
        pending.extend(split or ())
    for fac in [a] + [f["algebra"] for f in local_decomposition(a)["factors"]]:
        assert cancel._certify_local(fac) is reference_certify_local(fac)


def _idempotent_set(dec):
    return {frozenset(e.items()) for e in dec["idempotents"]}


def _crt_against_probing(a):
    """Compare `local_decomposition` of k[x]/(f) with probing, and return
    "probed" when a factor of f is undecided (both are then the probing
    path), "agree" or "differ". Where probing decomposes, the CRT path
    must give the same factors and idempotents; where it does not, the
    CRT result must be decomposed and certified. Either way the
    idempotents are checked through the structure constants of `a`, not
    as polynomials, and each factor's dimension is that of e*a."""
    crt, probed = local_decomposition(a), local_decomposition(_probing(a))
    if poly.factorization(a.modulus, a.field) is None:
        assert crt["status"] == probed["status"]
        assert crt["idempotents"] == probed["idempotents"]
        assert ([f["local_certified"] for f in crt["factors"]]
                == [f["local_certified"] for f in probed["factors"]])
        return "probed"
    assert crt["status"] == "DECOMPOSED" and crt["nilradical_certified"] is True
    assert all(f["local_certified"] is True for f in crt["factors"])
    if probed["status"] == "DECOMPOSED":
        assert len(crt["factors"]) == len(probed["factors"])
        assert (sorted(f["algebra"].dim for f in crt["factors"])
                == sorted(f["algebra"].dim for f in probed["factors"]))
        assert _idempotent_set(crt) == _idempotent_set(probed)
    else:
        assert all(cancel._certify_local(f["algebra"]) is True for f in crt["factors"])
    idems = crt["idempotents"]
    assert cancel._lincomb((a.field.one(), e) for e in idems) == a.unit
    for i, (e, f) in enumerate(zip(idems, crt["factors"])):
        assert f["idempotent"] is e and a.mul(e, e) == e
        assert all(not a.mul(e, d) for d in idems[i + 1:])
        span = SpanBasis(a.field, lambda k: k)
        assert sum(span.add(a.mul(e, a._e(j))) for j in range(a.dim)) == f["algebra"].dim
    return "agree" if probed["status"] == "DECOMPOSED" else "differ"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=_factored_quotients())
def test_crt_decomposition_agrees_with_probing(a):
    _crt_against_probing(a)


@pytest.mark.parametrize("tag", sorted(_MODULI))
def test_crt_decomposition_agrees_with_probing_on_the_golden_moduli(tag):
    field = cli._parse_field(_FIELDS[tag])
    for text in _MODULI[tag]:
        a = univariate_quotient(field, [scalar_parse(field, t) for t in text.split(",")])
        assert _crt_against_probing(a) != "differ", text


@pytest.mark.parametrize("p,coeffs,parts", [
    (2, (1, 0, 0, 0, 1), [((1, 1), 4)]),  # x^4 + 1 = (x + 1)^4
    # (x + 1)^2 (x^2 + x + 1)^2 = (x^3 + 1)^2 = x^6 + 1
    (2, (1, 0, 0, 0, 0, 0, 1), [((1, 1), 2), ((1, 1, 1), 2)]),
    (2, (1, 0, 1, 0, 1, 0, 1), [((1, 1), 6)]),  # (x + 1)^6
    (3, (2, 0, 0, 1), [((2, 1), 3)]),  # (x - 1)^3 = x^3 - 1
    # (x^3 + 2x + 1)^3 = x^9 + 2x^3 + 1
    (3, (1, 0, 0, 2, 0, 0, 0, 0, 0, 1), [((1, 2, 0, 1), 3)]),
])
def test_crt_decomposition_in_characteristic_p_with_zero_derivative(p, coeffs, parts):
    field = FieldDescriptor(PRIME, p)
    f = _q(field, *coeffs)
    assert not poly.derivative(f, field)
    assert poly.factorization(f, field) == [(_q(field, *h), m) for h, m in parts]
    assert _crt_against_probing(univariate_quotient(field, f)) == "agree"


def test_field_stops_skip_the_rest_of_the_basis(monkeypatch):
    calls = []
    min_poly = FiniteDimAlgebra.min_poly
    monkeypatch.setattr(FiniteDimAlgebra, "min_poly",
                        lambda q, *args: calls.append(args) or min_poly(q, *args))
    # x^8 + 1 is irreducible over Q, which `irreducible` leaves undecided at
    # degree 8: the minimal polynomial of x gives the verdict, the unit's
    # comes first
    a = univariate_quotient(Q, _q(Q, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert cancel._certify_local(a) is None
    assert len(calls) == 2
    # k[x]/(x^3 - 2) is a field once x has an irreducible cubic: x^2 is
    # not tried
    del calls[:]
    a = univariate_quotient(Q, _q(Q, -2, 0, 0, 1))
    assert cancel._split_idempotent(a, a.unit) is None
    assert len(calls) == 2


def test_idempotent_lifting_names_its_step_cap(monkeypatch):
    # k[x]/(x^2) x k is no k[x]/(f): its idempotents are lifted by Newton steps
    a = direct_product(univariate_quotient(Q, _q(Q, 0, 0, 1)), scalar_field_algebra(Q))
    assert a.modulus is None
    assert len(local_decomposition(a)["factors"]) == 2
    monkeypatch.setattr(cancel, "MAX_LIFT_STEPS", 0)
    with pytest.raises(ResourceLimitError, match="MAX_LIFT_STEPS = 0") as err:
        local_decomposition(a)
    assert err.value.details == {"cap": "MAX_LIFT_STEPS", "limit": 0}


def test_idempotent_factor_coordinates_match_solve():
    """The factor algebra's table and unit are the coordinates in `chosen`
    of the products and of e: the dense reference solve finds them, and
    mapped back through `chosen` they give the products and e again."""
    f5 = FieldDescriptor(PRIME, 5)
    cases = [
        (Q, (-1, 0, 0, 0, 1)),  # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1)
        (Q, (0, 0, -1, 0, 1)),  # x^2 (x - 1)(x + 1)
        (f5, (1, 0, -2, 0, 1)),  # (x^2 - 1)^2
        (FieldDescriptor(CYCLOTOMIC, 4), (-1, 0, 0, 0, 1)),
    ]
    for field, coeffs in cases:
        a = univariate_quotient(field, _q(field, *coeffs))
        idems = local_decomposition(a)["idempotents"]
        assert len(idems) > 1
        for e in idems:
            fac, chosen = cancel._subalgebra_on_idempotent(a, e)
            columns = [to_dense(v, a.dim, field) for v in chosen]
            matrix = [list(row) for row in zip(*columns)]

            def coords(w):
                return ref_solve(matrix, to_dense(w, a.dim, field), field)

            def back(x):
                return cancel._lincomb((c, chosen[k]) for k, c in x.items())

            assert to_dense(fac.unit, fac.dim, field) == coords(e)
            assert back(fac.unit) == e
            for u, row in zip(chosen, fac.table):
                for v, x in zip(chosen, row):
                    assert to_dense(x, fac.dim, field) == coords(a.mul(u, v))
                    assert back(x) == a.mul(u, v)


@pytest.mark.parametrize("tag", ["q", "gf7", "cyc3"])
def test_idempotent_factor_table_matches_solving_every_product(tag):
    """The factor table is solved for u <= v only and mirrored: on the
    `decompose` golden inputs it equals the dense solves of all n^2
    products."""
    field = cli._parse_field(_FIELDS[tag])
    factors = 0
    for text in _MODULI[tag]:
        a = univariate_quotient(field, [scalar_parse(field, t) for t in text.split(",")])
        for e in local_decomposition(a)["idempotents"]:
            fac, chosen = cancel._subalgebra_on_idempotent(a, e)
            matrix = [list(row) for row in zip(*(to_dense(v, a.dim, field) for v in chosen))]

            def coords(w):
                return sparse(ref_solve(matrix, to_dense(w, a.dim, field), field))

            assert fac.table == [[coords(a.mul(u, v)) for v in chosen] for u in chosen]
            factors += 1
    assert factors > len(_MODULI[tag])  # some modulus splits


def test_units_generated():
    assert units_generated(univariate_quotient(Q, _q(Q, -1, 0, 1)))["status"] == "TRUE"
    # F2[x]/(x^2 + x): only unit is 1
    out = units_generated(univariate_quotient(F2, _q(F2, 0, 1, 1)))
    assert out == {"status": "FALSE", "witness": 2, "mode": "residue_fields"}
    assert units_generated(laurent(2, Q))["status"] == "TRUE"
    # GF(2)^3 x GF(4) x GF(2)[t]/(t^2): four residue fields GF(2)
    gf2 = univariate_quotient(F2, _q(F2, 0, 1))
    gf4 = univariate_quotient(F2, _q(F2, 1, 1, 1))
    a = direct_product(direct_product(gf2, gf2), gf2)
    a = direct_product(direct_product(a, gf4), univariate_quotient(F2, _q(F2, 0, 0, 1)))
    assert units_generated(a) == {"status": "FALSE", "witness": 4, "mode": "residue_fields"}
    assert units_generated(gf2) == {"status": "TRUE", "witness": 1, "mode": "residue_fields"}
    assert units_generated(gf4) == {"status": "TRUE", "witness": 0, "mode": "residue_fields"}


def ref_units_generated(a) -> dict:
    """The earlier `units_generated` on a FiniteDimAlgebra, kept as the
    reference: it enumerates GF(p)^dim when p^dim <= 4096, and otherwise
    shifts each basis vector off its spectrum, giving up with UNKNOWN when
    no shift in 1..dim+1 is a unit."""
    field = a.field
    if field.kind == PRIME and field.param ** a.dim <= 4096:
        return ref_units_generated_exhaustive(a)
    # infinite (or large) field: shift each basis element off its spectrum
    witnesses = []
    for j in range(a.dim):
        g = a._e(j)
        lam = None
        for k in range(1, a.dim + 2):
            cand = field.from_int(k)
            shifted = cancel._lincomb([(field.one(), g), (cand, a.unit)])
            if ref_invertible(a, shifted):
                lam = cand
                break
        if lam is None:
            return {"status": "UNKNOWN", "witness": None, "mode": "shift"}
        witnesses.append(
            {"basis": a.basis_names[j], "lambda": str(lam)}
        )
    return {"status": "TRUE", "witness": witnesses, "mode": "shift"}


def ref_invertible(a: FiniteDimAlgebra, u) -> bool:
    columns = [a.mul(u, a._e(j)) for j in range(a.dim)]
    return solve(columns, a.unit, a.field) is not None


def ref_units_generated_exhaustive(a: FiniteDimAlgebra) -> dict:
    field = a.field
    vectors = (
        {i: field.from_int(r) for i, r in enumerate(coords) if r}
        for coords in itertools.product(range(field.param), repeat=a.dim)
    )
    units = [u for u in vectors if u and ref_invertible(a, u)]
    span = SpanBasis(field, lambda i: i)
    for u in [a.unit] + units:
        span.add(u)
    while True:
        grew = False
        for u in span.basis_rows():
            for v in units:
                if span.add(a.mul(u, v)):
                    grew = True
        if not grew:
            break
    full = len(span) == a.dim
    return {
        "status": "TRUE" if full else "FALSE",
        "witness": {"units": len(units), "closure_dim": len(span)},
        "mode": "exhaustive",
    }


def _monic(field, degree):
    """Every monic polynomial of the given degree over GF(p)."""
    return [_q(field, *low, 1) for low in itertools.product(range(field.param), repeat=degree)]


def _units_grid():
    """Algebras over GF(2) and GF(3) small enough to enumerate: every
    k[x]/(f) up to degree 7 over GF(2) and 4 over GF(3), a fixed sample of
    degree 8 and 5, products of two and of three of them, and
    k[x, y]/(f(x), g(y)) for f, g of degree 2, also with xy = 0 where
    f(0) = g(0) = 0. Elsewhere x or y is a unit, xy = 0 kills the other,
    and `commutative_quotient` must refuse xy, f, g as no Gröbner basis."""
    rng = random.Random(23)
    for field, top in ((F2, 8), (F3, 5)):
        small = [f for d in range(1, 3) for f in _monic(field, d)]
        for d in range(1, top):
            for f in _monic(field, d):
                yield univariate_quotient(field, f)
        for f in rng.sample(_monic(field, top), 24):
            yield univariate_quotient(field, f)
        quotients = [univariate_quotient(field, f) for f in small]
        for b, c in itertools.combinations_with_replacement(quotients, 2):
            yield direct_product(b, c)
        for b, c, d in itertools.combinations_with_replacement(quotients[:6], 3):
            yield direct_product(direct_product(b, c), d)
        for f, g in itertools.product(_monic(field, 2), repeat=2):
            yield commutative_quotient(field, ["x", "y"], [], {0: f, 1: g})
            if f[0].is_zero() and g[0].is_zero():
                yield commutative_quotient(field, ["x", "y"], [(1, 1)], {0: f, 1: g})
            else:
                with pytest.raises(BadParamsError, match="not a Gröbner basis"):
                    commutative_quotient(field, ["x", "y"], [(1, 1)], {0: f, 1: g})


def test_units_generated_matches_the_exhaustive_reference():
    statuses = []
    for a in _units_grid():
        out = units_generated(a)
        assert out["status"] == ref_units_generated_exhaustive(a)["status"]
        assert out["mode"] == "residue_fields"
        statuses.append(out["status"])
    assert statuses.count("FALSE") > 50 and statuses.count("TRUE") > 500


@pytest.mark.parametrize("p, factors", [
    (5, [[0, -1, 0, 0, 0, 1], [2, 0, 1]]),  # x(x-1)(x-2)(x-3)(x-4)(x^2+2)
    (3, [[0, -1, 0, 1], [1, 2, 0, 0, 0, 1]]),  # x(x-1)(x-2)(x^5+2x+1)
])
def test_units_generated_decides_where_the_spectrum_shift_gave_up(p, factors):
    # p^dim > 4096 and the shifts 1..dim+1 wrap mod p, so each meets the
    # spectrum {0, ..., p-1}: the earlier search gave up with UNKNOWN
    field = FieldDescriptor(PRIME, p)
    f = poly.mul(_q(field, *factors[0]), _q(field, *factors[1]), field)
    a = univariate_quotient(field, f)
    assert ref_units_generated(a)["status"] == "UNKNOWN"
    assert units_generated(a) == {"status": "TRUE", "witness": 0, "mode": "residue_fields"}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from([Q, FieldDescriptor(PRIME, 101)]),
       coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=7))
def test_units_generated_agrees_with_the_shift_reference(field, coeffs):
    a = univariate_quotient(field, _q(field, *coeffs, 1))
    assert ref_units_generated(a)["status"] == "TRUE"
    assert units_generated(a)["status"] == "TRUE"


def test_verify_generating_set_fixtures():
    b = univariate_quotient(Q, _q(Q, 0, 0, 1))  # k[x]/(x^2)
    x = b._e(1)
    f = {(1,): b.unit, (2,): x}
    assert verify_generating_set(b, 1, [f], 4)["status"] == "GENERATES"
    k = scalar_field_algebra(Q)
    f2 = {(2,): k.unit}
    assert verify_generating_set(k, 1, [f2], 4)["status"] == "INCONCLUSIVE"


def test_generating_set_closure_names_its_pass_cap(monkeypatch):
    b = univariate_quotient(Q, _q(Q, 0, 0, 1))  # k[x]/(x^2)
    f = {(1,): b.unit, (2,): b._e(1)}
    monkeypatch.setattr(cancel, "MAX_GENERATING_SET_PASSES", 1)
    with pytest.raises(ResourceLimitError, match="MAX_GENERATING_SET_PASSES = 1") as err:
        verify_generating_set(b, 1, [f], 4)
    assert err.value.details == {"cap": "MAX_GENERATING_SET_PASSES", "limit": 1}


def test_commutative_quotient_refuses_an_infinite_quotient():
    # k[x, y]/(xy) is infinite dimensional: every power of x survives
    with pytest.raises(BadParamsError, match="bounds the powers of x$"):
        commutative_quotient(Q, ["x", "y"], [(1, 1)], {})
    assert commutative_quotient(Q, ["x", "y"], [(2, 0), (1, 1), (0, 2)], {}).dim == 3
    assert commutative_quotient(Q, ["x"], [(3,)], {}).dim == 3


@pytest.mark.parametrize("field, names, rels, uni, pair", [
    # x is a unit, so y = y(x^2 + 1) - x(xy) = 0: GF(2)[x]/(x^2 + 1)
    (F2, ["x", "y"], [(1, 1)], {0: (1, 0, 1), 1: (0, 0, 1)}, r"\(1, 1\) .* of x "),
    # x^3 = -x and x^5 = x: the zero ring
    (Q, ["x"], [(5,)], {0: (1, 0, 1)}, r"\(5,\) .* of x "),
    # y is a unit, so x = 0: finite, but no relation bounds x
    (Q, ["x", "y"], [(1, 1)], {1: (-1, 0, 1)}, r"\(1, 1\) .* of y "),
], ids=["gf2-x-unit", "q-zero-ring", "q-y-unit"])
def test_commutative_quotient_refuses_a_non_groebner_basis(field, names, rels, uni, pair):
    with pytest.raises(BadParamsError, match="not a Gröbner basis: .*" + pair):
        commutative_quotient(field, names, rels, {v: _q(field, *f) for v, f in uni.items()})


@pytest.mark.parametrize("names, rels, uni, text", [
    (["x", "y"], [(1,)], {}, r"monomial relation \(1,\)"),
    (["x", "y"], [(2, -1)], {}, r"monomial relation \(2, -1\)"),
    (["x", "y"], [(0, 0)], {}, r"monomial relation \(0, 0\)"),
    (["x"], [], {0: (0, 0, 1), 3: (1, 1)}, "univariate relation 3"),
], ids=["short", "negative", "zero", "no-variable"])
def test_commutative_quotient_refuses_a_malformed_relation(names, rels, uni, text):
    with pytest.raises(BadParamsError, match=text):
        commutative_quotient(Q, names, rels, {v: _q(Q, *f) for v, f in uni.items()})


# -- quotient constructors against the reference ----------------------------
#
# The constructors as they were before the Gröbner check, kept verbatim:
# k[x]/(f) built from its own table, and a quotient reduced by an agenda of
# univariate rewrites, with a degree cap standing in for a finiteness test.

MAX_QUOTIENT_DEGREE = 60


def ref_univariate_quotient(field, coeffs) -> FiniteDimAlgebra:
    """k[x]/(f) for a monic-izable f given by ascending coefficients."""
    coeffs = poly.trim(list(coeffs))
    if len(coeffs) < 2:
        raise BadParamsError("modulus must have degree >= 1")
    inv = coeffs[-1].inv()
    coeffs = [c * inv for c in coeffs]
    d = len(coeffs) - 1
    names = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, d)]

    def reduce_power(k):
        p = [field.zero()] * k + [field.one()]
        _, r = poly.divmod(p, coeffs, field)
        return {i: c for i, c in enumerate(r) if not c.is_zero()}

    powers = [reduce_power(k) for k in range(2 * d - 1)]
    table = [[powers[i + j] for j in range(d)] for i in range(d)]
    return FiniteDimAlgebra(field, names, table, {0: field.one()})


def ref_commutative_quotient(field, var_names, monomial_rels, univariate_rels) -> FiniteDimAlgebra:
    """k[vars] / (monomial relations + one univariate relation per variable).

    `monomial_rels`: exponent tuples that are set to zero (with all their
    multiples). `univariate_rels`: var index -> ascending coefficient list
    of a monic-izable polynomial satisfied by that variable.
    """
    nv = len(var_names)
    uni = {}
    for v, coeffs in (univariate_rels or {}).items():
        coeffs = poly.trim(list(coeffs))
        if len(coeffs) < 2:
            raise BadParamsError("univariate relation must have degree >= 1")
        inv = coeffs[-1].inv()
        uni[v] = [c * inv for c in coeffs]
    bounds = [len(uni[v]) - 1 if v in uni else None for v in range(nv)]
    if any(b is None for b in bounds) and not monomial_rels:
        raise BadParamsError("quotient is not finite dimensional")

    def divisible(m, rel):
        return all(m[i] >= rel[i] for i in range(nv))

    def monomials():
        out = [(0,) * nv]
        frontier = [(0,) * nv]
        seen = {(0,) * nv}
        while frontier:
            nxt = []
            for m in frontier:
                for v in range(nv):
                    mm = tuple(e + (1 if i == v else 0) for i, e in enumerate(m))
                    if mm in seen:
                        continue
                    if bounds[v] is not None and mm[v] >= bounds[v]:
                        continue
                    if any(divisible(mm, r) for r in monomial_rels):
                        continue
                    if sum(mm) > MAX_QUOTIENT_DEGREE:
                        raise ResourceLimitError(
                            "quotient appears infinite dimensional: a basis monomial "
                            f"exceeds the degree cap MAX_QUOTIENT_DEGREE = "
                            f"{MAX_QUOTIENT_DEGREE}",
                            cap="MAX_QUOTIENT_DEGREE", limit=MAX_QUOTIENT_DEGREE)
                    seen.add(mm)
                    out.append(mm)
                    nxt.append(mm)
            frontier = nxt
        out.sort(key=lambda m: (sum(m), m))
        return out

    basis = monomials()
    index = {b: i for i, b in enumerate(basis)}

    def reduce_term(m, c):
        """Reduce one monomial*coefficient to a dict vector over the basis."""
        agenda = [(m, c)]
        out = {}
        while agenda:
            mono, coef = agenda.pop()
            if coef.is_zero():
                continue
            if any(divisible(mono, r) for r in monomial_rels):
                continue
            over = next(
                (v for v in range(nv)
                 if bounds[v] is not None and mono[v] >= bounds[v]), None
            )
            if over is None:
                out[mono] = out.get(mono, field.zero()) + coef
                continue
            v = over
            rel = uni[v]
            d = len(rel) - 1
            # x_v^d = -(rel[0] + ... + rel[d-1] x_v^{d-1})
            for k in range(d):
                if rel[k].is_zero():
                    continue
                mm = tuple(
                    e - d + k if i == v else e for i, e in enumerate(mono)
                )
                agenda.append((mm, -coef * rel[k]))
        return {index[mono]: c for mono, c in out.items() if not c.is_zero()}

    table = [
        [reduce_term(tuple(a + b for a, b in zip(bi, bj)), field.one()) for bj in basis]
        for bi in basis
    ]

    def name_of(m):
        if not any(m):
            return "1"
        return "*".join(
            f"{var_names[v]}^{e}" if e > 1 else var_names[v]
            for v, e in enumerate(m) if e
        )

    return FiniteDimAlgebra(field, [name_of(m) for m in basis], table, {0: field.one()})


_ORACLE_FIELDS = [Q, F2, F3, FieldDescriptor(PRIME, 7), FieldDescriptor(RATFUNC_Q), C3]


def _rows(a):
    return [[list(v.items()) for v in row] for row in a.table]


def test_univariate_quotient_matches_the_reference_in_key_order():
    # the invariants digest prints idempotents in the key order of products
    rng = random.Random(24)
    for field in _ORACLE_FIELDS:
        pool = ["0", "1", "-1", "2", "-3"] + (["q", "q+1", "1/q"] if field.kind in (
            RATFUNC_Q, CYCLOTOMIC) else [])
        for _ in range(60):
            f = [scalar_parse(field, rng.choice(pool)) for _ in range(rng.randint(1, 9))]
            f.append(scalar_parse(field, rng.choice(pool[1:])))
            if f[-1].is_zero():
                continue
            a, ref = univariate_quotient(field, f), ref_univariate_quotient(field, f)
            assert a.basis_names == ref.basis_names and a.unit == ref.unit
            assert _rows(a) == _rows(ref)


def _tensor(u, w, n):
    """u ⊗ w in the tensor product of two algebras, w of dim n."""
    return {i * n + j: c * d for i, c in u.items() for j, d in w.items()}


def brute_force_dim(field, nv, rels, uni):
    """dim k[x_1..x_n]/(x^r, f_v) with no Gröbner basis assumed: the box
    algebra ⊗_v k[x_v]/(b_v), b_v = f_v or else the least pure power of x_v
    among the x^r, modulo the ideal spanned by the x^r e_b. None when some
    x_v has neither."""
    one = field.one()
    box = FiniteDimAlgebra(field, ["1"], [[{0: one}]], {0: one})
    xs = []  # x_v in the box
    for v in range(nv):
        pure = [r[v] for r in rels if r[v] == sum(r)]
        b = uni.get(v) or (pure and [field.zero()] * min(pure) + [one])
        if not b:
            return None
        fac, n = ref_univariate_quotient(field, b), len(b) - 1
        x = {1: one} if n > 1 else {0: -b[0] * b[1].inv()}
        x = {k: c for k, c in x.items() if not c.is_zero()}
        table = [[_tensor(box.table[i][k], fac.table[j][l], n)
                  for k in range(box.dim) for l in range(n)]
                 for i in range(box.dim) for j in range(n)]
        xs = [_tensor(u, fac.unit, n) for u in xs] + [_tensor(box.unit, x, n)]
        box = FiniteDimAlgebra(field, [str(i) for i in range(len(table))], table,
                               _tensor(box.unit, fac.unit, n))
    ideal = []
    for r in rels:
        m = box.unit
        for v, e in enumerate(r):
            if e:
                m = box.mul(m, box.power(xs[v], e))
        ideal += [box.mul(m, box._e(b)) for b in range(box.dim)]
    return quotient_by_ideal(box, ideal)[0].dim


def _random_quotients():
    """(field, names, monomial relations, univariate relations) with 1-3
    variables and degrees <= 3; a univariate relation is x^d, a multiple of
    a power of x or random, so that many inputs are Gröbner bases."""
    rng = random.Random(24)
    for _ in range(400):
        field = rng.choice([Q, F2, F3])
        nv = rng.randint(1, 3)
        uni = {}
        for v in range(nv):
            if rng.random() < 0.8:
                d = rng.randint(1, 3)
                low = rng.choice([d, rng.randint(0, d), 0])  # f is divisible by x^low
                uni[v] = _q(field, *[0] * low, *(rng.randint(-2, 2) for _ in range(low, d)), 1)
        rels = [tuple(rng.randint(0, 3) for _ in range(nv))
                for _ in range(rng.randint(0, 3))]
        rels = [r for r in rels if any(r)]
        yield field, [f"x{v}" for v in range(nv)], rels, uni


def _standard_count(nv, rels, uni):
    box = itertools.product(*(range(len(uni[v]) - 1) for v in range(nv)))
    return sum(not any(all(a >= b for a, b in zip(m, r)) for r in rels) for m in box)


def test_commutative_quotient_matches_the_reference_and_brute_force():
    built = refused = 0
    for field, names, rels, uni in _random_quotients():
        try:
            a = commutative_quotient(field, names, rels, uni)
        except BadParamsError as err:
            if "not finite dimensional" in str(err):
                assert brute_force_dim(field, len(names), rels, uni) is None
                with pytest.raises((BadParamsError, ResourceLimitError)):
                    ref_commutative_quotient(field, names, rels, uni)
            refused += 1
            continue
        ref = ref_commutative_quotient(field, names, rels, uni)
        assert a.basis_names == ref.basis_names and a.table == ref.table
        assert a.dim == brute_force_dim(field, len(names), rels, uni)
        built += 1
    assert built > 200 and refused > 100


def test_every_non_groebner_refusal_was_a_wrong_reference_answer():
    # with every variable bounded by its univariate relation, the reference
    # builds on the standard monomials of the given leading terms; the true
    # quotient has fewer exactly when the relations are no Gröbner basis
    refusals = answers = 0
    for field, names, rels, uni in _random_quotients():
        if len(uni) < len(names):
            continue
        try:
            commutative_quotient(field, names, rels, uni)
            continue
        except BadParamsError as err:
            assert "not a Gröbner basis" in str(err)
        count = _standard_count(len(names), rels, uni)
        assert brute_force_dim(field, len(names), rels, uni) < count
        refusals += 1
        try:
            ref = ref_commutative_quotient(field, names, rels, uni)
        except BadParamsError:  # the wrong table broke a law
            continue
        assert ref.dim == count
        answers += 1
    assert refusals > 50 and answers > 40


# -- morphisms ---------------------------------------------------------------


def test_verify_morphism_detects_bad_map():
    p = weyl1(Q)
    bad = Morphism(p, p, {"x": p.generator("x"), "y": p.generator("x")})
    assert verify_morphism(bad)["status"] == "FAIL"


def test_identity_is_iso_bounded():
    p = weyl1(Q)
    m = identity_morphism(p)
    out = verify_isomorphism_bounded(m, identity_morphism(p))
    assert out["status"] == "ISO_BOUNDED"


def reference_isomorphism_bounded(m, inverse_candidate, degree_cap):
    """The deleted check, kept as the reference: both maps homomorphisms,
    then a round trip over every standard monomial of degree <= degree_cap,
    both ways."""
    for f in (m, inverse_candidate):
        if verify_morphism(f)["status"] != "HOMOMORPHISM":
            return "FAIL"
    for f, g in ((m, inverse_candidate), (inverse_candidate, m)):
        for mono in f.source.filtration_basis(degree_cap):
            e = f.source.monomial(mono)
            if g.apply(f.apply(e)) != e:
                return "FAIL"
    return "ISO_BOUNDED"


def _torus_shear():
    """x1 -> x1*x2, x2 -> x2 and x1 -> x1*x2^-1, x2 -> x2: mutually inverse
    automorphisms of the quantum torus x2*x1 = q*x1*x2."""
    t = quantum_torus(2, {(1, 2): C3.q()}, C3)
    x1, x2 = t.generator("x1"), t.generator("x2")
    return (Morphism(t, t, {"x1": x1 * x2, "x2": x2}),
            Morphism(t, t, {"x1": x1 * t.gen_inverse("x2"), "x2": x2}))


def _map_pairs():
    shear, unshear = _torus_shear()
    mp = minus_one_plane(Q)
    x, y = mp.generator("x"), mp.generator("y")
    swap = Morphism(mp, mp, {"x": y, "y": x})
    flip = Morphism(mp, mp, {"x": -x, "y": y})
    w = weyl1(Q)
    shift = Morphism(w, w, {"x": w.generator("x") + w.one(), "y": w.generator("y")})
    unshift = Morphism(w, w, {"x": w.generator("x") - w.one(), "y": w.generator("y")})
    return {
        "shear": (shear, unshear, "ISO_BOUNDED"),
        "shear_twice": (shear, shear, "FAIL"),
        "swap": (swap, swap, "ISO_BOUNDED"),
        "flip": (flip, flip, "ISO_BOUNDED"),
        "swap_flip": (swap, flip, "FAIL"),
        "shift": (shift, unshift, "ISO_BOUNDED"),
        "shift_twice": (shift, shift, "FAIL"),
    }


@pytest.mark.parametrize("name", sorted(_map_pairs()))
def test_isomorphism_check_matches_the_bounded_reference(name):
    m, inverse_candidate, expected = _map_pairs()[name]
    assert verify_isomorphism_bounded(m, inverse_candidate)["status"] == expected
    assert reference_isomorphism_bounded(m, inverse_candidate, 3) == expected


def test_round_trip_names_the_moved_generator():
    shear, _ = _torus_shear()
    out = verify_isomorphism_bounded(shear, shear)
    assert out == {"status": "FAIL", "witness": "round trip moves x1 to x1*x2^2"}


def test_a_generator_whose_image_is_not_a_unit_fails():
    p = laurent(1, Q)
    m = Morphism(p, p, {"x1": p.generator("x1") + p.one()})
    out = verify_morphism(m)
    assert out["status"] == "FAIL"
    assert out["witness"].startswith("x1*x1^-1 = 1")
    assert verify_isomorphism_bounded(m, identity_morphism(p))["status"] == "FAIL"


# -- registry and rule engine ------------------------------------------------


def test_registry_fixtures_reverify():
    for fx in counterexample_registry():
        assert verify_fixture(fx)


def test_registry_covers_all_dotted_edges():
    dag = ImplicationDAG()
    covered = set()
    for fx in counterexample_registry():
        covered.update(fx["dotted_edges"])
    assert covered == set(dag.dotted_edges)


def test_certify_weyl_r1_r9_refuted_delta():
    p = weyl1(Q)
    inputs = {"center": center_bounded(p, 4)}
    verdicts = {v.property: v for v in certify(p, inputs)}
    assert verdicts["UNIVERSALLY_CANCELLATIVE"].rule == "R1"
    assert verdicts["UNIVERSALLY_CANCELLATIVE"].status == "PROVED"
    assert verdicts["SIGMA_CANCELLATIVE_STRONG"].rule == "R9"
    assert verdicts["DELTA_CANCELLATIVE"].status == "REFUTED_BY_EXAMPLE"


def test_certify_minus_one_r10_refuted_sigma():
    p = minus_one_plane(Q).with_flags({"ML_FULL": True}, "asserted(user)")
    inputs = {"gk": gk_estimate(growth_dims(p, 12))}
    verdicts = {v.property: v for v in certify(p, inputs)}
    assert verdicts["DELTA_CANCELLATIVE"].rule == "R10"
    assert verdicts["SIGMA_CANCELLATIVE_STRONG"].status == "REFUTED_BY_EXAMPLE"
    assert verdicts["STRONGLY_CANCELLATIVE"].status == "ASSERTED"
    # DAG closure: delta -> cancellative
    assert verdicts["CANCELLATIVE"].rule.startswith("DAG(")


@pytest.mark.parametrize("field, coeffs, units, rule", [
    (Q, [-1, 0, 1], "TRUE", "R2"),  # Q x Q
    (F2, [0, 1, 1], "FALSE", "R3"),  # GF(2) x GF(2): 1 is the only unit
    (F2, [1, 1, 1], "TRUE", "R2"),  # GF(4)
])
def test_certify_r2_to_r4_from_a_center_algebra(field, coeffs, units, rule):
    z = univariate_quotient(field, _q(field, *coeffs))
    ug = units_generated(z)
    assert ug["status"] == units
    p = weyl1(Q)
    verdicts = {v.property: v for v in certify(p, {"center_algebra": z})}
    for prop in ("STRONGLY_CANCELLATIVE", "STRONGLY_MORITA_CANCELLATIVE"):
        assert (verdicts[prop].status, verdicts[prop].rule) == ("PROVED", rule)
    if rule == "R2":
        assert verdicts["STRONGLY_CANCELLATIVE"].evidence == {
            "units_generated": ug["witness"], "mode": "residue_fields"}
    else:
        with pytest.raises(MissingEvidenceError):
            certify(p, {"center_algebra": z, "require_rules": ["R2"]})
    certify(p, {"center_algebra": z, "require_rules": ["R3", "R4"]})


def test_certify_missing_evidence():
    p = weyl1(Q)
    with pytest.raises(MissingEvidenceError):
        certify(p, {"require_rules": ["R7"]})


def test_certify_monotone():
    p = weyl1(Q)
    small = certify(p, {})
    big = certify(p, {"center": center_bounded(p, 4)})
    proved_small = {v.property for v in small if v.status == "PROVED"}
    proved_big = {v.property for v in big if v.status == "PROVED"}
    assert proved_small <= proved_big


def test_dag_never_uses_dotted_edges():
    # a verdict at 'cancellative' must not propagate anywhere
    p = minus_one_plane(Q)  # commutative? no - but no rules fire without input
    verdicts = certify(p, {})
    props = {v.property for v in verdicts if v.status != "REFUTED_BY_EXAMPLE"}
    assert "SIGMA_ALG_CANCELLATIVE_STRONG" not in props
    assert "DELTA_CANCELLATIVE" not in props


def test_implication_table_edges_are_the_solid_edges():
    edges = {tuple(edge.split("->"))
             for targets in cancel._IMPLIES.values() for _, edge in targets}
    assert edges == set(ImplicationDAG().solid_edges)


SMALL_PRIMES = [p for p in range(2, 114) if all(p % d for d in range(2, p))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gf_roots_equal_exhaustive_scan(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    field = FieldDescriptor(PRIME, p)
    residues = st.integers(0, p - 1)
    if data.draw(st.booleans()):  # a product of linear factors, repeats allowed
        coeffs = [1]
        for r in data.draw(st.lists(residues, min_size=1, max_size=6)):
            coeffs = [(a - r * b) % p for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs = [c * data.draw(st.integers(1, p - 1)) % p for c in coeffs]
    else:
        coeffs = data.draw(st.lists(residues, min_size=1, max_size=9))
    assume(any(coeffs))
    poly = [field.from_int(c) for c in coeffs]
    scan = [r for r in range(p)
            if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p == 0]
    assert roots(poly, field) == [field.from_int(r) for r in scan]
