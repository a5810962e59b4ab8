import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewcalc import cancel, cli
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
from skewcalc.poly import roots
from skewcalc.divisor import divisor_closure
from skewcalc.presentation import Morphism, identity_morphism
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor, scalar_parse
from test_golden_cli import _FIELDS, _MODULI
from test_linalg import ref_solve, sparse, to_dense

Q = FieldDescriptor(RATIONAL)
F2 = FieldDescriptor(PRIME, 2)
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
    dec = local_decomposition(univariate_quotient(field, _q(field, *coeffs)))
    assert len(dec["factors"]) == count
    assert len(calls) <= 2 * count - 1


def test_local_decomposition_with_nilpotents():
    a = direct_product(
        univariate_quotient(Q, _q(Q, 0, 0, 1)), scalar_field_algebra(Q)
    )
    dec = local_decomposition(a)
    assert dec["status"] == "DECOMPOSED"
    assert len(dec["factors"]) == 2


def test_idempotent_lifting_names_its_step_cap(monkeypatch):
    a = univariate_quotient(Q, _q(Q, 0, 0, -1, 1))  # k[x]/(x^2 (x - 1))
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
    assert out["status"] == "FALSE"
    assert units_generated(laurent(2, Q))["status"] == "TRUE"


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


def test_commutative_quotient_names_its_degree_cap(monkeypatch):
    # k[x, y]/(xy) is infinite dimensional: every power of x survives
    with pytest.raises(ResourceLimitError, match="MAX_QUOTIENT_DEGREE = 60") as err:
        commutative_quotient(Q, ["x", "y"], [(1, 1)], {})
    assert err.value.details == {"cap": "MAX_QUOTIENT_DEGREE", "limit": 60}
    # the cap bounds the degree of a basis monomial, not the dimension
    monkeypatch.setattr(cancel, "MAX_QUOTIENT_DEGREE", 1)
    assert commutative_quotient(Q, ["x", "y"], [(2, 0), (1, 1), (0, 2)], {}).dim == 3
    with pytest.raises(ResourceLimitError, match="MAX_QUOTIENT_DEGREE = 1"):
        commutative_quotient(Q, ["x"], [(3,)], {})


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
