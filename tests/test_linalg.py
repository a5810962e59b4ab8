"""The sparse echelon kernel against the dense Gaussian elimination it
replaced, kept here verbatim as the reference, the scaled sparse sum
`add_scaled` against dense sums and the loops it replaced, and the
structure-constant products of finite-dimensional algebras against dense
products, and the lattice kernel read from a Hermite normal form against
the column operations it replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc.cancel import (
    direct_product,
    nilradical,
    quotient_by_ideal,
    univariate_quotient,
)
from skewcalc import invariants
from skewcalc.linalg import (
    SpanBasis,
    add_scaled,
    hnf_row,
    integer_kernel,
    nullspace,
    rref,
    solve,
    solve_each,
)
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATFUNC_Q, RATIONAL, FieldDescriptor

FIELDS = (
    [(RATIONAL, None), (PRIME, 7), (PRIME, 32003), (RATFUNC_Q, None)]
    + [(CYCLOTOMIC, l) for l in range(3, 6)]
)
ORACLE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                           database=None)


# ---------------------------------------------------------------------------
# the dense reference


def ref_rref(rows, field):
    """Reduced row echelon form. Returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def ref_solve(matrix, rhs, field):
    if not matrix:
        return None if any(not v.is_zero() for v in rhs) else []
    ncols = len(matrix[0])
    aug = [row + [v] for row, v in zip(matrix, rhs)]
    red, pivots = ref_rref(aug, field)
    if ncols in pivots:
        return None  # inconsistent
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def ref_nullspace(matrix, field):
    if not matrix or not matrix[0]:
        return []
    ncols = len(matrix[0])
    red, pivots = ref_rref(matrix, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -red[r][free]
        basis.append(v)
    return basis


def columns_of(matrix):
    """The dict columns {row index: Scalar} of dense rows, zeros kept."""
    ncols = len(matrix[0]) if matrix else 0
    return [{r: row[c] for r, row in enumerate(matrix)} for c in range(ncols)]


def sparse(v):
    """A dense vector as the dict of its nonzero entries; None stays None."""
    return None if v is None else {i: x for i, x in enumerate(v) if not x.is_zero()}


def to_dense(v, n, field):
    """The dense list of a dict vector of length n."""
    return [v.get(i, field.zero()) for i in range(n)]


def ref_project(ideal_vectors, field, v):
    """The dense projection onto the free coordinates mod the ideal."""
    red, pivots = ref_rref([list(x) for x in ideal_vectors], field)
    pivot_set = set(pivots)
    free = [i for i in range(len(v)) if i not in pivot_set]
    v = list(v)
    for row, c in zip(red, pivots):
        coef = v[c]
        if not coef.is_zero():
            for i in range(len(v)):
                v[i] = v[i] - coef * row[i]
    return [v[i] for i in free]


def ref_mul(a, u, v):
    """The dense structure-constant product of dense u and v: one vector
    per term."""
    out = [a.field.zero()] * a.dim
    for i, ci in enumerate(u):
        if ci.is_zero():
            continue
        for j, cj in enumerate(v):
            if cj.is_zero():
                continue
            e_ij = to_dense(a.table[i][j], a.dim, a.field)
            out = [x + y for x, y in zip(out, [x * (ci * cj) for x in e_ij])]
    return out


def ref_mult_matrix(a, u):
    """Matrix of multiplication-by-u, columns indexed by basis."""
    cols = [to_dense(a.mul(u, a._e(j)), a.dim, a.field) for j in range(a.dim)]
    return [[cols[j][i] for j in range(a.dim)] for i in range(a.dim)]


def ref_trace_of_mult(a, u):
    """The trace of multiplication-by-u, read off its dense matrix."""
    m = ref_mult_matrix(a, u)
    out = a.field.zero()
    for i in range(a.dim):
        out = out + m[i][i]
    return out


# ---------------------------------------------------------------------------
# random, mostly sparse inputs


def _values(field):
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if field.kind in (RATFUNC_Q, CYCLOTOMIC):
        return st.tuples(small, small).map(
            lambda t: field.from_fraction(t[0]) + field.from_fraction(t[1]) * field.q()
        )
    return small.map(field.from_fraction)


def _sparse(field, size):
    """A vector of `size` entries, at most a third of them nonzero."""
    if not size:
        return st.just([])
    spots = st.tuples(st.integers(0, size - 1), _values(field))

    def fill(nonzeros):
        v = [field.zero()] * size
        for k, x in nonzeros:
            v[k] = x
        return v

    return st.lists(spots, max_size=(size + 2) // 3).map(fill)


@st.composite
def _matrices(draw, field, max_rows=7, max_cols=7):
    """Random sparse matrices, sometimes with a zero row and a row that is
    a combination of two others (so that rank falls short and right-hand
    sides can be inconsistent)."""
    m, n = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    flat = draw(_sparse(field, m * n))
    rows = [flat[i * n:(i + 1) * n] for i in range(m)]
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(_values(field)), draw(_values(field))
        rows.insert(draw(st.integers(0, len(rows))),
                    [s * x + t * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [field.zero()] * n)
    return rows


def _shapes(field):
    """Matrices of the edge shapes: empty, no columns, one row, one
    column, all zero, and an inconsistent pair of equal rows."""
    z, one, two = field.zero(), field.one(), field.from_int(2)
    return [
        ([], []),
        ([[]], [one]),
        ([[], []], [z, z]),
        ([[one, z, two, z, one]], [two]),
        ([[one], [two], [z], [one]], [one, two, z, one]),
        ([[z] * 4 for _ in range(3)], [z, one, z]),
        ([[one, one], [one, one]], [one, two]),
    ]


# ---------------------------------------------------------------------------
# the scaled sparse sum against dense sums and the loops it replaced


def ref_subtract(row, c, other):
    """row -= c * other, in place, dropping the entries that cancel: the
    echelon kernel's loop before `add_scaled`, kept verbatim as the
    reference for the order of the keys."""
    for k, x in other.items():
        y = row.get(k)
        if y is None:
            row[k] = -(c * x)
        else:
            y = y - c * x
            if y.is_zero():
                del row[k]
            else:
                row[k] = y


def ref_add(row, other):
    """row += other, in place: the loop of `Element.__add__` before
    `add_scaled`, kept verbatim."""
    for m, c in other.items():
        s = row.get(m)
        if s is None:
            row[m] = c
            continue
        s = s + c
        if s.is_zero():
            del row[m]
        else:
            row[m] = s


def _nonzero(field):
    return _values(field).filter(lambda x: not x.is_zero())


@st.composite
def _dict_vectors(draw, field, size):
    """A dict vector over keys 0..size-1, its keys in random order."""
    keys = draw(st.permutations(range(size)))[:draw(st.integers(0, size))]
    return {k: draw(_nonzero(field)) for k in keys}


@pytest.mark.parametrize("kind,param", FIELDS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_add_scaled_matches_dense_sums_and_the_old_key_order(kind, param, data):
    field = FieldDescriptor(kind, param)
    n = 8
    row = data.draw(_dict_vectors(field, n))
    old = dict(row)
    # three sums in a row, so that a key that cancels can come back
    for _ in range(3):
        other = data.draw(_dict_vectors(field, n))
        c = data.draw(st.none() | _nonzero(field))
        if row and data.draw(st.booleans()):  # make one entry cancel
            k = data.draw(st.sampled_from(sorted(row)))
            other[k] = -row[k] if c is None else -row[k] * c.inv()
        scaled = other if c is None else {k: c * x for k, x in other.items()}
        want = [x + y for x, y in zip(to_dense(row, n, field), to_dense(scaled, n, field))]
        assert add_scaled(row, other, c) is row
        assert to_dense(row, n, field) == want
        assert not any(x.is_zero() for x in row.values())
        if c is None:
            ref_add(old, other)
        else:
            ref_subtract(old, -c, other)
        assert list(row.items()) == list(old.items())


# ---------------------------------------------------------------------------
# rref, solve and nullspace against the reference


@pytest.mark.parametrize("kind,param", FIELDS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_rref_solve_nullspace_match_dense_reference(kind, param, data):
    field = FieldDescriptor(kind, param)
    matrix = data.draw(_matrices(field))
    cols = columns_of(matrix)
    assert rref(matrix, field) == ref_rref(matrix, field)
    assert nullspace(cols, field) == [sparse(v) for v in ref_nullspace(matrix, field)]
    rhs = data.draw(_sparse(field, len(matrix)))
    assert solve(cols, dict(enumerate(rhs)), field) == sparse(ref_solve(matrix, rhs, field))
    if matrix and matrix[0]:  # a consistent right-hand side: M times a vector
        x = data.draw(_sparse(field, len(matrix[0])))
        b = [sum((a * y for a, y in zip(row, x)), field.zero()) for row in matrix]
        got = solve(cols, dict(enumerate(b)), field)
        assert got is not None and got == sparse(ref_solve(matrix, b, field))
        # one elimination for all right-hand sides, in either order; the
        # sum of `rhs` and b depends on both and is consistent when `rhs` is
        dense = [rhs, b, [x + y for x, y in zip(rhs, b)]]
        rhss = [dict(enumerate(v)) for v in dense]
        expected = [sparse(ref_solve(matrix, v, field)) for v in dense]
        assert solve_each(cols, rhss, field) == expected
        assert solve_each(cols, rhss[::-1], field) == expected[::-1]


@pytest.mark.parametrize("kind,param", FIELDS)
def test_edge_shapes_match_dense_reference(kind, param):
    field = FieldDescriptor(kind, param)
    for matrix, rhs in _shapes(field):
        cols = columns_of(matrix)
        assert rref(matrix, field) == ref_rref(matrix, field)
        assert nullspace(cols, field) == [sparse(v) for v in ref_nullspace(matrix, field)]
        assert solve(cols, dict(enumerate(rhs)), field) == sparse(ref_solve(matrix, rhs, field))
    one, two = field.one(), field.from_int(2)
    assert solve([{0: one, 1: one}, {0: one, 1: one}], {0: one, 1: two}, field) is None
    assert solve([], {0: one}, field) is None
    assert solve_each([{0: one}], [], field) == []
    assert len(nullspace([{0: one}, {0: two}, {0: one}], field)) == 2


@pytest.mark.parametrize("kind,param", FIELDS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_solve_and_nullspace_ignore_row_names_and_order(kind, param, data):
    # row keys are any hashables and rows may arrive in any order; a
    # right-hand side with a key that no column has is inconsistent
    field = FieldDescriptor(kind, param)
    matrix = data.draw(_matrices(field))
    rhs = dict(enumerate(data.draw(_sparse(field, len(matrix)))))
    order = data.draw(st.permutations(range(len(matrix))))
    name = {r: ("row", k) for k, r in enumerate(order)}
    cols = columns_of(matrix)
    renamed = [{name[r]: col[r] for r in order} for col in cols]
    renamed_rhs = {name[r]: rhs[r] for r in order}
    assert nullspace(renamed, field) == nullspace(cols, field)
    assert solve(renamed, renamed_rhs, field) == solve(cols, rhs, field)
    assert solve(renamed, renamed_rhs | {("stray",): field.one()}, field) is None


@pytest.mark.parametrize("kind,param", FIELDS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_span_basis_spans_the_rref_row_space(kind, param, data):
    field = FieldDescriptor(kind, param)
    matrix = data.draw(_matrices(field))
    ncols = len(matrix[0]) if matrix else 0
    red, pivots = ref_rref(matrix, field)

    def dense(row):
        return [row.get(c, field.zero()) for c in range(ncols)]

    first = SpanBasis(field, lambda c: -c)  # pivot: first column, as in rref
    last = SpanBasis(field, lambda c: c)  # pivot: last column
    for span in (first, last):
        for row in matrix:
            span.add({c: x for c, x in enumerate(row) if not x.is_zero()})
        assert len(span) == len(pivots)
        rows = [dense(r) for r in span.basis_rows()]
        assert len(ref_rref(red + rows, field)[1]) == len(pivots)
        for row in red + matrix:
            assert span.contains({c: x for c, x in enumerate(row) if not x.is_zero()})
            assert not span.reduce({c: x for c, x in enumerate(row)})
    assert [dense(r) for r in first.basis_rows()] == red


def test_span_basis_of_one_term_rows_matches_the_dense_reference():
    """One-term rows with non-unit coefficients over cyclotomic(3): their
    pivots are not scaled, and the basis is the dense RREF all the same."""
    field = FieldDescriptor(CYCLOTOMIC, 3)
    q, ncols = field.q(), 8
    coefficients = [field.from_int(2) + q, q * q, field.from_fraction(Fraction(-3, 2)),
                    field.from_int(5) * q]
    rng = random.Random(20261019)
    for _ in range(20):
        matrix = []
        for _ in range(rng.randint(1, 10)):
            row = [field.zero()] * ncols
            for c in rng.sample(range(ncols), rng.choice((1, 1, 1, 2, 3))):
                row[c] = rng.choice(coefficients)
            matrix.append(row)
        span = SpanBasis(field, lambda c: -c)  # pivot: first column, as in rref
        for row in matrix:
            span.add({c: x for c, x in enumerate(row) if not x.is_zero()})
        dense = [to_dense(r, ncols, field) for r in span.basis_rows()]
        assert dense == ref_rref(matrix, field)[0]


# ---------------------------------------------------------------------------
# structure-constant products and the trace form of k[x]/(f)


@st.composite
def _quotients(draw, field):
    """k[x]/(f) for a random f of degree 1..4 with a nonzero lead."""
    degree = draw(st.integers(1, 4))
    coeffs = draw(_sparse(field, degree))
    lead = draw(_values(field).filter(lambda x: not x.is_zero()))
    return univariate_quotient(field, coeffs + [lead])


@pytest.mark.parametrize("kind,param", FIELDS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_trace_form_and_products_match_dense_reference(kind, param, data):
    field = FieldDescriptor(kind, param)
    a = data.draw(_quotients(field))
    if data.draw(st.booleans()):
        a = direct_product(a, data.draw(_quotients(field)))
    n = a.dim
    gram = [[ref_trace_of_mult(a, a.mul(a._e(i), a._e(j))) for j in range(n)]
            for i in range(n)]
    assert [to_dense(row, n, field) for row in a.trace_form()] == gram
    u = data.draw(st.lists(_values(field), min_size=n, max_size=n))
    v = data.draw(_sparse(field, n))
    assert to_dense(a.mul(sparse(u), sparse(v)), n, field) == ref_mul(a, u, v)
    assert to_dense(a.mul(sparse(u), sparse(u)), n, field) == ref_mul(a, u, u)


def test_trace_form_of_a_known_quotient():
    q = FieldDescriptor(RATIONAL)
    a = univariate_quotient(q, [q.from_int(c) for c in (-2, 0, 1)])  # x^2 = 2
    gram = [to_dense(row, 2, q) for row in a.trace_form()]
    assert gram == [[q.from_int(2), q.zero()], [q.zero(), q.from_int(4)]]
    assert gram[0][0] == ref_trace_of_mult(a, a.unit)
    b = univariate_quotient(q, [q.from_fraction(Fraction(1, 2)), q.one()])
    assert b.trace_form() == [{0: q.one()}]


def _poly_mul(a, b, field):
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@pytest.mark.parametrize("kind,param", FIELDS)
@settings(ORACLE_SETTINGS, max_examples=15)
@given(data=st.data())
def test_projection_mod_the_nilradical_matches_dense_reference(kind, param, data):
    """k[x]/(g^2 h) has a nonzero nilradical; projecting onto its quotient
    agrees with the dense projection and kills the ideal."""
    field = FieldDescriptor(kind, param)

    def monic(degree):
        return data.draw(st.lists(_values(field), min_size=degree, max_size=degree)) + [field.one()]

    g, h = monic(data.draw(st.integers(1, 2))), monic(data.draw(st.integers(0, 1)))
    a = univariate_quotient(field, _poly_mul(_poly_mul(g, g, field), h, field))
    ideal = nilradical(a)["basis"]
    assert ideal
    q, project, lift = quotient_by_ideal(a, ideal)
    for v in ideal:
        assert project(v) == {}
    dense_ideal = [to_dense(v, a.dim, field) for v in ideal]
    for _ in range(3):
        v = data.draw(st.lists(_values(field), min_size=a.dim, max_size=a.dim))
        w = project(sparse(v))
        assert to_dense(w, q.dim, field) == ref_project(dense_ideal, field, v)
        assert project(lift(w)) == w


# ---------------------------------------------------------------------------
# integer lattices


def ref_integer_kernel(mat: list[list[int]]):
    """The earlier kernel by column operations on mat, mirrored on an
    identity block, kept as the reference."""
    if not mat:
        return []
    rows, cols = len(mat), len(mat[0])
    # column operations on mat, mirrored on an identity block
    m = [list(r) for r in mat]
    u = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_swap(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]
        for row in u:
            row[a], row[b] = row[b], row[a]

    def col_addmul(dst, src, f):
        for row in m:
            row[dst] += f * row[src]
        for row in u:
            row[dst] += f * row[src]

    r = 0
    for i in range(rows):
        piv = next((j for j in range(r, cols) if m[i][j] != 0), None)
        if piv is None:
            continue
        col_swap(r, piv)
        for j in range(r + 1, cols):
            while m[i][j] != 0:
                if abs(m[i][j]) < abs(m[i][r]):
                    col_swap(r, j)
                f = m[i][j] // m[i][r]
                col_addmul(j, r, -f)
        r += 1
        if r == cols:
            break
    kernel = []
    for j in range(cols):
        if all(m[i][j] == 0 for i in range(rows)):
            kernel.append([u[i][j] for i in range(cols)])
    return kernel


def _is_hnf(rows) -> bool:
    """Row-echelon with no zero row, positive pivots, and the entries
    above each pivot in [0, pivot)."""
    last = -1
    for r, row in enumerate(rows):
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None or c <= last or row[c] <= 0:
            return False
        if any(not 0 <= rows[i][c] < row[c] for i in range(r)):
            return False
        last = c
    return True


def _integer_matrices(rng, count):
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        density = rng.random()
        yield [[rng.randint(-9, 9) if rng.random() < density else 0
                for _ in range(cols)] for _ in range(rows)]


def test_integer_kernel_matches_the_column_operation_reference():
    for mat in _integer_matrices(random.Random(7), 2000):
        kernel, ref = integer_kernel(mat), ref_integer_kernel(mat)
        for x in kernel:
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in mat)
        assert len(kernel) == len(ref)
        assert hnf_row(kernel) == hnf_row(ref)
        assert kernel == hnf_row(kernel)  # already in Hermite normal form
    assert integer_kernel([]) == ref_integer_kernel([]) == []


def test_hnf_row_is_an_echelon_basis_of_the_row_lattice():
    for mat in _integer_matrices(random.Random(11), 2000):
        h = hnf_row(mat)
        assert _is_hnf(h)
        assert hnf_row(mat + h) == h  # the same lattice: mat's rows add nothing
        assert hnf_row(h) == h
    assert hnf_row([]) == []
    assert not _is_hnf([[0, 2], [1, 0]]) and not _is_hnf([[2, 3], [0, 2]])


def test_center_torus_is_unchanged_by_the_kernel(monkeypatch):
    rng = random.Random(3)
    tori = []
    for _ in range(1000):
        n, l = rng.randint(1, 6), rng.randint(1, 30)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randint(-l, l)
                a[j][i] = -a[i][j]
        tori.append((n, l, a))
    outs = [invariants.center_torus(*t) for t in tori]
    monkeypatch.setattr(invariants, "integer_kernel", ref_integer_kernel)
    assert outs == [invariants.center_torus(*t) for t in tori]
