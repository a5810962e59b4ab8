"""Exact linear algebra helpers.

Two flavors live here:

* row reduction / solving / null spaces and span bases over any of the
  coefficient fields (entries are Scalars, all arithmetic exact), all on
  one sparse echelon kernel, and
* integer lattice routines (Hermite normal form, kernels) used for quantum
  torus centers.

The echelon kernel keeps rows as dicts {key: nonzero Scalar} and a basis
as a dict pivot -> tail: the pivot's coefficient is 1 and is not stored,
and no tail holds another pivot (the basis is fully reduced). Reducing a
row therefore removes each pivot it holds with one subtraction, in any
order, and only nonzero entries are ever touched.

`solve`, `solve_each` and `nullspace` speak the kernel's format: a
matrix is a list of columns, each a dict {row key: Scalar} with any
hashable row keys, and a vector comes back as a dict {column index:
nonzero Scalar}. That is also the vector format of
`cancel.FiniteDimAlgebra`. `rref` keeps dense rows in and out; nothing
in the package calls it, and it stays for the tests and for the
benchmark's tracer, which patches it by name.
"""

from __future__ import annotations

from .scalars import FieldDescriptor, Scalar


def _subtract(row: dict, c: Scalar, other: dict) -> None:
    """row -= c * other, in place, dropping the entries that cancel."""
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


def reduce_row(pivots: dict, row: dict) -> dict:
    """Remove from `row`, in place, every pivot of the echelon basis."""
    for p in [p for p in row if p in pivots]:
        _subtract(row, row.pop(p), pivots[p])
    return row


def _insert(pivots: dict, row: dict, lead) -> None:
    """Add a reduced nonzero `row` to the basis with pivot `lead`, scaled
    to 1 there and back-substituted into the other rows. A row holding
    only its pivot has the empty tail: its coefficient is not inverted."""
    c = row.pop(lead)
    tail = row
    if tail:
        inv = c.inv()
        tail = {k: x * inv for k, x in tail.items()}
    for other in pivots.values():
        if lead in other:
            _subtract(other, other.pop(lead), tail)
    pivots[lead] = tail


def _echelon(rows) -> dict:
    """The fully reduced echelon basis of dict rows {column: nonzero
    Scalar}, as pivot -> tail; the pivot of a row is its least column.
    The rows are reduced in place."""
    pivots = {}
    for row in rows:
        row = reduce_row(pivots, row)
        if row:
            _insert(pivots, row, min(row))
    return pivots


def _transpose(columns: list[dict]) -> list[dict]:
    """The rows {column index: nonzero Scalar} of a matrix given by dict
    columns {row key: Scalar}."""
    rows = {}
    for j, col in enumerate(columns):
        for key, x in col.items():
            if not x.is_zero():
                rows.setdefault(key, {})[j] = x
    return list(rows.values())


def rref(rows: list[list[Scalar]], field: FieldDescriptor):
    """Reduced row echelon form. Returns (rows, pivot column list).

    Dense rows in and out; the elimination runs on the sparse kernel.
    The RREF is unique, so the order of elimination does not show in the
    result.
    """
    pivots = _echelon({c: x for c, x in enumerate(r) if not x.is_zero()} for r in rows)
    ncols = len(rows[0]) if rows else 0
    order = sorted(pivots)
    out = []
    for p in order:
        dense = [field.zero()] * ncols
        dense[p] = field.one()
        for c, x in pivots[p].items():
            dense[c] = x
        out.append(dense)
    return out, order


def solve(columns: list[dict], rhs: dict, field: FieldDescriptor):
    """Solve sum_j x_j columns[j] = rhs exactly.

    Columns and `rhs` are dicts {row key: Scalar}; a row key is any
    hashable and zero entries are dropped. Returns the solution as a dict
    {column index: nonzero Scalar} in ascending index, with the free
    variables set to zero, or None when there is none: in particular when
    `rhs` has a key that no column has.
    """
    return solve_each(columns, [rhs], field)[0]


def solve_each(columns: list[dict], rhss: list[dict], field: FieldDescriptor):
    """`solve` for every right-hand side of `rhss`, from one elimination
    of the columns followed by all of them: the list of the solutions,
    None for each inconsistent one."""
    n = len(columns)
    pivots = _echelon(_transpose(columns + rhss))
    order = sorted(pivots)
    out = []
    for r in range(n, n + len(rhss)):
        # a column that is no pivot is the combination of the pivot
        # columns before it with the coefficients its rows hold; it is in
        # the span of `columns` when none of them is a right-hand side
        x = {c: pivots[c][r] for c in order if r in pivots[c]}
        out.append(None if r in pivots or (x and max(x) >= n) else x)
    return out


def nullspace(columns: list[dict], field: FieldDescriptor):
    """Basis of the right null space of the matrix with dict columns
    {row key: Scalar}, as dicts {column index: nonzero Scalar}.

    One vector per free column f, in ascending f: x_f = 1, zero at the
    other free columns. With no nonzero entry every column is free.
    """
    pivots = _echelon(_transpose(columns))
    one = field.one()
    basis = {f: {f: one} for f in range(len(columns)) if f not in pivots}
    for c, tail in pivots.items():
        for f, x in tail.items():  # a tail holds free columns only
            basis[f][c] = -x
    return [dict(sorted(v.items())) for v in basis.values()]


class SpanBasis:
    """A linear span of elements keyed by monomials, kept in reduced
    echelon form with respect to a fixed monomial order.

    `order_key` maps a monomial to a sortable key; the pivot of an element
    is its largest monomial. Elements are dicts monomial -> Scalar.
    """

    def __init__(self, field: FieldDescriptor, order_key):
        self.field = field
        self.order_key = order_key
        self.pivots: dict = {}  # pivot monomial -> tail of its reduced row

    def __len__(self):
        return len(self.pivots)

    def reduce(self, terms: dict) -> dict:
        """Fully reduce `terms` against the basis; returns the remainder."""
        return reduce_row(self.pivots, {m: c for m, c in terms.items() if not c.is_zero()})

    def add(self, terms: dict) -> bool:
        """Insert an element; returns True if the span grew."""
        rem = self.reduce(terms)
        if not rem:
            return False
        _insert(self.pivots, rem, max(rem, key=self.order_key))
        return True

    def contains(self, terms: dict) -> bool:
        return not self.reduce(terms)

    def basis_rows(self):
        """Reduced basis rows in descending pivot order (canonical)."""
        one = self.field.one()
        return [
            {p: one} | self.pivots[p]
            for p in sorted(self.pivots, key=self.order_key, reverse=True)
        ]

    def copy(self) -> "SpanBasis":
        out = SpanBasis(self.field, self.order_key)
        out.pivots = {p: dict(row) for p, row in self.pivots.items()}
        return out


# ---------------------------------------------------------------------------
# integer lattices


def hnf_row(mat: list[list[int]]):
    """Row-style Hermite normal form of an integer matrix.

    Returns the list of nonzero HNF rows: row-echelon, positive pivots,
    entries above each pivot reduced into [0, pivot).
    """
    m = [list(r) for r in mat]
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # clear below via Euclid
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                if abs(m[i][c]) < abs(m[r][c]):
                    m[r], m[i] = m[i], m[r]
                f = m[i][c] // m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            f = m[i][c] // m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return [row for row in m[:r] if any(row)]


def integer_kernel(mat: list[list[int]]):
    """Basis (list of integer vectors) of {x : mat @ x = 0} over Z."""
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
