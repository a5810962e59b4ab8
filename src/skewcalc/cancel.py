"""Cancellation-property engine.

Four layers:

* finite-dimensional commutative algebras (nilradical via the trace
  form, von Neumann regularity, local decomposition, of k[x]/(f) by the
  Chinese remainder theorem from the factorization of f and otherwise
  through idempotent lifting, whether the units span the algebra by a
  count of the residue fields GF(2), bounded generating-set
  verification),
  on the dict vectors {basis index: nonzero Scalar} that `linalg` uses.
  They are built as quotients k[x_1..x_n]/(monomials, one f_v(x_v) per
  variable) by one constructor, `commutative_quotient`, which checks by
  Buchberger's criterion that the relations are a Gröbner basis and
  refuses an infinite quotient exactly; k[x]/(f) is its one-variable case;
* exact morphism and isomorphism verification between presentations:
  a map is a homomorphism when it respects every defining relation, and
  two homomorphisms are mutually inverse when each composite fixes every
  generator (status ISO_BOUNDED, an exact certificate);
* the rule engine: sufficient conditions R1..R11 with verdicts closed
  under the solid edges of the implication diagram, never the dotted
  ones;
* the executable counterexample registry behind the dotted edges.
"""

from __future__ import annotations

from operator import add

from . import poly
from .errors import (
    BadParamsError,
    MissingEvidenceError,
    ResourceLimitError,
    ValidationError,
)
from .linalg import SpanBasis, nullspace, solve, solve_each
from .presentation import (
    GeneratorInfo,
    Morphism,
    Presentation,
    broken_relations,
    commutator,
    ore_extend,
)
from .scalars import PRIME, RATIONAL, FieldDescriptor

# Newton steps `_lift_idempotent` takes before it gives up; each step
# doubles the power of the nilradical that the error lies in
MAX_LIFT_STEPS = 64

# passes of `verify_generating_set`, each multiplying the newest closure
# elements by every generator, before it gives up; every pass but the last
# adds a dimension to the closure
MAX_GENERATING_SET_PASSES = 64

# ---------------------------------------------------------------------------
# finite-dimensional commutative algebras
#
# A vector is a dict {basis index: nonzero Scalar}, the format `linalg`
# uses for columns and solutions, so vectors go to `solve`, `nullspace`
# and `SpanBasis` as they are. The zero vector is the empty dict.


def _lincomb(terms) -> dict:
    """The dict vector sum of c * v over the pairs (c, v) of `terms`; the
    entries that cancel are dropped."""
    # not `linalg.add_scaled`: zeros are dropped only at the end, so a key
    # that cancels and comes back keeps its first place. The idempotents
    # print in this order, and the benchmark's invariants digest shows it
    out = {}
    for c, v in terms:
        for k, x in v.items():
            y = out.get(k)
            out[k] = c * x if y is None else y + c * x
    return {k: x for k, x in out.items() if not x.is_zero()}


class FiniteDimAlgebra:
    """A commutative associative unital algebra of finite dimension,
    given by structure constants. The constructor checks commutativity
    on the whole table, then associativity by Light's test on a greedy
    generating set G of basis vectors, then the unit. Light's test makes
    n (n - 1) / 2 checks for each member of G that is not a unit, in
    place of the n^3 of the plain test: for k[x]/(f), G = {1, x} and 28
    checks at dim 8 where there were 512. `_lawful` builds an algebra
    without the check, for a table whose laws are proved by construction.

    `modulus` is the monic f when the algebra is k[x]/(f) on the basis
    1, x, ..., as `commutative_quotient` records it, and None otherwise."""

    modulus = None

    def __init__(self, field, basis_names, table, unit):
        self._store(field, basis_names, table, unit)
        self._check_laws()

    @classmethod
    def _lawful(cls, field, basis_names, table, unit) -> "FiniteDimAlgebra":
        """The algebra of a table whose laws are already proved, with no
        `_check_laws`: `commutative_quotient` reduces by relations it has
        shown a Gröbner basis, so its table is the multiplication of
        k[vars]/I on a basis of standard monomials, commutative and
        associative with unit 1 by construction."""
        a = cls.__new__(cls)
        a._store(field, basis_names, table, unit)
        return a

    def _store(self, field, basis_names, table, unit):
        self.field = field
        self.basis_names = tuple(basis_names)
        n = self.dim
        if len(table) != n or any(len(row) != n for row in table):
            raise BadParamsError("structure-constant table has wrong shape")
        # table[i][j] = product e_i*e_j as a dict vector, the only store
        self.table = [[self._vector(v) for v in row] for row in table]
        self.unit = self._vector(unit)

    @property
    def dim(self):
        return len(self.basis_names)

    def _vector(self, v) -> dict:
        """A dict vector given from outside, with its zero entries dropped
        so that equal algebras compare equal."""
        if not isinstance(v, dict) or any(k not in range(self.dim) for k in v):
            raise BadParamsError(
                f"a vector must be a dict with keys in range({self.dim})"
            )
        return {k: x for k, x in v.items() if not x.is_zero()}

    def _check_laws(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                if self.table[i][j] != self.table[j][i]:
                    raise BadParamsError("algebra is not commutative")
        # Light's test: the a with (x*a)*y = x*(a*y) for all x, y form a
        # subalgebra, so checking the a of a generating set decides
        # associativity. By commutativity the check for (x, y) is the one
        # for (y, x) and holds for x = y, so the pairs i < k suffice
        for g in self._generators():
            if all(self.table[g][k] == self._e(k) for k in range(n)):
                continue  # e_g is a unit: (x*e_g)*y = x*y = x*(e_g*y)
            for i in range(n):
                left = self.table[i][g]
                for k in range(i + 1, n):
                    lhs = self.mul(left, self._e(k))
                    rhs = self.mul(self._e(i), self.table[g][k])
                    if lhs != rhs:
                        raise BadParamsError("algebra is not associative")
        for i in range(n):
            if self.mul(self.unit, self._e(i)) != self._e(i):
                raise BadParamsError("unit is not a unit")

    def _generators(self) -> list:
        """Basis indices G that generate the algebra, unit or not, picked
        greedily: e_g joins G when it is outside the span of the products
        of the earlier members, and that span is then closed under left
        multiplication by G. Every basis vector ends up in the span, so G
        generates whatever the table is; the span holds products of G
        only, so no law is assumed."""
        n = self.dim
        span = SpanBasis(self.field, lambda i: i)
        gens, products, work = [], [], []

        def grow(v):  # v is a product of members of G
            if span.add(v):
                products.append(v)
                work.extend((h, v) for h in gens)

        for g in range(n):
            if len(span) == n:
                break
            if span.contains(self._e(g)):
                continue
            work.extend((g, v) for v in products)
            gens.append(g)
            grow(self._e(g))
            while work and len(span) < n:
                h, v = work.pop()
                grow(self.mul(self._e(h), v))
        return gens

    def _e(self, i):
        return {i: self.field.one()}

    def mul(self, u, v):
        table = self.table
        return _lincomb(
            [(ci * cj, table[i][j]) for i, ci in u.items() for j, cj in v.items()]
        )

    def trace_form(self):
        """Gram matrix tr(e_i e_j) of the trace form as dict rows, from the
        basis traces t_k = sum_l c_kl^l: tr(e_i e_j) = sum_k c_ij^k t_k."""
        zero = self.field.zero()
        t = [sum((e.get(l, zero) for l, e in enumerate(row)), zero) for row in self.table]

        def trace(v):  # the trace of multiplication by v
            return sum((c * t[k] for k, c in v.items()), zero)

        grams = ([(j, trace(e)) for j, e in enumerate(row)] for row in self.table)
        return [{j: x for j, x in g if not x.is_zero()} for g in grams]

    def power(self, u, n: int):
        """u^n for n >= 1, by repeated squaring."""
        out = u
        for bit in bin(n)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, u)
        return out

    def is_nilpotent(self, u) -> bool:
        v = u
        for _ in range(self.dim.bit_length() + 1):
            if not v:
                return True
            v = self.mul(v, v)
        return not v

    def min_poly(self, u, v=None) -> list:
        """The monic p of least degree with p(u)*v = 0, as an ascending
        coefficient list; v is nonzero and defaults to the unit, which
        gives the minimal polynomial of u."""
        current = self.unit if v is None else v
        powers = [current]
        span = SpanBasis(self.field, lambda i: i)
        span.add(current)
        while True:
            current = self.mul(current, u)
            if span.contains(current):
                sol = solve(powers, current, self.field)
                coeffs = [sol.get(j, self.field.zero()) for j in range(len(powers))]
                return poly.trim([-c for c in coeffs] + [self.field.one()])
            span.add(current)
            powers.append(current)

    def describe(self):
        return {"dim": self.dim, "basis": list(self.basis_names)}


def univariate_quotient(field, coeffs) -> FiniteDimAlgebra:
    """k[x]/(f) for a monic-izable f given by ascending coefficients."""
    return commutative_quotient(field, ["x"], [], {0: coeffs})


def commutative_quotient(field, var_names, monomial_rels, univariate_rels) -> FiniteDimAlgebra:
    """k[vars] / (monomial relations + at most one univariate relation per
    variable), on the standard monomials in (degree, exponents) order.

    `monomial_rels`: exponent tuples x^r that are set to zero.
    `univariate_rels`: var index v -> ascending coefficient list of a
    monic-izable f_v(x_v) of degree >= 1.

    The relations must be a Gröbner basis. In every monomial order their
    leading terms are the x^r and the x_v^deg(f_v), so by Buchberger's
    criterion (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms,
    2.6 and 2.9) only the S-polynomials of x^r and f_v with r_v >= 1 need
    to reduce to 0: the other pairs are two monomials or have coprime
    leading terms. A pair that does not is refused. The quotient is then
    finite dimensional exactly when a pure power of every variable is a
    leading term.
    """
    one, zero = field.one(), field.zero()
    nv = len(var_names)
    uni = {}
    for v, coeffs in (univariate_rels or {}).items():
        if v not in range(nv):
            raise BadParamsError(f"univariate relation {v}: no variable has that index")
        coeffs = poly.trim(list(coeffs))
        if len(coeffs) < 2:
            raise BadParamsError(
                f"univariate relation of {var_names[v]} must have degree >= 1")
        inv = coeffs[-1].inv()
        uni[v] = [c * inv for c in coeffs]
    rels = [tuple(r) for r in monomial_rels]
    for r in rels:
        if len(r) != nv or not any(r) or min(r) < 0:
            raise BadParamsError(
                f"monomial relation {r}: needs {nv} exponents >= 0, not all 0")
    leads = rels + [tuple(len(f) - 1 if w == v else 0 for w in range(nv))
                    for v, f in uni.items()]

    def standard(m):
        return not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)

    def power(v, e):  # x_v^e mod f_v, as {exponent: coefficient}
        if v not in uni or e < len(uni[v]) - 1:
            return {e: one}
        _, r = poly.divmod([zero] * e + [one], uni[v], field)
        return {k: c for k, c in enumerate(r) if not c.is_zero()}

    def normal_form(m):  # x^m, as {standard monomial: coefficient}
        terms = {(): one}
        for v, e in enumerate(m):  # () has coefficient one: nothing to multiply
            terms = {t + (k,): c * ck if t else ck for t, c in terms.items()
                     for k, ck in power(v, e).items()}
        return {t: c for t, c in terms.items() if standard(t)}

    for r in rels:
        for v, f in uni.items():
            if r[v]:
                # S(x^r, f_v) = -x^s (f_v - x_v^d), s = r with s_v = max(r_v - d, 0)
                d = len(f) - 1
                s = [r[:v] + (max(r[v] - d, 0) + k,) + r[v + 1:] for k in range(d)]
                if _lincomb(zip(f, map(normal_form, s))):
                    raise BadParamsError(
                        "relations are not a Gröbner basis: the S-polynomial of "
                        f"monomial relation {r} and the univariate relation of "
                        f"{var_names[v]} does not reduce to 0")
    for v, name in enumerate(var_names):
        if not any(lead[v] == sum(lead) for lead in leads if lead[v]):
            raise BadParamsError(
                "quotient is not finite dimensional: no relation bounds "
                f"the powers of {name}")

    # the standard monomials are closed under division, so each is found
    # once, from the one with its last nonzero exponent lowered
    basis = [(0,) * nv]
    for m in basis:
        last = max((v for v in range(nv) if m[v]), default=0)
        for v in range(last, nv):
            mm = m[:v] + (m[v] + 1,) + m[v + 1:]
            if standard(mm):
                basis.append(mm)
    basis.sort(key=lambda m: (sum(m), m))
    index = {b: i for i, b in enumerate(basis)}
    vectors = {}  # x^m -> its normal form over the basis, one reduction per monomial

    def vector(m):
        if m not in vectors:
            vectors[m] = {index[t]: c for t, c in normal_form(m).items()}
        return vectors[m]

    table = [[vector(tuple(map(add, bi, bj))) for bj in basis] for bi in basis]

    def name_of(m):
        if not any(m):
            return "1"
        return "*".join(
            f"{var_names[v]}^{e}" if e > 1 else var_names[v]
            for v, e in enumerate(m) if e
        )

    a = FiniteDimAlgebra._lawful(field, [name_of(m) for m in basis], table, {0: one})
    if nv == 1 and not rels:
        a.modulus = uni[0]
    return a


def direct_product(a: FiniteDimAlgebra, b: FiniteDimAlgebra) -> FiniteDimAlgebra:
    if a.field != b.field:
        raise BadParamsError("factors must share the field")
    n = a.dim
    names = [f"({x},0)" for x in a.basis_names] + [f"(0,{x})" for x in b.basis_names]

    def shift(v):  # b's vector in the second block
        return {n + k: c for k, c in v.items()}

    table = [row + [{}] * b.dim for row in a.table]
    table += [[{}] * n + [shift(v) for v in row] for row in b.table]
    return FiniteDimAlgebra(a.field, names, table, a.unit | shift(b.unit))


def scalar_field_algebra(field) -> FiniteDimAlgebra:
    """The field itself, as k[x]/(x)."""
    return univariate_quotient(field, [field.zero(), field.one()])


# -- nilradical and friends -------------------------------------------------


def nilradical(a: FiniteDimAlgebra) -> dict:
    """The nilradical, exact in every characteristic. It lies in the
    radical R of the trace form, which in characteristic 0 equals it. In
    characteristic p, x -> x^n with n = p^k >= dim is GF(p)-linear on R,
    and its kernel is exactly the nilpotent elements of R. Every basis
    vector is re-verified nilpotent."""
    # the trace form is symmetric: its rows are its columns
    vectors = nullspace(a.trace_form(), a.field)
    n = p = a.field.characteristic()
    if p:
        while n < a.dim:
            n *= p
        images = [a.power(v, n) for v in vectors]
        vectors = [
            _lincomb((c, vectors[k]) for k, c in cs.items())
            for cs in nullspace(images, a.field)
        ]
    for v in vectors:
        if not a.is_nilpotent(v):
            raise ValidationError(
                "nilradical basis vector is not nilpotent", code="NILRADICAL_NOT_NILPOTENT"
            )
    return {"basis": vectors, "certified": True, "note": None}


def is_vnr(a: FiniteDimAlgebra) -> bool:
    """Reduced == von Neumann regular in Krull dimension zero."""
    return not nilradical(a)["basis"]


def quotient_by_ideal(a: FiniteDimAlgebra, ideal_vectors: list):
    """Quotient algebra, with the projection and one linear section."""
    if not ideal_vectors:
        return a, dict, dict  # both maps are the identity (on copies)
    span = SpanBasis(a.field, lambda i: -i)  # pivot: first coordinate
    for v in ideal_vectors:
        span.add(v)
    free = [i for i in range(a.dim) if i not in span.pivots]
    position = {i: k for k, i in enumerate(free)}

    def project(v):  # the remainder holds free coordinates only
        return {position[i]: c for i, c in span.reduce(v).items()}

    def lift(w):
        return {free[k]: c for k, c in w.items()}

    names = [a.basis_names[i] for i in free]
    table = [[project(a.table[i][j]) for j in free] for i in free]
    q = FiniteDimAlgebra(a.field, names, table, project(a.unit))
    return q, project, lift


def _split_idempotent(q: FiniteDimAlgebra, e):
    """Try to split idempotent e in q using the minimal polynomial of
    some e*b; returns (e1, e2) or None."""
    field = q.field
    one = field.one()
    if not e:
        return None
    dim = None  # dim(e*q), counted at the first minimal polynomial with no root
    for j in range(q.dim):
        u = q.mul(e, q._e(j))
        # minimal polynomial of u acting on e*q
        minp = q.min_poly(u, e)
        if len(minp) <= 2:
            continue
        found = poly.roots(minp, field)
        for lam in found:
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
                e1 = _lincomb([(one, q.mul(e1, u)), (c, e)])
            e2 = _lincomb([(one, e), (-one, e1)])
            if (
                q.mul(e1, e1) == e1
                and q.mul(e2, e2) == e2
                and not q.mul(e1, e2)
                and e1
                and e2
            ):
                return e1, e2
        if not found:
            if dim is None:
                rank = SpanBasis(field, lambda i: i)
                dim = sum(rank.add(q.mul(e, q._e(i))) for i in range(q.dim))
            if len(minp) - 1 == dim and poly.irreducible(minp, field):
                return None  # e*q = k[u] is a field: no element splits e
    return None


def _lift_idempotent(a: FiniteDimAlgebra, e0):
    """Newton lifting e <- 3e^2 - 2e^3 through the nilradical."""
    three, minus_two = a.field.from_int(3), a.field.from_int(-2)
    e = e0
    for _ in range(MAX_LIFT_STEPS):
        e2 = a.mul(e, e)
        if e2 == e:
            return e
        e = _lincomb([(three, e2), (minus_two, a.mul(e2, e))])
    raise ResourceLimitError(
        f"idempotent lifting did not converge within "
        f"MAX_LIFT_STEPS = {MAX_LIFT_STEPS} steps",
        cap="MAX_LIFT_STEPS", limit=MAX_LIFT_STEPS)


def _subalgebra_on_idempotent(a: FiniteDimAlgebra, e):
    """The unital algebra e*a with unit e, on the basis `chosen` of the
    independent e*e_j; returns it with `chosen`. For e = 1 that is `a`
    itself on its own basis."""
    if e == a.unit:
        return a, [a._e(j) for j in range(a.dim)]
    span = SpanBasis(a.field, lambda i: i)
    chosen = []
    for j in range(a.dim):
        w = a.mul(e, a._e(j))
        if span.add(w):
            chosen.append(w)
    # e*a is commutative (as `a` is, checked or proved): solve the products
    # u*v for u <= v, and e, in one elimination and mirror the rest
    n = len(chosen)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    coords = solve_each(
        chosen, [a.mul(chosen[i], chosen[j]) for i, j in pairs] + [e], a.field)
    if None in coords:
        raise ValidationError("element not in the idempotent factor")
    table = [[None] * n for _ in range(n)]
    for (i, j), x in zip(pairs, coords):
        table[i][j] = table[j][i] = x
    names = [f"b{k}" for k in range(n)]
    return FiniteDimAlgebra(a.field, names, table, coords[-1]), chosen


def _certify_local(f: FiniteDimAlgebra):
    """True if f is certifiably local (f / N(f) is a field)."""
    nil = nilradical(f)
    q, _, _ = quotient_by_ideal(f, nil["basis"])
    if q.dim == 1:
        return True
    for j in range(q.dim):
        minp = q.min_poly(q._e(j))
        if len(minp) - 1 == q.dim:
            # q = k[e_j]; `roots` is complete over GF(p) and Q: all agree there
            irr = poly.irreducible(minp, q.field)
            if irr is not None or q.field.kind in (PRIME, RATIONAL):
                return irr
    return None


def _crt_decomposition(a: FiniteDimAlgebra):
    """The decomposition of a = k[x]/(f) read off f = prod h^m, the h
    irreducible (`poly.factorization`), or None when a factor is left
    undecided. By the Chinese remainder theorem a is the product of the
    k[x]/(P), P = h^m; the idempotent of P is s (f / P) mod f, with
    s (f / P) = 1 mod P by Bezout. Each k[x]/(h^m) is local, with maximal
    ideal (h) and residue field k[x]/(h), and the nilradical of a is
    (rad f) / (f), exact from the factorization. The idempotents are
    checked as polynomials mod f."""
    field, f = a.field, a.modulus
    parts = poly.factorization(f, field)
    if parts is None:
        return None
    one = field.one()

    def mod_f(g):
        return poly.divmod(g, f, field)[1]

    powers, idems, product = [], [], [one]
    for h, m in parts:
        power = [one]
        for _ in range(m):
            power = poly.mul(power, h, field)
        cofactor = poly.divmod(f, power, field)[0]
        s = poly.xgcd(cofactor, power, field)[1]
        powers.append(power)
        idems.append(mod_f(poly.mul(s, cofactor, field)))
        product = poly.mul(product, power, field)
    if product != f:
        raise ValidationError("the factors do not multiply to the modulus")
    for i, e in enumerate(idems):
        if mod_f(poly.mul(e, e, field)) != e:
            raise ValidationError("an idempotent is not idempotent")
        if any(mod_f(poly.mul(e, d, field)) for d in idems[i + 1:]):
            raise ValidationError("idempotents not orthogonal")
    vectors = [{k: c for k, c in enumerate(e) if not c.is_zero()} for e in idems]
    if _lincomb((one, e) for e in vectors) != a.unit:
        raise ValidationError("idempotents do not sum to 1")
    factors = [{"algebra": a if len(parts) == 1 else univariate_quotient(field, power),
                "idempotent": e, "local_certified": True}
               for power, e in zip(powers, vectors)]
    return {"status": "DECOMPOSED", "factors": factors, "idempotents": vectors,
            "nilradical_certified": True}


def local_decomposition(a: FiniteDimAlgebra) -> dict:
    """Orthogonal primitive idempotents and their local factors.

    On k[x]/(f) (`a.modulus` set) the factors come from the factorization
    of f by the Chinese remainder theorem (`_crt_decomposition`): the
    linear factors in the order `poly.roots` gives the roots of f, then
    the others by multiplicity; each factor's algebra is k[x]/(h^m) on
    the basis 1, x, ..., or `a` itself when f has one irreducible factor.
    Every factor is then certified local. Anywhere else, and when
    `poly.irreducible` leaves a factor of f undecided, idempotents are
    split on roots of minimal polynomials in a / N(a), lifted through
    the nilradical by Newton steps, and each factor is the algebra e*a,
    certified local where `_certify_local` decides it."""
    if a.modulus is not None:
        dec = _crt_decomposition(a)
        if dec is not None:
            return dec
    nil = nilradical(a)
    q, project, lift = quotient_by_ideal(a, nil["basis"])
    # a worklist in creation order: an idempotent that does not split is
    # final, as `_split_idempotent` is deterministic in (q, e)
    idems_q, pending = [], [q.unit]
    while pending:
        e = pending.pop(0)
        split = _split_idempotent(q, e)
        if split is None:
            idems_q.append(e)
        else:
            pending.extend(split)
    idems = [_lift_idempotent(a, lift(e)) for e in idems_q]
    if _lincomb((a.field.one(), e) for e in idems) != a.unit:
        raise ValidationError("idempotents do not sum to 1")  # pragma: no cover
    for i, e in enumerate(idems):
        for jj, f in enumerate(idems):
            if i != jj and a.mul(e, f):
                raise ValidationError("idempotents not orthogonal")  # pragma: no cover
    factors = []
    all_local = True
    for e in idems:
        fac, _ = _subalgebra_on_idempotent(a, e)
        local = _certify_local(fac)
        if local is not True:
            all_local = False
        factors.append({"algebra": fac, "idempotent": e, "local_certified": local})
    return {
        "status": "DECOMPOSED" if all_local else "NOT_DECOMPOSED",
        "factors": factors,
        "idempotents": idems,
        "nilradical_certified": nil["certified"],
    }


def units_generated(a) -> dict:
    """Whether the units span `a`: TRUE or FALSE with a witness for a
    FiniteDimAlgebra; for a Presentation, TRUE by its family name or
    UNKNOWN.

    A finite-dimensional commutative algebra A is spanned by its units
    exactly when at most one of its local factors has residue field GF(2)
    (cf. Vamos, "2-good rings", Q. J. Math. 2005). A local factor is
    spanned by its units, as r in m is (1 + r) - 1. A factor whose residue
    field has more than two elements has a unit lam with lam - 1 a unit,
    so its idempotent (lam - 1)^-1 ((lam, 1, ..., 1) - 1) lies in the span
    of the units, which is closed under products. Two factors with residue
    field GF(2) send every unit to (1, 1) in GF(2) x GF(2). The witness is
    the number of residue fields GF(2): 0 over any other field. Over GF(2)
    it is the number of algebra maps A -> GF(2), dim A/I for I the span of
    the (e_i^2 + e_i) e_j: a -> a^2 + a is linear in characteristic 2, and
    A/I is Boolean, so A/I = GF(2)^r."""
    if isinstance(a, Presentation):
        if a.family in ("LAURENT", "QUANTUM_TORUS"):
            witness = [f"{g.name}^(+-1)" for g in a.gens]
            return {"status": "TRUE", "witness": witness, "mode": "structural"}
        return {"status": "UNKNOWN", "witness": None, "mode": "structural"}
    field, r = a.field, 0
    if field.kind == PRIME and field.param == 2:
        ideal = SpanBasis(field, lambda i: i)
        for i in range(a.dim):
            f = _lincomb([(field.one(), a.table[i][i]), (field.one(), a._e(i))])
            for j in range(a.dim):
                ideal.add(a.mul(f, a._e(j)))
        r = a.dim - len(ideal)
    return {"status": "TRUE" if r <= 1 else "FALSE", "witness": r, "mode": "residue_fields"}


# ---------------------------------------------------------------------------
# bounded generating-set verification (polynomial rings over a finite-
# dimensional commutative base)


def verify_generating_set(b: FiniteDimAlgebra, n: int, f_list: list, degree_cap: int) -> dict:
    """f_list: polynomials over b in t_1..t_n, each a dict mapping a
    t-exponent tuple to a coefficient, a dict vector of b. GENERATES iff every
    t_i lies in the bounded closure of b and the f's."""
    field = b.field
    if len(f_list) != n:
        raise BadParamsError("need exactly n polynomials")
    one = field.one()

    def poly_mul(u, v):
        terms = {}  # t-exponent -> the coefficient products landing there
        for e1, c1 in u.items():
            for e2, c2 in v.items():
                e = tuple(a + bb for a, bb in zip(e1, e2))
                if sum(e) > degree_cap:
                    return None  # degree overflow: discard whole product
                terms.setdefault(e, []).append((one, b.mul(c1, c2)))
        out = {e: _lincomb(t) for e, t in terms.items()}
        return {e: c for e, c in out.items() if c}

    def coords(poly):
        return {(e, i): c for e, vec in poly.items() for i, c in vec.items()}

    order_key = lambda key: (sum(key[0]), key[0], key[1])
    span = SpanBasis(field, order_key)
    gens = []
    zero_exp = (0,) * n
    for j in range(b.dim):
        gens.append({zero_exp: b._e(j)})
    for f in f_list:
        if any(sum(e) > degree_cap for e in f):
            raise BadParamsError("f exceeds the degree cap")
        gens.append(dict(f))
    frontier = []
    for g in gens:
        if span.add(coords(g)):
            frontier.append(g)
    for _ in range(MAX_GENERATING_SET_PASSES):
        new_frontier = []
        for u in frontier:
            for g in gens:
                prod = poly_mul(u, g)
                if prod is None or not prod:
                    continue
                if span.add(coords(prod)):
                    new_frontier.append(prod)
        if not new_frontier:
            break
        frontier = new_frontier
    else:
        raise ResourceLimitError(
            f"generating-set closure did not stabilize within "
            f"MAX_GENERATING_SET_PASSES = {MAX_GENERATING_SET_PASSES} passes",
            cap="MAX_GENERATING_SET_PASSES", limit=MAX_GENERATING_SET_PASSES)
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        target = coords({e: b.unit})
        if not span.contains(target):
            return {"status": "INCONCLUSIVE", "missing": f"t{i + 1}"}
    return {"status": "GENERATES", "closure_dim": len(span)}


# ---------------------------------------------------------------------------
# morphism verification


def verify_morphism(m: Morphism) -> dict:
    """HOMOMORPHISM, exact, or FAIL with the first broken relation."""
    m.source.require_validated()
    m.target.require_validated()
    witness = next(broken_relations(m), None)
    if witness is not None:
        return {"status": "FAIL", "witness": witness}
    return {"status": "HOMOMORPHISM"}


def verify_isomorphism_bounded(m: Morphism, inverse_candidate: Morphism) -> dict:
    """Exact: ISO_BOUNDED when both maps are homomorphisms and each
    composite fixes every generator of its source. A homomorphism is
    determined by the images of the generators, so each composite is
    then the identity. The name and the status string are historical:
    nothing here is bounded."""
    for label, f in (("forward", m), ("inverse", inverse_candidate)):
        out = verify_morphism(f)
        if out["status"] != "HOMOMORPHISM":
            return {"status": "FAIL", "witness": f"{label} map: {out['witness']}"}
    for f, g in ((m, inverse_candidate), (inverse_candidate, m)):
        for gen in f.source.gens:
            back = g.apply(f.images[gen.name])
            if back != f.source.generator(gen.name):
                return {"status": "FAIL",
                        "witness": f"round trip moves {gen.name} to {back}"}
    return {"status": "ISO_BOUNDED"}


# ---------------------------------------------------------------------------
# verdicts and the rule engine


PROPERTIES = (
    "CANCELLATIVE",
    "STRONGLY_CANCELLATIVE",
    "UNIVERSALLY_CANCELLATIVE",
    "MORITA_CANCELLATIVE",
    "STRONGLY_MORITA_CANCELLATIVE",
    "UNIVERSALLY_MORITA_CANCELLATIVE",
    "DERIVED_CANCELLATIVE_STRONG",
    "SKEW_CANCELLATIVE",
    "STRONGLY_SKEW_CANCELLATIVE_STRATIFORM_SCOPE",
    "SIGMA_CANCELLATIVE_STRONG",
    "DELTA_CANCELLATIVE",
    "DELTA_CANCELLATIVE_STRONG_OPEN",
    "SIGMA_ALG_CANCELLATIVE_STRONG",
    "RETRACTABLE_STRONG",
)


class Verdict:
    def __init__(self, property: str, status: str, rule: str, paper_ref: str,
                 evidence: dict):
        self.property = property
        self.status = status  # PROVED | ASSERTED | INCONCLUSIVE | REFUTED_BY_EXAMPLE
        self.rule = rule
        self.paper_ref = paper_ref
        self.evidence = evidence


class ImplicationDAG:
    """Figure 1: the solid implications between the cancellation
    properties, and the dotted edges that fail, each with its example."""

    nodes = ("skew", "sigma", "sigma_alg", "delta", "cancellative")
    solid_edges = (
        ("skew", "sigma"),
        ("skew", "sigma_alg"),
        ("sigma", "cancellative"),
        ("sigma_alg", "delta"),
        ("delta", "cancellative"),
    )
    dotted_edges = (
        ("cancellative", "sigma", "ex5_5_2"),
        ("sigma", "skew", "ex5_5_1"),
        ("cancellative", "delta", "ex5_5_1"),
        ("delta", "sigma_alg", "ex5_5_2"),
        ("sigma", "delta", "ex5_5_2"),
        ("delta", "sigma", "ex5_5_1"),
    )


# the solid edges of Figure 1 at the property labels: property -> the
# properties it implies, each with its edge. Every edge keeps the strength
# tier, except that Theorem 0.9's consequence (sigma_alg -> delta) is
# recorded at the plain delta label; a plain skew verdict implies nothing.
_IMPLIES = {
    "STRONGLY_SKEW_CANCELLATIVE_STRATIFORM_SCOPE": (
        ("SIGMA_CANCELLATIVE_STRONG", "skew->sigma"),
        ("SIGMA_ALG_CANCELLATIVE_STRONG", "skew->sigma_alg"),
    ),
    "SIGMA_CANCELLATIVE_STRONG": (("STRONGLY_CANCELLATIVE", "sigma->cancellative"),),
    "SIGMA_ALG_CANCELLATIVE_STRONG": (("DELTA_CANCELLATIVE", "sigma_alg->delta"),),
    "DELTA_CANCELLATIVE": (("CANCELLATIVE", "delta->cancellative"),),
    "DELTA_CANCELLATIVE_STRONG_OPEN": (("STRONGLY_CANCELLATIVE", "delta->cancellative"),),
}


def _dag_close(verdicts: list) -> list:
    by_property = {v.property: v for v in verdicts}
    queue = list(verdicts)
    while queue:
        v = queue.pop()
        if v.status == "REFUTED_BY_EXAMPLE":
            continue
        for target, edge in _IMPLIES.get(v.property, ()):
            if target in by_property:
                continue
            derived = Verdict(
                property=target,
                status=v.status,
                rule=f"DAG({edge})",
                paper_ref="Figure 1",
                evidence={"from": v.property, "via_rule": v.rule},
            )
            by_property[target] = derived
            queue.append(derived)
    out = list(by_property.values())
    out.sort(key=lambda v: PROPERTIES.index(v.property))
    return out


def certify(p: Presentation, inputs: dict) -> list:
    """Fire every applicable rule, then close under the solid edges."""
    p.require_validated()
    verdicts = []
    flags = p.flags

    def flag_status(*names):
        """PROVED if every used flag is computation-backed, else ASSERTED."""
        for nm in names:
            prov = p.flag_provenance.get(nm, "")
            if not prov.startswith(("derived", "computed")):
                return "ASSERTED"
        return "PROVED"

    center = inputs.get("center")  # CenterBasis
    closure_one = inputs.get("closure_one")  # ClosureReport for F = {1}
    gk = inputs.get("gk")  # gk_estimate dict
    center_algebra = inputs.get("center_algebra")  # FiniteDimAlgebra model of Z
    center_is_laurent = inputs.get("center_is_laurent", False)
    closure_contains_center = inputs.get("closure_contains_center", False)
    closure_center_full = inputs.get("closure_center_full", False)

    # R1: trivial center
    if center is not None and len(center.basis) == 1 and (
        center.basis[0].degree() == 0
    ):
        exact = p.family in ("WEYL1",) and p.field.characteristic() == 0
        status = "PROVED" if exact else "ASSERTED"
        ev = {
            "center_dim": 1,
            "degree_bound": center.degree_bound,
            "exactness": "catalog" if exact else "bounded-only",
        }
        verdicts.append(Verdict("UNIVERSALLY_CANCELLATIVE", status, "R1", "Theorem 0.4", ev))
        verdicts.append(Verdict("UNIVERSALLY_MORITA_CANCELLATIVE", status, "R1", "Theorem 0.4", ev))

    # R2-R4: finite-dimensional center model
    if center_algebra is not None:
        nil = nilradical(center_algebra)
        qz, _, _ = quotient_by_ideal(center_algebra, nil["basis"])
        ug = units_generated(qz)
        if ug["status"] == "TRUE":
            ev = {"units_generated": ug["witness"], "mode": ug["mode"]}
            for prop in ("STRONGLY_CANCELLATIVE", "STRONGLY_MORITA_CANCELLATIVE"):
                verdicts.append(Verdict(prop, "PROVED", "R2", "Corollary 0.6(1)", ev))
        if is_vnr(qz):
            ev = {"reduced": True}
            for prop in ("STRONGLY_CANCELLATIVE", "STRONGLY_MORITA_CANCELLATIVE"):
                verdicts.append(Verdict(prop, "PROVED", "R3", "Corollary 0.6(2)", ev))
        dec = local_decomposition(center_algebra)
        if dec["status"] == "DECOMPOSED":
            ev = {"local_factors": len(dec["factors"])}
            for prop in ("STRONGLY_CANCELLATIVE", "STRONGLY_MORITA_CANCELLATIVE"):
                verdicts.append(Verdict(prop, "PROVED", "R4", "Corollary 0.6(3)", ev))

    # R5: recognized Laurent center
    if center_is_laurent:
        ev = {"center": "recognized Laurent"}
        for prop in ("STRONGLY_CANCELLATIVE", "STRONGLY_MORITA_CANCELLATIVE"):
            verdicts.append(Verdict(prop, "PROVED", "R5", "Remark 2.3(4)", ev))

    # R6: divisor closure of 1
    commutative = p.swap_scalars() == ()
    if closure_one is not None and closure_one.status == "FULL":
        ev = {"closure_rounds": len(closure_one.rounds), "basis_dim": closure_one.basis_dim()}
        if commutative:
            verdicts.append(Verdict("RETRACTABLE_STRONG", "PROVED", "R6", "Proposition 5.2", ev))
    if closure_contains_center:
        ev = {"closure_contains_center": True}
        verdicts.append(Verdict("STRONGLY_CANCELLATIVE", "PROVED", "R6", "Proposition 5.2", ev))

    # R7: Theorem 0.9
    if (
        "DOMAIN" in flags and "AFFINE" in flags
        and gk is not None and gk.get("snap") is not None
        and closure_one is not None and closure_one.status == "FULL"
    ):
        ev = {"gk_snap": gk["snap"], "closure_rounds": len(closure_one.rounds)}
        verdicts.append(
            Verdict("SIGMA_ALG_CANCELLATIVE_STRONG", flag_status("DOMAIN", "AFFINE"),
                    "R7", "Theorem 0.9", ev)
        )

    # R8: Theorem 0.10
    if (
        "DOMAIN" in flags and "NOETHERIAN" in flags and "STRATIFORM" in flags
        and closure_one is not None and closure_one.status == "FULL"
    ):
        ev = {
            "stratiform_length": flags["STRATIFORM"],
            "closure_rounds": len(closure_one.rounds),
        }
        verdicts.append(
            Verdict("STRONGLY_SKEW_CANCELLATIVE_STRATIFORM_SCOPE",
                    flag_status("DOMAIN", "NOETHERIAN", "STRATIFORM"),
                    "R8", "Theorem 0.10", ev)
        )

    # R9: Theorem 4.6
    if all(f in flags for f in ("DOMAIN", "NOETHERIAN", "SIMPLE", "UNITS_TRIVIAL")):
        verdicts.append(
            Verdict("SIGMA_CANCELLATIVE_STRONG",
                    flag_status("DOMAIN", "NOETHERIAN", "SIMPLE", "UNITS_TRIVIAL"),
                    "R9", "Theorem 4.6",
                    {"flags": ["DOMAIN", "NOETHERIAN", "SIMPLE", "UNITS_TRIVIAL"]})
        )

    # R10: Theorem 5.4
    if (
        "DOMAIN" in flags and "AFFINE" in flags and "ML_FULL" in flags
        and gk is not None and gk.get("snap") is not None
        and p.field.characteristic() == 0
    ):
        verdicts.append(
            Verdict("DELTA_CANCELLATIVE", "ASSERTED", "R10", "Theorem 5.4",
                    {"gk_snap": gk["snap"],
                     "ml_full_provenance": p.flag_provenance.get("ML_FULL", "user")})
        )

    # catalog: the minus-one plane is strongly cancellative by a cited
    # prior result; recorded as an assertion, not a computation
    if p.family == "MINUS_ONE_PLANE":
        verdicts.append(
            Verdict("STRONGLY_CANCELLATIVE", "ASSERTED", "catalog",
                    "Example 5.5(2)", {"source": "cited prior result"})
        )

    # R11: Corollary 5.9
    if "DOMAIN" in flags and "AZUMAYA" in flags and closure_center_full:
        ev = {
            "azumaya_provenance": p.flag_provenance.get("AZUMAYA", "user"),
            "closure_center_full": True,
        }
        for prop in ("STRONGLY_CANCELLATIVE", "STRONGLY_MORITA_CANCELLATIVE",
                     "DERIVED_CANCELLATIVE_STRONG"):
            verdicts.append(Verdict(prop, "ASSERTED", "R11", "Corollary 5.9", ev))

    required = inputs.get("require_rules", ())
    fired = {v.rule for v in verdicts}
    for rule in required:
        if rule not in fired:
            raise MissingEvidenceError(
                f"rule {rule} was required but its evidence is missing or insufficient"
            )

    # deduplicate, preferring PROVED over ASSERTED
    rank = {"PROVED": 0, "ASSERTED": 1}
    best = {}
    for v in verdicts:
        cur = best.get(v.property)
        if cur is None or rank.get(v.status, 2) < rank.get(cur.status, 2):
            best[v.property] = v
    closed = _dag_close(list(best.values()))

    # registry refutations apply by family identity only
    for fixture in counterexample_registry():
        if p.family in fixture["refutes_for_families"]:
            closed = [v for v in closed if v.property != fixture["refuted_property"]]
            closed.append(
                Verdict(
                    fixture["refuted_property"],
                    "REFUTED_BY_EXAMPLE",
                    f"registry({fixture['id']})",
                    fixture["paper_ref"],
                    {"fixture": fixture["id"]},
                )
            )
    closed.sort(key=lambda v: PROPERTIES.index(v.property))
    return closed


# ---------------------------------------------------------------------------
# counterexample registry


def _renaming_fixture(a: Presentation, twist) -> dict:
    """A[z] against B[x; twist(B)] for B = k[y,z], by the maps that keep
    every generator's name; `twist` gives B's `ore_extend` keywords."""
    b = Presentation(a.field, [GeneratorInfo("y", 1), GeneratorInfo("z", 2)])
    a_ext, b_ext = ore_extend(a, "z"), ore_extend(b, "x", **twist(b))
    iso = verify_isomorphism_bounded(
        Morphism(a_ext, b_ext, {g.name: b_ext.generator(g.name) for g in a_ext.gens}),
        Morphism(b_ext, a_ext, {g.name: a_ext.generator(g.name) for g in b_ext.gens}),
    )
    return {
        "iso": iso,
        "base_noncommutative": not commutator(a.generator("x"), a.generator("y")).is_zero(),
        "base_commutative": b.swap_scalars() == (),
    }


def _fixture_ex5_5_1():
    """Weyl algebra: A[z; delta=0] is isomorphic to k[y,z][x; delta'],
    while A and k[y,z] are not isomorphic."""
    from .families import weyl1

    return _renaming_fixture(
        weyl1(FieldDescriptor(RATIONAL)), lambda b: {"delta_images": {"y": b.one()}}
    )


def _fixture_ex5_5_2():
    """Minus-one plane: A[z; Id] is isomorphic to k[y,z][x; sigma] with
    sigma(y) = -y, sigma(z) = z, while A and k[y,z] are not isomorphic."""
    from .families import minus_one_plane

    return _renaming_fixture(
        minus_one_plane(FieldDescriptor(RATIONAL)),
        lambda b: {"sigma_images": {"y": -b.generator("y")}},
    )


def counterexample_registry() -> list:
    dag = ImplicationDAG()
    return [
        {
            "id": "ex5_5_1",
            "paper_ref": "Example 5.5(1)",
            "refuted_property": "DELTA_CANCELLATIVE",
            "refutes_for_families": ("WEYL1",),
            "dotted_edges": [e for e in dag.dotted_edges if e[2] == "ex5_5_1"],
            "verify": _fixture_ex5_5_1,
        },
        {
            "id": "ex5_5_2",
            "paper_ref": "Example 5.5(2)",
            "refuted_property": "SIGMA_CANCELLATIVE_STRONG",
            "refutes_for_families": ("MINUS_ONE_PLANE",),
            "dotted_edges": [e for e in dag.dotted_edges if e[2] == "ex5_5_2"],
            "verify": _fixture_ex5_5_2,
        },
    ]


def fixture_passes(result: dict) -> bool:
    """The pass rule for a fixture's `verify()` result: the extensions are
    isomorphic, certified exactly by homomorphisms both ways and a
    generator round trip, while the bases are not (one noncommutative,
    one commutative)."""
    return (
        result["iso"]["status"] == "ISO_BOUNDED"
        and result["base_noncommutative"]
        and result["base_commutative"]
    )


def verify_fixture(fixture: dict) -> bool:
    return fixture_passes(fixture["verify"]())
