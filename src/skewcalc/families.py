"""Certified builders for the named algebra families.

Each builder returns a validated Presentation carrying the family tag,
assertion flags with provenance, and (where the construction is an honest
Ore tower) the tower metadata. The localized quantum Weyl algebra's
commutation scalars are derived mechanically inside the quantum Weyl
algebra instead of being transcribed.
"""

from __future__ import annotations

from .errors import BadParamsError, ResourceLimitError, UnsupportedGWAError
from .linalg import solve
from .presentation import (
    Element,
    GeneratorInfo,
    Presentation,
    RewriteRule,
    grlex_key,
    ore_extend,
    tensor_product,
)
from .scalars import CYCLOTOMIC, PRIME, RATFUNC_Q, RATIONAL, FieldDescriptor, Scalar

FAMILY_IDS = (
    "POLY",
    "LAURENT",
    "SKEW_POLY",
    "QUANTUM_TORUS",
    "WEYL1",
    "QUANTUM_WEYL1",
    "LOCALIZED_QWEYL1",
    "MINUS_ONE_PLANE",
    "GWA",
)

# largest `n` of the n-generator families: validation is cubic in n, and
# `check` on `family quantum_torus n=16;`, the slowest of them at the cap,
# takes 0.5 s on a 2-CPU VM under Python 3.11
MAX_FAMILY_N = 16


class FamilySpec:
    """A named family with its field and parameters. Specs are equal when
    family, field and parameters are; `raw` takes no part."""

    def __init__(self, family_id: str, field: FieldDescriptor, params: tuple = (),
                 raw: tuple | None = None):
        self.family_id = family_id
        self.field = field
        self.params = params  # sorted (key, value) pairs
        # the parser's sorted raw `key=value` pairs, which `print_algebra` and
        # `center-torus` read back; None when the spec was not parsed
        self.raw = raw

    def _key(self):
        return self.family_id, self.field, self.params

    def __eq__(self, other):
        if other.__class__ is not FamilySpec:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def make(family_id: str, field: FieldDescriptor, **params) -> "FamilySpec":
        return FamilySpec(family_id, field, tuple(sorted(params.items())))

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def _base_flags(stratiform_length: int):
    flags = {
        "DOMAIN": True,
        "NOETHERIAN": True,
        "AFFINE": True,
        "STRATIFORM": stratiform_length,
    }
    prov = {k: "asserted(catalog)" for k in flags}
    return flags, prov


def _check_q(q: Scalar):
    if q.is_zero() or q.is_one():
        raise BadParamsError("q must differ from 0 and 1")


def _pairwise_scalars(n: int, field: FieldDescriptor, q_matrix) -> dict:
    """Normalize {(i, j): q_ij, i < j} (1-based) commutation data."""
    out = {}
    for (i, j), v in (q_matrix or {}).items():
        if not (1 <= i < j <= n):
            raise BadParamsError(f"bad generator pair ({i},{j})")
        if not isinstance(v, Scalar) or v.field != field:
            raise BadParamsError("commutation scalars must lie in the base field")
        if v.is_zero():
            raise BadParamsError("commutation scalars must be nonzero")
        out[(i, j)] = v
    return out


def _skew_rules(n: int, field: FieldDescriptor, pair_scalars: dict):
    rules = []
    for j in range(1, n):
        for i in range(j):
            q_ij = pair_scalars.get((i + 1, j + 1), field.one())
            rules.append(RewriteRule(j, i, q_ij, ()))
    return rules


def build(spec: FamilySpec) -> Presentation:
    fam = spec.family_id
    field = spec.field
    if fam == "POLY":
        n = _positive_n(spec)
        p = Presentation(
            field,
            [GeneratorInfo(f"x{i}", i) for i in range(1, n + 1)],
            family="POLY",
        )
    elif fam == "LAURENT":
        n = _positive_n(spec)
        p = Presentation(
            field,
            [GeneratorInfo(f"x{i}", i, invertible=True) for i in range(1, n + 1)],
            family="LAURENT",
        )
    elif fam in ("SKEW_POLY", "QUANTUM_TORUS"):
        n = _positive_n(spec)
        pair_scalars = _pairwise_scalars(n, field, dict(spec.param("q_matrix") or {}))
        inv = fam == "QUANTUM_TORUS"
        p = Presentation(
            field,
            [GeneratorInfo(f"x{i}", i, invertible=inv) for i in range(1, n + 1)],
            rules=_skew_rules(n, field, pair_scalars),
            family=fam,
        )
    elif fam == "WEYL1":
        p = _build_weyl1(field)
    elif fam == "QUANTUM_WEYL1":
        q = spec.param("q")
        _check_q(q)
        p = _build_quantum_weyl1(field, q)
    elif fam == "LOCALIZED_QWEYL1":
        q = spec.param("q")
        return build_localized_qweyl(q)
    elif fam == "MINUS_ONE_PLANE":
        p = _build_minus_one_plane(field)
    elif fam == "GWA":
        return _build_gwa(field, spec.param("a"), spec.param("q"))
    else:
        raise BadParamsError(f"unknown family {fam!r}")

    if fam in ("POLY", "LAURENT", "SKEW_POLY", "QUANTUM_TORUS"):
        length = _positive_n(spec)
    elif fam == "WEYL1":
        length = 2
    elif fam in ("QUANTUM_WEYL1",):
        length = 1
    else:
        length = 2
    flags, prov = _base_flags(length)
    if fam == "WEYL1" and field.characteristic() == 0:
        flags["SIMPLE"] = True
        flags["UNITS_TRIVIAL"] = True
        prov["SIMPLE"] = "asserted(catalog)"
        prov["UNITS_TRIVIAL"] = "asserted(catalog)"
    if fam == "WEYL1":
        prov["STRATIFORM"] = "derived(tower-count)"
    p = p.with_flags(flags, prov)
    p.require_validated()
    return p


def _positive_n(spec: FamilySpec) -> int:
    n = spec.param("n")
    if not isinstance(n, int) or n < 1:
        raise BadParamsError("n must be a positive integer")
    if n > MAX_FAMILY_N:
        raise ResourceLimitError(
            f"n = {n} exceeds the cap MAX_FAMILY_N = {MAX_FAMILY_N}",
            cap="MAX_FAMILY_N", limit=MAX_FAMILY_N)
    return n


def _build_weyl1(field: FieldDescriptor, suffix: str = "") -> Presentation:
    kx = Presentation(field, [GeneratorInfo("x" + suffix, 1)])
    return ore_extend(
        kx, "y" + suffix, delta_images={"x" + suffix: kx.one().scale(-field.one())},
        family="WEYL1",
    )


def _build_quantum_weyl1(field: FieldDescriptor, q: Scalar, suffix: str = "") -> Presentation:
    if q.field != field:
        raise BadParamsError("q must lie in the base field")
    xn, yn = "x" + suffix, "y" + suffix
    kx = Presentation(field, [GeneratorInfo(xn, 1)])
    qinv = q.inv()
    return ore_extend(
        kx,
        yn,
        sigma_images={xn: kx.generator(xn).scale(qinv)},
        delta_images={xn: kx.one().scale(-qinv)},
        family="QUANTUM_WEYL1",
    )


def _build_minus_one_plane(field: FieldDescriptor) -> Presentation:
    kx = Presentation(field, [GeneratorInfo("x", 1)])
    return ore_extend(
        kx, "y", sigma_images={"x": kx.generator("x").scale(-field.one())},
        family="MINUS_ONE_PLANE",
    )


def _commutation_scalar(left: Element, right: Element) -> Scalar:
    """The scalar c with left = c * right; error if no such c exists."""
    if left.terms.keys() != right.terms.keys():
        raise BadParamsError("elements are not scalar multiples")
    lead = left.leading_monomial()
    c = left.terms[lead] / right.terms[lead]
    if not (left - right.scale(c)).is_zero():
        raise BadParamsError("elements are not scalar multiples")
    return c


def build_localized_qweyl(q: Scalar) -> Presentation:
    """B_1^q: the quantum Weyl algebra with z = xy - yx inverted.

    All commutation scalars and the x*y elimination are computed inside
    the quantum Weyl algebra, not transcribed.
    """
    _check_q(q)
    field = q.field
    a = _build_quantum_weyl1(field, q)
    x, y = a.generator("x"), a.generator("y")
    z = x * y - y * x
    c_zx = _commutation_scalar(z * x, x * z)
    c_zy = _commutation_scalar(z * y, y * z)
    # express x*y as alpha*z + beta by an exact solve in the span {z, 1}
    sol = solve([z.terms, a.one().terms], (x * y).terms, field)
    if sol is None:
        raise BadParamsError("x*y is not affine in z")  # unreachable for valid q
    alpha, beta = (sol.get(j, field.zero()) for j in (0, 1))
    rule_yx = a.rules[(1, 0)]
    flags, prov = _base_flags(1)
    p = Presentation(
        field,
        [GeneratorInfo("x", 1), GeneratorInfo("y", 2), GeneratorInfo("z", 3, invertible=True)],
        rules=[
            RewriteRule(1, 0, rule_yx.leading,
                        tuple((m + (0,), c) for m, c in rule_yx.tail)),
            RewriteRule(2, 0, c_zx, ()),
            RewriteRule(2, 1, c_zy, ()),
        ],
        elim={(0, 1): {(0, 0, 1): alpha, (0, 0, 0): beta}},
        flags=flags,
        flag_provenance=prov,
        family="LOCALIZED_QWEYL1",
    )
    p.require_validated()
    # regression against the defining identities
    bx, by, bz = p.generator("x"), p.generator("y"), p.generator("z")
    checks = [
        bx * by - by * bx - bz,
        (by * bx).scale(q - field.one()) - (bz - p.one()),
        bz * p.gen_inverse("z") - p.one(),
    ]
    if any(not c.is_zero() for c in checks):
        raise BadParamsError("derived localized presentation failed its regression")
    return p


def _build_gwa(field: FieldDescriptor, a_coeffs, q: Scalar) -> Presentation:
    """Generalized Weyl algebra over k[h^{+-1}] with sigma(h) = q*h.

    `a_coeffs` maps h-exponents to Scalars (the element a = a(h)); it
    must be nonzero with exponents of absolute value <= 2 so the
    presentation stays filtration-compatible.
    """
    _check_q(q)
    a_coeffs = {e: c for e, c in dict(a_coeffs or {}).items() if not c.is_zero()}
    if not a_coeffs:
        raise UnsupportedGWAError("a must be nonzero")
    if any(abs(e) > 2 for e in a_coeffs):
        raise UnsupportedGWAError(
            "a must have h-exponents of absolute value <= 2 "
            "(filtration compatibility)"
        )
    # a(h) and a(q*h) as tails in the 3-generator algebra (x, y, h)
    def tail_of(scale_by_q_pow: bool):
        out = {}
        for e, c in a_coeffs.items():
            cc = c * (q ** e) if scale_by_q_pow else c
            out[(0, 0, e)] = cc
        return out

    a_h = tail_of(False)
    a_qh = tail_of(True)
    swap_tail = {}
    for m in set(a_h) | set(a_qh):
        d = a_h.get(m, field.zero()) - a_qh.get(m, field.zero())
        if not d.is_zero():
            swap_tail[m] = d
    flags, prov = _base_flags(2)
    p = Presentation(
        field,
        [GeneratorInfo("x", 1), GeneratorInfo("y", 2), GeneratorInfo("h", 3, invertible=True)],
        rules=[
            RewriteRule(1, 0, field.one(),
                        tuple(sorted(swap_tail.items(), key=lambda t: grlex_key(t[0])))),
            RewriteRule(2, 0, q.inv(), ()),  # h*x = q^-1 x*h, i.e. x*h = q*h*x
            RewriteRule(2, 1, q, ()),        # h*y = q y*h,    i.e. y*h = q^-1 h*y
        ],
        elim={(0, 1): a_qh},
        flags=flags,
        flag_provenance=prov,
        family="GWA",
        notes=("relation used: x*h = q*h*x (sigma(h) = q*h)",),
    )
    p.require_validated()
    # regression: x*y = a(q h), y*x = a(h), x*h = q h x, y*h = q^-1 h y
    x, y, h = p.generator("x"), p.generator("y"), p.generator("h")
    a_of_h = p.from_terms(dict(a_h))
    a_of_qh = p.from_terms(dict(a_qh))
    checks = [
        x * y - a_of_qh,
        y * x - a_of_h,
        x * h - (h * x).scale(q),
        y * h - (h * y).scale(q.inv()),
    ]
    if any(not c.is_zero() for c in checks):
        raise UnsupportedGWAError("GWA presentation failed its regression")
    return p


def finite_rank_quantum_weyl(n: int, q_list) -> Presentation:
    """Rank-n quantum Weyl algebra: n commuting quantum Weyl pairs."""
    if not isinstance(n, int) or n < 1:
        raise BadParamsError("n must be a positive integer")
    q_list = list(q_list)
    if len(q_list) != n:
        raise BadParamsError("need exactly n deformation scalars")
    for q in q_list:
        if q.is_zero():
            raise BadParamsError("all q_i must be nonzero")
    field = q_list[0].field
    out = None
    for i, q in enumerate(q_list, start=1):
        factor = _build_quantum_weyl1(field, q, suffix=str(i))
        factor = factor.with_flags({"DOMAIN": True}, provenance="asserted(catalog)")
        out = factor if out is None else tensor_product(
            out, factor, assume_domain=True, family="FINITE_RANK_QUANTUM_WEYL"
        )
    flags, prov = _base_flags(n)
    out = out.with_flags(flags, prov)
    out.require_validated()
    return out


# convenience constructors used across tests and the CLI -----------------


def poly(n: int, field: FieldDescriptor | None = None) -> Presentation:
    return build(FamilySpec.make("POLY", field or FieldDescriptor(RATIONAL), n=n))


def laurent(n: int, field: FieldDescriptor | None = None) -> Presentation:
    return build(FamilySpec.make("LAURENT", field or FieldDescriptor(RATIONAL), n=n))


def weyl1(field: FieldDescriptor | None = None) -> Presentation:
    return build(FamilySpec.make("WEYL1", field or FieldDescriptor(RATIONAL)))


def quantum_weyl1(q: Scalar | None = None) -> Presentation:
    if q is None:
        q = FieldDescriptor(RATFUNC_Q).q()
    return build(FamilySpec.make("QUANTUM_WEYL1", q.field, q=q))


def minus_one_plane(field: FieldDescriptor | None = None) -> Presentation:
    return build(FamilySpec.make("MINUS_ONE_PLANE", field or FieldDescriptor(RATIONAL)))


def quantum_torus(n: int, q_matrix, field: FieldDescriptor) -> Presentation:
    return build(FamilySpec.make("QUANTUM_TORUS", field, n=n, q_matrix=tuple(sorted(q_matrix.items()))))


def skew_poly(n: int, q_matrix, field: FieldDescriptor) -> Presentation:
    return build(FamilySpec.make("SKEW_POLY", field, n=n, q_matrix=tuple(sorted(q_matrix.items()))))


def gwa(a_coeffs, q: Scalar) -> Presentation:
    return build(
        FamilySpec.make("GWA", q.field, a=tuple(sorted(a_coeffs.items())), q=q)
    )
