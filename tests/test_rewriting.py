"""Oracle tests for the merged rewriting agenda of `word_normal_form`.

The LIFO agenda it replaced is kept below as `reference_word_normal_form`:
it never merges equal words, so its cost is exponential in degree, but it
is a straightforward reading of the rewriting rules. Closed forms cover
degrees the reference cannot reach. The validation that normalized every
letter triple under two strategies, replaced by the overlap check of
`Presentation.validate`, is kept as `reference_validate`, with the Ore-step
check it ran on every step of a tower (`_check_ore_step`), which
`ore_extend` and the overlap check replaced. The loops of element
products and sums before `linalg.add_scaled` are kept as
`reference_multiply` and `reference_add`: the terms they give, in the same
order, are the ones the reports print.
"""

import pathlib
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import presentation
from skewcalc.cli import _as_presentation, parse_algebra_file
from skewcalc.errors import ValidationError
from skewcalc.families import (
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
from skewcalc.presentation import (
    Element,
    GeneratorInfo,
    Morphism,
    OreStep,
    Presentation,
    RewriteRule,
    SIGMA_PREIMAGE_DEGREE,
    ValidationReport,
    _invert_monomial_element,
    broken_relations,
    grlex_key,
    identity_morphism,
    mono_degree,
    ore_extend,
)
from skewcalc.linalg import solve
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor, Scalar

Q = FieldDescriptor(RATIONAL)
GF = FieldDescriptor(PRIME, 32003)
C3 = FieldDescriptor(CYCLOTOMIC, 3)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src/skewcalc/fixtures"

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# reference: the LIFO agenda, one word per agenda entry, nothing merged


def _reducible_positions(w):
    out = []
    for k in range(len(w) - 1):
        (g1, s1), (g2, s2) = w[k], w[k + 1]
        if g1 == g2 and s1 != s2:
            out.append(k)
        elif g1 > g2:
            out.append(k)
    return out


def _letters_single(pos, e):
    if e > 0:
        return [(pos, 1)] * e
    if e < 0:
        return [(pos, -1)] * (-e)
    return []


def reference_word_normal_form(p, word, pick=None) -> dict:
    field = p.field
    result = {}
    agenda = [(field.one(), list(word))]
    while agenda:
        coef, w = agenda.pop()
        if coef.is_zero():
            continue
        red = _reducible_positions(w)
        if red:
            k = red[0] if pick is None else pick(red, w)
            (g1, s1), (g2, s2) = w[k], w[k + 1]
            if g1 == g2 and s1 != s2:
                agenda.append((coef, w[:k] + w[k + 2:]))
                continue
            rule = p.rules[(g1, g2)]
            if s1 == 1 and s2 == 1:
                agenda.append(
                    (coef * rule.leading, w[:k] + [w[k + 1], w[k]] + w[k + 2:])
                )
                for mono_t, ct in rule.tail:
                    agenda.append(
                        (coef * ct, w[:k] + p._letters(mono_t) + w[k + 2:])
                    )
            else:
                factor = rule.leading if s1 == s2 else rule.leading.inv()
                agenda.append(
                    (coef * factor, w[:k] + [w[k + 1], w[k]] + w[k + 2:])
                )
            continue
        # sorted; collapse to an exponent vector
        e = [0] * len(p.gens)
        for g, s in w:
            e[g] += s
        e = tuple(e)
        pair = p._elim_pair(e)
        if pair is not None:
            i, j = pair
            pre, post = [], []
            for pos, ee in enumerate(e):
                letters = _letters_single(pos, ee if pos not in (i, j) else (ee - 1))
                if pos <= i:
                    pre.extend(letters)
                else:
                    post.extend(letters)
            for mono_t, ct in p.elim[(i, j)]:
                agenda.append((coef * ct, pre + p._letters(mono_t) + post))
            continue
        cur = result.get(e)
        result[e] = coef if cur is None else cur + coef
    return {m: c for m, c in result.items() if not c.is_zero()}


# reference: the Ore-step check `validate` once ran on every step of a
# tower; `ore_extend` now checks sigma's relations and preimages, and the
# overlap check covers delta


def _sigma_delta_failures(base: Presentation, sigma, delta):
    """Check sigma respects relations and delta is a sigma-derivation;
    delta is checked only against a sigma that respects them."""
    failures = [("BAD_SIGMA", f"sigma: {w}") for w in broken_relations(sigma)]
    if failures:
        return failures
    for (j, i), rule in base.rules.items():
        gj, gi = base.generator(base.gens[j].name), base.generator(base.gens[i].name)
        tail = base.from_terms(rule.tail_dict())
        lhs = _delta_of(base, sigma, delta, gj * gi)
        rhs = _delta_of(base, sigma, delta, gi * gj).scale(rule.leading) + _delta_of(
            base, sigma, delta, tail
        )
        if not (lhs - rhs).is_zero():
            failures.append(
                ("BAD_DELTA", f"delta breaks the ({base.gens[j].name},{base.gens[i].name}) relation")
            )
    for (i, j), tail_terms in base.elim.items():
        gi, gj = base.generator(base.gens[i].name), base.generator(base.gens[j].name)
        lhs = _delta_of(base, sigma, delta, gi * gj)
        rhs = _delta_of(base, sigma, delta, base.from_terms(dict(tail_terms)))
        if not (lhs - rhs).is_zero():
            failures.append(("BAD_DELTA", "delta breaks an elimination relation"))
    return failures


def _delta_of(base: Presentation, sigma: Morphism, delta: dict, x: Element) -> Element:
    """Extend delta by the twisted Leibniz rule d(uv) = s(u)d(v) + d(u)v."""
    out = base.zero()
    for m, c in x.terms.items():
        letters = base._letters(m)
        for k in range(len(letters)):
            pos, sign = letters[k]
            name = base.gens[pos].name
            dg = delta[name]
            if sign == -1:
                # d(g^-1) = -s(g)^-1 d(g) g^-1
                ginv = base.gen_inverse(name)
                dg = (-_invert_monomial_element(sigma.apply(base.generator(name)))) * dg * ginv
            if dg.is_zero():
                continue
            prefix = base.one()
            for p, s in letters[:k]:
                prefix = prefix * sigma.apply(
                    base.generator(base.gens[p].name) if s == 1 else base.gen_inverse(base.gens[p].name)
                )
            suffix = base.one()
            for p, s in letters[k + 1:]:
                suffix = suffix * (
                    base.generator(base.gens[p].name) if s == 1 else base.gen_inverse(base.gens[p].name)
                )
            out = out + (prefix * dg * suffix).scale(c)
    return out


def _check_ore_step(step: OreStep) -> list:
    base = step.base
    sigma = Morphism(
        base, base, {g.name: img for g, img in zip(base.gens, step.sigma_images)}
    )
    delta = {g.name: img for g, img in zip(base.gens, step.delta_images)}
    failures = _sigma_delta_failures(base, sigma, delta)
    # bounded invertibility: exhibit a preimage for every generator
    basis = base.filtration_basis(SIGMA_PREIMAGE_DEGREE)
    images = [sigma.apply(Element(base, {m: base.field.one()})).terms for m in basis]
    for g in base.gens:
        if solve(images, base.generator(g.name).terms, base.field) is None:
            failures.append(("BAD_SIGMA", f"no bounded preimage for {g.name}"))
    return failures


def reference_validate(p) -> ValidationReport:
    """The two-strategy validation that overlap checking replaced: every
    letter triple normalized by the engine and by the reference taking the
    last reducible position. Not cached on `p`."""
    failures = []
    # (a) rule shape
    for (j, i), rule in p.rules.items():
        if rule.leading.is_zero():
            failures.append(
                ("INCONSISTENT_RULES", f"rule ({p.gens[j].name},{p.gens[i].name}) has zero leading scalar")
            )
        tail = rule.tail_dict()
        for mono, c in tail.items():
            if mono_degree(mono) > 2:
                failures.append(
                    ("INCONSISTENT_RULES", f"rule ({p.gens[j].name},{p.gens[i].name}) tail degree > 2")
                )
            for e, g in zip(mono, p.gens):
                if e < 0 and not g.invertible:
                    failures.append(("INCONSISTENT_RULES", f"tail uses inverse of {g.name}"))
        if tail and (p.gens[j].invertible or p.gens[i].invertible):
            failures.append(
                ("BAD_INVERSE",
                 f"rule ({p.gens[j].name},{p.gens[i].name}) has a tail but touches an invertible generator")
            )
    for (i, j), tail in p.elim.items():
        if j != i + 1:
            failures.append(("INCONSISTENT_RULES", "elimination pairs must be consecutive"))
        if p.gens[i].invertible or p.gens[j].invertible:
            failures.append(("BAD_INVERSE", "elimination pair generators must not be invertible"))
        for mono, c in tail:
            if mono[i] or mono[j]:
                failures.append(
                    ("INCONSISTENT_RULES", "elimination tail mentions an eliminated generator")
                )
            if mono_degree(mono) > 2:
                failures.append(("INCONSISTENT_RULES", "elimination tail degree > 2"))
    if failures:
        return ValidationReport(False, failures)
    # (b) confluence on all letter triples, two strategies
    alphabet = []
    for pos, g in enumerate(p.gens):
        alphabet.append((pos, 1))
        if g.invertible:
            alphabet.append((pos, -1))
    pick_last = lambda red, w: red[-1]
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                w = [a, b, c]
                n1 = p.word_normal_form(w)
                n2 = reference_word_normal_form(p, w, pick=pick_last)
                if n1 != n2:
                    names = "*".join(
                        p.gens[g].name + ("" if s == 1 else "^-1") for g, s in w
                    )
                    failures.append(
                        ("INCONSISTENT_RULES",
                         f"word {names} normalizes to different results: "
                         f"{Element(p, n1)} vs {Element(p, n2)}")
                    )
    sigma_status = None
    if not failures and p.tower:
        sigma_status = "BOUNDED_CERTIFIED"
        for step in p.tower:
            step_failures = _check_ore_step(step)
            failures.extend(step_failures)
    return ValidationReport(not failures, failures, sigma_status)


# ---------------------------------------------------------------------------
# presentations: every family, every shipped fixture


def _mixed_tail_ore():
    # t*x1 = x1*t + x1*x2 over x2*x1 = 2*x1*x2: a degree-2 tail whose
    # letters do not commute
    base = skew_poly(2, {(1, 2): Q.from_int(2)}, Q)
    return ore_extend(
        base, "t", delta_images={"x1": base.generator("x1") * base.generator("x2")}
    )


# x_j x_i = q_ij x_i x_j for i < j
SKEW_Q = {(1, 2): Q.from_int(2), (1, 3): Q.from_int(-1), (2, 3): Q.from_int(3)}
TORUS_Q = {(1, 2): C3.q(), (1, 3): C3.q() ** 2, (2, 3): C3.q()}

FAMILIES = {
    "poly3": lambda: poly(3, Q),
    "laurent2": lambda: laurent(2, Q),
    "skew3": lambda: skew_poly(3, SKEW_Q, Q),
    "torus3": lambda: quantum_torus(3, TORUS_Q, C3),
    "weyl1_q": lambda: weyl1(Q),
    "weyl1_gf": lambda: weyl1(GF),
    "qweyl1": lambda: quantum_weyl1(),
    "minus_one": lambda: minus_one_plane(Q),
    "localized_qweyl": lambda: build_localized_qweyl(C3.q()),
    "gwa": lambda: gwa({0: C3.one(), 1: C3.one()}, C3.q()),
    "rank2_qweyl": lambda: finite_rank_quantum_weyl(2, [C3.q(), C3.q() ** 2]),
    "mixed_tail": _mixed_tail_ore,
}
FAMILIES.update({
    f"fixture:{path.stem}": (
        lambda path=path: _as_presentation(parse_algebra_file(path.read_text()))
    )
    for path in sorted(FIXTURES.glob("*.alg"))
})
_BUILT = {}


def _presentation(name):
    if name not in _BUILT:
        _BUILT[name] = FAMILIES[name]()
    return _BUILT[name]


def _alphabet(p):
    out = []
    for pos, g in enumerate(p.gens):
        out.append((pos, 1))
        if g.invertible:
            out.append((pos, -1))
    return out


def _words(p, max_len=8):
    return st.lists(st.sampled_from(_alphabet(p)), max_size=max_len)


def test_every_fixture_is_covered():
    assert len([n for n in FAMILIES if n.startswith("fixture:")]) == 7
    assert any(_presentation(n).elim for n in FAMILIES)
    assert any(g.invertible for n in FAMILIES for g in _presentation(n).gens)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_merged_engine_matches_reference(name, data):
    p = _presentation(name)
    word = data.draw(_words(p))
    assert p.word_normal_form(word) == reference_word_normal_form(p, word)


@pytest.mark.parametrize("name", ["weyl1_q", "qweyl1", "localized_qweyl", "gwa",
                                  "torus3", "mixed_tail"])
@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_pick_strategies_agree(name, data, seed):
    p = _presentation(name)
    word = data.draw(_words(p))
    rng = random.Random(seed)
    seen = []

    def pick(red, w):
        seen.append(w)
        return rng.choice(red)

    assert reference_word_normal_form(p, word, pick=pick) == p.word_normal_form(word)
    # the hook sees the word as (generator position, sign) letters
    assert all(letter in _alphabet(p) for w in seen for letter in w)


@pytest.mark.parametrize("field", [Q, GF], ids=str)
def test_weyl_closed_form(field):
    # y*x = x*y - 1, so y^m x^n = sum_k (-1)^k k! C(m,k) C(n,k) x^(n-k) y^(m-k)
    p = weyl1(field)
    for m in range(13):
        for n in range(13):
            expected = {
                (n - k, m - k): field.from_int(
                    (-1) ** k * factorial(k) * comb(m, k) * comb(n, k)
                )
                for k in range(min(m, n) + 1)
            }
            expected = {mono: c for mono, c in expected.items() if not c.is_zero()}
            assert p.word_normal_form([(1, 1)] * m + [(0, 1)] * n) == expected


def _diagonal_oracle(p, q_matrix, a, b):
    # x^a x^b = prod_{i<j} q_ij^(a_j b_i) x^(a+b)
    c = p.field.one()
    for (i, j), q in q_matrix.items():
        c = c * q ** (a[j - 1] * b[i - 1])
    return {tuple(u + v for u, v in zip(a, b)): c}


@SETTINGS
@given(a=st.tuples(*[st.integers(0, 4)] * 3), b=st.tuples(*[st.integers(0, 4)] * 3))
def test_skew_monomial_products(a, b):
    p = _presentation("skew3")
    word = p._letters(a) + p._letters(b)
    assert p.word_normal_form(word) == _diagonal_oracle(p, SKEW_Q, a, b)
    assert p._mono_mul(a, b) == _diagonal_oracle(p, SKEW_Q, a, b)


@SETTINGS
@given(a=st.tuples(*[st.integers(-4, 4)] * 3), b=st.tuples(*[st.integers(-4, 4)] * 3))
def test_torus_monomial_products(a, b):
    p = _presentation("torus3")
    word = p._letters(a) + p._letters(b)
    assert p.word_normal_form(word) == _diagonal_oracle(p, TORUS_Q, a, b)
    assert p._mono_mul(a, b) == _diagonal_oracle(p, TORUS_Q, a, b)


# ---------------------------------------------------------------------------
# monomial products in closed form on q-commuting presentations

# the presentations above whose rules have no tails and no elimination pairs
Q_COMMUTING = ["fixture:laurent2", "fixture:minusone", "fixture:poly2", "fixture:t2q3",
               "laurent2", "minus_one", "poly3", "skew3", "torus3"]


def test_the_q_commuting_presentations():
    assert [n for n in sorted(FAMILIES)
            if _presentation(n).swap_scalars() is not None] == Q_COMMUTING
    # the swap scalars hold each c != 1 once, and c^-1 where a letter is invertible
    for name in Q_COMMUTING:
        p = _presentation(name)
        swaps = {(j, i): (c, inverse) for j, i, c, inverse in p.swap_scalars()}
        assert swaps.keys() == {k for k, rule in p.rules.items() if not rule.leading.is_one()}
        for (j, i), (c, inverse) in swaps.items():
            if p.gens[j].invertible or p.gens[i].invertible:
                assert (c * inverse).is_one()
            else:
                assert inverse is None


def _signed_monomials(p, bound=5):
    return st.tuples(*[st.integers(-bound if g.invertible else 0, bound) for g in p.gens])


@pytest.mark.parametrize("name", Q_COMMUTING)
@SETTINGS
@given(data=st.data())
def test_closed_form_products_match_the_rewriting(name, data):
    p = _presentation(name)
    a, b = data.draw(_signed_monomials(p)), data.draw(_signed_monomials(p))
    assert p._mono_mul(a, b) == p.word_normal_form(p._letters(a) + p._letters(b))


def _fresh(name):
    p = FAMILIES[name]()
    p.require_validated()
    return p


def _rewriting_calls(monkeypatch, p):
    """The `word_normal_form` calls of x*x, x the sum of k*m over the
    monomials m of degree <= 2, on a cold product cache; x*x is checked
    against the rewriting of each pair of terms."""
    calls = []
    rewrite = Presentation.word_normal_form
    monkeypatch.setattr(Presentation, "word_normal_form",
                        lambda self, word: calls.append(word) or rewrite(self, word))
    x = p.from_terms({m: p.field.from_int(k + 1)
                      for k, m in enumerate(p.filtration_basis(2))})
    product = x * x
    expected = p.zero()
    for ma, ca in x.terms.items():
        for mb, cb in x.terms.items():
            nf = rewrite(p, p._letters(ma) + p._letters(mb))
            expected = expected + Element(p, nf).scale(ca * cb)
    assert product == expected
    return len(calls)


@pytest.mark.parametrize("name", Q_COMMUTING)
def test_q_commuting_products_do_no_rewriting(monkeypatch, name):
    assert _rewriting_calls(monkeypatch, _fresh(name)) == 0


@pytest.mark.parametrize("name", ["weyl1_q", "qweyl1", "fixture:b1q3", "localized_qweyl"])
def test_products_with_tails_or_elimination_pairs_still_rewrite(monkeypatch, name):
    p = _fresh(name)
    assert p.swap_scalars() is None
    assert _rewriting_calls(monkeypatch, p) > 0


def test_skew_products_over_cyclotomic_take_no_inverse(monkeypatch):
    # no generator of a skew polynomial ring is invertible, so no c^-1 is
    # needed, and the conjugate-product inverse of cyclotomic fields runs
    # neither while the ring is built nor while it multiplies
    inverses = []
    inv = Scalar.inv
    monkeypatch.setattr(Scalar, "inv", lambda c: inverses.append(c) or inv(c))
    C5 = FieldDescriptor(CYCLOTOMIC, 5)
    q = C5.q()
    p = skew_poly(3, {(1, 2): q, (1, 3): q ** 2, (2, 3): q ** 3}, C5)
    x1, x2, x3 = (p.generator(f"x{k}") for k in (1, 2, 3))
    x = (x3 * x2 + x1 * x3) ** 7 * (x2 * x1 - x3) ** 5
    assert inverses == [] and p.swap_scalars() is not None
    assert len(x.terms) > 1


# ---------------------------------------------------------------------------
# validation: overlap ambiguities against the two-strategy reference


def test_every_family_and_fixture_validates():
    for name in sorted(FAMILIES):
        p = _presentation(name)
        assert p.validate().ok, name
        assert reference_validate(p).ok, name


_SMALL = [Q.from_int(c) for c in (1, 1, 1, -1, 2, 3)]


@st.composite
def _terminating_presentations(draw, elim):
    """Random presentations over Q whose rewriting terminates.

    A tail uses non-invertible generators below the rule's lower
    generator and, when `elim` is set, invertible generators anywhere
    else. Every rule then lowers the multiset of non-invertible letters,
    or keeps it and shortens the word or removes an inversion. With `elim`
    set, consecutive non-invertible pairs may get elimination rules, and
    half of the draws are generalized Weyl algebras with at most one rule
    redrawn.
    """
    if elim and draw(st.booleans()):
        a = {e: draw(st.sampled_from(_SMALL)) for e in draw(st.sets(st.integers(-2, 2), min_size=1))}
        p = gwa(a, draw(st.sampled_from(_SMALL[3:])))
        rules, pairs = dict(p.rules), dict(p.elim)
        tails = st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(_SMALL)), max_size=2)
        which = draw(st.sampled_from(["none", "swap", "elim", "lead"]))
        if which == "swap":
            rules[(1, 0)] = RewriteRule(1, 0, Q.one(), tuple(
                sorted({(0, 0, e): c for e, c in draw(tails)}.items())))
        elif which == "elim":
            pairs[(0, 1)] = {(0, 0, e): c for e, c in draw(tails)}
        elif which == "lead":
            rules[(2, 1)] = RewriteRule(2, 1, draw(st.sampled_from(_SMALL)), ())
        return Presentation(Q, p.gens, rules=rules.values(), elim=pairs)
    m = draw(st.integers(2 if elim else 3, 3 if elim else 4))
    inv = [draw(st.booleans()) for _ in range(m)]
    gens = [GeneratorInfo(f"x{k + 1}", k + 1, invertible=inv[k]) for k in range(m)]

    def tail(lo, hi):
        letters = [(k, 1) for k in range(lo)]
        if elim:
            letters += [(k, s) for k in range(m) if inv[k] and not lo <= k <= hi
                        for s in (1, -1)]
        out = {}
        for _ in range(draw(st.integers(0, 2))):
            e = [0] * m
            for k, s in draw(st.lists(st.sampled_from(letters), max_size=2)) if letters else ():
                e[k] += s
            out[tuple(e)] = draw(st.sampled_from(_SMALL))
        return tuple(sorted(out.items()))

    rules = [
        RewriteRule(j, i, draw(st.sampled_from(_SMALL)),
                    () if inv[i] or inv[j] else tail(i, i))
        for j in range(m) for i in range(j)
    ]
    pairs = {}
    if elim:
        for i in range(m - 1):
            if not (inv[i] or inv[i + 1]) and draw(st.booleans()):
                pairs[(i, i + 1)] = dict(tail(i, i + 1))
    return Presentation(Q, gens, rules=rules, elim=pairs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=_terminating_presentations(elim=False))
def test_overlap_validation_agrees_with_reference_validate(p):
    assert p.validate().ok == reference_validate(p).ok


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=_terminating_presentations(elim=True))
def test_validated_presentations_are_associative(p):
    if not p.validate().ok:
        return
    monos = [p.monomial(mono) for mono in p.filtration_basis(2)]
    for a in monos:
        for b in monos:
            ab = a * b
            for c in monos:
                assert ab * c == a * (b * c)


# ---------------------------------------------------------------------------
# Ore extensions: each step checked once, against the old step check


def test_a_delta_that_is_not_a_sigma_derivation_fails_the_overlap_check():
    # delta(x) = x, delta(y) = 0 on the Weyl algebra: delta(y*x) = y*x but
    # delta(x*y - 1) = x*y. The old delta check compared two evaluations of
    # one normal form, so it could not see this.
    w = weyl1(Q)
    delta = {"x": w.generator("x"), "y": w.zero()}
    assert _sigma_delta_failures(w, identity_morphism(w), delta) == []
    with pytest.raises(ValidationError, match=r"word t\*y\*x normalizes") as err:
        ore_extend(w, "t", delta_images=delta)
    assert err.value.code == "INCONSISTENT_RULES"


def test_a_sigma_without_bounded_preimages_is_refused():
    p = poly(2, Q)
    s = p.generator("x1") + p.generator("x2")
    with pytest.raises(ValidationError, match="no bounded preimage for x1") as err:
        ore_extend(p, "t", sigma_images={"x1": s, "x2": s})
    assert err.value.code == "BAD_SIGMA"


def test_ore_extend_checks_only_the_new_step(monkeypatch):
    # a tower of two steps over the quantum Weyl algebra: one relation check
    # and one preimage solve per base generator for each new step
    calls = {"broken_relations": 0, "solve": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    a = quantum_weyl1()
    q = a.field.q()
    for fn in (presentation.broken_relations, presentation.solve):
        monkeypatch.setattr(presentation, fn.__name__, counting(fn))
    ext = ore_extend(a, "t", sigma_images={"x": a.generator("x").scale(q),
                                           "y": a.generator("y").scale(q.inv())})
    t = ext.generator("t")
    ore_extend(ext, "u", delta_images={g.name: t * ext.generator(g.name)
                                       - ext.generator(g.name) * t
                                       for g in ext.gens})
    assert calls == {"broken_relations": 2, "solve": 5}


def reference_ore_extend(p, name, sigma_images, delta_images, invertible):
    """What `ore_extend` gave before it checked each step once: the first
    error code of the old step check, of the rule shapes, or of
    `reference_validate` (which runs the old step check on every step of
    the tower); else the rules and sigma_status of the extension. The
    rules are built here, independently of `ore_extend`."""
    m = len(p.gens)
    sigma = Morphism(p, p, sigma_images)
    failures = _sigma_delta_failures(p, sigma, delta_images)
    if failures:
        return failures[0][0]
    rules = [RewriteRule(j, i, r.leading, tuple((mo + (0,), c) for mo, c in r.tail))
             for (j, i), r in p.rules.items()]
    for i, g in enumerate(p.gens):
        img, dg = sigma_images[g.name], delta_images[g.name]
        c = img.coefficient(tuple(int(k == i) for k in range(m)))
        rest = img - p.generator(g.name).scale(c)
        if (c.is_zero() or any(mono_degree(mo) > 1 for mo in rest.terms)
                or any(mono_degree(mo) > 2 for mo in dg.terms)):
            return "TAIL_DEGREE"
        tail = {mo + (1,): cm for mo, cm in rest.terms.items()}
        tail.update((mo + (0,), cm) for mo, cm in dg.terms.items())
        if invertible and tail:
            return "BAD_INVERSE"
        rules.append(RewriteRule(m, i, c, tuple(sorted(
            tail.items(), key=lambda t: grlex_key(t[0])))))
    ext = Presentation(
        p.field, list(p.gens) + [GeneratorInfo(name, m + 1, invertible)],
        rules=rules,
        elim={k: {mo + (0,): c for mo, c in tail} for k, tail in p.elim.items()},
    )
    ext.tower = p.tower + (OreStep(
        p, name, tuple(sigma_images[g.name] for g in p.gens),
        tuple(delta_images[g.name] for g in p.gens)),)
    report = reference_validate(ext)
    if not report.ok:
        return report.first_failure()[0]
    return ext.rules, report.sigma_status


_ORE_BASES = ["poly3", "laurent2", "skew3", "weyl1_q", "minus_one", "gwa"]


def _small_elements(p, degree):
    terms = st.dictionaries(st.sampled_from(p.filtration_basis(degree)),
                            st.sampled_from([1, 1, -1, 2]), max_size=2)
    return terms.map(lambda t: p.from_terms(
        {mo: p.field.from_int(c) for mo, c in t.items()}))


@st.composite
def _sigma_images(draw, p):
    # "sum" sends every generator to the sum of them all, which is not onto
    kind = draw(st.sampled_from(["scale", "scale", "perturb", "sum", "any"]))
    out = {}
    for g in p.gens:
        x = p.generator(g.name).scale(p.field.from_int(draw(st.sampled_from([1, 1, -1, 2]))))
        if kind == "sum":
            x = sum((p.generator(h.name) for h in p.gens), p.zero())
        elif kind == "perturb":
            x = x + draw(_small_elements(p, 1))
        elif kind == "any":
            x = draw(_small_elements(p, 2))
        out[g.name] = x
    return out


@pytest.mark.parametrize("name", _ORE_BASES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ore_extend_agrees_with_the_old_step_check(name, data):
    p = _presentation(name)
    sigma_images = data.draw(_sigma_images(p))
    zero = st.just(p.zero())
    images = st.one_of(zero, _small_elements(p, 2), _small_elements(p, 3))
    if data.draw(st.booleans()):
        images = zero
    delta_images = {g.name: data.draw(images) for g in p.gens}
    invertible = data.draw(st.booleans())
    expected = reference_ore_extend(p, "t", sigma_images, delta_images, invertible)
    try:
        ext = ore_extend(p, "t", sigma_images, delta_images, invertible)
    except ValidationError as err:
        assert err.code == expected
    else:
        assert (ext.rules, ext.validate().sigma_status) == expected


# ---------------------------------------------------------------------------
# element products against the loop they had before `linalg.add_scaled`


def reference_multiply(x, y) -> dict:
    """x*y as a terms dict: the loop of `Presentation.multiply` before it
    called `linalg.add_scaled`, kept verbatim. The order of its keys shows
    in the reports and the benchmark's digests."""
    p = x.algebra
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            c = ca * cb
            for m, cm in p._mono_mul(ma, mb).items():
                s = out.get(m)
                if s is None:
                    out[m] = c * cm
                    continue
                s = s + c * cm
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
    return out


def reference_add(x, y) -> dict:
    """x+y as a terms dict: the loop of `Element.__add__` before it called
    `linalg.add_scaled`, kept verbatim."""
    out = dict(x.terms)
    for m, c in y.terms.items():
        s = out.get(m)
        if s is None:
            out[m] = c
            continue
        s = s + c
        if s.is_zero():
            del out[m]
        else:
            out[m] = s
    return out


def _elements(p, degree, size):
    """Random elements of up to `size` terms of degree <= `degree`, their
    terms in random order."""
    scalars = st.sampled_from([1, 1, -1, 2, -3])
    pairs = st.lists(st.tuples(st.sampled_from(p.filtration_basis(degree)), scalars),
                     max_size=size, unique_by=lambda t: t[0])
    return pairs.map(lambda t: p.from_terms(
        {mo: p.field.from_int(c) for mo, c in t}))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_products_and_sums_keep_the_terms_and_order_of_the_old_loops(name, data):
    p = _presentation(name)
    x, y = data.draw(_elements(p, 2, 4)), data.draw(_elements(p, 2, 4))
    assert list((x * y).terms.items()) == list(reference_multiply(x, y).items())
    # x + (-x) cancels every term; (x + y) - y brings back the ones of x
    # that y cancelled, at the end
    for a, b in ((x, y), (x, -x), (x + y, -y), (x * y, y * x)):
        assert list((a + b).terms.items()) == list(reference_add(a, b).items())
