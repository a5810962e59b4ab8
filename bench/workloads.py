"""The benchmark's three workloads.

Each workload turns a seed into a deck of jobs. A job's `prepare` makes
the operation ready outside the clock and returns a zero-argument
callable (the timed operation); `check` compares its result with an
oracle; `text` renders it canonically for the run digest.

The seed picks inputs inside fixed cost strata, so that every seed gives
a deck of about the same cost: it draws the exponents that do not cross,
signs, coefficients, commutation scalars, primes, moduli, closure
generators and the job order, while the crossing exponents of each
product, the center degrees, the growth lengths and the factorization
shapes are fixed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracles as O


@dataclass
class Job:
    label: str
    prepare: Callable  # () -> the timed zero-argument operation
    check: Callable  # result -> bool
    text: Callable = str  # result -> canonical text for the run digest
    timed: bool = True  # False: run once after the timed loop, not in the metrics


COEFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
SMALL_PRIMES = (101, 103, 107, 109, 113)


def _to_scalars(field, terms):
    return {m: field.from_int(c) for m, c in terms.items()}


def _from_fractions(field, terms):
    out = {}
    for m, c in terms.items():
        s = field.from_fraction(c)
        if not s.is_zero():
            out[m] = s
    return out


def _from_group_ring(field, l, terms):
    """Oracle coefficients {q exponent: Fraction} -> engine Scalars."""
    out = {}
    q = field.q() if l > 2 else None
    for m, vec in terms.items():
        coeffs = O.reduce_group_ring(vec, l)
        s = field.zero()
        for i, c in enumerate(coeffs):
            if c:
                s = s + field.from_fraction(c) * (q ** i if i else field.one())
        if not s.is_zero():
            out[m] = s
    return out


# ---------------------------------------------------------------------------
# pbw-products

WEYL_STRATA = ((2, 3), (3, 2), (3, 4), (4, 3), (4, 4), (5, 3))
# The timed ladders y^k*x^k stop at k = LADDER_TOP and (0, k, k, 0) at
# k = QWEYL_TOP. The larger rungs, up to k = 7 and 4, and B1Q_LARGEST take
# 0.1 s and more, vary by up to 40% between runs on a shared machine and
# would set ops_per_s alone: they run once per run, outside the metrics
# (README, exclusions).
LADDER_TOP = 5
QWEYL_TOP = 3
# sizes of the cost classes that hold the percentiles (see pbw_jobs and
# invariants_jobs); each must straddle its percentile's rank
PBW_MEDIAN_CLASS = 20
PBW_P90_CLASS = 20
INVARIANTS_P90_CLASS = 10
QWEYL_STRATA = ((1, 2), (2, 1), (2, 2), (1, 3))
B1Q_STRATA = (("yx", 2, 3), ("yx", 3, 2), ("yx", 4, 4), ("xy", 3, 3), ("xy", 5, 5))
B1Q_LARGEST = ("yx", 5, 5)
Z_EXPONENTS = (-1, 1)  # |e|, |f| set the cost of a product; the signs vary


def qweyl_keys():
    keys = [(0, k, k, 0) for k in range(1, 5)]
    keys += [(a, b, c, d) for b, c in QWEYL_STRATA
             for a in range(4) for d in range(4)]
    return keys


def b1q_keys():
    return [(kind, b, e, c, f) for kind, b, c in B1Q_STRATA + (B1Q_LARGEST,)
            for e in Z_EXPONENTS for f in Z_EXPONENTS]


def qweyl_factors(key):
    a, b, c, d = key
    return {(a, b): 1}, {(c, d): 1}


def b1q_factors(key):
    kind, b, e, c, f = key
    if kind == "yx":
        return {(0, b, e): 1}, {(c, 0, f): 1}
    return {(b, 0, e): 1}, {(0, c, f): 1}


# Cost strata of the cheaper products. A pattern fixes the exponents that
# cross in a product, which set the rewriting cost; None marks an exponent
# the seed draws (it only lengthens an already sorted run of letters).
# Entries: (generators, cyclotomic order, lhs patterns, rhs patterns).
SKEW_SLOTS = (
    (2, 3, ((None, 6),), ((6, None),)),
    (2, 4, ((None, 5),), ((7, None),)),
    (2, 5, ((None, 8),), ((4, None),)),
    (3, 3, ((None, 3, 3),), ((3, 3, None),)),
    (3, 4, ((None, 4, 2),), ((2, 4, None),)),
    (3, 5, ((None, 2, 4),), ((4, 2, None),)),
    (2, 3, ((None, 3), (None, 2)), ((3, None), (2, None))),
    (2, 4, ((None, 4), (None, 1)), ((2, None), (3, None))),
    (3, 4, ((None, 2, 1), (None, 1, 2)), ((1, 2, None), (2, 1, None))),
    (2, 5, ((None, 2), (None, 1), (None, 3)), ((1, None), (2, None), (3, None))),
)
WEYL_LOW = (
    (((None, 2),), ((2, None),)),
    (((None, 3),), ((1, None),)),
    (((None, 1), (None, 2)), ((2, None), (1, None))),
)


def _pattern_sum(rng, patterns, free_hi, signed=False):
    out = {}
    for pattern in patterns:
        mono = tuple(rng.randint(0, free_hi) if e is None else e for e in pattern)
        if signed:
            mono = tuple(-e if rng.random() < 0.5 else e for e in mono)
        out[mono] = rng.choice(COEFS)
    return out


def _random_monomial(rng, n, deg, signed):
    cuts = sorted(rng.randint(0, deg) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [deg])]
    if signed:
        parts = [p if rng.random() < 0.5 else -p for p in parts]
    return tuple(parts)


def pbw_jobs(seed: int) -> list:
    """Seeded products a*b, each on its own presentation built and
    validated here; `prepare` copies it so `_mul_cache` starts cold."""
    from skewcalc import families, scalars
    FD = scalars.FieldDescriptor
    Q, GF = FD(scalars.RATIONAL), FD(scalars.PRIME, 32003)
    C3 = FD(scalars.CYCLOTOMIC, 3)
    rng = random.Random(f"pbw-products/{seed}")
    digests = O.load_digests()
    jobs = []

    def product(label, base, lhs, rhs, expected_terms=None, digest_key=None, timed=True):
        field = base.field

        def prepare():
            fresh = base.with_flags({})  # same validated rules, empty cache
            a = fresh.from_terms(_to_scalars(field, lhs))
            b = fresh.from_terms(_to_scalars(field, rhs))
            return lambda: fresh.multiply(a, b)

        expected = []

        def check(result):
            if digest_key is not None:
                return O.digest(str(result)) == digests[digest_key]
            if not expected:
                expected.append(expected_terms())
            return result.terms == expected[0]

        jobs.append(Job(label, prepare, check, timed=timed))

    def ladder(field, k, timed=True):
        lhs, rhs = {(0, k): 1}, {(k, 0): 1}
        product(f"weyl/{field}/y^{k}*x^{k}", families.weyl1(field), lhs, rhs,
                lambda: _from_fractions(field, O.weyl_product(lhs, rhs)), timed=timed)

    def qweyl(key, timed=True):
        lhs, rhs = qweyl_factors(key)
        product(f"qweyl/{key}", families.quantum_weyl1(), lhs, rhs,
                digest_key="qweyl:" + ",".join(map(str, key)), timed=timed)

    def b1q(kind, b, c, timed=True):
        key = (kind, b, rng.choice(Z_EXPONENTS), c, rng.choice(Z_EXPONENTS))
        lhs, rhs = b1q_factors(key)
        base = families.build(families.FamilySpec.make(
            "LOCALIZED_QWEYL1", C3, q=C3.q()))
        product(f"b1q/{key}", base, lhs, rhs,
                digest_key="b1q:" + ",".join(map(str, key)), timed=timed)

    # Weyl algebra: the y^k*x^k ladder up to k = LADDER_TOP, then seeded products
    for field in (Q, GF):
        for k in range(1, LADDER_TOP + 1):
            ladder(field, k)
        strata = [(((None, b), (None, 1)), ((c, None), (1, None)), 3)
                  for b, c in WEYL_STRATA]
        # the cost classes in which a percentile falls, so that no seeded
        # input decides it; free powers of at most 1 keep each class's cost
        if field == GF:  # y^5*x^5, at op_p90_ms
            strata += [(((None, 5),), ((5, None),), 1)] * PBW_P90_CLASS
        else:  # y^3*x^4, at op_p50_ms
            strata += [(((None, 3),), ((4, None),), 1)] * PBW_MEDIAN_CLASS
        for lhs_p, rhs_p, free_hi in strata + [(a, b, 3) for a, b in WEYL_LOW] * 2:
            lhs = _pattern_sum(rng, lhs_p, free_hi)
            rhs = _pattern_sum(rng, rhs_p, free_hi)
            product(f"weyl/{field}/{lhs}*{rhs}", families.weyl1(field), lhs, rhs,
                    lambda f=field, l=lhs, r=rhs: _from_fractions(f, O.weyl_product(l, r)))

    # quantum Weyl algebra over Q(q) and the localized one over
    # cyclotomic(3): monomial products checked against recorded digests
    qkeys = [(0, k, k, 0) for k in range(1, QWEYL_TOP + 1)]
    qkeys += [(rng.randint(0, 3), b, c, rng.randint(0, 3)) for b, c in QWEYL_STRATA]
    for key in qkeys:
        qweyl(key)
    for kind, b, c in B1Q_STRATA:
        b1q(kind, b, c)

    # skew polynomial rings and quantum tori over cyclotomic(3..5), and the
    # minus-one plane: q-commutation in closed form
    for family, signed in (("SKEW_POLY", False), ("QUANTUM_TORUS", True)):
        for n, l, lhs_p, rhs_p in SKEW_SLOTS * 2:
            field = FD(scalars.CYCLOTOMIC, l)
            qexp = {(i, j): rng.randint(1, l - 1) for j in range(n) for i in range(j)}
            qm = tuple(sorted(((i + 1, j + 1), field.q() ** a) for (i, j), a in qexp.items()))
            base = families.build(families.FamilySpec.make(family, field, n=n, q_matrix=qm))
            lhs = _pattern_sum(rng, lhs_p, 4, signed)
            rhs = _pattern_sum(rng, rhs_p, 4, signed)
            product(f"{family.lower()}/l={l}/{lhs}*{rhs}", base, lhs, rhs,
                    lambda f=field, l=l, a=lhs, b=rhs, e=qexp:
                    _from_group_ring(f, l, O.skew_product(a, b, e, l)))
    two_gen = [(lhs_p, rhs_p) for n, _, lhs_p, rhs_p in SKEW_SLOTS if n == 2]
    for lhs_p, rhs_p in two_gen * 2:
        lhs = _pattern_sum(rng, lhs_p, 4)
        rhs = _pattern_sum(rng, rhs_p, 4)
        product(f"minus_one/{lhs}*{rhs}", families.minus_one_plane(Q), lhs, rhs,
                lambda a=lhs, b=rhs:
                _from_group_ring(Q, 2, O.skew_product(a, b, {(0, 1): 1}, 2)))

    # the largest products, drawn last: the seeded timed deck does not depend on them
    for field in (Q, GF):
        for k in range(LADDER_TOP + 1, 8):
            ladder(field, k, timed=False)
    for k in range(QWEYL_TOP + 1, 5):
        qweyl((0, k, k, 0), timed=False)
    b1q(*B1Q_LARGEST, timed=False)
    return jobs


# ---------------------------------------------------------------------------
# invariants


def _closure_text(rep):
    return rep.status + ":" + ";".join(sorted(str(e) for e in rep.certified_basis))


def invariants_jobs(seed: int) -> list:
    """Seeded API jobs on presentations shared across jobs, as in a
    working session: centers, growth, divisor closures, and commutative
    algebra on k[x]/(f) with a known factorization."""
    from skewcalc import cancel, divisor, families, invariants, presentation, scalars
    FD = scalars.FieldDescriptor
    Q, G5, C3 = FD(scalars.RATIONAL), FD(scalars.PRIME, 5), FD(scalars.CYCLOTOMIC, 3)
    rng = random.Random(f"invariants/{seed}")
    digests = O.load_digests()

    m1 = families.minus_one_plane(Q)
    m1_7 = families.minus_one_plane(FD(scalars.PRIME, 7))
    w5 = families.weyl1(G5)
    w7 = families.weyl1(FD(scalars.PRIME, 7))
    t2 = families.quantum_torus(2, {(1, 2): C3.q()}, C3)
    b1q = families.build(families.FamilySpec.make("LOCALIZED_QWEYL1", C3, q=C3.q()))
    weyl = families.weyl1(Q)
    poly3 = families.poly(3, Q)
    a1q = families.quantum_weyl1()
    qwt = presentation.ore_extend(a1q, "t")
    qwt.validate()
    kxy = families.poly(2, Q)
    jobs = []

    def job(label, fn, check, text=str):
        jobs.append(Job(label, lambda: fn, check, text))

    # bounded centers
    def center_check(kind, d):
        def check(cb):
            return (all(len(e.terms) == 1 for e in cb.basis)
                    and {e.leading_monomial() for e in cb.basis}
                    == O.center_monomials(kind, d))
        return check

    def center_text(cb):
        return ",".join(str(e) for e in cb.basis)

    for kind, p, degrees in (("minus_one", m1, range(6, 11)),
                             ("minus_one", m1_7, range(6, 11)),
                             ("weyl_gf5", w5, range(6, 11)),
                             ("weyl_gf7", w7, range(6, 11)),
                             ("torus_l3", t2, (6,))):
        for d in degrees:
            job(f"center/{kind}/{p.field}/{d}",
                lambda p=p, d=d: invariants.center_bounded(p, d),
                center_check(kind, d), center_text)
    for d in (6,):
        job(f"center/b1q/{d}", lambda d=d: invariants.center_bounded(b1q, d),
            lambda cb, d=d: O.digest(center_text(cb)) == digests[f"center:b1q:{d}"],
            center_text)

    # growth tables and GK estimates
    def growth(p, N):
        table = invariants.growth_dims(p, N)
        return table.dims, invariants.gk_estimate(table)["snap"]

    for kind, p, snap, sizes in (("weyl", weyl, 2, range(12, 21)),
                                 ("poly3", poly3, 3, (12, 14)),
                                 ("qweyl_t", qwt, 3, (12,))):
        for N in sizes:
            job(f"growth/{kind}/{N}", lambda p=p, N=N: growth(p, N),
                lambda r, k=kind, N=N, s=snap: r == (O.growth_closed_form(k, N), s))

    # divisor closures: the acceptance-criterion runs, then seeded F
    caps3 = {"degree_cap": 3, "max_rounds": 2}
    caps2 = {"degree_cap": 2, "max_rounds": 2}
    z = presentation.parse_element(a1q, "x*y - y*x")
    x_powers = {(i, 0) for i in range(4)}

    def closure(label, p, F, caps, status, leading=None):
        def check(rep):
            return rep.status == status and (
                leading is None
                or {e.leading_monomial() for e in rep.certified_basis} == leading)
        job(f"closure/{label}", lambda: divisor.divisor_closure(p, F, caps),
            check, _closure_text)

    closure("a1q/z", a1q, [z], caps3, "FULL")
    closure("torus/1", t2, [t2.one()], caps2, "FULL")
    closure("b1q/1", b1q, [b1q.one()],
            {"degree_cap": 3, "max_rounds": 3, "max_deg_a": 1, "max_deg_b": 1}, "FULL")
    closure("poly2/x", kxy, [kxy.generator("x1")], caps3, "INCONCLUSIVE", x_powers)
    for _ in range(36):  # a unit monomial of the torus controls it
        m = _random_monomial(rng, 2, 2, True)
        F = t2.from_terms({m: C3.from_int(rng.choice(COEFS))})
        closure(f"torus/{F}", t2, [F], caps2, "FULL")
    # the cost class at op_p90_ms: x1^2 or x1^3, which only reach the powers
    # of x1; the many cheap FULL runs below put the 90th percentile inside it
    for _ in range(INVARIANTS_P90_CLASS):
        F = kxy.from_terms({(rng.randint(2, 3), 0): Q.from_int(rng.choice(COEFS))})
        closure(f"poly2/{F}", kxy, [F], caps3, "INCONCLUSIVE", x_powers)
    for _ in range(40):  # x1^i*x2^j with i, j >= 1 has both generators as subwords
        i = rng.randint(1, 2)
        F = kxy.from_terms({(i, rng.randint(1, 3 - i)): Q.from_int(rng.choice(COEFS))})
        closure(f"poly2/{F}", kxy, [F], caps3, "FULL")

    # commutative algebra on k[x]/(f), f with a known factorization
    # over GF(p) at most one factor is non-linear: local_decomposition does
    # not split two non-linear factors there (see README, exclusions)
    for p, shape in ((None, [(1, 3), (2, 2), (1, 1)]),
                     (rng.choice(SMALL_PRIMES), [(1, 3), (2, 2), (1, 1)])):
        field = Q if p is None else FD(scalars.PRIME, p)
        f, nfac, nil_dim = O.factored_modulus(rng, p, shape)
        a = cancel.univariate_quotient(field, [field.from_int(c) for c in f])
        tag = f"{field}/{f}"
        job(f"nilradical/{tag}", lambda a=a: cancel.nilradical(a),
            lambda r, n=nil_dim: len(r["basis"]) == n,
            lambda r: str(len(r["basis"])) + str(r["basis"]))
        job(f"decompose/{tag}", lambda a=a: cancel.local_decomposition(a),
            lambda r, n=nfac: r["status"] == "DECOMPOSED" and len(r["factors"]) == n,
            lambda r: r["status"] + str([f["idempotent"] for f in r["factors"]]))
        job(f"units/{tag}", lambda a=a: cancel.units_generated(a),
            lambda r: r["status"] == "TRUE", lambda r: json.dumps(r, default=str))

    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli-session


FIXTURES = ("a1q", "b1q3", "laurent2", "minusone", "poly2", "t2q3", "weyl1")
REGISTRY_IDS = ["ex5_5_1", "ex5_5_2"]


def _torus_stanza(rng, family, n, l):
    a = {}
    for j in range(n):
        for i in range(j):
            a[(i, j)] = rng.randint(0, l - 1)
    params = " ".join(f"a{i + 1}{j + 1}={v}" for (i, j), v in a.items() if v)
    return f"family {family} n={n} l={l} {params};\n", a


def _gfp_stanza(rng, n, p):
    gens = ", ".join(f"x{i}" for i in range(1, n + 1))
    rules = "".join(
        f"  rule x{j}*x{i} = {rng.randrange(2, p)}*x{i}*x{j};\n"
        for j in range(2, n + 1) for i in range(1, j))
    return f"algebra g {{\n  field gf({p});\n  gens {gens};\n{rules}  flag DOMAIN;\n}}\n"


def _poly_arg(rng, p):
    """A --poly argument with known factor count and nilradical dim."""
    shape = [(1, 2), (2, 1), (1, 1)] if p is None else [(1, 2), (3, 1), (1, 1)]
    f, nfac, nil_dim = O.factored_modulus(rng, p, shape)
    field = "rational" if p is None else f"gf({p})"
    return field, ",".join(map(str, f)), nfac, nil_dim


class CliSession:
    """Builds the `skewcalc` calls of one session. Generated `.alg`
    files go to `workdir`. In-process mode calls `skewcalc.cli.run`
    (the traced run); otherwise each call is a fresh subprocess."""

    def __init__(self, root, workdir, in_process):
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def call(self, args):
        """The call as a zero-argument callable returning (exit code, stdout)."""
        if self.in_process:
            return lambda: _in_process_call(args)
        argv = [sys.executable, "-m", "skewcalc.cli", *args]
        return lambda: _subprocess_call(argv, self.env)


def _subprocess_call(argv, env):
    out = subprocess.run(argv, capture_output=True, env=env, timeout=170)
    return out.returncode, out.stdout


def _in_process_call(args):
    cli = sys.modules["skewcalc.cli"]
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        rc = cli.run(list(args))
    stdout.flush()
    return rc, stdout.buffer.getvalue()


def cli_jobs(seed: int, session: CliSession) -> list:
    rng = random.Random(f"cli-session/{seed}")
    fx = {name: os.path.join(session.root, "src", "skewcalc", "fixtures", name + ".alg")
          for name in FIXTURES}
    jobs = []

    def write(name, text):
        path = os.path.join(session.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def call(label, args, rc=0, fields=None, fmt=None):
        """`fields(result)` checks a JSON report; text reports are checked
        for their header lines."""
        fmt = fmt or rng.choice(("json", "text"))
        if rc == 0:
            args = [*args, "--format", fmt]
        command = args[0]

        def check(res):
            code, out = res
            if code != rc:
                return False
            if rc != 0:
                return out == b""
            if fmt == "text":
                return (b"format_version: 1\n" in out
                        and f"command: {command}\n".encode() in out)
            report = json.loads(out)
            return (report["format_version"] == 1 and report["command"] == command
                    and (fields is None or fields(report["result"])))

        jobs.append(Job(f"cli/{label}/{fmt}", lambda: session.call(args), check,
                        lambda res: f"{res[0]}:{O.digest(res[1].decode())}"))

    for name in FIXTURES:
        call(f"check/{name}", ["check", fx[name]], fields=lambda r: r["ok"] is True)

    # generated presentations: tori and skew rings with 3..5 generators
    # over cyclotomic(l), skew rings over gf(p) with p near 10^12
    tori = []
    for family, n, l in (("quantum_torus", 3, 5), ("quantum_torus", 4, 4),
                         ("quantum_torus", 5, 3), ("skew_poly", 3, 3),
                         ("skew_poly", 4, 4), ("skew_poly", 5, 5)):
        text, a = _torus_stanza(rng, family, n, l)
        path = write(f"{family}-{len(tori)}.alg", text)
        tori.append((family, path, n, l, a))
        call(f"check/{family}/n={n}/l={l}", ["check", path], fields=lambda r: r["ok"] is True)
    gfp = []
    for k in range(4):
        p = O.next_prime(10 ** 12 + rng.randrange(10 ** 9))
        path = write(f"gfp-{k}.alg", _gfp_stanza(rng, 3, p))
        gfp.append(path)
        call(f"check/gf({p})", ["check", path], fields=lambda r: r["ok"] is True)

    for family, path, n, l, a in tori:
        lhs = "*".join(f"x{i}^{rng.randint(1, 3)}" for i in range(1, n + 1))
        rhs = "*".join(f"x{i}^{rng.randint(1, 3)}" for i in range(n, 0, -1))
        call(f"mul/{family}", ["mul", path, "--lhs", lhs, "--rhs", rhs],
             fields=lambda r: "product" in r)
        if family == "quantum_torus":
            mat = [[0] * n for _ in range(n)]
            for (i, j), v in a.items():
                mat[i][j], mat[j][i] = v, -v
            call(f"center-torus/n={n}/l={l}", ["center-torus", path],
                 fields=lambda r, idx=O.torus_index(n, l, mat): r["index"] == idx)
    for path in gfp:
        call("mul/gfp", ["mul", path, "--lhs", f"x3^{rng.randint(2, 5)}*x1",
                         "--rhs", f"x2^{rng.randint(2, 5)}*x1"],
             fields=lambda r: "product" in r)
        call("growth/gfp", ["growth", path, "--N", str(rng.randint(4, 6))],
             fields=lambda r: r["dims"][:3] == [1, 4, 10])

    # the shipped fixtures through every other subcommand
    for _ in range(6):
        lhs = {(rng.randint(0, 2), rng.randint(1, 4)): rng.choice(COEFS)}
        rhs = {(rng.randint(1, 4), rng.randint(0, 2)): rng.choice(COEFS)}
        call("mul/weyl1", ["mul", fx["weyl1"], "--lhs=" + O.render(lhs, "xy"),
                           "--rhs=" + O.render(rhs, "xy")],
             fields=lambda r, e=O.render(O.weyl_product(lhs, rhs), "xy"): r["product"] == e)
        lhs = {(rng.randint(0, 3), rng.randint(1, 3)): rng.choice(COEFS)}
        rhs = {(rng.randint(1, 3), rng.randint(0, 3)): rng.choice(COEFS)}
        expected = {m: O.reduce_group_ring(v, 2)[0] for m, v in
                    O.skew_product(lhs, rhs, {(0, 1): 1}, 2).items()}
        call("mul/minusone", ["mul", fx["minusone"], "--lhs=" + O.render(lhs, "xy"),
                              "--rhs=" + O.render(rhs, "xy")],
             fields=lambda r, e=O.render(expected, "xy"): r["product"] == e)
    call("mul/a1q", ["mul", fx["a1q"], "--lhs", f"y^{rng.randint(1, 3)}",
                     "--rhs", f"x^{rng.randint(1, 3)}"], fields=lambda r: "product" in r)
    for d in (4, 5, 6, rng.randint(4, 6)):
        call(f"center/minusone/{d}", ["center", fx["minusone"], "--max-degree", str(d)],
             fields=lambda r, d=d: r["dimension"] == len(O.center_monomials("minus_one", d)))
    call("center/weyl1", ["center", fx["weyl1"], "--max-degree", str(rng.randint(3, 5))],
         fields=lambda r: r["basis"] == ["1"])
    call("center/b1q3", ["center", fx["b1q3"], "--max-degree", "3"],
         fields=lambda r: r["dimension"] >= 1)
    call("center-torus/t2q3", ["center-torus", fx["t2q3"]], fields=lambda r: r["index"] == 9)
    for N in (8, 10, 12, rng.randint(8, 12)):
        call(f"growth/poly2/{N}", ["growth", fx["poly2"], "--N", str(N)],
             fields=lambda r, N=N: r["dims"] == [(n + 1) * (n + 2) // 2 for n in range(N + 1)])
    for N in (6, rng.randint(6, 8)):
        call(f"growth/laurent2/{N}", ["growth", fx["laurent2"], "--N", str(N)],
             fields=lambda r, N=N: r["dims"] == [2 * n * n + 2 * n + 1 for n in range(N + 1)])
    for name in ("weyl1", "poly2", "weyl1", "poly2", "laurent2"):
        call(f"gkdim/{name}", ["gkdim", fx[name], "--N", str(rng.randint(10, 12))],
             fields=lambda r: r["snap"] == 2)
    for cap in ("2", "3"):
        call(f"divisor/a1q/{cap}", ["divisor", fx["a1q"], "--from", "x*y - y*x",
                                    "--degree-cap", cap, "--max-rounds", "2"],
             fields=lambda r: r["status"] == "FULL")
    call("divisor/poly2", ["divisor", fx["poly2"], "--from", "x", "--degree-cap", "3"],
         fields=lambda r: r["status"] == "INCONCLUSIVE" and r["basis_dim"] == 4)
    for gen in ("1", rng.choice(("x1", "x2", "x1^-1", "x2^-1"))):
        call(f"controlling/t2q3/{gen}", ["controlling", fx["t2q3"], "--from", gen,
                                         "--degree-cap", "2", "--max-rounds", "2"],
             fields=lambda r: r["status"] == "CONTROLLING")
    for name in ("weyl1", "laurent2"):
        call(f"certify/{name}", ["certify", fx[name], "--degree-cap", "2", "--N", "8"],
             fields=lambda r: len(r["verdicts"]) > 0)
    call("certify/minusone", ["certify", fx["minusone"], "--assert", "ML_FULL",
                              "--degree-cap", "2", "--N", "8"],
         fields=lambda r: "R10" in {v["rule"] for v in r["verdicts"]})
    for fixture in REGISTRY_IDS:
        call(f"verify-iso/{fixture}", ["verify-iso", "--fixture", fixture],
             fields=lambda r: r["pass"] is True)
    call("registry", ["registry"],
         fields=lambda r: sorted(f["id"] for f in r["fixtures"]) == REGISTRY_IDS)
    call("registry/verify", ["registry", "--verify"],
         fields=lambda r: all(f["verified"] for f in r["fixtures"]))
    for p in (None,) * 4 + tuple(rng.choice(SMALL_PRIMES) for _ in range(4)):
        field, poly, nfac, nil_dim = _poly_arg(rng, p)
        call(f"nilradical/{field}", ["nilradical", "--field", field, f"--poly={poly}"],
             fields=lambda r, n=nil_dim: r["nilradical_dim"] == n)
        call(f"decompose/{field}", ["decompose", "--field", field, f"--poly={poly}"],
             fields=lambda r, n=nfac: r["status"] == "DECOMPOSED" and r["factor_count"] == n)

    # inputs that must fail with a given exit code
    bad = [
        "algebra a { field rational; gens x; rule x*x = ; }",
        "algebra a { field rational; gens x, y; rule y*x = x*y +; }",
        "algebra a { field nosuch; gens x; }",
        "family no_such_family n=2;",
    ]
    for k, text in enumerate(bad):
        call(f"exit2/{k}", ["check", write(f"bad-{k}.alg", text)], rc=2)
    composite = O.next_prime(10 ** 6 + rng.randrange(1000)) * O.next_prime(2 * 10 ** 6)
    call("exit2/gf(composite)", ["check", write("composite.alg",
                                                _gfp_stanza(rng, 2, composite))], rc=2)
    call("exit3/invalid-rules", ["check", write("invalid.alg",
         "algebra a { field rational; gens x, y; rule y*x = x*y + x*y^2; }")], rc=3)
    call("exit3/gf(composite)", ["nilradical", "--field", f"gf({composite})",
                                 "--poly=1,0,1"], rc=3)
    for cap in ("100", str(rng.randint(70, 99))):
        call(f"exit4/closure/{cap}", ["divisor", fx["poly2"], "--from", "x",
                                      "--degree-cap", cap], rc=4)

    rng.shuffle(jobs)
    return jobs


# Should exit 0; argparse reads `-1,0,1` as an option, so it exits 1.
KNOWN_DEFECT = ["decompose", "--poly", "-1,0,1"]
