"""Seeded workloads: input decks, the op each one runs, and its answer check.

A deck is an endless sequence of rounds.  Every round holds the same slots
(algebra family, weight scheme and size level); the seed draws the
parameters, the exact exponents and the order of the slots inside the
round.  So any run of whole rounds carries the same mix of cheap and heavy
ops, slow slots included, and the spread between seeds stays small.

Ops reach the package only through ``downup.cli.main`` or public functions
looked up on their modules at call time, so the traced run can wrap them.
Checks compare recorded outputs against ``reference`` after the timed
phase and return a list of problems (empty when the answer is right).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import reference as ref
from reference import T, X1, X2, X3

# Seeds recorded for re-checking claims: DEFAULT_SEED is the one used while
# writing a change, HELD_OUT_SEED is kept for the final check.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

# Per-op decision limits in seconds; an op still running at its limit is
# aborted and counted as failed.  Each is about 10x the slowest op seen in
# the workload's draw ranges at the first measured commit, so only a real
# slowdown reaches it, and a run with a stuck op still ends well within the
# 180 s a run may take.
LIMIT_S = {"certify": 5.0, "reduce": 10.0, "ideals": 10.0}


@dataclass
class Spec:
    """An algebra as the benchmark drew it, with the parameters it expects."""

    doc: dict                  # the JSON spec file the CLI reads
    lam: Fraction
    omega: Fraction
    gamma: Fraction
    f: tuple                   # constant first, trailing zeros trimmed
    scheme: str

    @property
    def deg_f(self) -> int:
        return len(self.f) - 1

    @property
    def x2_weight(self) -> int:
        return 1 if self.scheme == "all-ones" else self.deg_f

    @property
    def weights(self) -> tuple:
        return (1, self.x2_weight, self.x2_weight)

    @property
    def solvable(self) -> bool:
        return self.lam * self.omega != 0 and self.deg_f >= 1

    def reference(self) -> ref.GDUReference:
        return ref.GDUReference(self.lam, self.omega, self.gamma, self.f)


def _text(x: Fraction) -> str:
    return str(Fraction(x))


# Coefficients stay small: the cost of exact arithmetic grows with their
# size, and wider draws spread op costs more between seeds.
def _nonzero(rng) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.choice([1, 2]))


def _trim(coeffs) -> tuple:
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_of_degree(rng, d: int) -> list:
    return [_rational(rng) for _ in range(d)] + [_nonzero(rng)]


def _scheme(rng, scheme: str, deg_f: int) -> str:
    if scheme != "any":
        return scheme
    valid = [s for s, ok in (("all-ones", deg_f <= 2), ("deg-f", deg_f >= 1)) if ok]
    return rng.choice(valid)


def draw_spec(rng, family: str, scheme: str = "any") -> Spec:
    """Draw one algebra of the named family.

    Families: the five presets (``sl2``, ``smithN`` with deg f = N,
    ``woronowicz``, ``conformal``, ``down_up``), explicit random parameters
    ``randomN`` with deg f = N, and ``random-lw0`` with lambda*omega = 0.
    """
    if family == "sl2":
        lam, omega, gamma, f, args = 1, 1, 2, (0, -1), None
    elif family.startswith("smith"):
        given = _poly_of_degree(rng, int(family[5:]))
        lam, omega, gamma, f = 1, 1, 1, [-c for c in given]
        args = {"f": [_text(c) for c in given]}
    elif family == "woronowicz":
        z = _nonzero(rng)
        lam, omega, gamma, f = z ** 4, z ** 2, -(1 + z ** 2), (0, -z)
        args = {"zeta": _text(z)}
    elif family == "conformal":
        b, lam, omega, gamma = _nonzero(rng), 1, 1, 1
        f = (0, 1, b)
        args = {"b": _text(b)}
    elif family == "down_up":
        r1, r2, gamma = _nonzero(rng), _nonzero(rng), _rational(rng)
        lam, omega, f = max(r1, r2), min(r1, r2), (0, 1)
        args = {"alpha": _text(r1 + r2), "beta": _text(-r1 * r2),
                "gamma": _text(gamma)}
    elif family.startswith("random"):
        lam, omega, gamma = _nonzero(rng), _nonzero(rng), _rational(rng)
        if family == "random-lw0":
            f = _poly_of_degree(rng, rng.choice([1, 2]))
            if rng.random() < 0.5:
                lam = Fraction(0)
            else:
                omega = Fraction(0)
        else:
            f = _poly_of_degree(rng, int(family[6:]))
        args = None
    else:
        raise ValueError(f"unknown family {family!r}")
    f = _trim(f)
    chosen = _scheme(rng, scheme, len(f) - 1)
    if family.startswith("random"):
        doc = {"lambda": _text(lam), "omega": _text(omega), "gamma": _text(gamma),
               "f": [_text(c) for c in f], "scheme": chosen}
    else:
        name = "smith" if family.startswith("smith") else family
        doc = {"preset": name, "scheme": chosen}
        if args:
            doc["args"] = args
    return Spec(doc, Fraction(lam), Fraction(omega), Fraction(gamma), f, chosen)


# ---- decks ------------------------------------------------------------------

@dataclass
class Op:
    workload: str
    spec: Spec
    data: dict = field(default_factory=dict)
    spec_path: str = ""


class Deck:
    """Endless seeded rounds of ops for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in BUILDERS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._build = BUILDERS[workload]

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        ops = self._build(rng)
        rng.shuffle(ops)
        return ops

    def rounds(self):
        for index in itertools.count():
            yield self.round(index)


def write_spec(op: Op, workdir: str, serial: int) -> None:
    op.spec_path = os.path.join(workdir, f"spec{serial}.json")
    with open(op.spec_path, "w", encoding="utf-8") as handle:
        json.dump(op.spec.doc, handle)


# certify: one session per slot.  14 slots have deg f = 1 and lambda*omega
# != 0, where verify_ordering_axioms does most of the work (about 0.19 s
# each at the first measured commit); 5 have deg f >= 2, where the larger
# weights leave few monomials to check (about 0.03 s); 2 take the SKIP paths
# (lambda*omega = 0, deg f = 0).  With the deg f = 1 slots a clear majority,
# the median falls inside one cost cluster rather than between two.
CERTIFY_SLOTS = (
    ("sl2", "all-ones"), ("sl2", "deg-f"),
    ("smith1", "all-ones"), ("smith1", "deg-f"),
    ("woronowicz", "all-ones"), ("woronowicz", "deg-f"),
    ("down_up", "all-ones"), ("down_up", "deg-f"),
    ("random1", "all-ones"), ("random1", "deg-f"),
    ("random1", "all-ones"), ("random1", "deg-f"),
    ("random1", "all-ones"), ("random1", "deg-f"),
    ("conformal", "all-ones"), ("conformal", "deg-f"),
    ("smith3", "deg-f"), ("random2", "all-ones"), ("random3", "deg-f"),
    ("random-lw0", "any"), ("random0", "all-ones"),
)
GRADED_SUBCOMMANDS = ("assoc", "homogenize", "hilbert", "gk", "rees")


def build_certify(rng) -> list[Op]:
    return [Op("certify", draw_spec(rng, family, scheme),
               {"cli_seed": rng.randrange(1 << 20)})
            for family, scheme in CERTIFY_SLOTS]


# reduce: slot = (family, scheme, homogenized, word lengths).  Each round
# holds one word X3^a*X1^b*X2^c per listed length a+b+c.  The length ranges
# stop where the slowest word of a slot takes about a second at the first
# measured commit: the cost grows about 7x per unit of length, and longer
# words would leave too few ops in a run for a stable 90th percentile.
REDUCE_SLOTS = (
    ("sl2", "any", False, range(6, 16)),
    ("woronowicz", "any", False, range(6, 16)),
    ("down_up", "any", False, range(6, 16)),
    ("random1", "any", False, range(6, 16)),
    ("random0", "all-ones", False, range(6, 16)),
    ("conformal", "all-ones", False, range(6, 14)),
    ("random2", "all-ones", False, range(6, 14)),
    ("conformal", "deg-f", False, range(6, 10)),
    ("smith3", "deg-f", False, range(6, 10)),
    ("sl2", "any", True, range(6, 10)),
    ("woronowicz", "any", True, range(6, 10)),
    ("down_up", "any", True, range(6, 10)),
    ("random1", "any", True, range(6, 10)),
    ("conformal", "all-ones", True, range(6, 9)),
    ("conformal", "deg-f", True, range(6, 8)),
)


def _split(rng, length: int) -> tuple:
    """Exponents (a, b, c) summing to ``length`` as evenly as possible; the
    seed picks which exponents take the remainder.  Uneven splits of one
    length differ in cost several times over, and would make the median
    depend on the seed."""
    exps = [length // 3] * 3
    for position in rng.sample(range(3), length % 3):
        exps[position] += 1
    return tuple(exps)


def build_reduce(rng) -> list[Op]:
    ops = []
    for family, scheme, homog, lengths in REDUCE_SLOTS:
        for length in lengths:
            a, b, c = _split(rng, length)
            ops.append(Op("reduce", draw_spec(rng, family, scheme),
                          {"exps": (a, b, c), "homogenized": homog}))
    return ops


# ideals: library sessions on solvable presets, six per family and round.
# The first has one generator of weighted degree <= 3; the others have two
# generators of 1-2 terms and degree <= 2.  At the first measured commit,
# two generators of degree 3 sometimes ran left_buchberger past a minute,
# and three-term generators past a second, which alone moved a run's
# figures by several percent.  The large product takes k = 4, 5, 6, 6, 6, 7:
# at k = 8 one deg f = 2 product takes about 2 s, and the triple k = 6 puts
# the median inside one cost cluster rather than between two.
IDEALS_FAMILIES = ("sl2", "woronowicz", "down_up", "smith1", "conformal")
IDEALS_K = (4, 5, 6, 6, 6, 7)


def _monomials(weights, lo: int, hi: int) -> list:
    return [e for e in itertools.product(range(hi + 1), repeat=3)
            if lo <= sum(w * a for w, a in zip(weights, e)) <= hi]


def _random_pbw(rng, monos, nterms: int) -> dict:
    return {e: _nonzero(rng) for e in rng.sample(monos, min(nterms, len(monos)))}


def _perturbed_relations(rng, spec: Spec) -> tuple[list, int]:
    """Top weighted-degree parts of the defining relations, each with one
    extra seeded term of the same degree below its leading word.

    The set stays weighted-homogeneous, so completion can never reach a
    constant; it is usually no longer a Groebner basis.
    """
    w = spec.weights
    r31 = {(X3, X1): 1, (X1, X3): -spec.lam}
    r12 = {(X1, X2): 1, (X2, X1): -spec.lam}
    r32 = {(X3, X2): 1, (X2, X3): -spec.omega}
    if spec.scheme == "all-ones" and spec.deg_f == 2:
        r32[(X1, X1)] = spec.f[2]  # f(X1) has the top degree only here
    out = []
    for rel in (r31, r12, r32):
        rel = {word: Fraction(c) for word, c in rel.items() if c}
        lead = max(rel, key=lambda word: ref.word_key(word, w, ref.RANK))
        degree = sum(w[g] for g in lead)
        below = [word for n in range(1, degree + 1)
                 for word in itertools.product((X1, X2, X3), repeat=n)
                 if sum(w[g] for g in word) == degree and word not in rel
                 and ref.word_key(word, w, ref.RANK) < ref.word_key(lead, w, ref.RANK)]
        if below:
            rel[rng.choice(below)] = _nonzero(rng)
        out.append(rel)
    bound = max(sum(w[g] for g in word) for rel in out for word in rel) + 2
    return out, bound


def build_ideals(rng) -> list[Op]:
    ops = []
    for family in IDEALS_FAMILIES:
        for slot, k in enumerate(IDEALS_K):
            spec = draw_spec(rng, family)
            n = spec.deg_f
            weights = (n, 1, n)
            if slot == 0:
                gens = [_random_pbw(rng, _monomials(weights, 1, 3), rng.randint(1, 3))]
            else:
                gens = [_random_pbw(rng, _monomials(weights, 1, 2), rng.randint(1, 2))
                        for _ in range(2)]
            algebra = spec.reference()
            small = _monomials(weights, 0, 2)
            queries = []
            for _ in range(4):
                member: dict = {}
                for g in gens:
                    for e, c in algebra.multiply(_random_pbw(rng, small, rng.randint(1, 2)),
                                                 g).items():
                        ref.add_term(member, e, c)
                queries.append((member, True))
            for _ in range(4):
                queries.append((_random_pbw(rng, _monomials(weights, 0, 3),
                                            rng.randint(1, 3)), False))
            relations, bound = _perturbed_relations(rng, spec)
            ops.append(Op("ideals", spec, {"gens": gens, "queries": queries, "k": k,
                                           "relations": relations, "bound": bound}))
    return ops


BUILDERS = {"certify": build_certify, "reduce": build_reduce, "ideals": build_ideals}


# ---- executing ops ----------------------------------------------------------

def _cli(downup, argv: list) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = downup.cli.main(argv)
    return code, buffer.getvalue()


def execute(downup, op: Op):
    """Run one op against the package; returns its raw outputs."""
    if op.workload == "certify":
        spec = ["--spec", op.spec_path, "--format", "machine"]
        outs = [_cli(downup, ["certify", *spec, "--seed", str(op.data["cli_seed"])])]
        outs += [_cli(downup, ["graded", sub, *spec]) for sub in GRADED_SUBCOMMANDS]
        return outs
    if op.workload == "reduce":
        a, b, c = op.data["exps"]
        argv = ["nf", "--spec", op.spec_path, "--format", "machine"]
        if op.data["homogenized"]:
            argv.append("--homogenized")
        return _cli(downup, argv + [f"X3^{a}*X1^{b}*X2^{c}"])
    return _ideals_session(downup, op)


def _ideals_session(downup, op: Op) -> dict:
    PBWPoly, FreePoly = downup.solvable.PBWPoly, downup.freealg.FreePoly
    spec = op.spec.doc
    alg = downup.gdu.preset(spec["preset"], scheme=spec["scheme"], **spec.get("args", {}))
    sol = downup.gdu.to_solvable(alg)
    basis = downup.solvable.left_buchberger(sol, [PBWPoly(g) for g in op.data["gens"]])
    remainders = [downup.solvable.nf_left(sol, PBWPoly(q), basis)
                  for q, _ in op.data["queries"]]
    k = op.data["k"]
    product = sol.multiply(sol.monomial((0, k, k)), sol.monomial((k, 0, 0)))
    rels = downup.freealg.RelationSet([FreePoly(r) for r in op.data["relations"]],
                                      alg.order)
    completed, flag = downup.freealg.complete(rels, alg.order, op.data["bound"])
    return {"basis": [b.terms for b in basis],
            "remainders": [r.terms for r in remainders],
            "product": product.terms,
            "completed": completed, "flag": flag, "order": alg.order}


# ---- checking answers -------------------------------------------------------

def check(downup, op: Op, out) -> list[str]:
    """Problems with one op's recorded outputs; empty when all is right."""
    try:
        return CHECKERS[op.workload](downup, op, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _report(code: int, text: str, problems: list, label: str):
    if code != 0:
        problems.append(f"{label}: exit code {code}")
        return None
    doc = json.loads(text)
    return {c["name"]: c for c in doc["checks"]}, doc


def _frac(value) -> Fraction:
    return Fraction(str(value))


def _rows_equal(rows, expected_a, expected_b) -> bool:
    return [tuple(r) for r in rows] == [(q, a, b) for q, (a, b)
                                        in enumerate(zip(expected_a, expected_b))]


def check_certify(downup, op: Op, outs) -> list[str]:
    spec, problems = op.spec, []
    counts8 = ref.exponent_triple_counts(spec.x2_weight, 8)
    code, text = outs[0]
    got = _report(code, text, problems, "certify")
    if got is not None:
        checks, doc = got
        seen = doc["spec"]
        expected = (spec.lam, spec.omega, spec.gamma, list(spec.f), spec.scheme)
        if (_frac(seen["lambda"]), _frac(seen["omega"]), _frac(seen["gamma"]),
                [_frac(c) for c in seen["f"]], seen["scheme"]) != expected:
            problems.append(f"certify: algebra {seen} is not the drawn {expected}")
        if checks["groebner-basis"]["status"] != "pass":
            problems.append("certify: groebner-basis not PASS")
        pbw = checks["pbw-counts"]
        if pbw["status"] != "pass" or not _rows_equal(pbw["detail"]["rows"], counts8, counts8):
            problems.append("certify: pbw rows differ from exponent-triple counts")
        verdict = "pass" if spec.solvable else "skip"
        for name in ("solvable-axioms", "ordering-axioms", "product-agreement"):
            if checks[name]["status"] != verdict:
                problems.append(f"certify: {name} is {checks[name]['status']}, expected {verdict}")
    graded = dict(zip(GRADED_SUBCOMMANDS, outs[1:]))
    for sub, (code, text) in graded.items():
        got = _report(code, text, problems, f"graded {sub}")
        if got is None:
            continue
        checks, doc = got
        if spec.deg_f == 0:
            if [c["status"] for c in checks.values()] != ["skip"]:
                problems.append(f"graded {sub}: expected SKIP for deg f = 0")
            continue
        if not doc["ok"] or any(c["status"] != "pass" for c in checks.values()):
            problems.append(f"graded {sub}: not all checks PASS")
        if sub == "assoc":
            counts = ref.exponent_triple_counts(spec.x2_weight, 10)
            if not _rows_equal(checks["dimension-ladder"]["detail"]["rows"], counts, counts):
                problems.append("graded assoc: dimension ladder differs")
        elif sub == "homogenize":
            lead = {tuple(w) for w in checks["homogenize"]["detail"]["leading_words"]}
            if lead != {(X3, X1), (X1, X2), (X3, X2), (X1, T), (X2, T), (X3, T)}:
                problems.append(f"graded homogenize: leading words {sorted(lead)}")
        elif sub == "hilbert":
            w = spec.x2_weight
            coeffs = checks["hilbert"]["detail"]["coefficients"]
            if coeffs != ref.series_coefficients((1, w, w, 1), 12):
                problems.append("graded hilbert: coefficients differ")
        elif sub == "gk":
            detail = checks["gk-dimension"]["detail"]
            if (detail["algebra"], detail["homogenized"]) != (3, 4):
                problems.append(f"graded gk: got {detail}")
        elif sub == "rees":
            cum = ref.cumulative(ref.exponent_triple_counts(spec.x2_weight, 10))
            if not _rows_equal(checks["rees-dimensions"]["detail"]["rows"], cum, cum):
                problems.append("graded rees: rows differ from cumulative counts")
    return problems


def check_reduce(downup, op: Op, out) -> list[str]:
    code, text = out
    problems: list[str] = []
    got = _report(code, text, problems, "nf")
    if got is None:
        return problems
    checks, _ = got
    rendered = checks["normal-form"]["detail"]["normal_form"]
    a, b, c = op.data["exps"]
    spec = op.spec
    expected = spec.reference().times_word(ref.one(), (X3,) * a + (X1,) * b + (X2,) * c)
    terms = ref.parse_rendered(rendered, ref.NAMES)
    if op.data["homogenized"]:
        # NF_T(p)|_{T=1} == NF(p|_{T=1}); the T power of each term is fixed
        # by homogeneity, so comparing the T-free parts compares everything
        w = spec.weights
        degree = a * w[X3] + b * w[X1] + c * w[X2]
        base: dict = {}
        for word, coeff in terms.items():
            exp = ref.sorted_word_exponent(word, (T, X2, X1, X3))
            if exp is None:
                return [f"nf: term {word} is not of the form T^d X2^i X1^j X3^l"]
            t, i, j, l = exp
            if t + w[X2] * i + j + w[X3] * l != degree:
                return [f"nf: term {word} is not of degree {degree}"]
            base[(i, j, l)] = coeff
        terms_exp = base
    else:
        terms_exp = {}
        for word, coeff in terms.items():
            exp = ref.sorted_word_exponent(word)
            if exp is None:
                return [f"nf: term {word} is not a normal word"]
            terms_exp[exp] = coeff
    if terms_exp != expected:
        problems.append(f"nf: result differs from the reference PBW product "
                        f"({len(terms_exp)} vs {len(expected)} terms)")
    return problems


def check_ideals(downup, op: Op, out: dict) -> list[str]:
    problems: list[str] = []
    n = op.spec.deg_f
    weights = (n, 1, n)

    def key(e):
        return ref.pbw_key(e, weights)

    basis = out["basis"]
    leads = []
    for terms in basis:
        lead = max(terms, key=key)
        leads.append(lead)
        if terms[lead] != 1:
            problems.append(f"ideals: basis element led by {lead} is not monic")
    if [key(e) for e in leads] != sorted(key(e) for e in leads):
        problems.append("ideals: basis is not sorted by leading monomial")
    for idx, terms in enumerate(basis):
        for other, lead in enumerate(leads):
            if other != idx and any(ref.divides(lead, e) for e in terms):
                problems.append(f"ideals: basis element {idx} is reducible by element {other}")
    for (query, member), rem in zip(op.data["queries"], out["remainders"]):
        if member and rem:
            problems.append("ideals: a sum of multiples of the generators did not reduce to 0")
        if any(ref.divides(lead, e) for e in rem for lead in leads):
            problems.append("ideals: a left normal form is still reducible")
    k = op.data["k"]
    algebra = op.spec.reference()
    if out["product"] != algebra.multiply({(0, k, k): Fraction(1)}, {(k, 0, 0): Fraction(1)}):
        problems.append(f"ideals: product a1^{k} a3^{k} * a2^{k} differs from the reference")
    completed, order = out["completed"], out["order"]
    w = op.spec.weights
    leads_free = []
    for rel in completed.polys:
        lead = max(rel.terms, key=lambda word: ref.word_key(word, w, ref.RANK))
        leads_free.append(ref.word_key(lead, w, ref.RANK))
        if rel.terms[lead] != 1:
            problems.append("ideals: completed relation is not monic")
    if leads_free != sorted(leads_free):
        problems.append("ideals: completed relations are not sorted")
    if out["flag"] == downup.freealg.COMPLETE and not downup.freealg.is_groebner(completed, order).ok:
        problems.append("ideals: completion flagged COMPLETE fails is_groebner")
    return problems


CHECKERS = {"certify": check_certify, "reduce": check_reduce, "ideals": check_ideals}
