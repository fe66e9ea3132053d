"""Command-line front end.

Subcommands: ``certify``, ``nf``, ``graded assoc|homogenize|hilbert|gk|rees|
quadratic`` and ``presets list``.  Algebras are described by a JSON spec file
carrying either explicit parameters (rational literals only) or a preset
name; reports render as aligned text or as a machine-readable JSON document.
Exit codes: 0 all checks passed (skips allowed), 1 a check failed, 2 input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Optional, Sequence

from . import gdu, graded
from .errors import CertificationError, DownupError, HypothesisError, InputError
from .exprs import parse_expression
from .freealg import FreePoly, format_poly
from .gdu import GDUAlgebra, GDUParams, WeightScheme
from .report import FAIL, PASS, Report, SKIP, plain
from .solvable import verify_ordering_axioms

PBW_DEGREE_DEFAULT = 8
HILBERT_DEGREE_DEFAULT = 12
REES_DEGREE_DEFAULT = 10
ASSOC_DEGREE = 10
ORDER_BOUND_DEFAULT = 4

_PARAM_KEYS = ("lambda", "omega", "gamma", "f")
_KNOWN_KEYS = set(_PARAM_KEYS) | {"scheme", "preset", "args"}


def load_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except ValueError as exc:  # not UTF-8, or an over-long integer literal
        raise InputError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: spec must be a JSON object")
    return doc


def algebra_from_spec(doc: dict) -> GDUAlgebra:
    """Build the described algebra; exactly one of explicit parameters or a
    preset must be present."""
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise InputError(f"unknown spec keys: {', '.join(sorted(unknown))}")
    has_params = any(k in doc for k in _PARAM_KEYS)
    has_preset = "preset" in doc
    if has_params == has_preset:
        raise InputError(
            "spec must contain exactly one of: explicit parameters "
            "(lambda/omega/gamma/f + scheme) or a preset")
    if has_preset:
        args = doc.get("args", {})
        if not isinstance(args, dict):
            raise InputError("preset args must be an object")
        kwargs = dict(args)
        if "scheme" in doc:
            kwargs["scheme"] = doc["scheme"]
        return gdu.preset(doc["preset"], **kwargs)
    if "args" in doc:
        raise InputError("\"args\" is only valid with a preset")
    missing = [k for k in _PARAM_KEYS if k not in doc]
    if missing:
        raise InputError(f"missing spec keys: {', '.join(missing)}")
    if "scheme" not in doc:
        raise InputError("explicit parameters require a scheme "
                         "(\"all-ones\" or \"deg-f\")")
    params = GDUParams.make(doc["lambda"], doc["omega"], doc["gamma"], doc["f"])
    try:
        scheme = WeightScheme(doc["scheme"])
    except ValueError:
        raise InputError(f"unknown scheme {doc['scheme']!r}")
    return gdu.build(params, scheme)


def spec_to_dict(alg: GDUAlgebra) -> dict:
    """Serialize the algebra's parameters; parsing this back yields the same
    parameters."""
    return {
        "lambda": plain(alg.params.lam),
        "omega": plain(alg.params.omega),
        "gamma": plain(alg.params.gamma),
        "f": [plain(c) for c in alg.params.f_coeffs],
        "scheme": alg.scheme.value,
    }


def cmd_certify(alg: GDUAlgebra, degree: int, order_bound: int,
                seed: int) -> Report:
    report = Report("certify", spec=spec_to_dict(alg), seed=seed)
    report.add("groebner-basis", PASS,
               f"{len(alg.relations)} relations, all S-elements reduce to 0",
               leading_words=[list(w) for w in alg.relations.leading_words])
    pbw = gdu.check_pbw(alg, degree)
    report.add("pbw-counts", PASS if pbw.ok else FAIL,
               f"normal words match exponent triples for degrees 0..{degree}",
               rows=pbw.rows)
    try:
        sol = gdu.to_solvable(alg)
    except HypothesisError as reason:
        report.add("solvable-axioms", SKIP, f"skipped: {reason}")
        report.add("ordering-axioms", SKIP, f"skipped: {reason}")
        report.add("product-agreement", SKIP, f"skipped: {reason}")
    else:
        # to_solvable has certified the table: it raises on a violation
        report.add("solvable-axioms", PASS,
                   "commutation rules have nonzero units and lower tails",
                   violations=())
        axioms = verify_ordering_axioms(sol, order_bound)
        report.add("ordering-axioms", PASS if axioms.ok else FAIL,
                   f"monomial-ordering axioms certified up to degree {order_bound}",
                   violations=axioms.violations)
        rng = random.Random(seed)
        mismatches = 0
        samples = 20
        for _ in range(samples):
            e1 = tuple(rng.randint(0, 2) for _ in range(3))
            e2 = tuple(rng.randint(0, 2) for _ in range(3))
            product = sol.multiply(sol.monomial(e1), sol.monomial(e2))
            word = gdu.normal_word_of_exponent(e1) + gdu.normal_word_of_exponent(e2)
            expected = {gdu.exponent_of_normal_word(w): c
                        for w, c in alg.normal_form(FreePoly.word(word)).terms.items()}
            if expected != product.terms:
                mismatches += 1
        report.add("product-agreement", PASS if mismatches == 0 else FAIL,
                   f"solvable product matches free-algebra reduction on "
                   f"{samples} seeded pairs", mismatches=mismatches)
    for note in alg.notes:
        report.note(note)
    return report


def cmd_nf(alg: GDUAlgebra, expression: str, homogenized: bool) -> Report:
    report = Report("nf", spec=spec_to_dict(alg))
    names = graded.HOMOG_GEN_NAMES if homogenized else alg.gen_names
    poly = parse_expression(expression, {name: g for g, name in enumerate(names)})
    pres = graded.homogenize_algebra(alg) if homogenized else alg
    rendered = format_poly(pres.normal_form(poly), pres.order, pres.gen_names)
    report.add("normal-form", PASS, rendered,
               input=expression, normal_form=rendered)
    return report


def cmd_graded(alg: GDUAlgebra, subcommand: str, degree: Optional[int]) -> Report:
    report = Report(f"graded {subcommand}", spec=spec_to_dict(alg))
    if subcommand == "assoc":
        result = graded.assoc_graded(alg)
        rendered = [format_poly(p, alg.order, alg.gen_names) for p in result.relations]
        report.add("assoc-graded", PASS if result.certificate.ok else FAIL,
                   "leading homogeneous parts form a homogeneous Groebner basis",
                   relations=rendered,
                   leading_words=[list(w) for w in result.relations.leading_words])
        dims = result.dims(ASSOC_DEGREE)
        report.add("dimension-ladder", PASS if dims.ok else FAIL,
                   "graded dimensions match PBW filtration steps", rows=dims.rows)
    elif subcommand == "homogenize":
        homog = graded.homogenize_algebra(alg)
        rendered = [format_poly(p, homog.order, homog.gen_names)
                    for p in homog.relations]
        report.add("homogenize", PASS,
                   "homogenized relations form a homogeneous Groebner basis",
                   relations=rendered,
                   leading_words=[list(w) for w in homog.leading_words])
        recovered = [homog.dehomogenize(p) for p in homog.relations]
        originals = set(alg.relations)
        roundtrip = all(p in originals or p.is_zero() for p in recovered)
        report.add("dehomogenize-roundtrip", PASS if roundtrip else FAIL,
                   "setting T to 1 recovers the defining relations")
        for note in homog.notes:
            report.note(note)
    elif subcommand == "hilbert":
        homog = graded.homogenize_algebra(alg)
        dims = homog.dims(degree)
        weights = homog.order.weights
        form = graded.series_form(weights)
        report.add("hilbert", PASS if dims.ok else FAIL,
                   f"coefficients match the expansion of {form} up to degree {degree}",
                   coefficients=tuple(n for _, n, _ in dims.rows), closed_form=form,
                   uniform_weight_form="1/(1-t)^4")
        if any(w != 1 for w in weights):
            report.note(
                "weighted grading in use: computed coefficients match "
                f"{form}; the uniform-weight grading gives 1/(1-t)^4")
    elif subcommand == "gk":
        growth3 = graded.ufn_growth(graded.assoc_graded(alg).monomial_algebra())
        homog = graded.homogenize_algebra(alg)
        growth4 = graded.ufn_growth(homog.monomial_algebra())
        report.add("gk-dimension", PASS if (growth3, growth4) == (3, 4) else FAIL,
                   f"algebra growth {growth3}, homogenized growth {growth4}",
                   algebra=growth3, homogenized=growth4)
    elif subcommand == "rees":
        homog = graded.homogenize_algebra(alg)
        rees = graded.rees_dims(alg, homog, degree)
        report.add("rees-dimensions", PASS if rees.ok else FAIL,
                   f"homogenized dimensions equal filtration dimensions up "
                   f"to degree {degree}", rows=rees.rows)
    elif subcommand == "quadratic":
        homog = graded.homogenize_algebra(alg)
        value = graded.quadratic_check(homog.relations, homog.order.weights)
        report.add("quadratic", PASS,
                   f"homogenized relations {'are' if value else 'are not'} "
                   "quadratic", quadratic=value)
    else:
        raise InputError(f"unknown graded subcommand {subcommand!r}")
    return report


def cmd_presets() -> Report:
    report = Report("presets list")
    for name in sorted(gdu.PRESETS):
        _, doc = gdu.PRESETS[name]
        report.add(name, PASS, doc)
    return report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="downup",
        description="Certify and explore generalized down-up algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, degree=None):
        p.add_argument("--spec", required=True, help="path to a JSON spec file")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if degree is not None:
            p.add_argument("--degree", type=int, default=degree)

    certify = sub.add_parser("certify", help="run the structural certificates")
    add_common(certify, seed=True, degree=PBW_DEGREE_DEFAULT)
    certify.add_argument("--order-bound", type=int, default=ORDER_BOUND_DEFAULT,
                         help="exhaustion bound for the ordering axioms")

    nf = sub.add_parser("nf", help="normal form of an expression")
    add_common(nf)
    nf.add_argument("--homogenized", action="store_true",
                    help="reduce in the homogenized algebra (T available)")
    nf.add_argument("expression")

    gr = sub.add_parser("graded", help="graded and homogenized structure")
    gr_sub = gr.add_subparsers(dest="subcommand", required=True)
    for name in ("assoc", "homogenize", "hilbert", "gk", "rees", "quadratic"):
        p = gr_sub.add_parser(name)
        default = {"hilbert": HILBERT_DEGREE_DEFAULT,
                   "rees": REES_DEGREE_DEFAULT}.get(name)
        add_common(p, degree=default)

    presets = sub.add_parser("presets", help="list the built-in presets")
    presets_sub = presets.add_subparsers(dest="subcommand", required=True)
    listing = presets_sub.add_parser("list")
    listing.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            report = cmd_presets()
        else:
            alg = algebra_from_spec(load_spec_file(args.spec))
            if args.command == "certify":
                report = cmd_certify(alg, args.degree, args.order_bound, args.seed)
            elif args.command == "nf":
                report = cmd_nf(alg, args.expression, args.homogenized)
            else:
                degree = getattr(args, "degree", None)
                report = cmd_graded(alg, args.subcommand, degree)
    except HypothesisError as exc:
        report = Report(args.command)
        report.add(args.command, SKIP, f"skipped: {exc}")
    except CertificationError as exc:
        report = Report(args.command)
        report.add("certification", FAIL, str(exc.args[0]),
                   witness=str(exc.args[1]) if len(exc.args) > 1 else "")
    except DownupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report.render(args.format), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # /dev/null so that the interpreter's last flush cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
