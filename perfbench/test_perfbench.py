"""Tests of the benchmark itself: python3 -m pytest perfbench

They check that the reference agrees with the package on small inputs, that
the answer checks reject wrong answers, that decks depend only on the seed,
that the traced counts (``*.calls``, ``terms_out``, ``pair_yield``,
``multiply_calls``) repeat exactly for the same seed, and that the
benchmark refuses to run where there is no package source.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

downup = run.load_package()


def _first_ops(workload: str, seed: int, count: int):
    ops = workloads.Deck(workload, seed).round(0)
    if workload == "reduce":
        # the cheapest slots keep the test short
        ops = sorted(ops, key=lambda op: sum(op.data["exps"]))
    return ops[:count]


def test_reference_matches_free_normal_form():
    rng = random.Random(5)
    for family in ("sl2", "smith3", "woronowicz", "conformal", "down_up",
                   "random0", "random2", "random-lw0"):
        spec = workloads.draw_spec(rng, family)
        alg = downup.cli.algebra_from_spec(spec.doc)
        for _ in range(3):
            word = tuple(rng.choice((ref.X1, ref.X2, ref.X3)) for _ in range(rng.randint(0, 6)))
            nf = downup.freealg.normal_form(downup.freealg.FreePoly.word(word),
                                            alg.relations, alg.order)
            got = {ref.sorted_word_exponent(w): c for w, c in nf.terms.items()}
            assert got == spec.reference().times_word(ref.one(), word), (spec.doc, word)


def test_reference_counts():
    assert ref.exponent_triple_counts(1, 5) == [1, 3, 6, 10, 15, 21]
    assert ref.exponent_triple_counts(2, 4) == [1, 1, 3, 3, 6]
    assert ref.series_coefficients((1, 1), 4) == [1, 2, 3, 4, 5]
    assert ref.parse_rendered("-X2^2*X1 + 3/2*X3 - 1", ref.NAMES) == {
        (ref.X2, ref.X2, ref.X1): -1, (ref.X3,): Fraction(3, 2), (): -1}


def test_decks_depend_only_on_the_seed():
    for workload in workloads.BUILDERS:
        first = workloads.Deck(workload, 3).round(1)
        again = workloads.Deck(workload, 3).round(1)
        other = workloads.Deck(workload, 4).round(1)
        assert [(op.spec.doc, op.data) for op in first] == [(op.spec.doc, op.data) for op in again]
        assert [op.spec.doc for op in first] != [op.spec.doc for op in other]


def _run(workload, seed, count):
    session = run.Session(workload, seed)
    try:
        ops = _first_ops(workload, seed, count)
        return ops, session.run(ops)
    finally:
        session.close()


def test_checks_accept_right_and_reject_wrong_answers():
    ops, records = _run("reduce", 2, 3)
    for op, status, out, _ in records:
        assert status == "ok" and workloads.check(downup, op, out) == []
        code, text = out
        doc = json.loads(text)
        rendered = doc["checks"][0]["detail"]["normal_form"]
        doc["checks"][0]["detail"]["normal_form"] = rendered + " + 1/7*X1"
        assert workloads.check(downup, op, (code, json.dumps(doc)))
    ops, records = _run("certify", 2, 2)
    for op, status, out, _ in records:
        assert status == "ok" and workloads.check(downup, op, out) == []
        code, text = out[0]
        doc = json.loads(text)
        doc["checks"][1]["detail"]["rows"][3][1] += 1
        wrong = [(code, json.dumps(doc))] + out[1:]
        assert workloads.check(downup, op, wrong)
    ops, records = _run("ideals", 2, 2)
    for op, status, out, _ in records:
        assert status == "ok" and workloads.check(downup, op, out) == []
        wrong = copy.copy(out)
        wrong["product"] = dict(out["product"])
        key = next(iter(wrong["product"]))
        wrong["product"][key] += 1
        assert workloads.check(downup, op, wrong)


def test_traced_counts_repeat_for_the_same_seed():
    def counts(workload):
        session = run.Session(workload, 7)
        tracer = tracing.Tracer(downup)
        tracer.install()
        try:
            session.run(_first_ops(workload, 7, 3))
        finally:
            tracer.uninstall()
            session.close()
        return {name: value for name, (value, _) in tracer.metrics().items()
                if name.endswith((".calls", ".terms_out", ".pair_yield", ".multiply_calls"))}

    for workload in workloads.BUILDERS:
        first, second = counts(workload), counts(workload)
        assert first == second
        assert any(value for value in first.values())
    # tracing leaves the package as it found it
    assert downup.freealg.normal_form.__module__ == "downup.freealg"
    assert not hasattr(downup.solvable.SolvableAlgebra.multiply, "__wrapped__")


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "reduce",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric_the_traced_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == tracing.metric_names()
    printed = set(tracing.Tracer(downup).metrics()) | {"trace.overhead_share"}
    printed |= {name for name, _, _ in tracing.metric_names() if name.startswith("scaling.")}
    assert printed == {name for name, _, _ in listed}
    assert {w["name"] for w in doc["workloads"]} == set(workloads.BUILDERS)
