import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import downup
from downup.cli import (algebra_from_spec, cmd_certify, cmd_graded, load_spec_file,
                        main, spec_to_dict)
from downup.errors import InputError
from downup.freealg import hilbert
from downup.gdu import PRESETS
from downup.report import FAIL, PASS, Report


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SL2_DOC = {"lambda": 1, "omega": 1, "gamma": 2, "f": [0, -1],
           "scheme": "all-ones"}


# ----------------------------------------------------------------- package

def test_package_all_names_resolve():
    assert [name for name in downup.__all__ if not hasattr(downup, name)] == []


def test_traced_names_resolve():
    # the traced benchmark run wraps these by name: a function through
    # getattr on its module, a method through its class's own __dict__
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, attr, cls, _ in tracing.TRACED:
        mod = importlib.import_module(f"downup.{module}")
        if cls is None:
            found = callable(getattr(mod, attr, None))
        else:
            found = attr in vars(getattr(mod, cls, object))
        if not found:
            missing.append(name)
    assert missing == []


# ------------------------------------------------------------- spec parsing

def test_spec_roundtrip_identity():
    alg = algebra_from_spec(SL2_DOC)
    serialized = spec_to_dict(alg)
    again = algebra_from_spec(serialized)
    assert spec_to_dict(again) == serialized
    assert again.params == alg.params


def test_spec_rational_literals():
    doc = dict(SL2_DOC, **{"lambda": "1/2", "gamma": "-7/3"})
    alg = algebra_from_spec(doc)
    assert str(alg.params.lam) == "1/2"
    assert str(alg.params.gamma) == "-7/3"


def test_spec_requires_exactly_one_route():
    with pytest.raises(InputError):
        algebra_from_spec({**SL2_DOC, "preset": "sl2"})
    with pytest.raises(InputError):
        algebra_from_spec({"scheme": "all-ones"})


def test_spec_rejects_floats_and_unknown_keys():
    with pytest.raises(InputError):
        algebra_from_spec(dict(SL2_DOC, **{"lambda": 0.5}))
    with pytest.raises(InputError):
        algebra_from_spec(dict(SL2_DOC, flavor="spicy"))


def test_spec_preset_with_args():
    alg = algebra_from_spec({"preset": "woronowicz", "args": {"zeta": "1/2"}})
    assert str(alg.params.lam) == "1/16"


def test_spec_rejects_args_with_explicit_parameters(tmp_path, capsys):
    doc = dict(SL2_DOC, args={"zeta": 2})
    with pytest.raises(InputError):
        algebra_from_spec(doc)
    assert main(["certify", "--spec", write_spec(tmp_path, doc)]) == 2
    assert "args" in capsys.readouterr().err


def test_spec_file_errors_carry_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"lambda": 1,\n  "omega": }', encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_spec_file(str(path))
    assert ":2:" in str(err.value)


def test_spec_numbers_are_integers_or_p_over_q_strings(tmp_path, capsys):
    for value in ("0.5", "1_000", "1e3", " 2"):
        assert main(["certify", "--spec", write_spec(tmp_path, dict(SL2_DOC, **{
            "lambda": value}))]) == 2, value
        assert "not an exact rational" in capsys.readouterr().err
    assert main(["nf", "--spec", write_spec(tmp_path, dict(SL2_DOC, **{
        "lambda": "-3/2"})), "X1*X2", "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["detail"]["normal_form"] == "-3/2*X2*X1 - 2*X2"


def test_spec_exponent_notation_is_rejected_before_any_arithmetic(tmp_path):
    # "1e999999999" used to reach Fraction, which computed 10^999999999
    spec = write_spec(tmp_path, dict(SL2_DOC, **{"lambda": "1e999999999"}))
    env = dict(os.environ, PYTHONPATH=str(Path(downup.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "downup.cli", "certify", "--spec", spec],
                          capture_output=True, text=True, env=env, timeout=5)
    assert done.returncode == 2
    assert "not an exact rational" in done.stderr


def test_spec_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"preset": "sl2\xff"}')
    assert main(["certify", "--spec", str(path)]) == 2
    assert "can't decode" in capsys.readouterr().err


def test_preset_args_may_name_any_key(tmp_path, capsys):
    spec = write_spec(tmp_path, {"preset": "sl2", "args": {"name": "sl2"}})
    assert main(["certify", "--spec", spec]) == 2
    assert "bad arguments for preset 'sl2'" in capsys.readouterr().err


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (INT_DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="this interpreter converts integer strings of any length")


@needs_digit_limit
def test_spec_integer_past_the_digit_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(SL2_DOC).replace('"lambda": 1', f'"lambda": {TOO_LONG}'))
    assert main(["certify", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@needs_digit_limit
@pytest.mark.parametrize("expression", [f"{TOO_LONG}*X1", f"X1^{TOO_LONG}"],
                         ids=["coefficient", "exponent"])
def test_expression_integer_past_the_digit_limit_is_input_error(tmp_path, capsys,
                                                                expression):
    assert main(["nf", "--spec", write_spec(tmp_path, SL2_DOC), expression]) == 2
    assert "integer literal too long at column" in capsys.readouterr().err


# ------------------------------------------------------------- exit codes

def test_certify_exit_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    assert main(["certify", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_certify_skips_solvable_when_lambda_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, dict(SL2_DOC, **{"lambda": 0}))
    assert main(["certify", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "skipped: hypothesis lambda*omega != 0 fails" in out
    assert out.count("SKIP") == 3


def test_missing_spec_file_is_input_error(tmp_path, capsys):
    assert main(["certify", "--spec", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_expression_is_input_error(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    assert main(["nf", "--spec", spec, "X3*Q9"]) == 2
    assert "unknown generator" in capsys.readouterr().err


def test_report_failure_exit_code():
    report = Report("demo")
    report.add("one", PASS)
    assert report.exit_code == 0
    report.add("two", FAIL, "broke")
    assert report.exit_code == 1
    assert not report.ok


# ------------------------------------------------------------- normal form

def test_nf_examples(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    assert main(["nf", "--spec", spec, "X3*X1"]) == 0
    assert "X1*X3 - 2*X3" in capsys.readouterr().out
    assert main(["nf", "--spec", spec, "1"]) == 0
    out = capsys.readouterr().out
    assert "normal-form  PASS  1" in out
    assert main(["nf", "--spec", spec, "X3*X1*X2"]) == 0
    assert "X2*X1*X3 + X1^2 - 4*X2*X3 - 2*X1" in capsys.readouterr().out
    # unary minus binds tighter than '^': -(X1^2), not (-X1)^2
    assert main(["nf", "--spec", spec, "--", "-X1^2"]) == 0
    assert "normal-form  PASS  -X1^2" in capsys.readouterr().out


def test_nf_rational_coefficients_and_parens(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    assert main(["nf", "--spec", spec, "1/2*(X3*X1 - X1*X3)"]) == 0
    assert "-X3" in capsys.readouterr().out.replace(" ", "")


def test_expression_grammar_edges():
    from downup.exprs import parse_expression
    from downup.freealg import FreePoly
    from fractions import Fraction
    gens = {"X1": 0, "X2": 1}
    assert parse_expression("X1^0", gens) == FreePoly.one()
    assert parse_expression("2^3", gens) == FreePoly({(): 8})
    assert parse_expression("-X1^2", gens) == FreePoly({(0, 0): -1})
    assert parse_expression("X2*-X1^2", gens) == FreePoly({(1, 0, 0): -1})
    assert parse_expression("-2^2", gens) == FreePoly({(): -4})
    assert parse_expression("--X1", gens) == parse_expression("X1", gens)
    assert parse_expression("-(X1 - X2)*X1", gens) == \
        FreePoly({(0, 0): -1, (1, 0): 1})
    assert parse_expression("1/2*X1 + 1/2*X1", gens) == FreePoly({(0,): 1})
    assert parse_expression("(X1+X2)^2", gens) == \
        FreePoly({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    for bad in ("", "X1 +", "1/0", "X1 ^ X2", "(X1", "X1 $ X2"):
        with pytest.raises(InputError):
            parse_expression(bad, gens)


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    import argparse
    from downup import cli
    cli._build_parser.cache_clear()
    runs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["nf", "--spec", "spec.json"])  # no expression: a usage error
        runs.append((exc.value.code, capsys.readouterr().err))
    assert runs[0] == runs[1] and runs[0][0] == 2 and "expression" in runs[0][1]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["nf", "--spec", write_spec(tmp_path, SL2_DOC), "X3*X1"]) == 0
    assert "X1*X3 - 2*X3" in capsys.readouterr().out
    assert built == []


def test_nf_homogenized_mode_accepts_t(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    assert main(["nf", "--spec", spec, "--homogenized", "T*X3*X1"]) == 0
    assert "T*X1*X3 - 2*T^2*X3" in capsys.readouterr().out
    # T is not available without the flag
    assert main(["nf", "--spec", spec, "T*X1"]) == 2


def test_nf_homogenized_parses_before_the_degree_gate(tmp_path, capsys):
    # deg f = 0 has no homogenization: a bad expression is still an input error
    spec = write_spec(tmp_path, {"lambda": 1, "omega": 1, "gamma": 2,
                                 "f": [5], "scheme": "all-ones"})
    assert main(["nf", "--spec", spec, "--homogenized", "T*Y"]) == 2
    assert main(["nf", "--spec", spec, "--homogenized", "T*X1"]) == 0
    assert "SKIP" in capsys.readouterr().out


# ------------------------------------------------------------------ graded

def test_graded_subcommands_pass(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    for sub in ("assoc", "homogenize", "hilbert", "gk", "rees", "quadratic"):
        assert main(["graded", sub, "--spec", spec]) == 0, sub
        out = capsys.readouterr().out
        assert "FAIL" not in out


def test_graded_degree_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    assert main(["graded", "rees", "--spec", spec, "--degree", "4"]) == 0
    doc_out = capsys.readouterr().out
    assert "to degree 4" in doc_out
    assert main(["graded", "hilbert", "--spec", spec, "--degree", "3",
                 "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["checks"][0]["detail"]["coefficients"]) == 4


def test_graded_quadratic_false_still_exit_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, {"preset": "conformal", "scheme": "deg-f"})
    assert main(["graded", "quadratic", "--spec", spec]) == 0
    assert "are not" in capsys.readouterr().out


def test_graded_hilbert_machine_reports_both_forms(tmp_path, capsys):
    spec = write_spec(tmp_path, {"preset": "conformal", "scheme": "deg-f"})
    assert main(["graded", "hilbert", "--spec", spec, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    detail = doc["checks"][0]["detail"]
    assert detail["closed_form"] == "1/((1-t)^2*(1-t^2)^2)"
    assert detail["uniform_weight_form"] == "1/(1-t)^4"
    assert doc["checks"][0]["status"] == "pass"


def test_graded_gk_counts_no_dimensions(sl2, monkeypatch):
    calls = []

    def counting(mono, max_degree):
        calls.append(max_degree)
        return hilbert(mono, max_degree)

    monkeypatch.setattr(downup.freealg, "hilbert", counting)
    monkeypatch.setattr(downup.graded, "hilbert", counting)
    assert cmd_graded(sl2, "gk", None).exit_code == 0
    assert calls == []


def test_graded_on_constant_f_reports_skip(tmp_path, capsys):
    spec = write_spec(tmp_path, {"lambda": 1, "omega": 1, "gamma": 2,
                                 "f": [5], "scheme": "all-ones"})
    assert main(["graded", "assoc", "--spec", spec]) == 0
    assert "SKIP" in capsys.readouterr().out


@pytest.mark.parametrize("name", [["sl2"], {"a": 1}])
def test_preset_name_that_is_not_a_string_is_input_error(tmp_path, capsys, name):
    spec = write_spec(tmp_path, {"preset": name})
    assert main(["certify", "--spec", spec]) == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["102", {"1": 2}])
def test_smith_f_that_is_not_a_list_is_input_error(tmp_path, capsys, f):
    # the preset used to iterate a string or an object as the coefficients
    spec = write_spec(tmp_path, {"preset": "smith", "args": {"f": f}})
    assert main(["certify", "--spec", spec]) == 2
    assert "f must be a nonempty list of coefficients" in capsys.readouterr().err


def test_closed_stdout_keeps_the_exit_code_without_traceback(tmp_path):
    spec = write_spec(tmp_path, SL2_DOC)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(downup.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "downup.cli", "certify", "--spec", spec,
             "--format", "machine"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err


# ------------------------------------------------------------------ presets

def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("sl2", "smith", "woronowicz", "conformal", "down_up"):
        assert name in out


# -------------------------------------------------------------- determinism

def test_machine_reports_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, SL2_DOC)
    args = ["certify", "--spec", spec, "--seed", "7", "--format", "machine"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 7
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 5


def test_random_parameter_spec_deterministic(tmp_path, capsys):
    doc = {"lambda": "-3/2", "omega": "2/5", "gamma": "7/3",
           "f": ["1/2", 0, "-5/4"], "scheme": "deg-f"}
    spec = write_spec(tmp_path, doc, "random.json")
    args = ["certify", "--spec", spec, "--seed", "99", "--format", "machine"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out


def test_certify_report_has_every_check_once(tmp_path):
    alg = algebra_from_spec(SL2_DOC)
    report = cmd_certify(alg, degree=6, order_bound=3, seed=0)
    names = [c.name for c in report.checks]
    assert names == ["groebner-basis", "pbw-counts", "solvable-axioms",
                     "ordering-axioms", "product-agreement"]
    assert len(set(names)) == len(names)


# ----------------------------------------------------------- contract fuzzer

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
RATIONALS = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/2"])
SPEC_VALUES = {
    "lambda": RATIONALS, "omega": RATIONALS, "gamma": RATIONALS,
    "f": st.lists(RATIONALS, min_size=1, max_size=4),
    "scheme": st.sampled_from(["all-ones", "deg-f"]),
    "preset": st.sampled_from(sorted(PRESETS)),
    "args": st.dictionaries(st.sampled_from(
        ["zeta", "b", "lam", "omega", "gamma", "alpha", "beta", "f", "scheme", "name"]),
        RATIONALS | st.lists(RATIONALS, min_size=1, max_size=3) | JSON_VALUES, max_size=3),
    "colour": JSON_VALUES,
}
# well-formed explicit and preset specs, and any mix of keys and values
SPEC_TEXTS = st.one_of(
    st.fixed_dictionaries({k: SPEC_VALUES[k] for k in ("lambda", "omega", "gamma", "f",
                                                          "scheme")}),
    st.fixed_dictionaries({"preset": SPEC_VALUES["preset"]},
                          optional={k: SPEC_VALUES[k] for k in ("args", "scheme")}),
    st.fixed_dictionaries({}, optional={k: v | JSON_VALUES for k, v in SPEC_VALUES.items()}),
).map(json.dumps)
# at most 6 generator letters and one "^2": no expansion outgrows a few terms
EXPR_TOKENS = ["X1", "X2", "X3", "X1", "X2", "X3", "T", "X4", "2", "1/2", "0", "3/0",
               "+", "-", "*", "*", "*", "(", ")", "^2", "^0", "?"]
EXPRESSIONS = st.lists(st.sampled_from(EXPR_TOKENS), min_size=1, max_size=10).filter(
    lambda toks: sum(t[0] in "XT" for t in toks) <= 6 and toks.count("^2") <= 1
).map(" ".join)
COMMANDS = (st.just(["certify"]) | st.just(["presets", "list"])
            | EXPRESSIONS.map(lambda e: ["nf", e])
            | EXPRESSIONS.map(lambda e: ["nf", "--homogenized", e])
            | st.sampled_from(["assoc", "homogenize", "hilbert", "gk", "rees",
                               "quadratic"]).map(lambda sub: ["graded", sub]))
SL2_TEXT = json.dumps(SL2_DOC)


def literal_examples(test):
    """The spec and expression literals that once escaped as tracebacks or
    hung; the over-long integers only where the interpreter limits them.
    Hypothesis runs explicit examples last to first and, with
    report_multiple_bugs off, stops at the first failure, so a build that
    still hangs on "1e999999999" fails on a traceback before reaching it."""
    cases = [(SL2_TEXT.replace('1, "omega"', '"1e999999999", "omega"'), ["certify"]),
             (SL2_TEXT.replace('1, "omega"', '"0.5", "omega"'), ["certify"]),
             ('{"preset": "sl2", "args": {"name": 1}}', ["certify"])]
    if INT_DIGIT_LIMIT:
        cases += [(SL2_TEXT.replace('1, "omega"', f'{TOO_LONG}, "omega"'), ["certify"]),
                  (SL2_TEXT, ["nf", f"{TOO_LONG}*X1"]), (SL2_TEXT, ["nf", f"X1^{TOO_LONG}"])]
    for spec_text, command in cases:
        test = example(spec_text, command, "machine")(test)
    return test


@pytest.fixture(scope="module")
def fuzz_spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@literal_examples
@given(SPEC_TEXTS, COMMANDS, st.sampled_from(["text", "machine"]))
@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
def test_main_keeps_the_exit_code_contract(fuzz_spec_path, spec_text, command, fmt):
    fuzz_spec_path.write_text(spec_text, encoding="utf-8")
    spec = [] if command[0] == "presets" else ["--spec", str(fuzz_spec_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command + spec + ["--format", fmt])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if fmt == "machine" and code != 2:
        json.loads(out.getvalue())
