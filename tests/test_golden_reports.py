"""Machine reports compared byte for byte against stored golden output.

``golden_reports.json`` holds, for four specs, the exit code and the parsed
``--format machine`` report of ``certify --seed 3``, the six ``graded``
subcommands and the two ``nf`` forms.  The CLI prints the report with
``json.dumps(..., indent=2)``, so re-dumping the stored document gives the
exact expected stdout.  Regenerate the file with
``PYTHONPATH=src python tests/test_golden_reports.py`` only when a report is
meant to change.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from downup.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

SPECS = {
    "sl2": {"preset": "sl2"},
    "conformal-half-degf": {"preset": "conformal", "args": {"b": "1/2"},
                            "scheme": "deg-f"},
    "lambda-zero": {"lambda": 0, "omega": 1, "gamma": 2, "f": [0, -1],
                    "scheme": "all-ones"},
    "constant-f": {"lambda": 1, "omega": 1, "gamma": 2, "f": [3],
                   "scheme": "all-ones"},
}

COMMANDS = (
    [["certify", "--seed", "3"]]
    + [["graded", sub] for sub in ("assoc", "homogenize", "hilbert", "gk",
                                    "rees", "quadratic")]
    + [["nf", "X3^3*X1^2*X2^2"], ["nf", "--homogenized", "X3^2*X1*X2*T"]]
)

CASES = [(name, command) for name in SPECS for command in COMMANDS]


def machine_report(spec_path, command):
    """Exit code and stdout of one command with ``--format machine``."""
    head, tail = (command[:-1], command[-1:]) if command[0] == "nf" else (command, [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(head + ["--spec", str(spec_path), "--format", "machine"] + tail)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,command", CASES,
                         ids=[f"{n}-{'-'.join(c[:2])}" for n, c in CASES])
def test_machine_report_matches_golden(name, command, golden, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPECS[name]), encoding="utf-8")
    code, out = machine_report(spec, command)
    expected = golden[name][" ".join(command)]
    assert code == expected["exit"]
    assert out == json.dumps(expected["report"], indent=2) + "\n"


if __name__ == "__main__":
    doc: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        spec = pathlib.Path(tmp) / "spec.json"
        for name, spec_doc in SPECS.items():
            spec.write_text(json.dumps(spec_doc), encoding="utf-8")
            for command in COMMANDS:
                code, out = machine_report(spec, command)
                report = json.loads(out)
                assert json.dumps(report, indent=2) + "\n" == out
                doc.setdefault(name, {})[" ".join(command)] = {
                    "exit": code, "report": report}
    GOLDEN.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                      encoding="utf-8")
