#!/usr/bin/env python3
"""Benchmark for the downup package: certify, reduce and ideals workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one client: one process, one
thread, and the next op starts when the previous one returns.  The timed
phase runs whole rounds of the seeded deck until the ops have been busy for
``--seconds``.  Answers are checked after the timed phase.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
answer was right.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 9
# the traced run replays this many whole rounds, so its counts do not
# depend on how fast the machine is
TRACE_ROUNDS = {"certify": 1, "reduce": 1, "ideals": 2}
READY = "ready"


class OverLimit(BaseException):
    """Raised by the interval timer inside an op that ran past its limit."""


def _on_alarm(signum, frame):
    raise OverLimit()


def load_package():
    """Import downup from this checkout's src/, or stop with an error."""
    src = ROOT / "src"
    if not (src / "downup" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'downup'}")
    sys.path.insert(0, str(src))
    import downup
    import downup.cli  # noqa: F401  (imports exprs and report too)
    if Path(downup.__file__).resolve().parent != (src / "downup").resolve():
        raise SystemExit(f"error: imported downup from {downup.__file__}, not {src}")
    return downup


def run_op(downup, op, limit: float):
    """Run one op under its decision limit: (status, output, seconds)."""
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            out = workloads.execute(downup, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except OverLimit:
        out, status = None, "over-limit"
    except Exception:
        out, status = traceback.format_exc(limit=-3), "raised"
    return status, out, time.perf_counter() - t0


class Session:
    """One benchmark process: the package, the deck and a scratch directory."""

    def __init__(self, workload: str, seed: int):
        self.downup = load_package()
        self.deck = workloads.Deck(workload, seed)
        self.limit = workloads.LIMIT_S[workload]
        work = HERE / "_work"
        work.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work)
        self.serial = 0

    def prepare(self, op) -> None:
        self.serial += 1
        workloads.write_spec(op, self.workdir, self.serial)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, ops, on_op=None, deadline=None) -> list:
        """Run ops in order: [(op, status, output, seconds)].  Stops early
        once the wall clock passes ``deadline`` (a stuck program)."""
        records = []
        for index, op in enumerate(ops):
            self.prepare(op)
            if on_op is not None:
                on_op(index)
            records.append((op, *run_op(self.downup, op, self.limit)))
            if deadline is not None and time.perf_counter() > deadline:
                break
        return records

    def timed_rounds(self, seconds: float, wall_cap: float) -> list[list]:
        """Whole rounds until the ops were busy for ``seconds``, or until
        ``wall_cap`` seconds have passed on the wall clock."""
        rounds, busy, deadline = [], 0.0, time.perf_counter() + wall_cap
        for ops in self.deck.rounds():
            rounds.append(self.run(ops, deadline=deadline))
            busy += sum(record[3] for record in rounds[-1])
            if busy >= seconds or time.perf_counter() > deadline:
                return rounds

    def checked(self, records) -> tuple[int, list[str]]:
        """(failed ops, problems) over recorded ops."""
        failed, problems = 0, []
        for op, status, out, _ in records:
            if status == "over-limit":
                failed += 1
                continue
            found = ([f"raised: {out}"] if status == "raised"
                     else workloads.check(self.downup, op, out))
            if found:
                failed += 1
                problems.extend(f"{op.spec.doc} {op.data.get('exps', '')}: {p}" for p in found)
        return failed, problems


def measure_setup(args) -> float:
    """Median time from launching a fresh interpreter to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--probe-setup"]
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line != READY or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed ({line!r}, exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def probe_setup(args) -> int:
    """Everything a run does before its first timed op, then report ready."""
    session = Session(args.workload, args.seed)
    try:
        session.prepare(session.deck.round(0)[0])
        print(READY, flush=True)
    finally:
        session.close()
    return 0


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(args) -> tuple[dict, int, int, list[str], str]:
    session = Session(args.workload, args.seed)
    try:
        setup_s = measure_setup(args)
        rounds = session.timed_rounds(args.seconds, wall_cap=2 * args.seconds + 30)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records = [record for rnd in rounds for record in rnd]
        failed, problems = session.checked(records)
    finally:
        session.close()
    latencies_ms = [r[3] * 1000 for r in records]
    attempted = len(records)
    busy = sum(r[3] for r in records)
    # Every whole round has the same mix of slots, so per-round figures are
    # comparable.  Their median over the run ignores a slow spell of the
    # machine that covers less than half of the rounds.  Only a run cut by
    # the wall-clock cap has a partial round; it is left out if whole ones exist.
    size = len(session.deck.round(0))
    whole = [rnd for rnd in rounds if len(rnd) == size] or [records]
    per_round = [[r[3] * 1000 for r in rnd] for rnd in whole]
    throughput = [sum(1 for r in rnd if r[1] == "ok") / sum(r[3] for r in rnd)
                  for rnd in whole]
    p50 = statistics.median(statistics.median(ms) for ms in per_round)
    p90 = statistics.median(percentile(ms, 90) for ms in per_round)
    metrics = {
        "ops_per_s": (statistics.median(throughput), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "completed_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    above = sum(1 for v in latencies_ms if v > p90)
    summary = (f"# {args.workload} seed {args.seed}: {attempted} ops "
               f"in {len(rounds)} rounds, busy {busy:.2f} s, "
               f"{above} samples above p90, limit {session.limit} s")
    return metrics, attempted, failed, problems, summary


def traced(args) -> tuple[dict, int, int, list[str], str]:
    session = Session(args.workload, args.seed)
    try:
        ops = [op for index in range(TRACE_ROUNDS[args.workload])
               for op in session.deck.round(index)]
        plain = session.run(ops)
        tracer = tracing.Tracer(session.downup)
        tracer.install()
        try:
            records = session.run(ops, on_op=lambda index: setattr(tracer, "op", index))
        finally:
            tracer.uninstall()
        failed, problems = session.checked(records)
        metrics = tracer.metrics()
        plain_s, traced_s = sum(r[3] for r in plain), sum(r[3] for r in records)
        metrics["trace.overhead_share"] = (traced_s / plain_s - 1, "ratio")
        metrics.update(tracing.scaling_series(session.downup))
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(spans_path)
    finally:
        session.close()
    summary = (f"# {args.workload} seed {args.seed} traced: {len(ops)} ops, "
               f"{len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, len(records), failed, problems, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.probe_setup:
        return probe_setup(args)
    metrics, attempted, failed, problems, summary = (traced if args.trace else untraced)(args)
    for problem in problems[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(summary)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
