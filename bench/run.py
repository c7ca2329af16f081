"""Benchmark for khh: two Kunneth grids and the corpus report.

    python3 bench/run.py --workload {kunneth-cusp,kunneth-free1,report,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each round of a workload is one fresh
interpreter (bench/worker.py), so khh's in-process caches never carry over
from one round to the next.  With --trace 0 the rounds run at jobs=2 until
--seconds have passed, at least three of them, and the end-to-end metrics
are medians over the rounds; set-up is measured on at least eleven spawns.
With --trace 1 one untraced and one traced round run at jobs=1 and the
per-layer metrics come from the traced one.  Every output of every round
is checked (checks.py); the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

The inputs are the fixed corpus, so --seed changes nothing: it is accepted
and recorded so that runs with different seeds can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import ReportChecker, kunneth_failures  # noqa: E402
from references import Reference, parse_presentation  # noqa: E402
from worker import KUNNETH  # noqa: E402

WORKLOADS = ("kunneth-cusp", "kunneth-free1", "report")
# the shipped corpus without free3, fatplane, cone and free2b, whose
# 53 + 21 + 10 + 6 s would not fit several rounds into one run
REPORT_ENTRIES = ("axes", "curve32a", "curve37a", "cusp", "dualnum", "free1",
                  "free2", "q", "t2t5")
JOBS = 2
MIN_ROUNDS = 3
MIN_SETUPS = 11
DEADLINE_S = 170.0


class RoundError(RuntimeError):
    pass


def spawn(argv, deadline):
    """Run worker.py in a fresh interpreter; its result with setup_s added."""
    env = {k: v for k, v in os.environ.items() if k not in ("KHH_CACHE_DIR", "KHH_JOBS")}
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"worker {argv} ran past the deadline") from None
    finally:
        try:  # pool workers left behind by a crashed round
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        raise RoundError(f"worker {argv} exited {proc.returncode}: {err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def prepare_report_corpus():
    """Copy the report's entries out of the shipped corpus into bench/out."""
    target = HERE / "out" / "corpus"
    if target.exists():
        shutil.rmtree(target)
    source = ROOT / "src" / "khh" / "corpus_data"
    for name in REPORT_ENTRIES:
        shutil.copytree(source / name, target / name)
    return target


class Checker:
    """Checks each round's output; counts operations and failures."""

    def __init__(self, workload, corpus):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []  # run-level faults: these make `correct` false
        self.digests = set()
        if workload == "report":
            self.report = ReportChecker(corpus)
        else:
            name = KUNNETH[workload][0]
            alg = ROOT / "src" / "khh" / "corpus_data" / name / "algebra.alg"
            ref = Reference(parse_presentation(alg.read_text()).with_polynomial_variable())
            self.kunneth = lambda cells: kunneth_failures(cells, ref)

    def add(self, result):
        output = result["output"]
        if self.workload == "report":
            report = json.loads(output["stdout"])
            ops = self.report.operations(report)
            fails = self.report.failures(report)
            if output["exit_code"] != (1 if report["failures"] else 0):
                self.problems.append(f"exit code {output['exit_code']} disagrees "
                                     f"with failures {report['failures']}")
            digest = result["stdout_sha256"]
        else:
            ops = list(range(len(output["cells"])))
            fails = self.kunneth(output["cells"])
            if output["passed"] != all(c[6] == "ok" for c in output["cells"]):
                self.problems.append("verify_kunneth passed flag disagrees with its cells")
            digest = hashlib.sha256(json.dumps(output["cells"]).encode()).hexdigest()
        if self.digests and digest not in self.digests:
            self.problems.append("outputs differ between rounds of one invocation")
        self.digests.add(digest)
        stray = set(fails) - set(ops)
        if stray:
            self.problems.append(f"failures outside the operations: {sorted(stray)[:3]}")
        self.attempted += len(ops)
        self.failed += sum(1 for op in ops if op in fails)
        for op in list(fails)[:5]:
            print(f"FAILED {self.workload} {op}: {'; '.join(fails[op][:2])}", file=sys.stderr)


def run_workload(workload, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    corpus = prepare_report_corpus() if workload == "report" else None
    argv = ["--workload", workload] + (["--corpus", str(corpus)] if corpus else [])
    checker = Checker(workload, corpus)
    spawn(argv + ["--jobs", str(JOBS), "--setup-only"], deadline)  # compiles .pyc

    if trace:
        plain = spawn(argv + ["--jobs", "1"], deadline)
        spans_file = HERE / "out" / f"spans-{workload}.json"
        traced = spawn(argv + ["--jobs", "1", "--trace", str(spans_file)], deadline)
        for result in (plain, traced):
            checker.add(result)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": plain["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"],
                                       "unit": "s"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
        for name in REPORT_ENTRIES:
            metrics.setdefault(f"corpus.entry.{name}.s", {"value": 0.0, "unit": "s"})
    else:
        started = time.perf_counter()
        rounds = []
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
            rounds.append(spawn(argv + ["--jobs", str(JOBS)], deadline))
            checker.add(rounds[-1])
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(argv + ["--jobs", str(JOBS), "--setup-only"],
                                deadline)["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print(f"{workload}: {len(rounds)} rounds, wall_s "
              f"{[round(r['wall_s'], 3) for r in rounds]}", file=sys.stderr)
    for problem in checker.problems:
        print(f"INCORRECT {workload}: {problem}", file=sys.stderr)
    return {"correct": not checker.problems, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "khh" / "__init__.py").is_file():
        print(f"error: no khh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seconds, args.trace) for name in names}
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:14s} {metric:36s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:14s} attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
