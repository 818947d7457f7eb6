#!/usr/bin/env python3
"""The blockprod benchmark: four checked workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (blockprod is loaded from ``./src``):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload it prints the environment, one line per metric with its
unit, the operations attempted and failed, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics (``wall_s``, ``setup_s``, ``cli_s``,
``peak_rss_mib``); ``--trace 1`` gives the per-layer metrics of a traced
run, and lists the spans whose entry points no longer exist.

A run is a sequence of rounds, each one pass over the workload's library
operations in a worker process, then the workload's CLI commands (twice
each), then two fresh workers measured for set-up; rounds repeat until ``--seconds``
have passed (at least three rounds).  Every output is checked against
oracles made apart from blockprod (``oracles.py``, ``checks.py``) after the
measurements.  The exit code is 0 when every check holds, 1 when one does
not, and 2 when the benchmark cannot run here (e.g. no ``src/blockprod``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time

import checks
from calibrate import timed_reference
from workloads import CLI_COMMANDS, DEFAULT_SEED, WORKLOADS, make_inputs

SETUP_PER_ROUND = 2  # fresh workers measured for setup_s after each round
CLI_PER_ROUND = 2  # times each CLI command runs in a round
MIN_ROUNDS = 3
RUN_BUDGET_S = 150.0  # stop starting rounds after this, so a run ends well within 180 s

CLI_PROBE = (
    "import time; t1 = time.monotonic()\n"
    "import sys\n"
    "import blockprod.cli as cli\n"
    "t2 = time.monotonic()\n"
    "code = cli.main(sys.argv[1:])\n"
    "t3 = time.monotonic()\n"
    "sys.stdout.flush()\n"
    "print('perfbench-cli', t1, t2, t3, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class BenchError(Exception):
    """The benchmark itself cannot go on (as opposed to a failed check)."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("BLOCKPROD_PRECISION", None)  # the CLI commands rely on the default precision
    return env


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git; else ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """One ``worker.py`` process; the time to its ready line is one set-up sample."""

    def __init__(self, root: str, workload: str, deadline: float, spans: str | None = None):
        self.deadline = deadline
        cmd = [sys.executable, os.path.join("perfbench", "worker.py"), workload]
        if spans:
            cmd += ["--trace", spans]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.ready = self.recv()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def send(self, obj) -> None:
        self.proc.stdin.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        try:
            line = self.lines.get(timeout=max(1.0, self.deadline - time.monotonic()))
        except queue.Empty:
            raise BenchError("worker did not answer in time") from None
        if line is None:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> dict:
        self.send("quit")
        final = self.recv()
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.reader.join(timeout=30)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=30)


def run_cli(root: str, argv: list[str], traced: bool, deadline: float):
    """One CLI command in a fresh interpreter: (exit code, stdout, wall s, phases)."""
    timeout = max(1.0, deadline - time.monotonic())
    if not traced:
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-m", "blockprod.cli", *argv], cwd=root,
                           env=child_env(root), capture_output=True, text=True, timeout=timeout)
        return p.returncode, p.stdout, time.perf_counter() - t0, None
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv], cwd=root,
                       env=child_env(root), capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - t0
    stamps = [line.split()[1:] for line in p.stderr.splitlines() if line.startswith("perfbench-cli ")]
    if not stamps:  # the command died before the probe could report; its exit code tells
        return p.returncode, p.stdout, wall, (0.0, 0.0, 0.0)
    t1, t2, t3 = (float(x) for x in stamps[-1])
    return p.returncode, p.stdout, t3 - t0, (t1 - t0, t2 - t1, t3 - t2)


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + 170.0
    inputs = make_inputs(workload, seed)
    setups = []
    spans = None
    if trace:
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        spans = os.path.join(root, ".perfbench", f"spans-{workload}-seed{seed}.json")
    w = Worker(root, workload, deadline, spans)
    try:
        setups.append(w.setup_s)
        w.send(inputs)
        steps, step_refs, cli_walls, cli_refs, cli_phases = [], [], [], [], []
        digests = set()
        cli_results = {}
        first = None
        ops = 0
        errors = []
        t_run = time.monotonic()
        while len(steps) < MIN_ROUNDS or time.monotonic() - t_run < seconds:
            if time.monotonic() - start > RUN_BUDGET_S:
                break
            w.send("pass")
            r = w.recv()
            if "error" in r:
                errors.append(r["error"])
                ops = r["ops"]
                break
            steps.append(r["step_s"])
            step_refs.append(r["step_ref"])
            digests.add(r["digest"])
            ops = r["ops"]
            first = first or r.get("outputs")
            walls, norms, phases = [], [], []
            ref_before = timed_reference()
            for argv in CLI_COMMANDS[workload] * CLI_PER_ROUND:
                code, out, wall, parts = run_cli(root, argv, trace, deadline)
                ref_after = timed_reference()
                walls.append(wall)
                norms.append(2 * wall / (ref_before + ref_after))
                phases.append(parts)
                ref_before = ref_after
                cli_results.setdefault((tuple(argv), code, out), 0)
                cli_results[tuple(argv), code, out] += 1
            cli_walls.append(walls)
            cli_refs.append(norms)
            cli_phases.append(phases)
            for _ in range(0 if trace else SETUP_PER_ROUND):
                probe = Worker(root, workload, deadline)
                setups.append(probe.setup_s)
                try:
                    probe.close()
                except BaseException:
                    probe.kill()
                    raise
        final = w.close()
    except BaseException:
        w.kill()
        raise

    # ---- checks, after every measurement ----
    problems = [f"checker self-test: {p}" for p in checks.selftest()]
    problems += [f"pass raised:\n{e}" for e in errors]
    if len(digests) > 1:
        problems.append(f"passes gave {len(digests)} different outputs")
    try:
        failures = checks.CHECKERS[workload](first, inputs) if first is not None else []
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        failures = [checks.Failure("outputs", f"malformed: {exc!r}", ops=ops)]
    problems += [f"{f.op}: {f.message}" for f in failures if not f.known]
    known = [f"{f.op}: {f.message}" for f in failures if f.known]
    rounds = len(steps)
    failed = rounds * sum(f.ops for f in failures) + len(errors) * ops
    for (argv, code, out), times in cli_results.items():
        try:
            ok = code == 0 and checks.check_cli(list(argv), out)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            problems.append(f"CLI {' '.join(argv)}: exit code {code}, output {out[:200]!r}")
            failed += times
    attempted = (rounds + len(errors)) * ops + rounds * CLI_PER_ROUND * len(CLI_COMMANDS[workload])

    n_cli = len(CLI_COMMANDS[workload])
    if trace:
        metrics = dict(final["layers"])
        for name, i in (("interpreter_s", 0), ("import_s", 1), ("command_s", 2)):
            metrics[f"cli.{name}"] = sum_of_medians([[p[i] for p in r] for r in cli_phases], n_cli)
        metrics["trace.pass_wall_ref"] = sum_of_medians(step_refs)
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {
            "wall_ref": sum_of_medians(step_refs),
            "setup_s": statistics.median(setups),
            "cli_ref": sum_of_medians(cli_refs, n_cli),
            "peak_rss_mib": final["peak_rss_kib"] / 1024,
        }
        units = {"wall_ref": "ref", "setup_s": "s", "cli_ref": "ref", "peak_rss_mib": "MiB"}
    seconds_view = {"wall_s": sum_of_medians(steps), "cli_s": sum_of_medians(cli_walls, n_cli)}
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "backend": w.ready["backend"],
        "correct": not problems and rounds > 0, "attempted": attempted, "failed": failed,
        "problems": problems, "known": known, "missing": final.get("missing", []),
        "seconds": seconds_view,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def sum_of_medians(rounds: list[list[float]], period: int = 0) -> float:
    """Sum over a round's steps of each step's median time across the rounds.

    With ``period``, a round repeats the same ``period`` steps several times,
    and each step's median is taken over all of its repeats.
    """
    columns = [list(col) for col in zip(*rounds)]
    if period:
        columns = [sum(columns[i::period], []) for i in range(period)]
    return sum(statistics.median(col) for col in columns)


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".terms")):
        return "count"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".ns_per_term"):
        return "ns"
    if name.endswith("_ref"):
        return "ref"
    return "s"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blockprod", "__init__.py")):
        print("error: run from the root of a blockprod checkout (no src/blockprod here)",
              file=sys.stderr)
        return 2
    compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                              cwd=root, capture_output=True, text=True)
    if compiled.returncode != 0:
        print(f"error: cannot compile the sources:\n{compiled.stdout}{compiled.stderr}",
              file=sys.stderr)
        return 2

    # One CPU for every process of the run, so that the reference computation
    # (calibrate.py) runs where the measured work runs.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    status = 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 2
        env = {"python": platform.python_version(), "backend": res["backend"],
               "nproc": os.cpu_count(), "pinned_cpu": cpu, "platform": platform.platform(),
               "commit": git_commit(root)}
        print(f"# env {json.dumps(env)}")
        print(f"# {name} seed={args.seed} trace={args.trace} rounds={res['rounds']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"#   {k} = {m['value']:.6g} {m['unit']}")
        for k, v in res["seconds"].items():
            print(f"#   {k} = {v:.6g} s (in seconds; varies with the host's speed)")
        for line in res["known"]:
            print(f"# known fault (counted as failed): {line}")
        if args.trace:
            print(f"# missing spans: {', '.join(res['missing']) or 'none'}")
        for line in res["problems"]:
            print(f"# CHECK FAILED: {line}")
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": res["metrics"]}))
        sys.stdout.flush()
        if not res["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
