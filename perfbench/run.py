"""End-to-end and per-layer benchmark of the equindex engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {loop,plane,cpn} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it measures the per-layer metrics from traced passes (see
tracing.py).  Every output is checked bit-exactly against an independent
reference (reference.py).  Times are scaled to a reference machine speed,
measured in the same run by a fixed calibration slice (``Speed``), so that
a shared host's changes of speed cancel.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs in this one process, without threads, and at most one
child process (an engine CLI or a fresh interpreter) runs at a time.
README.md in this directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 3  # timed samples of each kind, even when --seconds has run out
MEASURE_LIMIT_S = 120  # stop starting passes after this long, minimum or not
RUN_LIMIT_S = 175  # abort the whole run (exit 1, no result) after this long
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # solve_tail_s has this many samples above it when it can
REFERENCE_SLICE_S = 0.005  # a calibration slice's time at the reference speed (README)
CALIBRATION_SHARE = 0.1  # calibration time as a share of the time measured
TICK_S = 0.1  # CPU seconds between calibration slices inside an in-process step
# The calibration slice solves this problem with reference.py, never with the engine.
CALIBRATION_DOC = {
    "manifold": "cpn:2",
    "tangent": {"plus": ["1/2", "-2/3"]},
    "normal": [{"weight": w, "plus": ["3/5", "-1/4"]} for w in (1, 2, 3)],
    "F": [{"weight": 0, "plus": [1]}, {"weight": -1, "plus": ["-3/2"]}],
    "L": {"sign": -1, "weight": 1},
    "order": 8,
}

CLI_MAIN = "from equindex.cli import main; main()"  # what the `equindex` script runs
IMPORT_TIMER = "import time; t = time.perf_counter(); import equindex; print(repr(time.perf_counter() - t))"

END_TO_END_UNITS = {
    "solve_s": "s",
    "solve_tail_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if "_bits" in name else "count"


class Speed:
    """How fast the machine runs, from a fixed slice of work timed around each step.

    A slice is reference.py solving CALIBRATION_DOC: exact series arithmetic
    over Fractions, like the engine's, but in the benchmark's own code, so
    that no change to the engine moves it.  Before each timed step (a
    problem of a pass, a CLI child, an import) slices run, at least one and
    then until they have taken CALIBRATION_SHARE of the time measured so
    far; one more runs after the step.  Inside an in-process step that asks
    for ticks, a slice also runs every TICK_S of CPU time, from a SIGPROF
    handler, and its time is taken out of the step's.  ``end`` scales the
    step's time by the mean of all those slices to the time it would have
    taken at the reference speed, at which one slice takes REFERENCE_SLICE_S.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.measured = 0.0  # seconds of timed steps so far
        self._spent = 0.0
        self._armed = False
        self._stolen = 0.0  # seconds of slices inside the current step
        signal.signal(signal.SIGPROF, self._tick)

    def _slice(self) -> None:
        start = time.perf_counter()
        reference.reference_index(CALIBRATION_DOC)
        self.slices.append(time.perf_counter() - start)
        self._spent += self.slices[-1]

    def _tick(self, signum, frame) -> None:
        if self._armed:
            start = time.perf_counter()
            self._slice()
            self._stolen += time.perf_counter() - start

    def begin(self) -> int:
        """Run the slices due before a step; the index of the first."""
        first = len(self.slices)
        self._slice()
        while self._spent < CALIBRATION_SHARE * self.measured:
            self._slice()
        return first

    def run(self, call, ticks: bool = False):
        """Time ``call()``: its seconds, less any slices ticked inside it, and its result."""
        self._stolen = 0.0
        start = time.perf_counter()
        if ticks:
            self._armed = True
            signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            result = call()
        finally:
            if ticks:
                self._armed = False
                signal.setitimer(signal.ITIMER_PROF, 0)
            elapsed = time.perf_counter() - start
        return elapsed - self._stolen, result

    def end(self, seconds: float, first: int) -> float:
        """Close a step that took ``seconds``; that time at the reference speed."""
        self._slice()
        self.measured += seconds
        return seconds * REFERENCE_SLICE_S / statistics.fmean(self.slices[first:])


class Outcomes:
    """Every attempted problem and its output, tallied once a run is over."""

    def __init__(self, problems):
        self.problems = problems
        self.seen: collections.Counter = collections.Counter()

    def record(self, outputs) -> None:
        for index, output in enumerate(outputs):
            self.seen[(index, output)] += 1

    def tally(self, verifier: reference.Verifier) -> tuple[int, collections.Counter]:
        """The number attempted, and how often each distinct failure occurred."""
        failures: collections.Counter = collections.Counter()
        for (index, output), count in self.seen.items():
            why = verifier.check(index, output)
            if why:
                failures[f"{self.problems[index].label}: {why}"] += count
        return sum(self.seen.values()), failures


def failure(message: str) -> tuple[str, str]:
    return ("error", message)


def attempt(eq, problem):
    try:
        return workloads.solve(eq, problem)
    except Exception as exc:  # any engine error counts as a failed problem
        return failure(f"{type(exc).__name__}: {exc}")


def solve_pass(eq, problems, speed: Speed, ticks: bool) -> tuple[float, float, list]:
    """One in-process pass: its time at the reference speed, as measured, and its outputs."""
    gc.collect()
    outputs = []
    scaled = measured = 0.0
    for problem in problems:
        first = speed.begin()
        seconds, output = speed.run(lambda: attempt(eq, problem), ticks)
        outputs.append(output)
        scaled += speed.end(seconds, first)
        measured += seconds
    return scaled, measured, outputs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(workloads.SRC)
    return env


def child(command, env):
    """Run one CLI child to completion; None if it timed out."""
    try:
        return subprocess.run(command, env=env, cwd=workloads.ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def cli_pass(problems, inputs, env, speed: Speed) -> tuple[float, float, list]:
    """One pass of CLI children: its time at the reference speed, as measured, and their outputs."""
    outputs = []
    scaled = measured = 0.0
    for problem, path in zip(problems, inputs):
        command = [sys.executable, "-c", CLI_MAIN, *problem.cli_args(path)]
        first = speed.begin()
        seconds, proc = speed.run(lambda: child(command, env))
        scaled += speed.end(seconds, first)
        measured += seconds
        if proc is None:
            outputs.append(failure(f"CLI timed out after {CHILD_TIMEOUT_S} s"))
        elif proc.returncode != 0 or not proc.stdout.endswith("\n"):
            outputs.append(failure(f"CLI exit {proc.returncode}: {proc.stderr.strip()[:200]}"))
        else:
            outputs.append(proc.stdout[:-1])
    return scaled, measured, outputs


def import_time(env, speed: Speed) -> tuple[float, float]:
    """The time ``import equindex`` takes in a fresh interpreter: at the reference speed, and as measured."""
    first = speed.begin()
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    seconds = float(proc.stdout)
    return speed.end(seconds, first), seconds


def peak_rss(args, env, outcomes: Outcomes) -> float:
    command = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
               "--seed", str(args.seed)]
    proc = subprocess.run(command, env=env, cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        outcomes.record([failure(f"one-pass child exit {proc.returncode}: {proc.stderr.strip()[-200:]}")]
                        * len(outcomes.problems))
        return 0.0  # nothing measured; the recorded failures make the run incorrect
    report = json.loads(proc.stdout.splitlines()[-1])
    outcomes.record(report["outputs"])
    return report["maxrss_kib"] / 1024


def interleave(kinds, seconds: float) -> list[list]:
    """Run passes of each kind until each has had its share of ``seconds``.

    ``kinds`` is a list of (pass function, share of the time).  The kind
    furthest behind its share runs next, so the kinds interleave and a
    slow phase of the machine falls on all of them alike.
    """
    samples = [[] for _ in kinds]
    spent = [0.0] * len(kinds)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        short = [i for i, s in enumerate(samples) if len(s) < MIN_SAMPLES]
        pick = min(range(len(kinds)), key=lambda i: spent[i] / kinds[i][1])
        # a pass expected to end after --seconds is not started, unless a kind is still short
        due = elapsed + (spent[pick] / len(samples[pick]) if samples[pick] else 0.0)
        if due > seconds or elapsed >= MEASURE_LIMIT_S:
            if not short or elapsed >= MEASURE_LIMIT_S:
                return samples
            pick = short[0]
        begun = time.perf_counter()
        samples[pick].append(kinds[pick][0]())
        spent[pick] += time.perf_counter() - begun


def tail(values: list[float]) -> tuple[float, int]:
    """The highest sample with TAIL_BEYOND samples above it, and how many are above it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that sample would lie below
    the median, so the upper median is reported instead.
    """
    ordered = sorted(values)
    index = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    return ordered[index], len(ordered) - 1 - index


def provenance(args, cpus: list[int]) -> dict:
    commit = None
    if (workloads.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass  # no git: the src digest still identifies the code
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": cpus[-1],
    }


def end_to_end(eq, args, problems, outcomes) -> tuple[dict, dict]:
    env = child_env()
    import_time(env, Speed())  # fills the bytecode cache; not recorded
    solve_pass(eq, [workloads.shrink(p) for p in problems], Speed(), False)  # warm-up, unchecked
    speed = Speed()
    measured = {"solve": [], "cli": [], "setup": []}  # unscaled times, for the record
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as work:
        inputs = []
        for i, problem in enumerate(problems):
            path = None
            if problem.preset is None:
                path = os.path.join(work, f"problem-{i}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(problem.text)
            inputs.append(path)

        def solve_once():
            scaled, seconds, outputs = solve_pass(eq, problems, speed, True)
            outcomes.record(outputs)
            measured["solve"].append(seconds)
            return scaled

        def cli_once():
            scaled, seconds, outputs = cli_pass(problems, inputs, env, speed)
            outcomes.record(outputs)
            measured["cli"].append(seconds)
            return scaled

        def setup_once():
            scaled, seconds = import_time(env, speed)
            measured["setup"].append(seconds)
            return scaled

        solve, cli, setup = interleave([(solve_once, 0.47), (cli_once, 0.47), (setup_once, 0.06)],
                                       args.seconds)
    rss = peak_rss(args, env, outcomes)
    tail_value, beyond = tail(solve)
    metrics = {
        "solve_s": statistics.median(solve),
        "solve_tail_s": tail_value,
        "cli_s": statistics.median(cli),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss,
    }
    notes = {"solve_tail_beyond": beyond, "solve_pass_s": solve, "cli_pass_s": cli,
             "setup_import_s": setup, "measured_s": measured, "speed_slices": len(speed.slices)}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(eq, args, problems, outcomes) -> tuple[dict, dict]:
    solve_pass(eq, [workloads.shrink(p) for p in problems], Speed(), False)  # warm-up, unchecked
    speed = Speed()
    plain_outputs = []
    layers = []

    def plain():
        scaled, _, outputs = solve_pass(eq, problems, speed, False)
        outcomes.record(outputs)
        plain_outputs.append(outputs)
        return scaled

    def traced():
        with tracing.Tracer(eq) as tracer:
            scaled, seconds, outputs = solve_pass(eq, problems, speed, False)
        if plain_outputs:
            outputs = [out if out == ref else failure("traced output differs from the untraced one")
                       for out, ref in zip(outputs, plain_outputs[0])]
        outcomes.record(outputs)
        factor = scaled / seconds  # layer times go to the reference speed with their pass
        layers.append({name: value * factor if name.endswith("_s") else value
                       for name, value in tracer.metrics().items()})
        return scaled

    plain_times, traced_times = interleave([(plain, 0.3), (traced, 0.7)], args.seconds)
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    counts = [name for name in layers[0] if not name.endswith("_s")]
    repeat = all(run[name] == layers[0][name] for run in layers for name in counts)
    notes = {"traced_pass_s": traced_times, "untraced_pass_s": plain_times, "counts_repeat": repeat,
             "speed_slices": len(speed.slices)}
    return {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, notes


def on_alarm(signum, frame):
    raise SystemExit(f"perfbench: run exceeded {RUN_LIMIT_S} s")


def on_term(signum, frame):
    raise SystemExit(f"perfbench: stopped by signal {signum}")  # so children and work files go too


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_LIMIT_S)
    # One CPU for this process, its children and the calibration slices: on a
    # shared host each CPU runs at its own, changing speed.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    eq = workloads.load_engine()
    problems = workloads.build(args.workload, args.seed)
    outcomes = Outcomes(problems)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(eq, args, problems, outcomes)
    attempted, failures = outcomes.tally(reference.Verifier(eq, problems))
    signal.alarm(0)

    failed = sum(failures.values())
    record = {**provenance(args, cpus), **notes, "fail_frac": failed / attempted}
    for line, count in failures.most_common(20):
        print(f"FAIL x{count} {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6g} {unit}")
    print(f"{'fail_frac':30s} {record['fail_frac']:.6g} ({failed}/{attempted})")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
