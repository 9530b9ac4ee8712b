"""The thompsonf benchmark.

    python3 perfbench/run.py --workload {census,oracle,lemma-del}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of the repository.  Every measured process is a child
started with src/ on PYTHONPATH, one at a time.  The report lines go to
stdout, and the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Exit code 0 when every output was correct, 1 when some was not, 2 when
the benchmark cannot run at all (then no JSON line is printed).

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import refloop
import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
RUN_LIMIT_S = 170.0  # every child is killed by then
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
CENSUS_LOOPS = 100  # reference loops timed before and after each census verb

# census verbs: (name, argv, expected stdout, whole stdout must match).
# When not whole, the expected text must be one of the stdout lines.
# Radius 8 rather than the paper's 10: a radius-10 round takes about 22 s,
# so a run could time each verb only once or twice, and on a shared box a
# few samples spread too much from run to run; a radius-8 round takes
# about 3.5 s, so each verb's median is over ten rounds or more.
HISTOGRAM_8 = "class,count\nM1,317\nM2,3222\nM3,1650\nM4,1316\nM5,1162\nM6,1890\nM7,1680\n"
HISTOGRAM_4 = "class,count\nM1,7\nM2,42\nM3,30\nM4,24\nM5,22\nM6,18\nM7,18\n"
DENSITY_HEAD = "label,vertices,oriented_edges,density_num,density_den\n"
DROP = ["--drop", "M1,M2,M3,M4,M5,M7"]
CENSUS = {
    False: (
        ("ball_s", ["ball", "8"], "ball(8): 11237 elements", False),
        ("density_s", ["density", "8"],
         DENSITY_HEAD + "ball(8),11237,23440,23440,11237\n", True),
        ("histogram_s", ["histogram", "8"], HISTOGRAM_8, True),
        ("drop_density_s", ["density", "8", *DROP],
         DENSITY_HEAD + "ball(8)-drop(M1+M2+M3+M4+M5+M7),1890,1458,27,35\n",
         True),
        ("closures_s", ["check", "closures", "--radius", "7"],
         "check closures: 0 violations (radius 7, 3957 elements)", False),
    ),
    True: (
        ("ball_s", ["ball", "4"], "ball(4): 161 elements", False),
        ("density_s", ["density", "4"], DENSITY_HEAD + "ball(4),161,320,320,161\n", True),
        ("histogram_s", ["histogram", "4"], HISTOGRAM_4, True),
        ("drop_density_s", ["density", "4", *DROP],
         DENSITY_HEAD + "ball(4)-drop(M1+M2+M3+M4+M5+M7),18,10,5,9\n", True),
        ("closures_s", ["check", "closures", "--radius", "3"],
         "check closures: 0 violations (radius 3, 53 elements)", False),
    ),
}
# set-up probe: a CLI start with next to no work
PROBE = (["reduce", "x0"], "x0\n")

# output digests recorded from the seed code at DEFAULT_SEED, per (workload, smoke)
DIGESTS = {
    ("oracle", False): "f782195fa169b533",
    ("oracle", True): "d10c5d5299f9eeb4",
    ("lemma-del", False): "37624db31407fbbd",
    ("lemma-del", True): "fbac74e61a9e7dc1",
}

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    start: float
    end: float
    code: int
    out: str
    err: str
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Measurement:
    """Everything one pass over a workload observed."""

    setup: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # per round, seconds
    walls_ref: list[float] = field(default_factory=list)  # the same in loops
    job_s: list[float] = field(default_factory=list)  # per job, median seconds
    job_ref: list[float] = field(default_factory=list)  # the same in loops
    loop_s: float = 0.0  # median time of one reference loop
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # compared traced vs untraced
    traces: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, problem: str | None) -> None:
        """Count one checked output; `problem` describes a wrong one."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(problem)


class Runner:
    """Starts children one at a time and keeps them within the run's limit."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def run(self, argv: list[str]) -> Child:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        killer = threading.Timer(max(0.1, self.deadline - start), proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Child(start, end, proc.returncode, out.decode(), err[0].decode(),
                     usage.ru_maxrss / 1024)


# -- census: the paper's ball experiments through the CLI -------------------


def _census_ok(child: Child, expected: str, whole: bool) -> str | None:
    if child.code != 0:
        last = child.err.strip().splitlines()[-1:] or [""]
        return f"exit code {child.code}: {last[0]}"
    if whole and child.out != expected:
        return f"stdout {child.out!r} != {expected!r}"
    if not whole and expected not in child.out.splitlines():
        return f"no line {expected!r} in stdout {child.out[:200]!r}"
    return None


def census(runner: Runner, seconds: float, smoke: bool, traced: bool,
           rounds: int | None = None) -> Measurement:
    """One fresh `python -m thompsonf` child per verb; rounds of the five
    verbs repeat while the next round fits in `seconds` (or `rounds` times).
    Each verb's wall time is divided by the median of the reference loops
    timed just before and after its child."""
    m = Measurement()
    verbs = CENSUS[smoke]
    if not traced:
        for _ in range(SETUP_SAMPLES):
            child = runner.run(["-m", "thompsonf", *PROBE[0]])
            problem = _census_ok(child, PROBE[1], True)
            m.check(problem and f"set-up probe: {problem}")
            m.setup.append(child.wall)
            m.rss_mb = max(m.rss_mb, child.rss_mb)
    per_verb: list[list[float]] = [[] for _ in verbs]
    per_verb_ref: list[list[float]] = [[] for _ in verbs]
    loops: list[float] = []
    started = time.monotonic()
    while True:
        round_start = time.monotonic()
        for i, (name, argv, expected, whole) in enumerate(verbs):
            before = [refloop.reference() for _ in range(CENSUS_LOOPS)]
            if traced:
                child = runner.run([WORKER, "traced-cli", *argv])
                head, _, trace = child.err.rpartition(tracer.TRACE_MARK)
                child.err = head
                if trace:
                    m.traces.append(json.loads(trace))
            else:
                child = runner.run(["-m", "thompsonf", *argv])
            after = [refloop.reference() for _ in range(CENSUS_LOOPS)]
            loops.append(statistics.median(before + after))
            problem = _census_ok(child, expected, whole)
            m.check(problem and f"{' '.join(argv)}: {problem}")
            if not m.walls:
                m.outputs.append(child.out)
            per_verb[i].append(child.wall)
            per_verb_ref[i].append(child.wall / loops[-1])
            m.rss_mb = max(m.rss_mb, child.rss_mb)
        m.walls.append(sum(times[-1] for times in per_verb))
        m.walls_ref.append(sum(times[-1] for times in per_verb_ref))
        round_span = time.monotonic() - round_start
        if rounds is not None:
            if len(m.walls) >= rounds:
                break
        elif time.monotonic() - started + round_span > seconds:
            break
    m.job_s = [statistics.median(times) for times in per_verb]
    m.job_ref = [statistics.median(times) for times in per_verb_ref]
    m.loop_s = statistics.median(loops)
    m.notes.append(f"census verbs (median s over {len(m.walls)} rounds): " + ", ".join(
        f"{verb[0]} {value:.4f}" for verb, value in zip(verbs, m.job_s)
    ))
    return m


# -- oracle and lemma-del: batches of jobs in one child ----------------------


def batch(runner: Runner, workload: str, seed: int, seconds: float, smoke: bool,
          traced: bool, rounds: int | None = None) -> Measurement:
    """Set-up-only children first, to sample set-up time, then one child
    that sets up once more and runs the job rounds."""
    m = Measurement()
    common = [WORKER, workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    if not traced:
        for _ in range(SETUP_SAMPLES - 1):
            child = runner.run(common + ["--setup-only"])
            result = _worker_result(child, m)
            if result is not None:
                m.setup.append(result["ready"] - child.start)
    argv = common + ["--seconds", str(seconds)]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    if traced:
        argv.append("--trace")
    child = runner.run(argv)
    result = _worker_result(child, m)
    if result is None:
        return m
    m.setup.append(result["ready"] - child.start)
    m.walls = result["walls"]
    m.walls_ref = result["walls_ref"]
    m.job_s = result["job_s"]
    m.job_ref = result["job_ref"]
    m.loop_s = result["loop_s"]
    m.attempted += result["attempted"]
    m.failed += result["failed"]
    m.errors.extend(result["errors"])
    m.outputs.append(result["digest"])
    if result["trace"]:
        m.traces.append(result["trace"])
    recorded = DIGESTS[workload, smoke]
    if seed == DEFAULT_SEED:
        m.check(None if result["digest"] == recorded else
                f"output digest {result['digest']} != recorded {recorded}")
    m.notes.append(f"output digest {result['digest']} ({len(m.job_s)} jobs)")
    if "holds_false" in result:
        m.notes.append(
            f"4|K| bound false on {result['holds_false']} of {len(m.job_s)} trials "
            "(a documented caveat, not counted as a failure)"
        )
    return m


def _worker_result(child: Child, m: Measurement) -> dict | None:
    m.rss_mb = max(m.rss_mb, child.rss_mb)
    lines = child.out.strip().splitlines()
    if child.code != 0 or not lines:
        last = child.err.strip().splitlines()[-1:] or [""]
        m.check(f"worker exit code {child.code}: {last[0]}")
        return None
    return json.loads(lines[-1])


# -- metrics -----------------------------------------------------------------


def median(values: list[float]) -> float:
    """The median; 0 when a failed child left no samples."""
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values above it, and its
    rank in percent; the maximum (p100) when that percentile would not be
    above the median, with twenty values or fewer."""
    ordered = sorted(values) or [0.0]
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(m: Measurement) -> tuple[dict[str, float], list[str]]:
    tail_ref, rank = tail(m.job_ref)
    values = {
        "setup_s": median(m.setup),
        "wall_ref": median(m.walls_ref),
        "job_p50_ref": median(m.job_ref),
        "job_tail_ref": tail_ref,
        "peak_rss_mb": m.rss_mb,
    }
    n = len(m.job_ref)
    lines = [
        f"setup_s {values['setup_s']:.4f} s (median of {len(m.setup)} set-ups)",
        f"wall_ref {values['wall_ref']:.2f} ref (median of {len(m.walls)} rounds; "
        f"{median(m.walls):.4f} s)",
        f"job_p50_ref {values['job_p50_ref']:.4f} ref (median of {n} jobs; "
        f"{median(m.job_s) * 1000:.4f} ms)",
        f"job_tail_ref {values['job_tail_ref']:.4f} ref (p{rank:.4g} of {n} jobs; "
        f"{tail(m.job_s)[0] * 1000:.4f} ms)",
        f"peak_rss_mb {values['peak_rss_mb']:.2f} MB (largest child)",
        f"reference loop {m.loop_s * 1000:.4f} ms (median; 1 ref)",
    ]
    return values, lines


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "commit": commit,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run the workload; return (correct, attempted, failed, metrics, lines)."""
    runner = Runner()
    rounds = 1 if trace else None

    def one(traced: bool) -> Measurement:
        if workload == "census":
            return census(runner, seconds, smoke, traced, rounds)
        return batch(runner, workload, seed, seconds, smoke, traced, rounds)

    plain = one(False)
    passes = [plain]
    lines = []
    if not trace:
        values, lines = end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        traced = one(True)
        passes.append(traced)
        traced.check(None if traced.outputs == plain.outputs else
                     "traced outputs differ from the untraced run")
        overhead = (sum(traced.walls_ref) / sum(plain.walls_ref)
                    if plain.walls_ref else 0.0)
        values = tracer.layer_metrics(traced.traces, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better) in tracer.METRICS.items()}
        lines = [f"{name} {values[name]:.6g} {unit}" if unit != "count"
                 else f"{name} {values[name]} {unit}"
                 for name, (unit, _better) in tracer.METRICS.items()]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p, label in zip(passes, ("", "traced: ")):
        lines.extend(label + note for note in p.notes)
        lines.extend(f"FAILED {label}{e}" for e in p.errors)
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"failed_ratio {ratio:.4g} ({failed} of {attempted} attempted)")
    correct = failed == 0 and attempted > 0
    return correct, attempted, failed, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("census", "oracle", "lemma-del"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny radius and few jobs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thompsonf", "__init__.py")):
        print(f"error: no thompsonf package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the harness and every child: the reference loops
        # timed here then run on the core that the census children use
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment(args.seed)
    correct, attempted, failed, metrics, lines = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print("env " + json.dumps(env))
    print(f"workload {args.workload} (trace {args.trace}, {args.seconds:g} s)")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
