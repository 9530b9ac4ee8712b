"""Child process of the benchmark.

    python3 perfbench/worker.py {oracle,lemma-del} --seed N --seconds S
        [--rounds R] [--trace] [--setup-only] [--smoke]
    python3 perfbench/worker.py traced-cli VERB [ARGS...]

The first form builds a workload's seeded inputs (its set-up), then runs
the same batch of jobs in rounds until `--seconds` have passed (or for
exactly `--rounds` rounds), checks every job's output and prints one JSON
line: the monotonic time at which set-up ended, the round times and each
job's median latency over the rounds, both in seconds and in reference
loops (refloop.py: one loop is timed after every job), the median loop
time, the attempted and failed counts, a digest of
the outputs and, with `--trace`, the span summary.  `--setup-only` stops
after set-up.

The second form runs one `python -m thompsonf` verb under the tracer: the
verb's stdout and exit code are unchanged, and the span summary goes to
stderr as the last line, after tracer.TRACE_MARK.

run.py starts these processes with the repository's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction

import refloop
from thompsonf import diagrams, folner, words
from tracer import TRACE_MARK, Tracer

# Job batches per workload.  Oracle pairs are `long` pairs of two
# max_len-letter words, the rest of log-uniform length on [1, max_len];
# lemma-del trials sample (S, K) from the radius ball.
SIZES = {
    ("oracle", False): {"jobs": 700, "long": 100, "max_len": 320, "max_index": 12},
    ("oracle", True): {"jobs": 12, "long": 3, "max_len": 20, "max_index": 8},
    ("lemma-del", False): {"jobs": 150, "radius": 6},
    ("lemma-del", True): {"jobs": 12, "radius": 3},
}


def _lattice(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points (u, v) in [0, 1)^2, in a random order: u takes one draw
    from each of n equal strata, and v the stratum that a golden-ratio
    lattice pairs with it, jittered within the stratum.  Every seed then
    gets the same joint mix of small and large jobs, so the batch's total
    work and its median job hardly depend on the seed."""
    step = max(1, round(n * 0.6180339887))
    while math.gcd(step, n) != 1:
        step += 1
    points = [((k + rng.random()) / n, ((k * step) % n + rng.random()) / n)
              for k in range(n)]
    rng.shuffle(points)
    return points


# -- oracle: the two-model cross-check ---------------------------------------


def oracle_inputs(seed: int, jobs: int, long: int, max_len: int, max_index: int):
    """`jobs` pairs of random words, `long` of them with two words of
    max_len letters, in a seeded order.  The long pairs make the slowest
    seventh of the batch, so its tail latency is a high percentile of many
    like jobs rather than the few slowest pairs a seed happens to draw."""
    rng = random.Random(seed)

    def word(u: float) -> words.Word:
        n = max(1, round(max_len**u))
        return words.Word(tuple(
            words.Letter(rng.randint(0, max_index), rng.choice((1, -1)))
            for _ in range(n)
        ))

    pairs = [(word(1.0), word(1.0)) for _ in range(long)]
    pairs += [(word(u), word(v)) for u, v in _lattice(rng, jobs - long)]
    rng.shuffle(pairs)
    return pairs


def oracle_job(pair):
    """The product of two words in the normal-form and in the diagram model."""
    a = words.reduce_to_normal_form(pair[0])
    b = words.reduce_to_normal_form(pair[1])
    by_words = words.nf_multiply(a, b)
    by_diagrams = diagrams.diagram_to_nf(
        diagrams.concat_product(diagrams.nf_to_diagram(a), diagrams.nf_to_diagram(b))
    )
    return by_words, by_diagrams


def oracle_check(out) -> str | None:
    by_words, by_diagrams = out
    if by_words != by_diagrams:
        return f"models disagree: {by_words} (words) vs {by_diagrams} (diagrams)"
    return None


def oracle_text(out) -> str:
    return str(out[0])


# -- lemma-del: vertex-deletion bound on random subsets of a ball ------------


def lemma_inputs(seed: int, jobs: int, radius: int):
    """`jobs` trials (members of S, positions of K in S's sorted order),
    sampled as `thompsonf check lemma-del` does, with stratified sizes."""
    pool = folner.ball(radius).sorted_members()
    rng = random.Random(seed)
    trials = []
    for u, v in _lattice(rng, jobs):
        size = 1 + int(u * len(pool))
        trials.append((rng.sample(pool, size), rng.sample(range(size), int(v * size))))
    return trials


def lemma_job(trial):
    members, cut = trial
    s = folner.ElementSet.of(members)
    order = s.sorted_members()
    k = folner.ElementSet.of(order[i] for i in cut)
    return folner.deletion_bound_check(s, k), len(s), len(k)


def lemma_check(out) -> str | None:
    """The corrected bound density(S \\ K) >= density(S) - 8|K|/|S| holds
    for every input; the 4|K| bound in `holds` is allowed to fail."""
    report, ns, nk = out
    if report.density_after < report.density_before - Fraction(8 * nk, ns):
        return (f"density {report.density_after} fell below the corrected bound "
                f"{report.density_before - Fraction(8 * nk, ns)}")
    if report.bound != report.density_before - Fraction(4 * nk, ns):
        return f"reported bound {report.bound} is not density - 4|K|/|S|"
    if report.holds != (report.density_after >= report.bound):
        return "reported holds disagrees with the densities"
    return None


def lemma_text(out) -> str:
    report = out[0]
    return f"{report.density_before} {report.density_after} {report.holds}"


WORKLOADS = {
    "oracle": (oracle_inputs, oracle_job, oracle_check, oracle_text),
    "lemma-del": (lemma_inputs, lemma_job, lemma_check, lemma_text),
}


def run_batch(args) -> dict:
    make_inputs, job, check, text = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install("thompsonf")
    inputs = make_inputs(args.seed, **SIZES[args.workload, args.smoke])
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    clock = time.perf_counter
    latencies: list[list[float]] = [[] for _ in inputs]
    scaled: list[list[float]] = [[] for _ in inputs]  # in reference loops
    walls: list[float] = []
    walls_ref: list[float] = []
    loops: list[float] = []
    first: list = []
    errors: list[str] = []
    failed = 0
    started = clock()
    while True:
        outputs = []
        times = []
        refs = []
        round_start = clock()
        for item in inputs:
            t0 = clock()
            try:
                if tracer is None:
                    out = job(item)
                else:
                    with tracer.job():
                        out = job(item)
            except Exception as exc:  # a crash is a failed job, not a lost run
                out = exc
            times.append(clock() - t0)
            refs.append(refloop.reference())
            outputs.append(out)
        round_span = clock() - round_start
        for i, (t, ref) in enumerate(zip(times, refloop.local_medians(refs))):
            latencies[i].append(t)
            scaled[i].append(t / ref)
        walls.append(sum(times))
        walls_ref.append(sum(s[-1] for s in scaled))
        loops.extend(refs)
        if not first:
            first = outputs
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                problem = f"{type(out).__name__}: {out}"
            elif out != first[i] and not isinstance(first[i], Exception):
                problem = "output differs from the first round"
            else:
                problem = check(out)
            if problem is not None:
                failed += 1
                errors.append(f"job {i}: {problem}")
        elapsed = clock() - started
        if args.rounds is not None:
            if len(walls) >= args.rounds:
                break
        elif elapsed + round_span > args.seconds:
            break

    trace = None
    if tracer is not None:
        trace = tracer.summary()
        tracer.uninstall()
    texts = [
        f"error {type(o).__name__}" if isinstance(o, Exception) else text(o)
        for o in first
    ]
    result = {
        "ready": ready,
        "walls": walls,
        "walls_ref": walls_ref,
        "job_s": [statistics.median(times) for times in latencies],
        "job_ref": [statistics.median(times) for times in scaled],
        "loop_s": statistics.median(loops),
        "attempted": len(inputs) * len(walls),
        "failed": failed,
        "errors": errors[:5],
        "digest": hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16],
        "trace": trace,
    }
    if args.workload == "lemma-del":
        result["holds_false"] = sum(1 for o in first if not isinstance(o, Exception)
                                    and not o[0].holds)
    return result


def traced_cli(argv: list[str]) -> int:
    from thompsonf import cli

    tracer = Tracer()
    tracer.install("thompsonf")
    try:
        with tracer.job():
            code = cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.summary()), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["traced-cli"]:
        return traced_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    print(json.dumps(run_batch(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
