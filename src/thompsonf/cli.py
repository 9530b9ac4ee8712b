"""Command-line front end.

Verbs:
    reduce <word>                     print the normal form
    classify <word>                   print the class M1..M7
    diagram <word> [--dot PATH]       print the canonical diagram
    ball <n> [--csv PATH]             size of the radius-n ball
    density <n> [--drop M1,..] [--csv PATH]
    histogram <n> [--csv PATH]        class histogram of the radius-n ball
    check {partition|closures|lemma-del} --radius <n> [--samples K] [--seed S]

ball, density, histogram and check also take --limit N: they build no
ball of more than N elements (default 1,000,000) and exit 2 instead.

Exit codes: 0 on success, 1 when a check found violations, 2 on any
error (bad word, unknown flag, resource limit), with a one-line
`error: ...` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import folner
from .classify import ClassLabel, class_of
from .words import ParseError, parse_word, reduce_to_normal_form


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with one `error:` line, like every other error."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thompsonf",
        description="Thompson's group F: normal forms, diagrams, classes, densities.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    limit = {"type": int, "default": folner.DEFAULT_ELEMENT_LIMIT, "metavar": "N",
             "help": "build no ball of more than N elements (default %(default)s)"}

    p = sub.add_parser("reduce", help="reduce a word to its normal form")
    p.add_argument("word")

    p = sub.add_parser("classify", help="print the class M1..M7 of a word")
    p.add_argument("word")

    p = sub.add_parser("diagram", help="print the canonical diagram of a word")
    p.add_argument("word")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering")

    p = sub.add_parser("ball", help="enumerate the ball of a given radius")
    p.add_argument("radius", type=int)
    p.add_argument("--csv", metavar="PATH", help="write the elements as CSV")
    p.add_argument("--limit", **limit)

    p = sub.add_parser("density", help="density of a ball, optionally after drops")
    p.add_argument("radius", type=int)
    p.add_argument("--drop", metavar="CLASSES", default="",
                   help="comma-separated classes to remove first, e.g. M1,M2")
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--limit", **limit)

    p = sub.add_parser("histogram", help="class histogram of a ball")
    p.add_argument("radius", type=int)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--limit", **limit)

    p = sub.add_parser("check", help="run an exhaustive or randomized checker")
    p.add_argument("which", choices=("partition", "closures", "lemma-del"))
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000,
                   help="random instances for lemma-del")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", **limit)

    return parser


def _parse_classes(text: str) -> list[ClassLabel]:
    labels = []
    for part in filter(None, (s.strip() for s in text.split(","))):
        try:
            labels.append(ClassLabel[part])
        except KeyError:
            raise ValueError(f"unknown class {part!r}; expected M1..M7") from None
    return labels


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def _cmd_reduce(args) -> int:
    print(reduce_to_normal_form(parse_word(args.word)))
    return 0


def _cmd_classify(args) -> int:
    print(class_of(reduce_to_normal_form(parse_word(args.word))))
    return 0


def _cmd_diagram(args) -> int:
    from . import diagrams  # the oracle model; only this verb loads it

    d = diagrams.nf_to_diagram(reduce_to_normal_form(parse_word(args.word)))
    if args.dot:
        _write(args.dot, diagrams.diagram_to_dot(d))
    print(diagrams.format_diagram(d))
    return 0


def _cmd_ball(args) -> int:
    s = folner.ball(args.radius, limit=args.limit)
    if args.csv:
        _write(args.csv, folner.elements_csv(s))
    print(f"ball({args.radius}): {len(s)} elements")
    return 0


def _density_label(radius: int, dropped: list[ClassLabel]) -> str:
    if not dropped:
        return f"ball({radius})"
    names = "+".join(c.name for c in ClassLabel if c in dropped)
    return f"ball({radius})-drop({names})"


def _cmd_density(args) -> int:
    dropped = _parse_classes(args.drop)
    s = folner.ball(args.radius, limit=args.limit)
    s = folner.drop_classes(s, dropped)
    if not len(s):
        raise ValueError("every element was dropped; the density is undefined")
    stats = folner.subgraph_density(s)
    label = _density_label(args.radius, dropped)
    csv = folner.density_csv(label, stats)
    if args.csv:
        _write(args.csv, csv)
    print(csv, end="")
    return 0


def _cmd_histogram(args) -> int:
    s = folner.ball(args.radius, limit=args.limit)
    csv = folner.histogram_csv(folner.class_histogram(s))
    if args.csv:
        _write(args.csv, csv)
    print(csv, end="")
    return 0


def _check_lemma_del(s, samples: int, seed: int) -> tuple[list[str], int]:
    """Violations of the advertised 4|K| bound, and the number of trials
    that broke the corrected 8|K| bound as well."""
    rng = random.Random(seed)
    pool = s.sorted_members()
    violations = []
    corrected = 0
    for trial in range(samples):
        size = rng.randint(1, len(pool))
        subset = folner.ElementSet.of(rng.sample(pool, size))
        deleted = folner.ElementSet.of(
            rng.sample(subset.sorted_members(), rng.randint(0, size - 1))
        )
        report = folner.deletion_bound_check(subset, deleted)
        if not report.holds:
            violations.append(
                f"trial {trial}: density {report.density_after} fell below "
                f"bound {report.bound}"
            )
        corrected += not report.corrected_holds
    return violations, corrected


def _cmd_check(args) -> int:
    if args.which == "lemma-del" and args.samples < 0:
        raise ValueError(f"sample count must be non-negative, got {args.samples}")
    s = folner.ball(args.radius, limit=args.limit)
    if args.which == "partition":
        violations = folner.partition_violations(s)
    elif args.which == "closures":
        violations = folner.closure_violations(s)
    else:
        violations, corrected = _check_lemma_del(s, args.samples, args.seed)
    for line in violations:
        print(line)
    if args.which == "lemma-del":
        print(f"corrected bound density - 8|K|/|S|: {corrected} violations")
    print(
        f"check {args.which}: {len(violations)} violations "
        f"(radius {args.radius}, {len(s)} elements)"
    )
    return 1 if violations else 0


_COMMANDS = {
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "diagram": _cmd_diagram,
    "ball": _cmd_ball,
    "density": _cmd_density,
    "histogram": _cmd_histogram,
    "check": _cmd_check,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ParseError, ValueError, folner.ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
