"""Acceptance suite.

One test per criterion, run at the stated sample sizes and tolerances
(exact comparisons throughout; no floats anywhere).  Each test prints a
single pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them.

A caveat on criterion 7: it asserts the vertex-deletion density bound
density - 4|K|/|S| on 10^3 random (S, K) instances, and passes under the
stated uniform sampling, where random K is almost always large.  The
bound is NOT universally true: deleting the identity from ball(1)
already violates it.  test_folner pins that counterexample and verifies
the corrected bound density - 8|K|/|S| universally.
"""

import random
import time
from fractions import Fraction

from conftest import random_normal_form, random_word
from thompsonf.classify import ClassLabel, check_closures, check_partition, class_of
from thompsonf.diagrams import (
    atomic,
    cells,
    concat_product,
    diagram_to_nf,
    epsilon,
    nf_to_diagram,
)
from thompsonf.folner import (
    ElementSet,
    GENERATORS,
    ball,
    class_histogram,
    deletion_bound_check,
    subgraph_density,
)
from thompsonf import cli
from thompsonf.rewriting import reduce_word_by_rewriting
from thompsonf.words import (
    IDENTITY,
    Letter,
    Word,
    format_word,
    from_standard_word,
    nf_multiply,
    parse_word,
    reduce_to_normal_form,
    to_standard_word,
)


def nf(text):
    return reduce_to_normal_form(parse_word(text))


def _report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} [{name}]: {status} ({elapsed:.2f}s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _diagram_of_word(w):
    d = epsilon(1)
    for lt in w.letters:
        d = concat_product(d, atomic(lt.index, lt.sign))
    return d


def test_criterion_01_relator_suite():
    t0 = time.perf_counter()
    ok = True
    relators = [
        "x0^-2 x1 x0^2 x1^-1 x0^-1 x1^-1 x0 x1",
        "x0^-3 x1 x0^3 x1^-1 x0^-2 x1^-1 x0^2 x1",
    ]
    for text in relators:
        w = parse_word(text)
        ok = ok and from_standard_word(w) == IDENTITY
        ok = ok and _diagram_of_word(w) == epsilon(1)
    for i in range(13):
        for j in range(i + 1, 13):
            left = Word((Letter(j, 1), Letter(i, 1)))
            right = Word((Letter(i, 1), Letter(j + 1, 1)))
            ok = ok and reduce_to_normal_form(left) == reduce_to_normal_form(right)
            ok = ok and concat_product(atomic(j, 1), atomic(i, 1)) == concat_product(
                atomic(i, 1), atomic(j + 1, 1)
            )
    elapsed = time.perf_counter() - t0
    _report(1, "relator suite in both representations", ok and elapsed < 1.0, elapsed)


def test_criterion_02_two_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(202)
    mismatches = 0
    for _ in range(10_000):
        a = reduce_to_normal_form(random_word(rng, max_len=20, max_index=8))
        b = reduce_to_normal_form(random_word(rng, max_len=20, max_index=8))
        via_diagrams = diagram_to_nf(concat_product(nf_to_diagram(a), nf_to_diagram(b)))
        if via_diagrams != nf_multiply(a, b):
            mismatches += 1
    b4 = ball(4).sorted_members()
    cache = {g: nf_to_diagram(g) for g in b4}
    for a in b4:
        da = cache[a]
        for b in b4:
            if diagram_to_nf(concat_product(da, cache[b])) != nf_multiply(a, b):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "two-oracle equivalence on 10^4 random pairs and ball(4) x ball(4)",
        mismatches == 0 and elapsed < 60.0,
        elapsed,
        f"{mismatches} mismatches",
    )


def test_criterion_03_partition():
    t0 = time.perf_counter()
    violations = check_partition(ball(8))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "partition of ball(8) into the 7 divisor classes",
        violations == [],
        elapsed,
        f"{len(violations)} violations",
    )


def test_criterion_04_closure_inclusions():
    t0 = time.perf_counter()
    violations = check_closures(ball(8))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "class closure inclusions on ball(8)",
        violations == [],
        elapsed,
        f"{len(violations)} violations",
    )


def test_criterion_05_worked_examples():
    t0 = time.perf_counter()
    examples = {
        ClassLabel.M1: ["e", "x2", "x1 x2^-1"],
        ClassLabel.M2: ["x0^-1", "x0 x1 x0^-1", "x2 x1^-1 x0^-1"],
        ClassLabel.M3: ["x0", "x0 x3^-1", "x0^3 x2^-1"],
        ClassLabel.M4: ["x1^-1", "x0 x1^-2", "x3 x4 x1^-1"],
        ClassLabel.M5: ["x1", "x0 x1", "x1^2 x4^-1"],
        ClassLabel.M6: ["x2^-1 x0^-1", "x1 x4^-1 x0^-3", "x1 x5 x3^-2 x0^-2"],
        ClassLabel.M7: ["x2 x0^-1", "x0 x1 x2 x0^-1", "x1 x3 x0^-2"],
    }
    wrong = [
        (text, class_of(nf(text)).name, label.name)
        for label, texts in examples.items()
        for text in texts
        if class_of(nf(text)) is not label
    ]
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "all 21 listed elements classify to their listed class",
        not wrong and elapsed < 1.0,
        elapsed,
        f"misclassified: {wrong}",
    )


def test_criterion_06_exact_densities():
    t0 = time.perf_counter()
    ok = subgraph_density(ElementSet.of([IDENTITY])).density == 0

    # brute force first: count edges by scanning every ordered pair
    b1 = ball(1)
    members = b1.sorted_members()
    brute_edges = sum(
        1
        for u in members
        for v in members
        for g in GENERATORS
        if nf_multiply(u, g) == v
    )
    ok = ok and brute_edges == 8
    stats = subgraph_density(b1)
    ok = ok and stats.oriented_edge_count == brute_edges
    ok = ok and stats.density == Fraction(8, 5)

    rng = random.Random(606)
    pool = ball(5).sorted_members()
    suite = [ball(n) for n in range(7)] + [
        ElementSet.of(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(100)
    ]
    ok = ok and all(subgraph_density(s).density < 4 for s in suite)
    elapsed = time.perf_counter() - t0
    _report(6, "exact densities: 0, 8/5, and < 4 throughout", ok, elapsed)


def test_criterion_07_deletion_bound():
    t0 = time.perf_counter()
    rng = random.Random(0)
    pool = ball(6).sorted_members()
    failures = []
    for trial in range(1_000):
        size = rng.randint(1, len(pool))
        s = ElementSet.of(rng.sample(pool, size))
        k = ElementSet.of(rng.sample(s.sorted_members(), rng.randint(0, size - 1)))
        report = deletion_bound_check(s, k)
        if not report.holds:
            failures.append((trial, len(s), len(k), report))
    elapsed = time.perf_counter() - t0
    detail = (
        f"{len(failures)}/1000 instances violate the advertised bound "
        f"density - 4|K|/|S|; first at trial {failures[0][0]} "
        f"(|S|={failures[0][1]}, |K|={failures[0][2]}, "
        f"density_after={failures[0][3].density_after}, bound={failures[0][3].bound}). "
        "The bound undercounts edge loss by up to a factor 2 (a deleted vertex "
        "costs its out-edges plus the rest's in-edges, up to 8, not 4); "
        "ball(1) minus the identity is a minimal counterexample.  The corrected "
        "bound density - 8|K|/|S| holds universally (tested in test_folner)."
        if failures
        else ""
    )
    _report(
        7,
        "deletion bound holds on 10^3 seeded random (S, K) instances",
        not failures and elapsed < 60.0,
        elapsed,
        detail,
    )


def test_criterion_08_roundtrips():
    t0 = time.perf_counter()
    rng = random.Random(808)
    sample = list(ball(8)) + [
        random_normal_form(rng, max_len=30, max_index=8) for _ in range(10_000)
    ]
    bad = 0
    for g in sample:
        w = g.word()
        if parse_word(format_word(w)) != w:
            bad += 1
        d = nf_to_diagram(g)
        if diagram_to_nf(d) != g:
            bad += 1
        if cells(d) != len(g.pos) + len(g.neg):
            bad += 1
        if from_standard_word(to_standard_word(g)) != g:
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "roundtrips and cell counts on ball(8) plus 10^4 random elements",
        bad == 0,
        elapsed,
        f"{bad} failures",
    )


def test_criterion_09_histogram_golden():
    t0 = time.perf_counter()
    counts = class_histogram(ball(1))
    expected = {
        ClassLabel.M1: 1,
        ClassLabel.M2: 1,
        ClassLabel.M3: 1,
        ClassLabel.M4: 1,
        ClassLabel.M5: 1,
        ClassLabel.M6: 0,
        ClassLabel.M7: 0,
    }
    elapsed = time.perf_counter() - t0
    _report(9, "class histogram of ball(1)", counts == expected, elapsed)


def test_criterion_10_confluence():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    bad = 0
    for _ in range(10_000):
        w = random_word(rng, max_len=30, max_index=8)
        left = reduce_word_by_rewriting(w, "leftmost")
        right = reduce_word_by_rewriting(w, "rightmost")
        if not (left == right == reduce_to_normal_form(w)):
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(
        10,
        "two rewriting strategies agree on 10^4 random words",
        bad == 0,
        elapsed,
        f"{bad} disagreements",
    )


def test_criterion_11_ball_ten_performance(tmp_path, capsys, no_built_balls):
    # the fixture empties the ball store: time the BFS, not a stored ball
    path = tmp_path / "ball10.csv"
    t0 = time.perf_counter()
    code = cli.run(["ball", "10", "--csv", str(path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    lines = path.read_text().splitlines()
    ok = code == 0 and elapsed < 60.0 and lines[0] == "element"
    ok = ok and len(lines) == len(ball(10)) + 1
    ok = ok and out.startswith("ball(10):")

    # the element limit must fail cleanly, not thrash
    code_limited = cli.run(["ball", "10", "--limit", "1000"])
    err = capsys.readouterr().err
    ok = ok and code_limited == 2 and err.startswith("error: ") and "radius" in err
    with capsys.disabled():
        _report(
            11,
            "ball 10 CSV within 60 s; limit fails cleanly",
            ok,
            elapsed,
            f"exit={code}, rows={len(lines) - 1}",
        )


def test_criterion_12_experiment_commands(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    summary = []
    for n in range(1, 11):
        hist_path = tmp_path / f"hist{n}.csv"
        code = cli.run(["histogram", str(n), "--csv", str(hist_path)])
        capsys.readouterr()
        ok = ok and code == 0
        rows = dict(
            line.split(",") for line in hist_path.read_text().splitlines()[1:]
        )
        total = sum(int(v) for v in rows.values())
        m6_share = Fraction(int(rows["M6"]), total)

        dens_path = tmp_path / f"dens{n}.csv"
        code = cli.run(
            ["density", str(n), "--drop", "M1,M2,M3,M4,M5,M7", "--csv", str(dens_path)]
        )
        captured = capsys.readouterr()
        if int(rows["M6"]) == 0:
            # nothing survives the drop; the command must fail cleanly
            ok = ok and code == 2 and captured.err.startswith("error: ")
            summary.append((n, total, m6_share, None))
        else:
            ok = ok and code == 0
            fields = dens_path.read_text().splitlines()[1].split(",")
            density = Fraction(int(fields[3]), int(fields[4]))
            ok = ok and int(fields[1]) == int(rows["M6"])
            summary.append((n, total, m6_share, density))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print()
        print("    n  |ball(n)|   M6 share          density after dropping all but M6")
        for n, total, share, density in summary:
            dens = "(empty)" if density is None else f"{density} ~ {float(density):.4f}"
            print(f"   {n:2d}  {total:8d}   {str(share):>12s}      {dens}")
        _report(
            12,
            "experiment commands emit M6 share and post-drop density for n=1..10",
            ok,
            elapsed,
        )
