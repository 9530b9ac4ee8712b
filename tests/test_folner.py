import random
from fractions import Fraction

import pytest

from conftest import random_normal_form
from thompsonf import classify, folner
from thompsonf.classify import ClassLabel, check_closures, class_of, right_divisors
from thompsonf.folner import (
    DEFAULT_ELEMENT_LIMIT,
    GENERATORS,
    DeletionBoundReport,
    ElementSet,
    ResourceLimitError,
    SubgraphStats,
    ball,
    class_histogram,
    deletion_bound_check,
    density_csv,
    drop_classes,
    elements_csv,
    histogram_csv,
    mu_hat,
    subgraph_density,
    subgraph_dot,
    translate_set,
    _ball_members,
)
from thompsonf.words import NormalForm, nf_multiply, parse_word, reduce_to_normal_form


def nf(text):
    return reduce_to_normal_form(parse_word(text))


def brute_force_edge_count(s):
    """Independent enumerator: try every ordered vertex pair against every
    generator instead of walking out-neighbours."""
    members = sorted(s, key=str)
    edges = 0
    for u in members:
        for v in members:
            for g in GENERATORS:
                if nf_multiply(u, g) == v:
                    edges += 1
    return edges


class TestBall:
    def test_radius_zero(self):
        assert set(ball(0)) == {NormalForm()}

    def test_radius_one_contents(self):
        expected = {nf("e"), nf("x0"), nf("x0^-1"), nf("x1"), nf("x1^-1")}
        assert set(ball(1)) == expected
        assert len(ball(1)) == 5

    def test_monotone(self):
        for n in range(5):
            assert ball(n) <= ball(n + 1)

    def test_deterministic(self):
        assert ball(4).members == ElementSet.of(ball(4)).members
        assert sorted(map(str, ball(3))) == sorted(map(str, ball(3)))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball(-1)

    def test_element_limit(self):
        with pytest.raises(ResourceLimitError, match="radius"):
            ball(5, limit=10)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="at least 1"):
            ball(0, limit=limit)


class TestDensity:
    def test_singleton(self):
        stats = subgraph_density(ElementSet.of([nf("e")]))
        assert stats == SubgraphStats(1, 0, Fraction(0))

    def test_ball_one_exact(self):
        stats = subgraph_density(ball(1))
        assert stats.density == Fraction(8, 5)
        assert stats.oriented_edge_count == 8
        assert stats.vertex_count == 5

    def test_matches_brute_force(self):
        for s in (ball(1), ball(2), drop_classes(ball(2), [ClassLabel.M1])):
            stats = subgraph_density(s)
            assert stats.oriented_edge_count == brute_force_edge_count(s)

    def test_strictly_below_four(self):
        rng = random.Random(107)
        pool = ball(4).sorted_members()
        for _ in range(50):
            subset = ElementSet.of(rng.sample(pool, rng.randint(1, len(pool))))
            assert subgraph_density(subset).density < 4

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            subgraph_density(ElementSet.of([]))

    def test_stats_invariants_enforced(self):
        with pytest.raises(ValueError):
            SubgraphStats(5, 8, Fraction(1))
        with pytest.raises(ValueError):
            SubgraphStats(1, 4, Fraction(4))


class TestHistogram:
    def test_ball_zero(self):
        counts = class_histogram(ball(0))
        assert counts[ClassLabel.M1] == 1
        assert sum(counts.values()) == 1

    def test_ball_one_golden(self):
        assert class_histogram(ball(1)) == {
            ClassLabel.M1: 1,
            ClassLabel.M2: 1,
            ClassLabel.M3: 1,
            ClassLabel.M4: 1,
            ClassLabel.M5: 1,
            ClassLabel.M6: 0,
            ClassLabel.M7: 0,
        }

    def test_counts_sum_to_size(self):
        for n in range(5):
            assert sum(class_histogram(ball(n)).values()) == len(ball(n))


class TestMuHat:
    def test_examples(self):
        b1 = ball(1)
        assert mu_hat(b1, ElementSet.of([nf("e")])) == Fraction(1, 5)
        assert mu_hat(b1, b1) == 1
        assert mu_hat(b1, ElementSet.of([])) == 0

    def test_additive_on_disjoint_sets(self):
        rng = random.Random(109)
        pool = ball(4).sorted_members()
        s = ElementSet.of(rng.sample(pool, 60))
        chunk = rng.sample(pool, 40)
        z1 = ElementSet.of(chunk[:20])
        z2 = ElementSet.of(chunk[20:])
        assert mu_hat(s, z1 | z2) == mu_hat(s, z1) + mu_hat(s, z2)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            mu_hat(ElementSet.of([]), ball(1))


class TestSetOperations:
    def test_drop_classes_from_ball_one(self):
        survivors = drop_classes(ball(1), [ClassLabel.M1])
        assert set(survivors) == {nf("x0"), nf("x0^-1"), nf("x1"), nf("x1^-1")}

    def test_drop_nothing(self):
        assert set(drop_classes(ball(2), [])) == set(ball(2))

    def test_drop_everything(self):
        assert len(drop_classes(ball(2), list(ClassLabel))) == 0

    def test_translate_singleton(self):
        assert set(translate_set(ElementSet.of([nf("e")]), nf("x0"))) == {nf("x0")}

    def test_translate_preserves_size(self):
        rng = random.Random(113)
        g = random_normal_form(rng, max_len=10)
        assert len(translate_set(ball(3), g)) == len(ball(3))

    def test_translate_by_identity(self):
        assert set(translate_set(ball(2), nf("e"))) == set(ball(2))

    def test_translated_intersection_tooling(self):
        # finite surrogate of intersecting translates of one set
        s = ball(3)
        meet = s
        for g in GENERATORS:
            meet = meet & translate_set(s, g)
        assert meet <= s
        assert nf("e") in meet


def oracle_edge_count(s):
    """Edge count through nf_multiply, whichever way s is stored."""
    members = frozenset(s)
    return sum(nf_multiply(v, g) in members for v in members for g in GENERATORS)


class TestCayleyBall:
    """The interned ball against the nf_multiply and class_of oracles."""

    def test_columns_match_nf_multiply(self):
        graph = _ball_members(8, DEFAULT_ELEMENT_LIMIT)
        inside = set(graph.elements)
        starts = graph.sphere_starts
        radius = [r for r in range(len(starts) - 1) for _ in range(starts[r], starts[r + 1])]
        assert len(radius) == len(graph.elements) == 11237
        for u, v in enumerate(graph.elements):
            for k, g in enumerate(GENERATORS):
                w = nf_multiply(v, g)
                j = graph.columns[k][u]
                assert (j < 0) == (w not in inside)
                if j >= 0:
                    assert graph.elements[j] == w
                    # no edge joins two elements of one sphere
                    assert abs(radius[j] - radius[u]) == 1

    def test_flags_match_class_of(self):
        graph = _ball_members(8, DEFAULT_ELEMENT_LIMIT)
        flags = graph.flags()
        for u, v in enumerate(graph.elements):
            assert folner._FLAGS[flags[u]] == right_divisors(v).flags()
        expected = {label: 0 for label in ClassLabel}
        for v in graph.elements:
            expected[class_of(v)] += 1
        assert class_histogram(ball(8)) == expected

    def test_sorted_members_order(self):
        rng = random.Random(137)
        pool = list(ball(6))
        assert ball(8).sorted_members() == sorted(ball(8), key=str)
        for _ in range(20):
            s = ElementSet.of(rng.sample(pool, rng.randint(0, len(pool))))
            assert s.sorted_members() == sorted(s.members, key=str)

    def test_density_matches_oracle_on_ball_subsets(self):
        rng = random.Random(139)
        pool = ball(6).sorted_members()
        images = {v: [nf_multiply(v, g) for g in GENERATORS] for v in pool}
        for _ in range(200):
            subset = rng.sample(pool, rng.randint(1, len(pool)))
            members = frozenset(subset)
            edges = sum(w in members for v in subset for w in images[v])
            assert subgraph_density(ElementSet.of(subset)).oriented_edge_count == edges

    def test_density_matches_oracle_off_every_ball(self):
        rng = random.Random(149)
        outside = ElementSet.of([nf("x0^40")]) | ball(3)
        # a mask over the graph the set spans, not over any ball
        assert not isinstance(outside._graph, folner._CayleyBall)
        assert all(outside._graph is not b for b in folner._BUILT)
        sets = [outside, ball(3) | ElementSet.of([nf("x0^9")])]
        sets += [translate_set(ball(3), random_normal_form(rng, max_len=12)) for _ in range(5)]
        for s in sets:
            assert subgraph_density(s).oriented_edge_count == oracle_edge_count(s)
            assert s.sorted_members() == sorted(s.members, key=str)

    def test_set_operations_match_frozensets(self):
        rng = random.Random(151)
        pool = ball(4).sorted_members()
        far = ElementSet.of([nf("x0^40"), pool[0]])
        for _ in range(30):
            a = ElementSet.of(rng.sample(pool, rng.randint(0, len(pool))))
            b = ElementSet.of(rng.sample(pool, rng.randint(0, len(pool))))
            for x, y in ((a, b), (a, far), (far, b)):
                assert (x & y).members == x.members & y.members
                assert (x | y).members == x.members | y.members
                assert (x - y).members == x.members - y.members
                assert (x <= y) == (x.members <= y.members)
                assert len(x - y) == len(x.members - y.members)
            assert a & b <= a

    def test_drop_classes_matches_class_of(self):
        s = ball(6)
        dropped = [ClassLabel.M1, ClassLabel.M6]
        expected = {v for v in s if class_of(v) not in dropped}
        assert set(drop_classes(s, dropped)) == expected
        assert set(drop_classes(ElementSet(frozenset(s)), dropped)) == expected


def off_ball_sets():
    """ball(3) with x0^40, and five random right translates of ball(3) by
    elements g of exponent sum at least 28: v*g then has exponent sum at
    least 25, so it lies outside every ball of radius below 25."""
    rng = random.Random(167)
    far = nf("x0^40")
    sets = [ball(3) | ElementSet.of([far])]
    for _ in range(5):
        g = nf_multiply(random_normal_form(rng, max_len=12), far)
        sets.append(translate_set(ball(3), g))
    return sets


class TestSpannedGraph:
    """A set off every ball, as a mask over the graph it spans, against
    the nf_multiply and class_of oracles."""

    def test_columns_match_nf_multiply(self):
        sets = off_ball_sets()
        for s in sets:
            graph, members = s._graph, s.members
            assert not isinstance(graph, folner._CayleyBall)
            assert set(graph.elements) == members
            for u, v in enumerate(graph.elements):
                assert graph.number[v] == u
                for k, g in enumerate(GENERATORS):
                    w = nf_multiply(v, g)
                    j = graph.columns[k][u]
                    # -1 exactly when the product lies outside the set
                    assert (j == -1) == (w not in members)
                    if j != -1:
                        assert graph.elements[j] == w

    def test_classes_match_class_of(self):
        dropped = [ClassLabel.M1, ClassLabel.M3, ClassLabel.M6]
        for s in off_ball_sets():
            expected = {label: 0 for label in ClassLabel}
            for v in s.members:
                expected[class_of(v)] += 1
            assert class_histogram(s) == expected
            survivors = {v for v in s.members if class_of(v) not in dropped}
            assert drop_classes(s, dropped).members == survivors

    def test_membership(self):
        rng = random.Random(173)
        inside = ElementSet.of(rng.sample(ball(4).sorted_members(), 50))
        outside = off_ball_sets()[0]
        others = [nf("x0^40"), nf("x0^39"), nf("x1^40"), nf("x2 x5^-1")] + list(ball(5))
        for s in (inside, outside):
            members = frozenset(s)
            for v in members:
                assert v in s
            for v in others:
                assert (v in s) == (v in members)

    def test_outputs_match_oracles(self):
        for s in off_ball_sets():
            members = s.members
            assert s.sorted_members() == sorted(members, key=str)
            dot = subgraph_dot(s)
            edges = [(v, w, name) for v in members for k, name in ((0, "x0"), (2, "x1"))
                     for w in [nf_multiply(v, GENERATORS[k])] if w in members]
            assert dot.count(" -> ") == len(edges)
            for v, w, name in edges:
                assert f'"{v}" -> "{w}" [label="{name}"];' in dot


class TestProductCounts:
    """The graph paths do no group arithmetic once the ball is built."""

    @pytest.fixture
    def counter(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return nf_multiply(a, b)

        monkeypatch.setattr(folner, "nf_multiply", counting)
        return calls

    @pytest.fixture
    def counter_everywhere(self, counter, monkeypatch):
        # classify's products count too
        monkeypatch.setattr(classify, "nf_multiply", folner.nf_multiply)
        return counter

    def test_bfs_skips_known_edges(self, counter):
        _ball_members.cache_clear()
        ball(8)
        # one product per edge from sphere r to sphere r + 1, r < 8
        assert len(counter) == 11720

    def test_density_and_deletion_check_make_no_products(self, counter):
        _ball_members.cache_clear()
        ball(6)
        ball(8)
        counter.clear()
        assert subgraph_density(ball(8)).oriented_edge_count == 23440
        rng = random.Random(157)
        pool = ball(6).sorted_members()
        for _ in range(50):
            size = rng.randint(1, len(pool))
            s = ElementSet.of(rng.sample(pool, size))
            k = ElementSet.of(rng.sample(s.sorted_members(), rng.randint(0, size - 1)))
            deletion_bound_check(s, k)
        assert counter == []
        # the counter does see the products a set off every ball spans
        off = pool + [nf("x0^40")]
        s = ElementSet.of(off)
        assert len(counter) == 4 * len(off)
        counter.clear()
        subgraph_density(s)
        assert counter == []

    def test_classes_make_no_products(self, counter_everywhere):
        _ball_members.cache_clear()
        ball(8)
        counter_everywhere.clear()
        assert sum(class_histogram(ball(8)).values()) == len(ball(8))
        assert len(drop_classes(ball(8), [ClassLabel.M1, ClassLabel.M6])) > 0
        assert counter_everywhere == []

    def test_ball_elements_make_no_products(self, counter):
        ball(4)
        counter.clear()
        s = ElementSet(frozenset(ball(4)))
        assert isinstance(s._graph, folner._CayleyBall)
        assert s == ball(4)
        assert counter == []

    def test_off_ball_set_makes_its_products_once(self, counter_everywhere):
        members = list(ball(3)) + [nf("x0^40"), nf("x0^41"), nf("x1^-40")]
        counter_everywhere.clear()
        s = ElementSet.of(members)
        assert len(counter_everywhere) == 4 * len(s)
        counter_everywhere.clear()
        subgraph_density(s)
        class_histogram(s)
        drop_classes(s, [ClassLabel.M1, ClassLabel.M3])
        s.sorted_members()
        subgraph_dot(s)
        assert counter_everywhere == []

    def test_closure_check_makes_one_product_per_rule(self, counter_everywhere):
        s = ball(7)
        applicable = sum(
            class_of(v) in sources
            for v in s
            for _, sources, _, _ in classify._CLOSURE_RULES
        )
        counter_everywhere.clear()
        assert check_closures(s) == []
        assert 0 < len(counter_everywhere) <= applicable


class TestDeletionBound:
    def test_formula_on_ball_one(self):
        report = deletion_bound_check(ball(1), ElementSet.of([nf("x1")]))
        assert report.bound == Fraction(8, 5) - Fraction(4, 5)
        assert report.density_after == Fraction(6, 4)
        assert report.holds

    def test_plain_arithmetic(self):
        # n = 10, density 3, delete 1: the bound is 3 - 4/10
        assert Fraction(3) - Fraction(4 * 1, 10) == Fraction(13, 5)

    def test_stated_bound_has_a_counterexample(self):
        # Deleting the identity from ball(1) strips all 8 oriented edges:
        # the new density 0 falls below 8/5 - 4/5.  The advertised bound
        # undercounts the loss per deleted vertex (own out-edges plus
        # in-edges from the rest can reach 8, not 4).  The checker must
        # report this honestly.
        report = deletion_bound_check(ball(1), ElementSet.of([nf("e")]))
        assert report.density_after == 0
        assert report.bound == Fraction(4, 5)
        assert not report.holds

    def test_random_subsets_exact_arithmetic_and_corrected_bound(self):
        rng = random.Random(127)
        pool = ball(5).sorted_members()
        for _ in range(200):
            size = rng.randint(1, len(pool))
            s = ElementSet.of(rng.sample(pool, size))
            k = ElementSet.of(rng.sample(s.sorted_members(), rng.randint(0, size - 1)))
            report = deletion_bound_check(s, k)
            assert isinstance(report, DeletionBoundReport)
            before = subgraph_density(s)
            after = subgraph_density(s - k)
            assert report.density_before == before.density
            assert report.density_after == after.density
            assert report.bound == before.density - Fraction(4 * len(k), len(s))
            assert report.holds == (report.density_after >= report.bound)
            # deleting a vertex loses at most 8 oriented edges (4 out, 4 in),
            # so this bound, unlike the advertised one, never fails
            assert after.density >= before.density - Fraction(8 * len(k), len(s))

    def test_corrected_bound_fields(self):
        report = deletion_bound_check(ball(1), ElementSet.of([nf("e")]))
        assert report.corrected_bound == 0
        assert report.corrected_holds and not report.holds
        rng = random.Random(163)
        pool = ball(4).sorted_members()
        for _ in range(100):
            size = rng.randint(1, len(pool))
            s = ElementSet.of(rng.sample(pool, size))
            k = ElementSet.of(rng.sample(s.sorted_members(), rng.randint(0, size - 1)))
            report = deletion_bound_check(s, k)
            assert report.corrected_bound == report.density_before - Fraction(8 * len(k), len(s))
            assert report.corrected_holds

    def test_holds_when_deleted_vertices_have_low_degree(self):
        # the advertised bound is sound when each deleted vertex carries
        # at most 2 incident oriented edges, e.g. the outer shell of a ball
        report = deletion_bound_check(ball(1), ElementSet.of([nf("x0"), nf("x1")]))
        assert report.holds

    def test_rejects_full_deletion(self):
        with pytest.raises(ValueError):
            deletion_bound_check(ball(1), ball(1))

    def test_rejects_non_subset(self):
        with pytest.raises(ValueError):
            deletion_bound_check(ball(0), ball(1))


class TestOutputFormats:
    def test_histogram_csv_golden(self):
        csv = histogram_csv(class_histogram(ball(1)))
        assert csv == (
            "class,count\nM1,1\nM2,1\nM3,1\nM4,1\nM5,1\nM6,0\nM7,0\n"
        )

    def test_density_csv_golden(self):
        csv = density_csv("ball(1)", subgraph_density(ball(1)))
        assert csv == (
            "label,vertices,oriented_edges,density_num,density_den\n"
            "ball(1),5,8,8,5\n"
        )

    def test_elements_csv_golden(self):
        csv = elements_csv(ball(1))
        assert csv == "element\ne\nx0\nx0^-1\nx1\nx1^-1\n"

    def test_subgraph_dot(self):
        dot = subgraph_dot(ball(1))
        assert dot == subgraph_dot(ball(1))
        assert dot.startswith("digraph cayley_subgraph {")
        assert '"x0^-1" -> "e" [label="x0"];' in dot
        assert '"x1^-1" -> "e" [label="x1"];' in dot
        # only edges inside the set appear
        assert '"x0" -> "x0' not in dot
