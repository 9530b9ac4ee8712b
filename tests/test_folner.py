import copy
import hashlib
import operator
import pickle
import random
import tracemalloc
from array import array
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_normal_form
from thompsonf import classify, cli, folner
from thompsonf.classify import (ClassLabel, check_closures, check_partition, class_of,
                                class_values, right_divisors)
from thompsonf.deletion_report import DeletionBoundReport
from thompsonf.folner import (
    DEFAULT_ELEMENT_LIMIT,
    GENERATORS,
    ElementSet,
    ResourceLimitError,
    SubgraphStats,
    ball,
    class_histogram,
    closure_violations,
    deletion_bound_check,
    density_csv,
    drop_classes,
    elements_csv,
    histogram_csv,
    mu_hat,
    partition_violations,
    subgraph_density,
    translate_set,
)
from thompsonf.words import (
    GENERATOR_STEPS,
    IDENTITY,
    NormalForm,
    key_halves,
    nf_multiply,
    pack,
    parse_word,
    reduce_to_normal_form,
    unpack,
)


# sphere r of ball(4) holds the numbers BALL_FOUR_SPHERE_STARTS[r] .. [r+1]-1
BALL_FOUR_SPHERE_STARTS = [0, 1, 5, 17, 53, 161]


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

    def test_limit_of_exactly_the_ball_size(self, no_built_balls):
        assert len(ball(4, limit=161)) == 161
        assert len(ball(6, limit=1381)) == 1381
        with pytest.raises(ResourceLimitError) as info:
            ball(6, limit=1380)
        assert str(info.value) == "element limit 1380 exceeded at radius 6 (radius 5 completed)"

    @pytest.mark.parametrize("n, limit, radius, warm", [
        (6, 1, 1, False), (6, 5, 2, False), (6, 100, 4, False),
        # a built ball(8) does not serve a limit below its size
        (8, 11236, 8, True),
    ] + [
        # every limit below ball(4)'s size: element number `limit` lies in
        # sphere `radius`, so each refusal comes at a new element, however
        # many known elements the BFS met before it
        (4, limit, bisect_right(BALL_FOUR_SPHERE_STARTS, limit) - 1, False)
        for limit in range(1, 161)
    ], ids=["1-1", "5-2", "100-4", "warm-11236-8"] + [f"ball4-{limit}" for limit in range(1, 161)])
    def test_limit_message_names_the_radius(self, n, limit, radius, warm):
        if warm:
            ball(n)
        built = dict(folner._BALLS)
        with pytest.raises(ResourceLimitError) as info:
            ball(n, limit=limit)
        assert str(info.value) == (
            f"element limit {limit} exceeded at radius {radius} "
            f"(radius {radius - 1} completed)"
        )
        assert folner._BALLS == built

    def test_failed_build_leaves_no_partial_ball(self, no_built_balls):
        with pytest.raises(ResourceLimitError):
            ball(8, limit=5000)
        assert folner._BALLS == {}
        assert len(ball(8)) == 11237

    def test_radius_guard(self, monkeypatch, no_built_balls):
        monkeypatch.setattr(folner, "_MAX_RADIUS", 3)
        assert len(ball(3)) == 53
        # refused at the boundary, before any BFS and so before any limit
        monkeypatch.setattr(folner, "_CayleyBall", None)
        for limit in (10, 10**11):
            with pytest.raises(ResourceLimitError) as info:
                ball(5, limit=limit)
            assert str(info.value) == (
                "radius 5 exceeds 3, the largest radius whose elements pack into bytes"
            )
        assert folner._BALLS.keys() == {3}

    def test_sphere_sizes(self):
        graph = folner._CayleyBall(11, DEFAULT_ELEMENT_LIMIT)
        starts = graph.sphere_starts
        assert [b - a for a, b in zip(starts, starts[1:])] == [
            1, 4, 12, 36, 108, 314, 906, 2576, 7280, 20352, 56664, 156570]
        # every index and len(pos) in sphere r is at most r
        for r in range(12):
            assert max(map(max, graph.keys[starts[r] : starts[r + 1]])) <= r

    @pytest.mark.parametrize("n, limit, message", [
        (2.0, 100, "radius must be an int, got float"),
        (True, 100, "radius must be an int, got bool"),
        ("2", 100, "radius must be an int, got str"),
        (2, 100.0, "limit must be an int, got float"),
        (2, True, "limit must be an int, got bool"),
    ])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_radius_and_limit_must_be_ints(self, n, limit, message, warm, no_built_balls):
        # ball(2.0) and ball(True) once answered with a built ball(2) or ball(1)
        if warm:
            ball(1), ball(2)
        with pytest.raises(TypeError) as info:
            ball(n, limit=limit)
        assert str(info.value) == message

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

    def test_stats_value_semantics(self):
        a, b = subgraph_density(ball(1)), SubgraphStats(5, 8, Fraction(8, 5))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != SubgraphStats(1, 0, Fraction(0))
        for other in ((5, 8, Fraction(8, 5)), Fraction(8, 5), None):
            assert a != other and not a == other
        assert repr(a) == (
            "SubgraphStats(vertex_count=5, oriented_edge_count=8, density=Fraction(8, 5))"
        )
        with pytest.raises(AttributeError):
            a.density = Fraction(1)
        with pytest.raises(AttributeError):
            del a.vertex_count
        assert a.density == Fraction(8, 5)

    @pytest.mark.parametrize("values", [(5, 8), (5, 8, Fraction(8, 5), None)])
    def test_stats_take_exactly_three_values(self, values):
        with pytest.raises(TypeError, match=f"SubgraphStats takes 3 values, got {len(values)}"):
            SubgraphStats(*values)

    def test_stats_copy_and_pickle_round_trip(self):
        a = SubgraphStats(5, 8, Fraction(8, 5))
        for y in [copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]:
            assert type(y) is SubgraphStats and y == a and hash(y) == hash(a)

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

    def test_translate_by_a_normal_form(self):
        with pytest.raises(TypeError) as info:
            translate_set(ball(3), "x0")
        assert str(info.value) == "g must be a NormalForm, got str"

    @pytest.mark.parametrize("classes, name", [
        (["M1"], "str"), ([ClassLabel.M1, 6], "int"), ([None], "NoneType"),
    ])
    def test_drop_classes_takes_class_labels(self, classes, name):
        with pytest.raises(TypeError) as info:
            drop_classes(ball(3), classes)
        assert str(info.value) == f"classes must be ClassLabels, got {name}"

    def test_translated_intersection_tooling(self):
        # finite surrogate of intersecting translates of one set
        s = ball(3)
        meet = s
        for g in GENERATORS:
            meet = meet & translate_set(s, g)
        assert meet <= s
        assert nf("e") in meet

    @pytest.mark.parametrize("other", [{nf("e")}, [nf("e")], 5, None],
                             ids=["set", "list", "int", "None"])
    @pytest.mark.parametrize("op", [operator.le, operator.and_, operator.or_, operator.sub])
    def test_operand_that_is_not_an_element_set(self, op, other):
        # NotImplemented from each operator, so Python raises its TypeError
        with pytest.raises(TypeError):
            op(ball(1), other)


def oracle_edge_count(s):
    """Edge count through nf_multiply, whichever way s is stored."""
    members = frozenset(s)
    return sum(nf_multiply(v, g) in members for v in members for g in GENERATORS)


def reference_ball(n):
    """The BFS one element at a time: one nf_multiply per unknown edge,
    and one -1 appended to every column per new element.  It keeps all
    four columns, in GENERATORS order."""
    elements = [IDENTITY]
    number = {IDENTITY: 0}
    columns = tuple(array("i", [-1]) for _ in GENERATORS)
    starts = [0, 1]
    for _ in range(n):
        for u in range(starts[-2], starts[-1]):
            v = elements[u]
            for k, g in enumerate(GENERATORS):
                if columns[k][u] >= 0:
                    continue
                w = nf_multiply(v, g)
                j = number.get(w)
                if j is None:
                    j = len(elements)
                    number[w] = j
                    elements.append(w)
                    for column in columns:
                        column.append(-1)
                columns[k][u] = j
                columns[k ^ 1][j] = u
        starts.append(len(elements))
    return elements, number, columns, starts


def assert_columns_match_nf_multiply(graph):
    """The x0 and x1 columns hold the number of v*g, or -1 exactly when v*g
    lies outside the graph; and v*g^-1 = w lies in the graph exactly when
    the x_g column sends w to v, so no inverse edge is lost."""
    assert len(graph.columns) == 2
    number = graph.number
    for column, g, inverse in zip(graph.columns, GENERATORS[0::2], GENERATORS[1::2]):
        assert len(column) == len(graph.elements)
        backwards = {j: w for w, j in enumerate(column) if j >= 0}
        for u, v in enumerate(graph.elements):
            assert column[u] == number.get(nf_multiply(v, g), -1)
            assert backwards.get(u, -1) == number.get(nf_multiply(v, inverse), -1)


class TestCayleyBall:
    """The interned ball against the nf_multiply and class_of oracles."""

    @pytest.mark.parametrize("n", range(10))
    def test_bfs_matches_the_reference(self, n):
        elements, number, columns, starts = reference_ball(n)
        graph = folner._CayleyBall(n, DEFAULT_ELEMENT_LIMIT)
        assert graph.elements == elements
        assert list(graph.number.items()) == list(number.items())
        # the ball keeps the x0 and x1 columns of the four
        assert [list(c) for c in graph.columns] == [list(c) for c in columns[0::2]]
        assert graph.sphere_starts == starts
        # no padding is left behind
        assert all(len(c) == len(elements) for c in graph.columns)

    def test_columns_match_nf_multiply(self):
        graph = ball(8)._graph
        starts = graph.sphere_starts
        radius = [r for r in range(len(starts) - 1) for _ in range(starts[r], starts[r + 1])]
        assert len(radius) == len(graph.elements) == 11237
        assert_columns_match_nf_multiply(graph)
        for column in graph.columns:
            for u, j in enumerate(column):
                # no edge joins two elements of one sphere
                assert j < 0 or abs(radius[j] - radius[u]) == 1

    def test_every_graph_holds_two_columns(self):
        graphs = [folner._CayleyBall(n, DEFAULT_ELEMENT_LIMIT) for n in range(5)]
        graphs += [s._graph for s in off_ball_sets()]
        for graph in graphs:
            assert len(graph.columns) == 2
            assert all(len(c) == len(graph.elements) for c in graph.columns)

    def test_flags_match_class_of(self):
        graph = ball(8)._graph
        classes = graph.classes()
        for u, v in enumerate(graph.elements):
            assert classes[u] == right_divisors(v).label().value
        expected = {label: 0 for label in ClassLabel}
        for v in graph.elements:
            expected[class_of(v)] += 1
        assert class_histogram(ball(8)) == expected

    def test_classes_are_derived_once_per_graph(self, monkeypatch, no_built_balls):
        calls = []
        flags = classify._divisor_flags

        def counting(v):
            calls.append(1)
            return flags(v)

        monkeypatch.setattr(classify, "_divisor_flags", counting)
        s = ball(8)
        # the first histogram classifies the whole graph, however small the set
        small = s & ElementSet.of([nf("x0^8"), nf("x1")])
        assert sum(class_histogram(small).values()) == 2
        assert len(calls) == len(s) == 11237
        calls.clear()
        assert sum(class_histogram(s).values()) == len(s)
        assert len(drop_classes(s, [ClassLabel.M1, ClassLabel.M6])) > 0
        assert calls == []

    def test_class_bytes_read_from_keys_match_class_of(self):
        graph = folner._CayleyBall(9, DEFAULT_ELEMENT_LIMIT)
        classes = graph.classes()
        assert graph._elements is None  # classified without unpacking
        assert len(classes) == len(graph.elements) == 31589
        assert list(classes) == [class_of(v).value for v in graph.elements]

    def test_census_path_builds_no_normal_form(self, no_built_balls):
        s = ball(10)
        assert subgraph_density(s).oriented_edge_count == 186256
        assert class_histogram(s)[ClassLabel.M6] == 16257
        m6 = drop_classes(s, [label for label in ClassLabel if label is not ClassLabel.M6])
        assert subgraph_density(m6).density == Fraction(4516, 5419)
        assert s._graph._elements is None and s._graph._number is None
        # densities, histograms and drops read no sort order
        assert s._graph._order is None
        small = ball(6)
        text = elements_csv(small)
        assert small._graph._elements is None
        assert text.splitlines()[1:] == sorted(map(str, small))

    def test_small_set_lies_on_the_smallest_ball(self, no_built_balls):
        small, large = ball(6), ball(10)
        s = ElementSet.of(random.Random(151).sample(list(small), 700))
        assert s._graph is small._graph
        # the larger ball's normal forms are never unpacked
        assert large._graph._number is None and large._graph._elements is None

    def test_packed_ball_memory(self):
        tracemalloc.start()
        try:
            graph = folner._CayleyBall(10, DEFAULT_ELEMENT_LIMIT)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(graph) == 88253
        # keys and two columns; three tuples an element would hold 23 MB
        assert size < 10 * 2**20

    def test_ball_build_peak_memory(self):
        # keys, four working columns and one sphere's dedup dict at a time
        tracemalloc.start()
        try:
            folner._CayleyBall(10, DEFAULT_ELEMENT_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

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
        assert all(outside._graph is not b for b in folner._BALLS.values())
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
        for s in off_ball_sets():
            graph, members = s._graph, s.members
            assert not isinstance(graph, folner._CayleyBall)
            assert set(graph.elements) == members
            assert all(graph.number[v] == u for u, v in enumerate(graph.elements))
            # the graph is the set, so -1 means the product lies outside it
            assert_columns_match_nf_multiply(graph)

    def test_classes_match_class_of(self):
        dropped = [ClassLabel.M1, ClassLabel.M3, ClassLabel.M6]
        for s in off_ball_sets():
            expected = {label: 0 for label in ClassLabel}
            for v in s.members:
                expected[class_of(v)] += 1
            assert class_histogram(s) == expected
            survivors = {v for v in s.members if class_of(v) not in dropped}
            assert drop_classes(s, dropped).members == survivors

    @pytest.mark.parametrize("items, name", [
        (["x0"], "str"),
        ([nf("x0^40"), None], "NoneType"),
        ([nf("x0^40"), ((40,), ())], "tuple"),
    ])
    def test_elements_must_be_normal_forms(self, items, name):
        ball(2)
        with pytest.raises(TypeError) as info:
            ElementSet.of(items)
        assert str(info.value) == f"elements must be NormalForms, got {name}"

    @pytest.mark.parametrize("warm", [False, True], ids=["no ball", "ball(2)"])
    def test_a_tuple_equal_to_a_ball_element_is_refused(self, warm, no_built_balls):
        # ((0,), ()) equals x0, and so hashes to x0's number in ball(2)
        if warm:
            ball(2)
        with pytest.raises(TypeError) as info:
            ElementSet.of([((0,), ())])
        assert str(info.value) == "elements must be NormalForms, got tuple"
        with pytest.raises(TypeError):
            ElementSet.of([nf("x0"), ((0,), ())])

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

    def test_forms_that_do_not_pack_span_their_own_graph(self):
        ball(8)
        far = [NormalForm((300,), ()), NormalForm((0,) * 255, ()), nf("x1")]
        for members in (far[::2], far[1:]):
            s = ElementSet.of(members)
            assert not isinstance(s._graph, folner._CayleyBall)
            assert set(s) == set(members) and all(v in s for v in members)
            assert subgraph_density(s).oriented_edge_count == oracle_edge_count(s)

    def test_outputs_match_oracles(self):
        for s in off_ball_sets():
            graph, members = s._graph, s.members
            assert s.sorted_members() == sorted(members, key=str)
            for column, g in zip(graph.columns, GENERATORS[0::2]):
                for u, v in enumerate(graph.elements):
                    assert column[u] == graph.number.get(nf_multiply(v, g), -1)


def subset_sizes(graph_size):
    """0, 1, 2, half, all but one and all of a graph, as far as they fit."""
    return sorted({0, 1, 2, graph_size // 2, graph_size - 1, graph_size} & set(range(graph_size + 1)))


class TestSortedMembers:
    """`sorted_members` against sorting the members by their strings."""

    @pytest.mark.parametrize("radius", [0, 6])
    def test_ball_subsets(self, radius, no_built_balls):
        full = ball(radius)
        pool = list(full)
        rng = random.Random(181 + radius)
        for size in subset_sizes(len(pool)):
            s = ElementSet.of(rng.sample(pool, size))
            assert s._graph is full._graph and len(s) == size
            assert s.sorted_members() == sorted(s.members, key=str)

    def test_spanned_graph_subsets(self, no_built_balls):
        full = translate_set(ball(4), nf("x0^40"))
        pool = full.sorted_members()
        assert not isinstance(full._graph, folner._CayleyBall) and len(pool) == 161
        rng = random.Random(191)
        for size in subset_sizes(len(pool)):
            # `&` keeps the left operand's graph
            s = full & ElementSet.of(rng.sample(pool, size))
            assert s._graph is full._graph and len(s) == size
            assert s.sorted_members() == sorted(s.members, key=str)

    def test_empty_graph(self, no_built_balls):
        # an itemgetter over the graph's order alone would return a bare int
        s = ElementSet.of([])
        assert len(s._graph) == 0
        assert s.sorted_members() == []

    def test_number_built_after_the_order_shares_its_ints(self):
        graph = folner._CayleyBall(6, DEFAULT_ELEMENT_LIMIT)
        order, in_order = graph.order()
        number = graph.number
        assert number == {v: u for u, v in enumerate(graph.elements)}
        assert all(number[v] is u for u, v in zip(order, in_order))

    def test_edge_free_sets_have_density_zero(self, no_built_balls):
        singletons = [ElementSet.of([v]) for v in ball(3)]
        sets = singletons + [ElementSet.of([nf("x0"), nf("x1")]), ElementSet.of([nf("x0^40")])]
        for s in sets:
            stats = subgraph_density(s)
            assert stats.oriented_edge_count == oracle_edge_count(s) == 0
            assert stats.density == 0


_far_elements = st.lists(
    st.tuples(st.integers(0, 8), st.integers(-3, 3).filter(bool)), max_size=12
).map(lambda ts: nf_multiply(nf(" ".join(f"x{i}^{e}" for i, e in ts)), nf("x0^40")))


@st.composite
def dense_subsets(draw):
    """A subset of ball(5), or a subset of the translate of ball(3) by an
    element of exponent sum at least 28 (off every ball of radius below 25),
    each element kept with probability one half."""
    if draw(st.booleans()):
        whole = ball(5)
    else:
        whole = translate_set(ball(3), draw(_far_elements))
    pool = whole.sorted_members()
    kept = draw(st.integers(1, 2 ** len(pool) - 1))
    # `-` keeps the whole set's graph, so edges to the removed elements stay
    return whole - ElementSet.of(v for i, v in enumerate(pool) if not kept >> i & 1)


@settings(deadline=None, max_examples=100)
@given(dense_subsets())
def test_inverse_edges_mirror_forward_edges(s):
    # counted through nf_multiply, not through the columns
    members = frozenset(s)
    for g, inverse in zip(GENERATORS[0::2], GENERATORS[1::2]):
        backward = sum(nf_multiply(v, inverse) in members for v in members)
        forward = sum(nf_multiply(v, g) in members for v in members)
        assert backward == forward
    assert subgraph_density(s).oriented_edge_count == oracle_edge_count(s)


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

    @pytest.fixture
    def letter_steps(self, monkeypatch):
        steps = []

        def counting(step):
            def counted(key):
                steps.append(1)
                return step(key)
            return counted

        monkeypatch.setattr(folner, "GENERATOR_STEPS", tuple(map(counting, GENERATOR_STEPS)))
        return steps

    def test_bfs_skips_known_edges(self, counter, letter_steps, no_built_balls):
        ball(8)
        # one letter step per edge from sphere r to sphere r + 1, r < 8, and
        # no product through nf_multiply
        assert len(letter_steps) == 11720
        assert counter == []

    def test_built_ball_serves_every_limit_it_fits(self, letter_steps, no_built_balls):
        graph = ball(8)._graph
        letter_steps.clear()
        assert ball(8, limit=20000)._graph is graph
        assert ball(8, limit=11237)._graph is graph
        assert letter_steps == []

    def test_density_and_deletion_check_make_no_products(self, counter, no_built_balls):
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
        assert len(counter) == 2 * len(off)
        counter.clear()
        subgraph_density(s)
        assert counter == []

    def test_classes_make_no_products(self, counter_everywhere, no_built_balls):
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
        assert len(counter_everywhere) == 2 * len(s)
        counter_everywhere.clear()
        subgraph_density(s)
        class_histogram(s)
        drop_classes(s, [ClassLabel.M1, ClassLabel.M3])
        s.sorted_members()
        assert counter_everywhere == []

    def test_operations_across_graphs_make_no_products(self, counter):
        s = ElementSet.of(list(ball(3)) + [nf("x0^40")])
        k = ball(1)
        counter.clear()
        report = deletion_bound_check(s, k)
        assert (report.density_before, report.density_after) == (
            Fraction(52, 27), Fraction(72, 49)
        )
        assert (s - k) <= s and (s & k) == k and not s <= k
        assert counter == []

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


class TestCheckPasses:
    """`closure_violations` and `partition_violations`, the check verbs'
    passes over a graph, against the product-based oracles in `classify`."""

    @pytest.mark.parametrize("n", range(9))
    def test_match_the_oracles_on_balls(self, n):
        s = ball(n)
        assert closure_violations(s) == check_closures(s) == []
        assert partition_violations(s) == check_partition(s) == []

    @staticmethod
    def sets():
        """A subset of ball(6), on the ball's graph, and sets off every ball."""
        sample = random.Random(211).sample(ball(6).sorted_members(), 400)
        return [ElementSet.of(sample)] + off_ball_sets()

    def test_match_the_oracles_on_subsets_and_spanned_sets(self):
        sets = self.sets()
        assert isinstance(sets[0]._graph, folner._CayleyBall)
        assert not isinstance(sets[1]._graph, folner._CayleyBall)
        for s in sets:
            assert closure_violations(s) == check_closures(s) == []
            assert partition_violations(s) == check_partition(s) == []

    def fault_lines(self, capsys, which, check, violations):
        """The planted fault's lines from the oracle, which the pass must
        print too on ball(5), on each of `sets()`, and through the CLI with
        exit code 1."""
        for s in self.sets():
            assert violations(s) == check(s) != []
        expected = check(ball(5))
        assert violations(ball(5)) == expected and len(expected) > 10
        assert cli.run(["check", which, "--radius", "5"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:-1] == expected
        assert out[-1] == f"check {which}: {len(out) - 1} violations (radius 5, 475 elements)"

    def test_planted_rule_fault(self, capsys, monkeypatch):
        rules = list(classify._CLOSURE_RULES)
        for order, wrong in ((0, ClassLabel.M4), (2, ClassLabel.M6), (3, ClassLabel.M2)):
            rules[order] = rules[order][:3] + (wrong,)
        monkeypatch.setattr(classify, "_CLOSURE_RULES", tuple(rules))
        self.fault_lines(capsys, "closures", check_closures, closure_violations)

    def test_planted_flag_fault_in_closures(self, capsys, monkeypatch, no_built_balls):
        # M3 elements of odd letter count read as M4: admissible, but wrong
        flags = classify._divisor_flags

        def faulty(g):
            found = flags(g)
            return (False, False, False, True) if found == (True, False, False, False) \
                and (len(g[0]) + len(g[1])) % 2 else found

        monkeypatch.setattr(classify, "_divisor_flags", faulty)
        self.fault_lines(capsys, "closures", check_closures, closure_violations)

    def test_planted_flag_fault_in_partition(self, capsys, monkeypatch, no_built_balls):
        flags = classify._divisor_flags
        monkeypatch.setattr(classify, "_divisor_flags",
                            lambda g: (True,) * 4 if (len(g[0]) + len(g[1])) % 3 == 0
                            else flags(g))
        self.fault_lines(capsys, "partition", check_partition, partition_violations)

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        """The name of each oracle a pass calls through `classify`; the
        tests' own calls go to the functions imported above, uncounted."""
        calls = []
        for name in ("check_closures", "check_partition"):
            def counting(s, name=name, oracle=getattr(classify, name)):
                calls.append(name)
                return oracle(s)
            monkeypatch.setattr(classify, name, counting)
        return calls

    def test_passes_decide_without_the_oracles(self, oracle_calls):
        # an oracle called on correct code would hide a pass's false alarm
        for s in [ball(n) for n in range(9)] + self.sets():
            assert closure_violations(s) == partition_violations(s) == []
        assert oracle_calls == []

    @pytest.mark.parametrize("fault, oracle", [
        ("rule_fault", "check_closures"),
        ("flag_fault_in_closures", "check_closures"),
        ("flag_fault_in_partition", "check_partition"),
    ])
    def test_a_failing_pass_calls_its_oracle_once(self, fault, oracle, oracle_calls, capsys,
                                                  monkeypatch, no_built_balls):
        # each planted-fault test runs the pass, through fault_lines, on each
        # of sets(), on ball(5) and through the CLI
        plant = getattr(self, f"test_planted_{fault}")
        if fault == "rule_fault":
            plant(capsys, monkeypatch)
        else:
            plant(capsys, monkeypatch, no_built_balls)
        assert oracle_calls == [oracle] * (len(self.sets()) + 2)

    def test_check_verbs_unpack_no_normal_form(self, no_built_balls):
        s = ball(7)
        assert closure_violations(s) == partition_violations(s) == []
        assert s._graph._elements is None and s._graph._number is None

    def test_products_are_made_only_off_the_columns(self, monkeypatch, no_built_balls):
        # a product by x0 or x1 is made only when it leaves the graph, and
        # every product by x0^-1 or x1^-1 is made: by a letter step on a
        # ball, by nf_multiply on a spanned graph
        sets = [(ball(6), "step"), (off_ball_sets()[1], "nf_multiply")]
        made = []
        monkeypatch.setattr(folner, "GENERATOR_STEPS", tuple(
            lambda key, step=step: made.append("step") or step(key) for step in GENERATOR_STEPS))
        monkeypatch.setattr(folner, "nf_multiply",
                            lambda a, b: made.append("nf_multiply") or nf_multiply(a, b))
        for s, kind in sets:
            number = s._graph.number
            expected = sum(
                factor in GENERATORS[1::2] or nf_multiply(v, factor) not in number
                for v in s
                for _, sources, factor, _ in classify._CLOSURE_RULES
                if class_of(v) in sources
            )
            made.clear()
            assert closure_violations(s) == []
            assert made == [kind] * expected and expected > 0

    def test_products_off_the_largest_ball(self):
        # sphere _MAX_RADIUS holds these; their products have up to 254
        # letters and indices up to 254 (x0^-253 x1 is x254 x0^-253), and
        # the class rule on x0^-254's key lands x1 at 255
        n = folner._MAX_RADIUS
        forms = [nf(w) for w in (f"x0^-{n}", f"x0^{n}", f"x1^{n}", f"x1^-{n}",
                                 f"x0^-{n - 1} x1", f"x1^-1 x0^-{n - 1}")]
        keys = [step(pack(v)) for v in forms for step in GENERATOR_STEPS]
        assert max(max(key[1:]) for key in keys) == 254
        assert class_values(map(key_halves, keys)) == bytes(class_of(unpack(w)).value
                                                            for w in keys)
        # the closure pass on these forms as the last sphere of a ball: every
        # column entry is -1, so every product is a packed step
        graph = folner._CayleyBall.__new__(folner._CayleyBall)
        folner._CayleyGraph.__init__(graph, None, None,
                                     tuple(array("i", [-1]) * len(forms) for _ in "01"))
        graph.keys = [pack(v) for v in forms]
        s = ElementSet._view(graph, b"\1" * len(forms) + b"\0")
        assert closure_violations(s) == check_closures(forms) == []
        assert partition_violations(s) == []


class TestDeletionBound:
    def test_formula_on_ball_one(self):
        report = deletion_bound_check(ball(1), ElementSet.of([nf("x1")]))
        assert report.bound == Fraction(8, 5) - Fraction(4, 5)
        assert report.density_after == Fraction(6, 4)
        assert report.holds

    def test_report_type_is_imported_from_deletion_report(self):
        # deletion_bound_check imports the report's module, and with it
        # dataclasses, when it runs; folner does not re-export the type
        deletion_bound_check(ball(1), ElementSet.of([nf("x1")]))
        assert not hasattr(folner, "DeletionBoundReport")
        with pytest.raises(ImportError):
            from thompsonf.folner import DeletionBoundReport  # noqa: F401

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

    def test_elements_csv_formats_only_the_members(self, monkeypatch):
        calls = []
        format_halves = folner.format_halves
        monkeypatch.setattr(folner, "format_halves",
                            lambda *halves: calls.append(halves) or format_halves(*halves))
        s = ball(6)
        m6 = drop_classes(s, [label for label in ClassLabel if label is not ClassLabel.M6])
        text = elements_csv(m6)
        assert len(calls) == len(m6) == 201 < len(s)
        assert text.splitlines()[1:] == sorted(map(str, m6))

    def test_elements_csv_splits_only_the_members_keys(self, monkeypatch):
        s = ball(6)
        m6 = drop_classes(s, [label for label in ClassLabel if label is not ClassLabel.M6])
        calls = []
        key_halves = folner.key_halves
        monkeypatch.setattr(folner, "key_halves",
                            lambda key: calls.append(key) or key_halves(key))
        text = elements_csv(m6)
        assert len(calls) == len(m6) == 201 < len(s)
        assert text.splitlines()[1:] == sorted(map(str, m6))

    def test_elements_csv_digest_on_ball_eight(self):
        csv = elements_csv(ball(8))
        assert csv.count("\n") == 1 + len(ball(8))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "23dfd5e7dbdb94a09c44408d777e181d523a672c2d68472f606bbef425918e17"
        )
