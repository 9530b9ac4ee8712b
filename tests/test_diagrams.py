import random

import pytest

from conftest import random_normal_form
from thompsonf.diagrams import (
    LEAF,
    CanonicalDiagram,
    Diagram,
    atomic,
    canonicalize,
    cells,
    concat_product,
    diagram_sum,
    diagram_to_dot,
    diagram_to_nf,
    epsilon,
    exposed_caret_positions,
    forest_collapse_caret,
    forest_split_leaf,
    format_diagram,
    mirror,
    nf_to_diagram,
    parse_diagram,
    reduce_dipoles,
)
from thompsonf.words import (
    NormalForm,
    ParseError,
    nf_multiply,
    parse_word,
    reduce_to_normal_form,
)

CARET = "(..)"


def nf(text):
    return reduce_to_normal_form(parse_word(text))


class TestEpsilonAndAtomic:
    def test_epsilon_one_is_canonical_identity(self):
        e = epsilon(1)
        assert isinstance(e, CanonicalDiagram)
        assert format_diagram(e) == ".|."

    def test_epsilon_k(self):
        assert format_diagram(epsilon(3)) == "...|..."
        assert all(cells(epsilon(k)) == 0 for k in range(1, 6))

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ValueError):
            epsilon(0)

    def test_atomic_shapes(self):
        assert format_diagram(atomic(0, 1)) == "(..)|.."
        assert format_diagram(atomic(1, 1)) == ".(..)|..."
        assert format_diagram(atomic(1, -1)) == "...|.(..)"

    def test_atomic_single_cell(self):
        for i in range(5):
            for s in (1, -1):
                assert cells(atomic(i, s)) == 1

    def test_atomic_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            atomic(-1, 1)
        with pytest.raises(ValueError):
            atomic(0, 2)


class TestDiagramType:
    def test_leaf_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Diagram(CARET, LEAF)

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            Diagram("", LEAF)

    def test_canonical_rejects_dipole(self):
        with pytest.raises(ValueError, match="dipole"):
            CanonicalDiagram(CARET, CARET)

    def test_canonical_rejects_trailing_edge(self):
        with pytest.raises(ValueError, match="trailing"):
            CanonicalDiagram("(..).", "...")

    def test_equality_ignores_canonicality_class(self):
        assert epsilon(1) == Diagram(LEAF, LEAF)
        assert atomic(0, 1) == Diagram(CARET, "..")


class TestSumAndMirror:
    def test_sum_of_trivial_diagrams(self):
        assert diagram_sum(epsilon(2), epsilon(3)) == epsilon(5)

    def test_sum_pads_atomic(self):
        padded = diagram_sum(atomic(0, 1), epsilon(1))
        assert format_diagram(padded) == "(..).|..."

    def test_sum_adds_cells(self):
        rng = random.Random(5)
        for _ in range(200):
            d1 = nf_to_diagram(random_normal_form(rng, max_len=10))
            d2 = nf_to_diagram(random_normal_form(rng, max_len=10))
            assert cells(diagram_sum(d1, d2)) == cells(d1) + cells(d2)

    def test_sum_associative(self):
        a, b, c = atomic(0, 1), atomic(1, -1), epsilon(2)
        assert diagram_sum(diagram_sum(a, b), c) == diagram_sum(a, diagram_sum(b, c))

    def test_mirror_of_atomic(self):
        assert mirror(atomic(2, 1)) == atomic(2, -1)

    def test_mirror_fixes_epsilon(self):
        assert mirror(epsilon(4)) == epsilon(4)

    def test_mirror_involution(self):
        d = nf_to_diagram(nf("x0 x1"))
        assert mirror(mirror(d)) == d

    def test_mirror_antihomomorphism(self):
        rng = random.Random(31)
        for _ in range(300):
            a = nf_to_diagram(random_normal_form(rng, max_len=12))
            b = nf_to_diagram(random_normal_form(rng, max_len=12))
            assert mirror(concat_product(a, b)) == concat_product(mirror(b), mirror(a))

    def test_mirror_gives_inverse(self):
        rng = random.Random(37)
        for _ in range(300):
            d = nf_to_diagram(random_normal_form(rng, max_len=12))
            assert concat_product(d, mirror(d)) == epsilon(1)


class TestDipoleReduction:
    def test_single_dipole(self):
        assert reduce_dipoles(Diagram(CARET, CARET)) == Diagram(LEAF, LEAF)

    def test_canonical_diagrams_are_fixed(self):
        rng = random.Random(41)
        for _ in range(200):
            d = nf_to_diagram(random_normal_form(rng, max_len=12))
            assert reduce_dipoles(d) == Diagram(d.top, d.bottom)

    @staticmethod
    def _insert_random_dipoles(d, rng, count):
        top, bottom = d.top, d.bottom
        for _ in range(count):
            k = rng.randrange(0, _leaves(top))
            top = forest_split_leaf(top, k)
            bottom = forest_split_leaf(bottom, k)
        return Diagram(top, bottom)

    def test_order_independence(self):
        rng = random.Random(43)
        for _ in range(1000):
            original = nf_to_diagram(random_normal_form(rng, max_len=10))
            blown = self._insert_random_dipoles(original, rng, rng.randint(1, 4))
            ascending = _reduce_one_at_a_time(blown, pick_last=False)
            descending = _reduce_one_at_a_time(blown, pick_last=True)
            assert ascending == descending == reduce_dipoles(blown)
            # the inserted dipoles must cancel back to the original pair
            assert ascending == Diagram(original.top, original.bottom)


def _leaves(forest):
    return forest.count(LEAF)


def _reduce_one_at_a_time(d, pick_last):
    top, bottom = d.top, d.bottom
    while True:
        common = sorted(
            set(exposed_caret_positions(top)) & set(exposed_caret_positions(bottom))
        )
        if not common:
            return Diagram(top, bottom)
        k = common[-1] if pick_last else common[0]
        top = forest_collapse_caret(top, k)
        bottom = forest_collapse_caret(bottom, k)


class TestCanonicalize:
    def test_epsilon_collapses(self):
        assert canonicalize(epsilon(5)) == epsilon(1)

    def test_inverse_of_padding(self):
        assert canonicalize(diagram_sum(atomic(0, 1), epsilon(1))) == atomic(0, 1)

    def test_canonical_fixed(self):
        assert canonicalize(atomic(0, 1)) == atomic(0, 1)

    def test_rejects_dipoles(self):
        with pytest.raises(ValueError, match="dipole"):
            canonicalize(Diagram(CARET, CARET))


class TestProduct:
    def test_relation_in_diagrams(self):
        assert concat_product(atomic(1, 1), atomic(0, 1)) == concat_product(
            atomic(0, 1), atomic(2, 1)
        )

    def test_inverse_cancels(self):
        assert concat_product(atomic(0, 1), mirror(atomic(0, 1))) == epsilon(1)

    def test_identity_law(self):
        rng = random.Random(47)
        for _ in range(100):
            d = nf_to_diagram(random_normal_form(rng, max_len=12))
            assert concat_product(epsilon(1), d) == d
            assert concat_product(d, epsilon(1)) == d

    def test_single_cell_product_changes_cells_by_one(self):
        rng = random.Random(53)
        for _ in range(300):
            d = nf_to_diagram(random_normal_form(rng, max_len=12))
            for i in (0, 1, 2):
                for s in (1, -1):
                    assert abs(cells(concat_product(d, atomic(i, s))) - cells(d)) == 1

    def test_operator_sugar(self):
        assert atomic(1, 1) * atomic(0, 1) == atomic(0, 1) * atomic(2, 1)
        assert atomic(0, 1) + epsilon(1) == diagram_sum(atomic(0, 1), epsilon(1))


class TestNormalFormConversion:
    def test_single_letters(self):
        for i in range(6):
            assert nf_to_diagram(NormalForm((i,), ())) == atomic(i, 1)
            assert nf_to_diagram(NormalForm((), (i,))) == atomic(i, -1)
            assert diagram_to_nf(atomic(i, 1)) == NormalForm((i,), ())

    def test_identity(self):
        assert nf_to_diagram(NormalForm()) == epsilon(1)
        assert diagram_to_nf(epsilon(1)) == NormalForm()

    def test_equal_spellings_one_diagram(self):
        assert nf_to_diagram(nf("x0 x2")) == nf_to_diagram(nf("x1 x0"))

    def test_mixed_sign_normal_form_roundtrip(self):
        g = nf("x2 x1^-1 x0^-1")
        assert diagram_to_nf(nf_to_diagram(g)) == g

    def test_product_then_read_back(self):
        assert diagram_to_nf(concat_product(atomic(1, 1), atomic(0, 1))) == nf("x0 x2")

    def test_large_example_has_nineteen_cells(self):
        g = nf("x0^3 x1 x3 x8 x11^2 x12 x16 x17 x18 x17^-2 x11^-1 x5^-3 x0^-1")
        d = nf_to_diagram(g)
        assert cells(d) == 19
        assert diagram_to_nf(d) == g

    def test_cells_equal_normal_form_length(self):
        rng = random.Random(59)
        for _ in range(1000):
            a = random_normal_form(rng, max_len=20)
            assert cells(nf_to_diagram(a)) == len(a.pos) + len(a.neg)

    def test_matches_literal_atomic_fold(self):
        rng = random.Random(61)
        for _ in range(500):
            a = random_normal_form(rng, max_len=16)
            folded = epsilon(1)
            for i in a.pos:
                folded = concat_product(folded, atomic(i, 1))
            for j in reversed(a.neg):
                folded = concat_product(folded, atomic(j, -1))
            assert nf_to_diagram(a) == folded

    def test_roundtrip_random(self):
        rng = random.Random(67)
        for _ in range(1000):
            a = random_normal_form(rng, max_len=20)
            assert diagram_to_nf(nf_to_diagram(a)) == a

    def test_representation_soundness_sample(self):
        rng = random.Random(71)
        for _ in range(1000):
            a = random_normal_form(rng, max_len=14)
            b = random_normal_form(rng, max_len=14)
            via_diagrams = diagram_to_nf(
                concat_product(nf_to_diagram(a), nf_to_diagram(b))
            )
            assert via_diagrams == nf_multiply(a, b)

    def test_every_output_is_canonical(self):
        rng = random.Random(73)
        for _ in range(300):
            a = random_normal_form(rng, max_len=14)
            b = random_normal_form(rng, max_len=14)
            d = concat_product(nf_to_diagram(a), nf_to_diagram(b))
            # the constructor revalidates REDUCED and CANONICAL
            assert CanonicalDiagram(d.top, d.bottom) == d


class TestSerialization:
    def test_known_strings(self):
        assert format_diagram(nf_to_diagram(nf("x0 x1"))) == "(.(..))|..."
        assert format_diagram(nf_to_diagram(nf("x2 x0^-1"))) == "..(..)|(..).."

    def test_parse_roundtrip(self):
        rng = random.Random(79)
        for _ in range(300):
            d = nf_to_diagram(random_normal_form(rng, max_len=14))
            parsed = parse_diagram(format_diagram(d))
            assert parsed == Diagram(d.top, d.bottom)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_diagram("(..)..")
        with pytest.raises(ParseError):
            parse_diagram("(.|..")

    def test_dot_output_is_stable(self):
        d = nf_to_diagram(nf("x2 x0^-1"))
        first = diagram_to_dot(d)
        assert first == diagram_to_dot(d)
        assert first.startswith("graph diagram {")
        assert "v0 -- v1;" in first
        # one blue arc per top caret, one red arc per bottom caret
        assert first.count("[color=blue]") == 1
        assert first.count("[color=red]") == 1
