import copy
import itertools
import pickle
import random
import sys

import pytest

from conftest import random_normal_form
from thompsonf import diagrams
from thompsonf.diagrams import (
    LEAF,
    _check_forest,
    _cut_at_leaf,
    _has_dipole,
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
    MAX_WORD_LETTERS,
    NormalForm,
    ParseError,
    nf_invert,
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
        assert hash(epsilon(1)) == hash(Diagram(LEAF, LEAF))

    def test_same_forests_equal_across_the_two_classes(self):
        for top, bottom in ((CARET, ".."), (LEAF, LEAF), ("(.(..))", "((..).)")):
            d, c = Diagram(top, bottom), CanonicalDiagram(top, bottom)
            assert d == c and c == d and not d != c and hash(d) == hash(c)
        assert Diagram(CARET, "..") != CanonicalDiagram("..", CARET)

    @pytest.mark.parametrize("cls", [Diagram, CanonicalDiagram])
    @pytest.mark.parametrize("forests", [(LEAF,), (LEAF, LEAF, LEAF)])
    def test_takes_exactly_two_forests(self, cls, forests):
        with pytest.raises(TypeError, match=f"{cls.__name__} takes 2 values, got {len(forests)}"):
            cls(*forests)

    def test_forests_must_be_strings(self):
        for top, bottom in ((1, LEAF), (LEAF, None), (list(CARET), "..")):
            with pytest.raises(TypeError, match="forests must be strings, got"):
                Diagram(top, bottom)
        with pytest.raises(TypeError, match="forests must be strings, got int"):
            CanonicalDiagram(1, LEAF)

    def test_repr(self):
        assert repr(atomic(0, 1)) == "CanonicalDiagram(top='(..)', bottom='..')"
        assert repr(Diagram(LEAF, LEAF)) == "Diagram(top='.', bottom='.')"

    def test_fields_are_read_only(self):
        # atomic's results are cached, so a stray attribute would be shared
        for d in (atomic(0, 1), Diagram(LEAF, LEAF)):
            assert not hasattr(d, "__dict__")
            for attempt in (lambda: setattr(d, "top", LEAF), lambda: delattr(d, "top"),
                            lambda: setattr(d, "note", 1)):
                with pytest.raises(AttributeError):
                    attempt()
        assert atomic(0, 1).top == CARET and not hasattr(atomic(0, 1), "note")

    def test_copy_and_pickle_round_trip(self):
        for d in (atomic(1, -1), Diagram(CARET + LEAF, "...")):
            for y in [copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))]:
                assert type(y) is type(d) and y == d and hash(y) == hash(d)


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

    def test_one_construction_per_returned_diagram(self, monkeypatch):
        # padded on the right factor, padded on the left one, cancelling
        products = [(atomic(3, 1), atomic(0, -1)), (atomic(0, -1), atomic(3, 1)),
                    (atomic(0, 1), mirror(atomic(0, 1)))]
        words = [nf(text) for text in ("e", "x0^3 x1 x2^-2", "x4 x0^-1", "x0^-1")]
        checked = []
        check_forest = diagrams._check_forest
        monkeypatch.setattr(diagrams, "_check_forest",
                            lambda forest: checked.append(forest) or check_forest(forest))
        for d1, d2 in products:
            checked.clear()
            d = concat_product(d1, d2)
            assert checked == [d.top, d.bottom]
        for a in words:
            checked.clear()
            d = nf_to_diagram(a)
            assert checked == [d.top, d.bottom]

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


# -- literal references for the one-pass scans --------------------------------
#
# concat_product, nf_to_diagram and reduce_dipoles each read their forests in
# one scan.  These are the step-at-a-time definitions they replace: a dipole
# inserted at a time, a leaf split per index, and every common exposed caret
# collapsed per round.


def _cancel_in_batches(top, bottom):
    while True:
        common = set(exposed_caret_positions(top)) & set(exposed_caret_positions(bottom))
        if not common:
            return top, bottom
        # descending order keeps the remaining positions valid within a batch
        for k in sorted(common, reverse=True):
            top = forest_collapse_caret(top, k)
            bottom = forest_collapse_caret(bottom, k)


def _product_by_dipoles(d1, d2):
    """(top, bottom) of the product: while the glued forests disagree, the
    diagram holding the leaf at the first disagreement gets a dipole there."""
    q, s = _roots(d1.bottom), _roots(d2.top)
    t1, b1 = d1.top + LEAF * (s - q), d1.bottom + LEAF * (s - q)
    t2, b2 = d2.top + LEAF * (q - s), d2.bottom + LEAF * (q - s)
    pos = 0
    while b1 != t2:
        while b1[pos] == t2[pos]:
            pos += 1
        k = b1.count(LEAF, 0, pos)
        if b1[pos] == LEAF:
            t1, b1 = forest_split_leaf(t1, k), forest_split_leaf(b1, k)
        else:
            t2, b2 = forest_split_leaf(t2, k), forest_split_leaf(b2, k)
    top, bottom = _cancel_in_batches(t1, b2)
    trim = min(len(top) - len(top.rstrip(LEAF)), len(bottom) - len(bottom.rstrip(LEAF)),
               len(top) - 1)
    return top[: len(top) - trim], bottom[: len(bottom) - trim]


def _roots(forest):
    return forest.count(LEAF) - forest.count("(")


def _forest_by_splits(indices):
    forest = LEAF
    for i in indices:
        forest += LEAF * (i + 1 - forest.count(LEAF))
        head, tail = _cut_at_leaf(forest, i)
        forest = head + CARET + tail
    return forest


def _diagram_by_splits(a):
    top, bottom = _forest_by_splits(a.pos), _forest_by_splits(a.neg)
    nt, nb = top.count(LEAF), bottom.count(LEAF)
    return top + LEAF * (nb - nt), bottom + LEAF * (nt - nb)


def _random_forest(rng, leaves):
    trees = [LEAF] * leaves
    for _ in range(rng.randrange(leaves)):
        k = rng.randrange(len(trees) - 1)
        trees[k : k + 2] = ["(" + trees[k] + trees[k + 1] + ")"]
    return "".join(trees)


def _wide_family(n):
    """x0 ... x_{n-1}, x0^n, x1^n and their inverses."""
    forms = [NormalForm(tuple(range(n)), ()), NormalForm((0,) * n, ()), NormalForm((1,) * n, ())]
    return forms + [nf_invert(a) for a in forms]


def _strings(d):
    return d.top, d.bottom


class TestOnePassScans:
    def test_product_matches_dipole_refinement(self):
        rng = random.Random(83)
        for _ in range(2000):
            a = random_normal_form(rng, max_len=60)
            b = random_normal_form(rng, max_len=60)
            d1, d2 = nf_to_diagram(a), nf_to_diagram(b)
            assert _strings(concat_product(d1, d2)) == _product_by_dipoles(d1, d2)
            assert _strings(d1) == _diagram_by_splits(a)

    def test_cancellation_matches_batches(self):
        rng = random.Random(89)
        for n in range(30_000):
            leaves = rng.randint(1, 13)
            top = _random_forest(rng, leaves)
            # equal forests cancel in cascades, down to the bare leaves
            bottom = top if n % 2 else _random_forest(rng, leaves)
            assert _strings(reduce_dipoles(Diagram(top, bottom))) == _cancel_in_batches(top, bottom)

    def test_wide_and_deep_words(self):
        for n in (1, 2, 3, 7, 40, 129, 300):
            family = _wide_family(n)
            for a in family:
                assert _strings(nf_to_diagram(a)) == _diagram_by_splits(a)
            for a in family:
                for b in family:
                    d1, d2 = nf_to_diagram(a), nf_to_diagram(b)
                    assert _strings(concat_product(d1, d2)) == _product_by_dipoles(d1, d2)


def test_widest_word_multiplies_by_its_mirror_to_the_identity():
    # the widest word the CLI accepts; its forests have 10,001 leaves
    d = nf_to_diagram(NormalForm(tuple(range(MAX_WORD_LETTERS)), ()))
    assert d.top.count(LEAF) == d.bottom.count(LEAF) == MAX_WORD_LETTERS + 1
    assert concat_product(d, mirror(d)) == epsilon(1)


# -- literal references for the constructor's checks --------------------------


def _check_forest_by_stack(forest):
    """The forest check with a stack of finished-subtree counts, one per open
    caret; `_check_forest` keeps the innermost count in a local instead."""
    if not isinstance(forest, str):
        raise TypeError(f"forests must be strings, got {type(forest).__name__}")
    if not forest:
        raise ValueError("forests must contain at least one tree")
    children = []
    for pos, ch in enumerate(forest):
        if ch == ")":
            if not children or children.pop() != 2:
                raise ParseError(f"unexpected ')' at offset {pos}")
        elif ch != "." and ch != "(":
            raise ParseError(f"unexpected character {ch!r} at offset {pos}")
        elif children and children[-1] == 2:
            raise ParseError(f"missing ')' at offset {pos}")
        elif ch == "(":
            children.append(0)
            continue
        if children:
            children[-1] += 1
    if children:
        raise ParseError("unexpected end of forest text")


def _outcome(check, forest):
    try:
        check(forest)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    return None


def _positions_meet(top, bottom):
    return bool(set(exposed_caret_positions(top)) & set(exposed_caret_positions(bottom)))


class TestConstructorChecks:
    def test_forest_check_matches_the_stack_on_every_short_string(self):
        outcomes = set()
        for size in range(9):
            for chars in itertools.product(".()x", repeat=size):
                forest = "".join(chars)
                outcome = _outcome(_check_forest, forest)
                assert outcome == _outcome(_check_forest_by_stack, forest), forest
                outcomes.add(outcome and outcome[1].partition(" at offset")[0])
        assert outcomes == {None, "unexpected ')'", "unexpected character 'x'",
                            "missing ')'", "unexpected end of forest text",
                            "forests must contain at least one tree"}

    def test_forest_check_rejects_non_strings_and_empty_forests(self):
        for forest in (None, 1, list(CARET), CARET.encode()):
            with pytest.raises(TypeError, match="forests must be strings, got"):
                _check_forest(forest)
            assert _outcome(_check_forest, forest) == _outcome(_check_forest_by_stack, forest)
        with pytest.raises(ValueError, match="forests must contain at least one tree"):
            _check_forest("")

    def test_dipole_test_matches_exposed_positions_on_random_pairs(self):
        rng = random.Random(97)
        found = set()
        for _ in range(5000):
            leaves = rng.randint(1, 40)
            top, bottom = _random_forest(rng, leaves), _random_forest(rng, leaves)
            found.add(_has_dipole(top, bottom))
            assert _has_dipole(top, bottom) == _positions_meet(top, bottom), (top, bottom)
        assert found == {False, True}

    def test_dipole_test_matches_exposed_positions_on_grafted_pairs(self, monkeypatch):
        grafted = []
        cancel = diagrams._cancel_dipoles
        monkeypatch.setattr(diagrams, "_cancel_dipoles",
                            lambda top, bottom: grafted.append((top, bottom))
                            or cancel(top, bottom))
        rng = random.Random(101)
        for _ in range(500):
            d1 = nf_to_diagram(random_normal_form(rng, max_len=40))
            d2 = nf_to_diagram(random_normal_form(rng, max_len=40))
            concat_product(d1, d2)
        found = set()
        for top, bottom in grafted:
            found.add(_has_dipole(top, bottom))
            assert _has_dipole(top, bottom) == _positions_meet(top, bottom), (top, bottom)
        assert found == {False, True}

    def test_dipole_test_reads_forests_wider_than_the_int_digit_limit(self):
        # 10,001 leaves make 10,001 binary digits; int() limits the digits of
        # decimal strings (to at least 640), not those of base-2 ones
        d = nf_to_diagram(NormalForm(tuple(range(MAX_WORD_LETTERS)), ()))
        e = mirror(d)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # (d.top, e.bottom) is the grafted pair of d times its mirror
            for top, bottom in ((d.top, e.bottom), (d.top, d.bottom)):
                assert _has_dipole(top, bottom) == _positions_meet(top, bottom)
            assert _has_dipole(d.top, e.bottom) and not _has_dipole(d.top, d.bottom)
        finally:
            sys.set_int_max_str_digits(limit)
