import copy
import hashlib
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_normal_form, random_word, small_normal_forms
from thompsonf.classify import DivisorSet, check_closures, class_of, class_values
from thompsonf import words
from thompsonf.diagrams import concat_product, diagram_to_nf, nf_to_diagram
from thompsonf.folner import ball, translate_set
from thompsonf.rewriting import reduce_word_by_rewriting
from thompsonf.words import (
    GENERATOR_STEPS,
    GENERATORS,
    IDENTITY,
    Letter,
    PACKED_MAX,
    NormalForm,
    _SHORT_FACTOR,
    ParseError,
    Word,
    _LOWER,
    _RAISE,
    _key_steps,
    _times_negative,
    _times_positive,
    format_word,
    from_standard_word,
    key_halves,
    nf_invert,
    nf_multiply,
    pack,
    parse_word,
    reduce_to_normal_form,
    to_standard_word,
    unpack,
)


def nf(text):
    return reduce_to_normal_form(parse_word(text))


@st.composite
def banded_words(draw, most=60):
    """Words of up to `most` letters from far-apart index bands: a word
    within one band folds on count vectors offset by its smallest index,
    a word mixing bands is too sparse for them and folds on the tuple
    steps, and runs of one letter make landings pass ranges long enough
    to be narrowed."""
    bands = draw(st.lists(st.sampled_from((0, 300, 600, 10**9)), min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(bands), st.integers(0, 12),
                                   st.integers(-12, 12).filter(bool)), max_size=most))
    return Word(tuple(
        Letter(band + i, 1 if e > 0 else -1) for band, i, e in runs for _ in range(abs(e))
    )[:most])


class TestParse:
    def test_single_token(self):
        assert parse_word("x0").letters == (Letter(0, 1),)

    def test_mixed_signs(self):
        assert parse_word("x2 x1^-1 x0^-1").letters == (
            Letter(2, 1),
            Letter(1, -1),
            Letter(0, -1),
        )

    def test_identity_spellings(self):
        assert parse_word("e").letters == ()
        assert parse_word("").letters == ()
        assert parse_word("   ").letters == ()

    def test_exponents_expand(self):
        assert parse_word("x0^-2").letters == (Letter(0, -1), Letter(0, -1))
        assert parse_word("x3^3").letters == (Letter(3, 1),) * 3

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("x0 y1", "'y1'"),
            ("x-1", "'x-1'"),
            ("x0^0", "zero exponent"),
            ("x0^", "'x0^'"),
            ("x0 x1^2x", "position 2"),
        ],
    )
    def test_errors_name_token_and_position(self, text, fragment):
        with pytest.raises(ParseError, match="position"):
            parse_word(text)
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert fragment in str(info.value)

    # Arabic-Indic 3 and 2, fullwidth 3, Devanagari 1: `int` reads them all
    @pytest.mark.parametrize("text", ["x\u0663", "x1^-\u0662", "x\uff13", "x0 x2^\u0967"])
    def test_digits_of_other_scripts_are_malformed(self, text):
        with pytest.raises(ParseError, match="malformed token"):
            parse_word(text)

    def test_format_identity(self):
        assert format_word(Word(())) == "e"
        assert str(IDENTITY) == "e"

    def test_format_collapses_runs(self):
        w = parse_word("x0 x0 x1^-1 x1^-1 x1^-1 x0")
        assert format_word(w) == "x0^2 x1^-3 x0"

    def test_normal_form_str_matches_its_word(self):
        # str reads pos and reversed neg directly; the Word path is the oracle
        for v in ball(8):
            assert str(v) == format_word(v.word())
        assert format_word([(0, 1), (0, 1), (3, -1)]) == "x0^2 x3^-1"
        assert format_word(iter(())) == "e"

    def test_parse_format_roundtrip_random(self):
        rng = random.Random(101)
        for _ in range(2000):
            w = random_word(rng)
            assert parse_word(format_word(w)) == w


class TestNormalFormType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            NormalForm((2, 1), ())

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            NormalForm((-1,), ())

    def test_rejects_side_condition_violation(self):
        # x1 x1^-1 with no x2 on either side
        with pytest.raises(ValueError):
            NormalForm((1,), (1,))

    def test_accepts_justified_common_index(self):
        NormalForm((0, 1), (0,))  # x0 x1 x0^-1 is a valid normal form

    @pytest.mark.parametrize("pos, neg, field", [
        ([0], (), "pos"),
        ((), [0], "neg"),
        ((0,), range(0), "neg"),
    ])
    def test_rejects_halves_that_are_not_tuples(self, pos, neg, field):
        # a list half would print fine but neither hash nor multiply
        with pytest.raises(TypeError, match=f"{field} must be a tuple"):
            NormalForm(pos, neg)

    def test_word_rejects_letters_that_are_not_a_tuple(self):
        with pytest.raises(TypeError, match="letters must be a tuple"):
            Word([Letter(0, 1)])

    @pytest.mark.parametrize("pos, neg, field", [
        ((1.0,), (), "pos"),
        ((True,), (), "pos"),
        ((0, 2), (0.5,), "neg"),
        ((), (0, False), "neg"),
    ])
    def test_rejects_entries_that_are_not_ints(self, pos, neg, field):
        # a float or bool entry would print as x1.0 or xTrue and multiply on
        with pytest.raises(TypeError, match=f"{field} entries must be int"):
            NormalForm(pos, neg)

    @pytest.mark.parametrize("letter", [
        (0, 1),
        Letter(0, 1.0),
        Letter(True, 1),
        Letter(1.0, -1),
    ])
    def test_word_rejects_entries_that_are_not_int_letters(self, letter):
        with pytest.raises(TypeError, match="letters must be Letters of two ints"):
            Word((Letter(0, 1), letter))


class TestWordValue:
    """Word is a read-only value: equal letters give equal, equally hashed
    words, and the repr is the one its fields spell."""

    def test_equal_letters_give_equal_words_and_hashes(self):
        a, b = parse_word("x0 x1^-1"), Word((Letter(0, 1), Letter(1, -1)))
        assert a == b and hash(a) == hash(b) and a is not b
        assert Word() == Word(()) == parse_word("e")
        assert a != parse_word("x0") and a != Word()

    @pytest.mark.parametrize("other", [
        (Letter(0, 1), Letter(1, -1)), "x0 x1^-1", NormalForm((0,), (1,)), None,
        DivisorSet(False, False, False, False),
    ])
    def test_never_equals_another_type(self, other):
        w = parse_word("x0 x1^-1")
        assert w != other and not w == other

    def test_fields_are_read_only(self):
        w = parse_word("x0")
        for attempt in (lambda: setattr(w, "letters", ()), lambda: delattr(w, "letters"),
                        lambda: setattr(w, "other", 1)):
            with pytest.raises(AttributeError):
                attempt()
        assert w.letters == (Letter(0, 1),)

    def test_repr(self):
        assert repr(parse_word("x0 x1^-1")) == (
            "Word(letters=(Letter(index=0, sign=1), Letter(index=1, sign=-1)))"
        )
        assert repr(Word()) == "Word(letters=())"

    def test_copy_and_pickle_round_trip(self):
        w = parse_word("x0 x1^-2")
        for y in [copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))]:
            assert type(y) is Word and y == w and hash(y) == hash(w)

    def test_takes_at_most_one_value(self):
        # no value is the empty word; two are a TypeError
        with pytest.raises(TypeError):
            Word((), ())


class TestTupleRepresentation:
    """A normal form is the immutable tuple (pos, neg): hashing and equality
    are tuple's, whichever way the form was made."""

    def test_four_constructions_agree(self):
        x = NormalForm((0, 2), (1,))  # x0 x2 x1^-1
        made = [
            x,
            nf_multiply(nf("x0 x2"), nf("x1^-1")),
            reduce_to_normal_form(parse_word("x1 x0 x1^-1")),
            diagram_to_nf(nf_to_diagram(x)),
        ]
        members = ball(6)
        for y in made:
            assert type(y) is NormalForm
            assert y == x and hash(y) == hash(x)
            assert y in members
            assert (y.pos, y.neg) == ((0, 2), (1,))

    def test_repr_is_unchanged(self):
        assert repr(NormalForm((0, 2), (1,))) == "NormalForm(pos=(0, 2), neg=(1,))"
        assert repr(IDENTITY) == "NormalForm(pos=(), neg=())"

    def test_never_equals_a_word_or_a_string(self):
        for text in ("e", "x0", "x0 x1^-1"):
            x = nf(text)
            assert x != parse_word(text) and parse_word(text) != x
            assert x != text and x != str(x)

    def test_equals_the_plain_pair_and_orders_like_tuples(self):
        x = nf("x0 x2 x1^-1")
        assert x == ((0, 2), (1,)) and hash(x) == hash(((0, 2), (1,)))
        assert sorted([nf("x1"), nf("x0^-1"), nf("x0")]) == [nf("x0^-1"), nf("x0"), nf("x1")]

    def test_sequence_protocol_of_the_pair(self):
        x = nf("x0 x2 x1^-1")
        assert len(x) == 2 and list(x) == [(0, 2), (1,)]
        pos, neg = x
        assert (pos, neg) == ((0, 2), (1,))

    def test_tuple_concatenation_and_repetition_are_refused(self):
        g, h = nf("x0"), nf("x1")
        refused = [
            lambda: g + h,
            lambda: g + ((0,), ()),
            lambda: ((0,), ()) + g,
            lambda: sum([g, h]),
            lambda: 2 * g,
            lambda: ((0,), ()) * g,
        ]
        for operation in refused:
            with pytest.raises(TypeError, match="group product"):
                operation()
        for other in (2, ((1,), ()), parse_word("x1")):
            with pytest.raises(TypeError, match="group product"):
                g * other
        assert g * h == nf("x0 x1")

    def test_checks_live_in_init_and_fields_are_read_only(self):
        # the trusted path skips __init__, and the benchmark tracer counts
        # public constructions by wrapping NormalForm.__dict__["__init__"]
        assert "__init__" in NormalForm.__dict__
        with pytest.raises(AttributeError):
            nf("x0").pos = (1,)

    def test_copy_and_pickle_round_trip(self):
        for x in ball(4):
            copies = [copy.copy(x), copy.deepcopy(x)] + [
                pickle.loads(pickle.dumps(x, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for y in copies:
                assert type(y) is NormalForm
                assert y == x and hash(y) == hash(x)
                assert (y.pos, y.neg) == (x.pos, x.neg)
                assert NormalForm(y.pos, y.neg) == y


class TestCheckedOnce:
    """Normal forms are checked where they enter, by the public constructor;
    the arithmetic builds its results unchecked, and the tests re-check them."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = NormalForm.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            check(self, *args, **kwargs)

        monkeypatch.setattr(NormalForm, "__init__", counting)
        return calls

    def test_arithmetic_checks_nothing(self, checks, no_built_balls):
        a, b = nf("x0^3 x2 x1^-1"), nf("x1^2 x0^-1 x3^-1")
        ball(8)
        assert checks == []
        check_closures(ball(7))
        translate_set(ball(3), nf("x0^40"))
        reduce_to_normal_form(parse_word("x0^500 x1^-300"))
        nf_multiply(a, b)
        nf_invert(a)
        a * b, a.inverse()
        assert checks == []

    def test_oracles_check_each_result_once(self, checks):
        w = parse_word("x0^3 x2 x1^-1 x4 x0^-2")
        g = reduce_to_normal_form(w)
        d = nf_to_diagram(g)
        checks.clear()
        assert reduce_word_by_rewriting(w) == g
        assert len(checks) == 1
        assert diagram_to_nf(d) == g
        assert len(checks) == 2

    def test_ball_elements_pass_the_public_constructor(self):
        for v in ball(10):
            assert NormalForm(v.pos, v.neg) == v


class TestReduce:
    def test_relation_instance(self):
        assert nf("x1 x0") == NormalForm((0, 2), ())

    def test_shift_rule(self):
        assert nf("x1 x3 x1^-1") == NormalForm((2,), ())

    def test_free_cancellation(self):
        assert nf("x0 x0^-1") == IDENTITY

    def test_all_relation_instances_to_12(self):
        for i in range(13):
            for j in range(i + 1, 13):
                left = Word((Letter(j, 1), Letter(i, 1)))
                right = Word((Letter(i, 1), Letter(j + 1, 1)))
                assert reduce_to_normal_form(left) == reduce_to_normal_form(right)

    def test_two_generator_relators_reduce_to_identity(self):
        # x1^(x0^2) = x1^(x0 x1) and x1^(x0^3) = x1^(x0^2 x1), spelled out
        relators = [
            "x0^-2 x1 x0^2 x1^-1 x0^-1 x1^-1 x0 x1",
            "x0^-3 x1 x0^3 x1^-1 x0^-2 x1^-1 x0^2 x1",
        ]
        for text in relators:
            assert from_standard_word(parse_word(text)) == IDENTITY

    # sha256 of str(reduce_to_normal_form(parse_word(text))), recorded from
    # the tuple-step fold: long words whose forms are deep, wide or sparse
    FAMILY_DIGESTS = {
        "x0^10000":
            "2529c8f4ce6f379c973bf53ff3d6932d83aef2d285393fb770fb0f8f065a855c",
        "x0^5000 x1^-5000":
            "3acecff49ee0f58ea21b695d696f8a16e612599b20ba9ca91da36052460c9de3",
        "x0^-5000 x1^5000":
            "0b8ee06e8920e596535eacfa8e208a9e31dc3363783a4bbbec68ef506bd30c13",
        " ".join(f"x{i}" for i in range(10000)):
            "c38cd187ddbe17168cfcdedef6a989a1970183f5584a6e3e72151eac89af8c04",
        " ".join(f"x{i}" for i in reversed(range(10000))):
            "692468342cc7a53a1cd732e6646fbd0106033cdd042537ab570a21e91f51e820",
        "x10000^-1 " + " ".join(f"x{i}" for i in range(9999)):
            "b03748f90cb3d07b614672dfd0a4cd6e80e9991d338bce4b2ccec4dcf1122f50",
        "x0^-1 x10000^-1 " + " ".join(f"x{i}" for i in range(1, 9999)):
            "7ddd380ce7321ef6eade2b5e938d662a3ad2d237321dc2607c1932aa5faef839",
        " ".join(["x0 x5000^-1"] * 5000):
            "d5110cb0f1d30b05843adbdd95a7b361d1be9a6b3901bb29489e4fb2bb84cb07",
        " ".join(["x0 x10000 x0^-1 x10000^-1"] * 2500):
            "a9ae54f2d0c0200b4469aa68f8f39c24d826869b02ed5ba1dfd02218f27058e8",
    }

    @pytest.mark.parametrize("text", FAMILY_DIGESTS, ids=lambda text: text[:24])
    def test_long_word_family_is_pinned(self, text):
        out = str(reduce_to_normal_form(parse_word(text)))
        assert hashlib.sha256(out.encode()).hexdigest() == self.FAMILY_DIGESTS[text]

    @settings(deadline=None, max_examples=400)
    @given(banded_words())
    # the last landing passes [4, 37), which is narrowed and holds x34^-1
    # and x36^-1
    @example(parse_word("x0^-33 x1^-1 x2^-1 x4"))
    # x1 lands past the vectors' end, as far above its index as the bound
    # (three inverse letters, all in neg) lets a landing go
    @example(parse_word("x0^-3 x1"))
    # x3^-1 takes the shift rule at the last position that holds an index
    @example(parse_word("x0^-2 x3 x3^-1"))
    def test_count_vectors_match_the_tuple_steps(self, w):
        letters = w.letters
        pos = neg = ()
        for index, sign in letters:
            pos, neg = (_times_positive if sign > 0 else _times_negative)(pos, neg, index)
        reduced = reduce_to_normal_form(w)
        assert reduced == (pos, neg)
        assert NormalForm(*reduced) == reduced
        if len(letters) <= 12:
            assert reduced == reduce_word_by_rewriting(w)

    def test_sparse_word_reduces_in_bounded_memory(self):
        big = 10**9
        letters = ((0, 1), (big, 1), (0, -1), (big, -1)) * 50
        w = Word(tuple(Letter(i, sign) for i, sign in letters))
        tracemalloc.start()
        try:
            reduce_to_normal_form(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert reduce_to_normal_form(Word((Letter(10**12, 1),))) == NormalForm((10**12,), ())


class TestArithmetic:
    def test_multiply_relation(self):
        assert nf_multiply(nf("x3"), nf("x1")) == NormalForm((1, 4), ())

    def test_multiply_inverse_pair(self):
        a = nf("x0 x2")
        b = nf("x2^-1 x0^-1")
        assert nf_multiply(a, b) == IDENTITY

    def test_identity_laws(self):
        g = nf("x0 x1")
        assert nf_multiply(IDENTITY, g) == g
        assert nf_multiply(g, IDENTITY) == g

    def test_invert_swaps_halves(self):
        assert nf_invert(nf("x0 x2 x1^-1")) == NormalForm((1,), (0, 2))
        assert nf_invert(IDENTITY) == IDENTITY
        assert nf_invert(nf("x0^-1")) == nf("x0")

    def test_operator_sugar(self):
        g = nf("x0 x1")
        assert g * g.inverse() == IDENTITY

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b, c = (random_normal_form(rng, max_len=12) for _ in range(3))
            assert nf_multiply(nf_multiply(a, b), c) == nf_multiply(a, nf_multiply(b, c))

    def test_inverse_random(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = random_normal_form(rng, max_len=16)
            assert nf_multiply(a, nf_invert(a)) == IDENTITY
            assert nf_multiply(nf_invert(a), a) == IDENTITY

    def test_associativity_random_long_factors(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b, c = (random_normal_form(rng, max_len=120, max_index=12) for _ in range(3))
            assert nf_multiply(nf_multiply(a, b), c) == nf_multiply(a, nf_multiply(b, c))

    def test_inverse_random_long_factors(self):
        rng = random.Random(29)
        for _ in range(200):
            a = random_normal_form(rng, max_len=300, max_index=12)
            assert nf_multiply(a, nf_invert(a)) == IDENTITY
            assert nf_multiply(nf_invert(a), a) == IDENTITY


class TestLongRightFactors:
    """A right factor of more than _SHORT_FACTOR letters folds onto the left
    factor on count vectors (`words._fold`); a shorter one takes the tuple
    steps.  Both must give the product the tuple steps give."""

    @staticmethod
    def tuple_product(a, b):
        pos, neg = a
        for i in b.pos:
            pos, neg = _times_positive(pos, neg, i)
        for j in reversed(b.neg):
            pos, neg = _times_negative(pos, neg, j)
        return pos, neg

    @settings(deadline=None, max_examples=400)
    @given(banded_words(), banded_words(most=120))
    # a long right factor of runs of low indices, folded on the vectors
    @example(parse_word("x0^-30 x5 x1^-4"), parse_word("x0^40 x2^-3 x1^-9"))
    # a long right factor too sparse for the vectors: the tuple fallback
    @example(Word((Letter(0, 1), Letter(10**9, 1))),
             Word((Letter(3, 1),) * 25 + (Letter(10**9, -1),)))
    # a right factor of exactly _SHORT_FACTOR letters, and one more
    @example(parse_word("x2 x1"), parse_word(f"x0^{_SHORT_FACTOR}"))
    @example(parse_word("x2 x1"), parse_word(f"x0^{_SHORT_FACTOR + 1}"))
    # every x1 lands past the seed form's end, as far above its index as
    # the bound (the seed's three neg entries) lets a landing go
    @example(parse_word("x0^-3"), parse_word(f"x1^{_SHORT_FACTOR + 1}"))
    # the first x5^-1 takes the shift rule at the seed form's last position
    @example(parse_word("x5"), parse_word(f"x5^-{_SHORT_FACTOR + 1}"))
    def test_products_match_the_tuple_steps(self, u, w):
        a, b = reduce_to_normal_form(u), reduce_to_normal_form(w)
        product = nf_multiply(a, b)
        assert product == self.tuple_product(a, b)
        assert NormalForm(*product) == product

    def test_oracle_shaped_products_agree_with_diagrams(self):
        rng = random.Random(31)
        for _ in range(20):
            a, b = (reduce_to_normal_form(Word(tuple(
                Letter(rng.randint(0, 12), rng.choice((1, -1))) for _ in range(320)
            ))) for _ in range(2))
            assert len(b.pos) + len(b.neg) > _SHORT_FACTOR
            product = diagram_to_nf(concat_product(nf_to_diagram(a), nf_to_diagram(b)))
            assert nf_multiply(a, b) == product

    # sha256 of str(nf_multiply(nf(left), nf(right))), recorded from the
    # tuple steps alone: long factors that are deep, wide or cancel
    PRODUCT_DIGESTS = {
        ("x0^5000 x1^-5000", "x0^-5000 x1^5000"):
            "0eb5d997f8014718620850753fb87e1c4f0fcc2fe41e83c8d9a52a2119f18265",
        ("x0^-5000 x1^5000", "x0^5000 x1^-5000"):
            "ca2799cf22b6077b1865d1b95bf595be24e3a78dceefbdd07778db916f5a163d",
        (" ".join(f"x{i}" for i in reversed(range(2000))), "x0^2000"):
            "df44ad164e9158c4c339f50e380ff6decf103e320f86940d502fb86bbd2a5f41",
    }

    @pytest.mark.parametrize("left, right", PRODUCT_DIGESTS,
                             ids=lambda text: text[:24])
    def test_long_products_are_pinned(self, left, right):
        out = str(nf_multiply(nf(left), nf(right)))
        assert hashlib.sha256(out.encode()).hexdigest() == self.PRODUCT_DIGESTS[left, right]

    @pytest.fixture
    def folds(self, monkeypatch):
        calls = []
        fold = words._fold
        monkeypatch.setattr(words, "_fold", lambda *args: calls.append(1) or fold(*args))
        return calls

    def test_short_factors_never_fold(self, folds):
        a, b = nf("x3 x1^-2"), nf(f"x0^{_SHORT_FACTOR - 2} x2^-1 x1^-1")
        s = ball(5)
        folds.clear()
        for v in s:
            for g in GENERATORS:
                nf_multiply(v, g)
        translate_set(s, GENERATORS[2])
        nf_multiply(a, b)
        assert folds == []

    def test_each_long_factor_folds_once(self, folds):
        rng = random.Random(37)
        forms = [random_normal_form(rng, max_len=120, max_index=12) for _ in range(50)]
        long = [b for b in forms if len(b.pos) + len(b.neg) > _SHORT_FACTOR]
        assert len(long) >= 20
        folds.clear()
        for a, b in zip(forms, long):
            nf_multiply(a, b)
        assert len(folds) == len(long)

    def test_dense_wide_left_form_folds_on_the_vectors(self, monkeypatch):
        # x9999 ... x0 is x0 x2 ... x19998: its spread of 19,998 fits the
        # budget of the 5,000 letters and the form's 10,000
        a, b = NormalForm(tuple(range(0, 20_000, 2)), ()), NormalForm((0,) * 5000, ())
        steps = []
        times_positive = words._times_positive
        monkeypatch.setattr(words, "_times_positive",
                            lambda *args: steps.append(1) or times_positive(*args))
        # each x0 raises every index above 0 by one
        assert nf_multiply(a, b) == ((0,) * 5001 + tuple(range(5002, 25_000, 2)), ())
        assert steps == []

    def test_sparse_long_factor_multiplies_in_bounded_memory(self):
        # 200 letters with indices up to 10**9: the tuple fallback
        step = 10**7
        f = NormalForm(tuple(range(step, 101 * step, step)),
                       tuple(range(step + 1, 101 * step + 1, step)))
        x0 = GENERATORS[0]
        tracemalloc.start()
        try:
            product = nf_multiply(x0, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert product == self.tuple_product(x0, f)


class TestByteBound:
    """`_fold` counts the neg half in bytes when len(neg) plus the inverse
    letters is at most 255, and on the lists of `_fold_lists` above that."""

    @pytest.fixture
    def list_folds(self, monkeypatch):
        calls = []
        fold_lists = words._fold_lists
        monkeypatch.setattr(words, "_fold_lists",
                            lambda *args: calls.append(1) or fold_lists(*args))
        return calls

    @staticmethod
    def tuple_reduction(w):
        pos = neg = ()
        for index, sign in w.letters:
            pos, neg = (_times_positive if sign > 0 else _times_negative)(pos, neg, index)
        return pos, neg

    @pytest.mark.parametrize("text, bound", [
        # neg reaches 255 entries, and the counts fall back from 255
        ("x0^-255 x1 x0^255", 255),
        # the shift rule among counts of 254, then cancels
        ("x0^-254 x1 x1^-1 x0^254", 255),
        # neg reaches 255 entries, the shift rule, then cancels
        ("x0^-255 x1 x1^-1 x0^255", 256),
        # 256 entries, which a byte would wrap
        ("x0^-256 x1 x0^256", 256),
    ])
    def test_reduction_at_the_bound(self, text, bound, list_folds):
        w = parse_word(text)
        assert sum(sign < 0 for _, sign in w) == bound
        assert reduce_to_normal_form(w) == self.tuple_reduction(w)
        assert len(list_folds) == (bound > 255)

    @pytest.mark.parametrize("inverses", [255, 256])
    def test_random_reduction_at_the_bound(self, inverses, list_folds):
        rng = random.Random(inverses)
        for _ in range(5):
            signs = [-1] * inverses + [1] * 300
            rng.shuffle(signs)
            w = Word(tuple(Letter(rng.randint(0, 12), sign) for sign in signs))
            assert reduce_to_normal_form(w) == self.tuple_reduction(w)
        assert len(list_folds) == 5 * (inverses > 255)

    @pytest.mark.parametrize("b_neg", [127, 128])
    @pytest.mark.parametrize("a, b_pos", [
        # every x1^-1 lands at 129: the first takes the shift rule on x129
        (NormalForm((129,), (0,) * 128), ()),
        # b's x0 cancel a's 64 x0^-1 first
        (NormalForm((2, 200), (0,) * 64 + (1,) * 64), (0,) * 64 + (3,) * 20),
    ])
    def test_products_at_the_bound(self, a, b_pos, b_neg, list_folds):
        b = NormalForm(b_pos, (1,) * b_neg)
        assert nf_multiply(a, b) == TestLongRightFactors.tuple_product(a, b)
        assert len(list_folds) == (len(a.neg) + b_neg > 255)

    def test_oracle_shaped_folds_stay_on_bytes(self, list_folds):
        rng = random.Random(43)
        for _ in range(20):
            a, b = (reduce_to_normal_form(Word(tuple(
                Letter(rng.randint(0, 12), rng.choice((1, -1))) for _ in range(320)
            ))) for _ in range(2))
            nf_multiply(a, b)
        assert list_folds == []
        nf_multiply(NormalForm((), (0,) * 128), NormalForm((), (1,) * 128))
        reduce_to_normal_form(parse_word("x0^-256"))
        assert len(list_folds) == 2


class TestStandardAlphabet:
    def test_to_standard_examples(self):
        assert to_standard_word(nf("x2")) == parse_word("x0^-1 x1 x0")
        assert to_standard_word(nf("x0")) == parse_word("x0")
        assert to_standard_word(nf("x3")) == parse_word("x0^-1 x0^-1 x1 x0 x0")

    def test_from_standard_examples(self):
        assert from_standard_word(parse_word("x0^-1 x1 x0")) == nf("x2")
        assert from_standard_word(Word(())) == IDENTITY
        assert from_standard_word(parse_word("x0 x1")) == NormalForm((0, 1), ())

    def test_from_standard_rejects_high_index(self):
        with pytest.raises(ValueError, match="x2"):
            from_standard_word(parse_word("x2"))

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            a = random_normal_form(rng, max_len=14, max_index=6)
            assert from_standard_word(to_standard_word(a)) == a

    def test_standard_word_is_freely_reduced(self):
        rng = random.Random(19)
        for _ in range(500):
            w = to_standard_word(random_normal_form(rng, max_len=12, max_index=6))
            for a, b in zip(w.letters, w.letters[1:]):
                assert not (a.index == b.index and a.sign == -b.sign)


class TestConfluence:
    def test_strategies_agree_on_examples(self):
        for text in ("x1 x0", "x1 x3 x1^-1", "x0 x0^-1", "x5 x3 x1 x2^-1 x5^-1"):
            w = parse_word(text)
            assert (
                reduce_word_by_rewriting(w, "leftmost")
                == reduce_word_by_rewriting(w, "rightmost")
                == reduce_to_normal_form(w)
            )

    def test_strategies_agree_random(self):
        rng = random.Random(23)
        for _ in range(2000):
            w = random_word(rng)
            left = reduce_word_by_rewriting(w, "leftmost")
            right = reduce_word_by_rewriting(w, "rightmost")
            assert left == right == reduce_to_normal_form(w)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            reduce_word_by_rewriting(Word(()), "innermost")

    def test_reduction_invariant_under_cancelling_insertions(self):
        rng = random.Random(29)
        for _ in range(500):
            w = random_word(rng, max_len=14)
            letters = list(w.letters)
            spot = rng.randint(0, len(letters))
            lt = Letter(rng.randint(0, 8), rng.choice((1, -1)))
            letters[spot:spot] = [lt, Letter(lt.index, -lt.sign)]
            assert reduce_to_normal_form(Word(tuple(letters))) == reduce_to_normal_form(w)


class TestLetterSteps:
    """One letter times a normal form, against the literal rewriting."""

    def test_every_small_form_times_every_letter(self):
        letters = [Letter(g, sign) for g in range(8) for sign in (1, -1)]
        count = 0
        for a in small_normal_forms(3, range(6)):
            for lt in letters:
                w = Word(a.word().letters + (lt,))
                assert nf_multiply(a, reduce_to_normal_form(Word((lt,)))) == (
                    reduce_word_by_rewriting(w)
                ), (a, lt)
                count += 1
        assert count == 69712

    @staticmethod
    def assert_generator_steps_agree(v):
        key = pack(v)
        for step, g in zip(GENERATOR_STEPS, GENERATORS):
            # the public constructor checks that the step's result is normal
            w = NormalForm(*unpack(step(key)))
            assert w == nf_multiply(v, g), (v, g)
            assert w == reduce_word_by_rewriting(Word(v.word().letters + g.word().letters))
            assert step(key) == pack(w)

    def test_generator_steps_on_ball_six(self):
        for v in ball(6):
            self.assert_generator_steps_agree(v)

    # x0 .. x7, and an index whose landings can carry t past a byte
    STEP_INDICES = (*range(8), PACKED_MAX - 2)

    @classmethod
    def assert_key_steps_agree(cls, v) -> set:
        """The steps of `_key_steps(g)` against nf_multiply and pack, for every
        g in STEP_INDICES whose product packs; returns the (g, sign) checked."""
        key, checked = pack(v), set()
        for g in cls.STEP_INDICES:
            factors = (NormalForm((g,), ()), NormalForm((), (g,)))
            for step, x, sign in zip(_key_steps(g), factors, (1, -1)):
                expected = pack(nf_multiply(v, x))
                if expected is not None:  # a step answers for products that pack
                    assert step(key) == expected, (v, g, sign)
                    checked.add((g, sign))
        return checked

    def test_key_steps_for_every_index_on_ball_five(self):
        checked = set()
        for v in ball(5):
            checked |= self.assert_key_steps_agree(v)
        assert checked == {(g, sign) for g in self.STEP_INDICES for sign in (1, -1)}

    def test_shift_tables(self):
        assert len(_RAISE) == len(_LOWER) == 256
        for t in range(256):
            assert _RAISE[t] == bytes(min(i + (i >= t), 255) for i in range(256)), t
            assert _LOWER[t] == bytes(i - (i > t) for i in range(256)), t

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(-6, 6).filter(bool)),
                    max_size=30))
    def test_generator_steps_on_drawn_forms(self, tokens):
        word = " ".join(f"x{i}^{e}" for i, e in tokens)
        self.assert_generator_steps_agree(reduce_to_normal_form(parse_word(word)))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, PACKED_MAX - 1), st.sampled_from((1, -1))),
                    max_size=12))
    def test_generator_steps_on_forms_with_large_indices(self, letters):
        # the steps read keys whose bytes are all below PACKED_MAX
        v = reduce_to_normal_form(Word(tuple(Letter(i, sign) for i, sign in letters)))
        if max(v.pos + v.neg, default=0) < PACKED_MAX and len(v.pos) < PACKED_MAX:
            self.assert_generator_steps_agree(v)
            self.assert_key_steps_agree(v)


class TestPackedKeys:
    def test_unpack_inverts_pack_on_ball_eight(self):
        for v in ball(8):
            key = pack(v)
            assert key == bytes((len(v.pos),)) + bytes(v.pos) + bytes(v.neg)
            assert unpack(key) == v and type(unpack(key)) is NormalForm

    @pytest.mark.parametrize("v", [
        NormalForm((PACKED_MAX + 1,), ()),
        NormalForm((), (300,)),
        NormalForm((1, 300), (2,)),
        NormalForm((0,) * (PACKED_MAX + 1), ()),
        NormalForm((), (0,) * (PACKED_MAX + 1)),
    ])
    def test_forms_past_a_byte_do_not_pack(self, v):
        assert pack(v) is None

    def test_forms_at_the_bound_pack(self):
        for v in (NormalForm((PACKED_MAX,), (PACKED_MAX - 1,)), NormalForm((0,) * PACKED_MAX, ())):
            assert unpack(pack(v)) == v

    def test_class_values_read_keys_with_the_longest_neg(self):
        # the class rule lands x1 past every neg entry below it, at len(neg) + 1
        forms = [
            NormalForm((), (0,) * PACKED_MAX),
            NormalForm((PACKED_MAX,), (0,) * PACKED_MAX),
            NormalForm((0,), (0,) * (PACKED_MAX - 1) + (1,)),
            NormalForm((), tuple(range(PACKED_MAX))),
        ]
        keys = [pack(v) for v in forms]
        assert [len(key) for key in keys] == [len(v.pos) + PACKED_MAX + 1 for v in forms]
        assert [unpack(key) for key in keys] == forms
        assert list(class_values(map(key_halves, keys))) == [class_of(v).value for v in forms]
