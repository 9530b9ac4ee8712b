import random

import pytest

from conftest import random_normal_form, random_word, small_normal_forms
from thompsonf.classify import check_closures
from thompsonf.diagrams import diagram_to_nf, nf_to_diagram
from thompsonf.folner import _ball_members, ball, translate_set
from thompsonf.words import (
    IDENTITY,
    Letter,
    NormalForm,
    ParseError,
    Word,
    format_word,
    from_standard_word,
    nf_invert,
    nf_multiply,
    parse_word,
    reduce_to_normal_form,
    reduce_word_by_rewriting,
    to_standard_word,
)


def nf(text):
    return reduce_to_normal_form(parse_word(text))


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


class TestCheckedOnce:
    """Normal forms are checked where they enter, by the public constructor;
    the arithmetic builds its results unchecked, and the tests re-check them."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = NormalForm.__post_init__

        def counting(self):
            calls.append(1)
            check(self)

        monkeypatch.setattr(NormalForm, "__post_init__", counting)
        return calls

    def test_arithmetic_checks_nothing(self, checks):
        a, b = nf("x0^3 x2 x1^-1"), nf("x1^2 x0^-1 x3^-1")
        _ball_members.cache_clear()
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
