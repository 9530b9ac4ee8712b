import copy
import pickle
import random

import pytest

from conftest import random_normal_form, small_normal_forms
from thompsonf import classify
from thompsonf.classify import (
    ClassLabel,
    DivisorSet,
    check_closures,
    check_partition,
    class_of,
    class_values,
    right_divisors,
)
from thompsonf.diagrams import InvariantViolation, epsilon, nf_to_diagram, right_divisible
from thompsonf.folner import ball
from thompsonf.words import key_halves, nf_multiply, pack, parse_word, reduce_to_normal_form


def nf(text):
    return reduce_to_normal_form(parse_word(text))


def diagram(text):
    return nf_to_diagram(nf(text))


# the worked examples, one list per class
WORKED_EXAMPLES = {
    ClassLabel.M1: ["e", "x2", "x1 x2^-1"],
    ClassLabel.M2: ["x0^-1", "x0 x1 x0^-1", "x2 x1^-1 x0^-1"],
    ClassLabel.M3: ["x0", "x0 x3^-1", "x0^3 x2^-1"],
    ClassLabel.M4: ["x1^-1", "x0 x1^-2", "x3 x4 x1^-1"],
    ClassLabel.M5: ["x1", "x0 x1", "x1^2 x4^-1"],
    ClassLabel.M6: ["x2^-1 x0^-1", "x1 x4^-1 x0^-3", "x1 x5 x3^-2 x0^-2"],
    ClassLabel.M7: ["x2 x0^-1", "x0 x1 x2 x0^-1", "x1 x3 x0^-2"],
}


class TestDivisorSet:
    def test_legal_sets_map_to_labels(self):
        assert DivisorSet(False, False, False, False).label() is ClassLabel.M1
        assert DivisorSet(False, True, False, True).label() is ClassLabel.M6
        assert DivisorSet(False, True, True, False).label() is ClassLabel.M7

    def test_illegal_sets_rejected(self):
        with pytest.raises(InvariantViolation):
            DivisorSet(True, True, False, False)
        with pytest.raises(InvariantViolation):
            DivisorSet(False, False, True, True)

    def test_member_names(self):
        assert DivisorSet(False, True, True, False).members() == ("X0^-1", "X1")

    def test_value_semantics(self):
        a, b = DivisorSet(False, True, False, True), right_divisors(nf("x2^-1 x0^-1"))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != DivisorSet(False, True, True, False)
        for other in (a.flags(), ClassLabel.M6, "M6", None):
            assert a != other and not a == other
        assert repr(DivisorSet(False, True, False, False)) == (
            "DivisorSet(x0=False, x0_inv=True, x1=False, x1_inv=False)"
        )

    def test_flags_are_the_fields_in_order(self):
        # (X0, X0^-1, X1, X1^-1)
        assert DivisorSet(False, True, True, False).flags() == (False, True, True, False)
        assert right_divisors(nf("x0")).flags() == (True, False, False, False)

    @pytest.mark.parametrize("count", [3, 5])
    def test_takes_exactly_four_values(self, count):
        with pytest.raises(TypeError, match=f"DivisorSet takes 4 values, got {count}"):
            DivisorSet(*[False] * count)

    def test_copy_and_pickle_round_trip(self):
        d = DivisorSet(False, True, False, True)
        for y in [copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))]:
            assert type(y) is DivisorSet and y == d and hash(y) == hash(d)

    def test_fields_are_read_only(self):
        d = DivisorSet(False, False, False, False)
        with pytest.raises(AttributeError):
            d.x0 = True
        with pytest.raises(AttributeError):
            del d.x1_inv
        assert d.label() is ClassLabel.M1


class TestRightDivisible:
    def test_x0_divides_its_own_diagram(self):
        assert right_divisible(diagram("x0"), 0, 1)

    def test_identity_has_no_divisors(self):
        for i in range(4):
            for s in (1, -1):
                assert not right_divisible(epsilon(1), i, s)

    def test_m7_example_both_divisors(self):
        d = diagram("x2 x0^-1")
        assert right_divisible(d, 1, 1)
        assert right_divisible(d, 0, -1)

    def test_divisor_indices_beyond_zero_one(self):
        assert right_divisible(diagram("x2"), 2, 1)
        assert not right_divisible(diagram("x2"), 3, 1)

    def test_fast_criterion_matches_oracle_on_ball(self):
        # the normal-form length-drop flags agree exactly with the literal
        # diagram oracle on ball(8)
        for g in ball(8):
            d = nf_to_diagram(g)
            oracle = tuple(
                right_divisible(d, i, s) for i in (0, 1) for s in (1, -1)
            )
            assert right_divisors(g).flags() == oracle

    def test_fast_criterion_matches_oracle_random(self):
        # the length-drop criterion holds for every index, not only for the
        # two that classification probes
        rng = random.Random(83)
        probes = {(i, s): nf(f"x{i}^{-s}") for i in (0, 1, 2, 3) for s in (1, -1)}
        for _ in range(10_000):
            g = random_normal_form(rng, max_len=20)
            d = nf_to_diagram(g)
            oracle = {key: right_divisible(d, *key) for key in probes}
            assert right_divisors(g).flags() == tuple(
                oracle[i, s] for i in (0, 1) for s in (1, -1)
            )
            shorter = len(g.pos) + len(g.neg) - 1
            for key, probe in probes.items():
                h = nf_multiply(g, probe)
                assert (len(h.pos) + len(h.neg) == shorter) == oracle[key]


# g x_i^-s for the flags (X0, X0^-1, X1, X1^-1) in order
MIRRORED_PROBES = (nf("x0^-1"), nf("x0"), nf("x1^-1"), nf("x1"))


def length_drop_flags(g):
    """Divisor flags by definition on normal forms: X_i^s divides g when
    g x_i^-s has one letter fewer than g."""
    shorter = len(g.pos) + len(g.neg) - 1
    return tuple(
        len(h.pos) + len(h.neg) == shorter
        for h in (nf_multiply(g, probe) for probe in MIRRORED_PROBES)
    )


class TestDirectRule:
    """The one-pass rule on pos/neg against the length-drop definition."""

    def test_matches_length_drop_on_ball(self):
        elements = list(ball(10))
        assert len(elements) == 88253
        for g in elements:
            assert right_divisors(g).flags() == length_drop_flags(g), g

    def test_matches_length_drop_on_small_normal_forms(self):
        count = 0
        for g in small_normal_forms():
            assert right_divisors(g).flags() == length_drop_flags(g), g
            count += 1
        assert count == 60179


class TestClassification:
    def test_divisor_set_examples(self):
        assert right_divisors(nf("x1 x2^-1")).members() == ()
        assert right_divisors(nf("x0 x1 x0^-1")).members() == ("X0^-1",)
        assert right_divisors(nf("x1 x5 x3^-2 x0^-2")).members() == (
            "X0^-1",
            "X1^-1",
        )

    def test_class_of_examples(self):
        assert class_of(nf("e")) is ClassLabel.M1
        assert class_of(nf("x0^3 x2^-1")) is ClassLabel.M3
        assert class_of(nf("x1 x4^-1 x0^-3")) is ClassLabel.M6

    @pytest.mark.parametrize(
        "label, text",
        [(label, text) for label, texts in WORKED_EXAMPLES.items() for text in texts],
    )
    def test_all_worked_examples(self, label, text):
        assert class_of(nf(text)) is label

    def test_class_invariant_under_spelling(self):
        rng = random.Random(89)
        for _ in range(200):
            g = random_normal_form(rng, max_len=12)
            letters = list(g.word().letters)
            spot = rng.randint(0, len(letters))
            idx = rng.randint(0, 8)
            from thompsonf.words import Letter, Word, reduce_to_normal_form as red

            letters[spot:spot] = [Letter(idx, 1), Letter(idx, -1)]
            assert class_of(red(Word(tuple(letters)))) is class_of(g)

    def test_class_of_builds_no_divisor_set(self, monkeypatch):
        built = []
        post_init = DivisorSet.__post_init__
        monkeypatch.setattr(DivisorSet, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        assert check_closures(ball(7)) == []
        assert built == []
        # an inadmissible set still raises, through the public value type
        monkeypatch.setattr(classify, "_divisor_flags", lambda g: (True,) * 4)
        with pytest.raises(InvariantViolation,
                           match="is not one of the seven admissible sets"):
            class_of(nf("x0"))
        assert len(built) == 1

    def test_class_values_read_forms_and_packed_halves(self, monkeypatch):
        elements = list(ball(6))
        expected = bytes(class_of(v).value for v in elements)
        assert class_values(elements) == expected
        assert class_values(key_halves(pack(v)) for v in elements) == expected
        monkeypatch.setattr(classify, "_divisor_flags", lambda g: (True,) * 4)
        for halves in ([nf("x0")], [key_halves(pack(nf("x0")))]):
            with pytest.raises(InvariantViolation,
                               match="is not one of the seven admissible sets"):
                class_values(halves)

    def test_x0_divisor_is_exclusive(self):
        # whenever X0 divides, nothing else from the candidate set does
        rng = random.Random(97)
        for _ in range(500):
            ds = right_divisors(random_normal_form(rng, max_len=14))
            if ds.x0:
                assert ds.members() == ("X0",)


class TestChecks:
    def test_partition_on_ball(self):
        assert check_partition(ball(6)) == []

    def test_partition_on_identity(self):
        assert check_partition([nf("e")]) == []

    def test_partition_on_worked_examples(self):
        elements = [nf(t) for texts in WORKED_EXAMPLES.values() for t in texts]
        assert check_partition(elements) == []

    def test_closures_on_ball(self):
        assert check_closures(ball(6)) == []

    def test_closure_spot_checks(self):
        assert class_of(nf_multiply(nf("x2 x0^-1"), nf("x0^-1"))) is ClassLabel.M2
        assert class_of(nf_multiply(nf("x0^3 x2^-1"), nf("x1^-1"))) is ClassLabel.M4

    def test_closures_on_random_elements(self):
        rng = random.Random(103)
        sample = [random_normal_form(rng, max_len=16) for _ in range(300)]
        assert check_closures(sample) == []

    def test_violations_come_in_element_then_rule_order(self, monkeypatch):
        # planted violations on a shuffled ball(3), which holds elements
        # whose strings are prefixes of others' ("x0", "x0 x1")
        elements = list(ball(3))
        random.Random(191).shuffle(elements)

        def fake_class(g):
            return (ClassLabel.M3, ClassLabel.M7)[len(str(g)) % 2]

        monkeypatch.setattr(classify, "class_of", fake_class)
        expected = []
        for g in sorted(elements, key=str):
            cls = fake_class(g)
            for name, sources, factor, want in classify._CLOSURE_RULES:
                got = fake_class(nf_multiply(g, factor))
                if cls in sources and got is not want:
                    expected.append(f"{g}: rule {name} failed, element is {cls} "
                                    f"but the product landed in {got}")
        assert len(expected) > len(elements)
        assert check_closures(elements) == expected

        monkeypatch.setattr(classify, "_divisor_flags", lambda g: (True,) * 4)
        assert check_partition(elements) == [
            f"{g}: divisor set {{X0, X0^-1, X1, X1^-1}} is not admissible"
            for g in sorted(elements, key=str)
        ]
