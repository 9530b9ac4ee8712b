"""Classification of group elements by atomic right divisors.

A canonical diagram is right divisible by an atomic diagram X when it
factors as some diagram followed by X; equivalently, multiplying by the
mirror of X cancels a cell.  Restricted to the four candidates X0, X0^-1,
X1, X1^-1, exactly seven divisor sets occur, which partitions the group
into classes M1 ... M7:

    M1  {}            M2  {X0^-1}        M3  {X0}          M4  {X1^-1}
    M5  {X1}          M6  {X0^-1, X1^-1}                   M7  {X0^-1, X1}

The cells of a canonical diagram are in bijection with the letters of
its normal form, so X_i^s divides g exactly when the normal form of
g x_i^-s is one letter shorter than that of g.  `_divisor_flags` reads
that off the normal form x_{i_1}..x_{i_s} x_{j_t}^-1..x_{j_1}^-1 of g
(pos = i's, neg = j's, both ascending) in one pass, with no product:

    X0^-1  divides iff neg starts with 0;
    X1^-1  divides iff k is in neg;
    X0     divides iff 0 is in pos and 1 is in neither pos nor neg;
    X1     divides iff k is in pos and k+1 is in neither pos nor neg;

where k is the index with which a right factor x1 lands in neg
(`words._landing`: it starts at 1 and grows by one per leading j of neg
below it; x0 lands with index 0 at once).  A right factor x1 cancels,
dropping a letter, exactly when neg holds k (`words._times_positive`);
x1^-1 drops one exactly when k is in pos and k+1 in neither half
(`words._times_negative`); otherwise each adds a letter.  Likewise for
x0 and x0^-1 with 0 in place of k.  The rule only tests membership and
slices, so it reads the bytes halves of a packed key (`words.pack`) as it
reads tuples, and `class_values` classifies a ball without unpacking it.

`diagrams.right_divisible` applies the definition literally to a
diagram and is the oracle this rule is tested against.

`check_partition` and `check_closures` verify, on any finite iterable of
normal forms, that no other divisor set occurs and that right
multiplication by the generators moves the classes the way it should;
only `check_closures` makes products.  They are the oracles of the check
verbs' passes over a graph (`folner.partition_violations`,
`folner.closure_violations`): the passes decide, and when a check fails
the oracles write the lines.
"""

from __future__ import annotations

import enum
from itertools import compress
from operator import itemgetter
from typing import Iterable, NoReturn

from .words import GENERATORS, InvariantViolation, NormalForm, _Value, nf_multiply


class ClassLabel(enum.Enum):
    M1 = 1
    M2 = 2
    M3 = 3
    M4 = 4
    M5 = 5
    M6 = 6
    M7 = 7

    def __str__(self) -> str:
        return self.name


_LABELS = (None, *ClassLabel)  # by value, faster than calling ClassLabel
_DIVISOR_NAMES = ("X0", "X0^-1", "X1", "X1^-1")


class DivisorSet(_Value):
    """Membership flags of X0, X0^-1, X1, X1^-1 among the right divisors.

    Only the seven admissible combinations are constructible; anything
    else raises InvariantViolation, since it can never legitimately occur.
    """

    __slots__ = ("x0", "x0_inv", "x1", "x1_inv")

    def __post_init__(self) -> None:
        if self.flags() not in _CLASS_VALUES:
            raise InvariantViolation(
                f"divisor set {{{', '.join(self.members())}}} is not one of "
                f"the seven admissible sets"
            )

    flags = _Value._fields  # (X0, X0^-1, X1, X1^-1)

    def members(self) -> tuple[str, ...]:
        return tuple(compress(_DIVISOR_NAMES, self.flags()))

    def label(self) -> ClassLabel:
        return _LABELS[_CLASS_VALUES[self.flags()]]


class _ClassValues(dict):
    """Divisor flags to class value; a missing key is an inadmissible set,
    and DivisorSet raises the InvariantViolation that names it."""

    def __missing__(self, flags: tuple[bool, bool, bool, bool]) -> NoReturn:
        DivisorSet(*flags)


# the flags (X0, X0^-1, X1, X1^-1) of the seven admissible sets to class values
_CLASS_VALUES = _ClassValues({
    (False, False, False, False): 1,
    (False, True, False, False): 2,
    (True, False, False, False): 3,
    (False, False, False, True): 4,
    (False, False, True, False): 5,
    (False, True, False, True): 6,
    (False, True, True, False): 7,
})


_X0, _X0_INV, _X1, _X1_INV = GENERATORS


def _divisor_flags(g: NormalForm) -> tuple[bool, bool, bool, bool]:
    """Flags ordered (X0, X0^-1, X1, X1^-1), by the rule in the module
    docstring; `g` may also be the (pos, neg) bytes halves of a packed key."""
    pos, neg = g
    k = 1  # where x1 lands: `words._landing(neg, 1)[1]`, inlined
    for j in neg:
        if j >= k:
            break
        k += 1
    return (0 in pos and 1 not in pos and 1 not in neg,
            0 in neg[:1],
            k in pos and k + 1 not in pos and k + 1 not in neg,
            k in neg)


def right_divisors(g: NormalForm) -> DivisorSet:
    """Right divisor set among {X0, X0^-1, X1, X1^-1}."""
    return DivisorSet(*_divisor_flags(g))


def class_of(g: NormalForm) -> ClassLabel:
    """The class M1 ... M7 of a group element."""
    return _LABELS[_CLASS_VALUES[_divisor_flags(g)]]


def class_values(halves: Iterable[tuple]) -> bytes:
    """The value of `class_of` for every (pos, neg) pair, normal forms or
    packed-key halves alike, in one pass; an inadmissible divisor set
    raises, as in `class_of`."""
    return bytes(map(_CLASS_VALUES.__getitem__, map(_divisor_flags, halves)))


# (name, applies-to classes, right factor, expected class)
_CLOSURE_RULES = (
    ("(M1|M3|M4|M5)*x0 in M3",
     {ClassLabel.M1, ClassLabel.M3, ClassLabel.M4, ClassLabel.M5},
     _X0, ClassLabel.M3),
    ("(M2|M7)*x1 in M7", {ClassLabel.M2, ClassLabel.M7}, _X1, ClassLabel.M7),
    ("M7*x0^-1 in M2", {ClassLabel.M7}, _X0_INV, ClassLabel.M2),
    ("M3*x1^-1 in M4", {ClassLabel.M3}, _X1_INV, ClassLabel.M4),
)


def check_closures(elements: Iterable[NormalForm]) -> list[str]:
    """Check the four class-closure inclusions on every element.

    Returns the violation descriptions ordered by formatted element, and
    for one element in rule order; an empty list means every inclusion
    held.
    """
    violations: list[tuple[str, str]] = []
    for g in elements:
        cls = class_of(g)
        for rule_name, sources, factor, expected in _CLOSURE_RULES:
            if cls not in sources:
                continue
            got = class_of(nf_multiply(g, factor))
            if got is not expected:
                violations.append((str(g), f"{g}: rule {rule_name} failed, element is "
                                           f"{cls} but the product landed in {got}"))
    return [line for _, line in sorted(violations, key=itemgetter(0))]


def check_partition(elements: Iterable[NormalForm]) -> list[str]:
    """Check that every element's divisor set is one of the seven
    admissible values.  Returns violation descriptions ordered by
    formatted element, expected empty."""
    violations: list[tuple[str, str]] = []
    for g in elements:
        flags = _divisor_flags(g)
        if flags not in _CLASS_VALUES:
            found = ", ".join(compress(_DIVISOR_NAMES, flags))
            violations.append((str(g), f"{g}: divisor set {{{found}}} is not admissible"))
    return [line for _, line in sorted(violations, key=itemgetter(0))]
