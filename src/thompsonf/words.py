"""Words and normal forms in Thompson's group F.

The group is generated by x0, x1, x2, ... subject to the relations
x_j x_i = x_i x_{j+1} for all i < j.  Every element has a unique normal
form

    x_{i_1} ... x_{i_s} x_{j_t}^-1 ... x_{j_1}^-1

in which the i's and the j's are non-decreasing and, whenever some x_i
and x_i^-1 both occur, x_{i+1} or x_{i+1}^-1 occurs as well.  This module
parses and prints words, reduces arbitrary words to normal form, and
implements exact multiplication, inversion, and the change of alphabet
between the infinite generating set and the standard pair {x0, x1}.

Normal forms are reached by orienting the relations into rewriting rules
(i < j throughout):

    x_j x_i        ->  x_i x_{j+1}
    x_i^-1 x_j^-1  ->  x_{j+1}^-1 x_i^-1
    x_i^-1 x_j     ->  x_{j+1} x_i^-1
    x_j^-1 x_i     ->  x_i x_{j+1}^-1
    x_i x_i^-1     ->  empty            (likewise x_i^-1 x_i)

together with a shift rule: a factor x_i w x_i^-1 in which every letter
of w has index >= i+2 rewrites to w with all indices decremented by one.
The system is confluent (certified by tests), so the rewriting order does
not matter.  `reduce_to_normal_form` folds letters into a normal form
incrementally; `reduce_word_by_rewriting` applies the literal rules one
redex at a time under a selectable strategy and exists so the two orders
can be compared.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    """Raised when a word or diagram string does not match its grammar."""


class InvariantViolation(RuntimeError):
    """An internal structural invariant failed; this always signals a bug."""


class Letter(NamedTuple):
    """One signed generator occurrence x_index^sign with sign in {+1, -1}."""

    index: int
    sign: int


@dataclass(frozen=True)
class Word:
    """A finite sequence of letters; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if type(self.letters) is not tuple:
            raise TypeError(f"letters must be a tuple, got {type(self.letters).__name__}")
        for lt in self.letters:
            if type(lt) is not Letter or not (type(lt.index) is type(lt.sign) is int):
                raise TypeError(f"letters must be Letters of two ints, got {lt!r}")
            if lt.index < 0:
                raise ValueError(f"negative generator index in {lt}")
            if lt.sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {lt.sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True, slots=True)
class NormalForm:
    """The unique normal form of a group element.

    `pos` holds the indices i_1 <= ... <= i_s of the positive letters and
    `neg` the indices j_1 <= ... <= j_t of the negative letters, denoting
    x_{i_1}...x_{i_s} x_{j_t}^-1 ... x_{j_1}^-1.
    """

    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for half, name in ((self.pos, "pos"), (self.neg, "neg")):
            if type(half) is not tuple:
                raise TypeError(f"{name} must be a tuple, got {type(half).__name__}")
            last = 0
            for i in half:
                if type(i) is not int:
                    raise TypeError(f"{name} entries must be int, got {type(i).__name__}")
                if i < 0:
                    raise ValueError(f"negative index {i} in {name}")
                if i < last:
                    raise ValueError(f"{name} indices must be non-decreasing")
                last = i
        ps, ns = set(self.pos), set(self.neg)
        for i in ps & ns:
            if i + 1 not in ps and i + 1 not in ns:
                raise ValueError(
                    f"x{i} and x{i}^-1 both occur but neither x{i + 1} nor "
                    f"x{i + 1}^-1 does"
                )

    def word(self) -> Word:
        letters = tuple(Letter(i, 1) for i in self.pos) + tuple(
            Letter(j, -1) for j in reversed(self.neg)
        )
        return Word(letters)

    def inverse(self) -> "NormalForm":
        return nf_invert(self)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return nf_multiply(self, other)

    def __str__(self) -> str:
        return format_word([(i, 1) for i in self.pos] + [(j, -1) for j in reversed(self.neg)])


def _trusted(pos: tuple, neg: tuple) -> NormalForm:
    """A normal form that this module's arithmetic built from checked ones;
    set without `__init__`, so it is not checked again."""
    nf = object.__new__(NormalForm)
    object.__setattr__(nf, "pos", pos)
    object.__setattr__(nf, "neg", neg)
    return nf


IDENTITY = NormalForm()

# right-multiplication alphabet, in fixed BFS order; GENERATORS[k ^ 1] is
# the inverse of GENERATORS[k]
GENERATORS: tuple[NormalForm, ...] = (
    NormalForm((0,), ()),
    NormalForm((), (0,)),
    NormalForm((1,), ()),
    NormalForm((), (1,)),
)

_TOKEN_RE = re.compile(r"x(\d+)(?:\^(-?)(\d+))?\Z")

# Longest word parse_word expands.  Reduction is quadratic: on a 2-CPU box,
# x0^10000 takes 0.15 s, and x0^-5000 x1^5000 0.85 s, as each x1 walks the
# 5,000 leading x0^-1 in `_landing`.
MAX_WORD_LETTERS = 10_000
# Largest generator index parse_word accepts; a diagram of x_n has forests
# n + 2 leaves wide, so the cap also bounds what `diagram` prints.
MAX_GENERATOR_INDEX = 10_000


def _capped(digits: str, cap: int) -> int | None:
    """The value of `digits`, or None when it exceeds `cap`.  The digits
    before the last len(str(cap)) are read one at a time and must all be
    zeros: `int` refuses over 4300 digits with a message naming no token."""
    width = len(str(cap))
    if any(map(int, digits[:-width])):
        return None
    value = int(digits[-width:])
    return value if value <= cap else None


def parse_word(text: str) -> Word:
    """Parse whitespace-separated tokens `x<digits>` with optional
    `^<nonzero integer>` exponent; `e` or the empty string is the identity.

    Exponents expand into repeated letters, so `x0^-2` gives two copies of
    x0^-1.  Raises ParseError naming the offending token and its position,
    also when an index exceeds MAX_GENERATOR_INDEX or the word would
    exceed MAX_WORD_LETTERS letters.
    """
    stripped = text.strip()
    if stripped in ("", "e"):
        return Word(())
    letters: list[Letter] = []
    for position, token in enumerate(stripped.split(), start=1):
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ParseError(f"malformed token {token!r} at position {position}")
        index = _capped(m.group(1), MAX_GENERATOR_INDEX)
        if index is None:
            raise ParseError(
                f"generator index in token {token!r} at position {position} "
                f"exceeds {MAX_GENERATOR_INDEX}"
            )
        count = 1 if m.group(3) is None else _capped(m.group(3), MAX_WORD_LETTERS)
        if count == 0:
            raise ParseError(f"zero exponent in token {token!r} at position {position}")
        if count is None or len(letters) + count > MAX_WORD_LETTERS:
            raise ParseError(
                f"token {token!r} at position {position} makes the word longer "
                f"than {MAX_WORD_LETTERS} letters"
            )
        letters.extend([Letter(index, -1 if m.group(2) else 1)] * count)
    return Word(tuple(letters))


def format_word(letters: Iterable[tuple[int, int]]) -> str:
    """Canonical formatting of a Word or any (index, sign) pairs: runs of
    the same letter collapse into exponent notation, tokens are
    single-space separated, and the identity is "e"."""
    parts = []
    for (index, sign), run in groupby(letters):
        exponent = sign * len(list(run))
        parts.append(f"x{index}" if exponent == 1 else f"x{index}^{exponent}")
    return " ".join(parts) or "e"


# -- incremental reduction ---------------------------------------------------
#
# One letter times a normal form is normal again after one local step, as
# the docstrings below prove.  So results return through `_trusted`: only
# the public constructors check, where forms enter, and the tests re-check
# results.  A pair is an index in both halves, and its witness is the next
# index, in either half.  The steps run on every BFS edge, so they stay lean.


def _landing(neg: tuple, g: int) -> tuple[int, int]:
    """Where a right factor x_g^{+-1} lands in neg: (k, g').  It passes the
    k leading j of neg below its current index, which grows by one per j
    (x_j^-1 x_g^{+-1} -> x_{g+1}^{+-1} x_j^-1), so g' = g + k.  Each neg[m]
    passed is below g + m <= g'-1: nothing in neg lies at g'-1, and
    neg[k:] lies at g' or above."""
    for k, j in enumerate(neg):
        if j >= g + k:
            return k, g + k
    return len(neg), g + len(neg)


def _times_positive(pos: tuple, neg: tuple, g: int) -> tuple[tuple, tuple]:
    """Right-multiply by x_g: x_{g'} cancels against neg[k] == g', or else
    enters pos, passing every index above g', which grows by one
    (x_j^{+-1} x_{g'} -> x_{g'} x_{j+1}^{+-1}, j > g').  Neither needs more
    rewriting.  A cancel can take a witness only from g'-1, which is in no
    pair.  After an entry neg holds nothing at g'-1, g' or g'+1, so x_{g'}
    is in no pair, and the indices above g' moved up together."""
    k, g = _landing(neg, g)
    if neg[k : k + 1] == (g,):
        return pos, neg[:k] + neg[k + 1 :]
    at = bisect_right(pos, g)
    return (pos[:at] + (g,) + tuple(p + 1 for p in pos[at:]),
            neg[:k] + tuple(j + 1 for j in neg[k:]))


def _times_negative(pos: tuple, neg: tuple, g: int) -> tuple[tuple, tuple]:
    """Right-multiply by x_g^-1: x_{g'}^-1 enters neg at k, which leaves
    every index but g' with its witness.  When g' is in pos and g'+1 in
    neither half, g' is a pair with no witness instead (neg held no g',
    as the form was normal), and every letter between the last x_{g'} and
    the new x_{g'}^-1 is >= g'+2: the shift rule drops the two and lowers
    each index above g' by one.  Then neg holds nothing at g'-1 or g', and
    the indices above g' moved down together, so one round is enough."""
    k, g = _landing(neg, g)
    if g in pos and g + 1 not in pos and g + 1 not in neg:
        at = bisect_right(pos, g)
        return (pos[: at - 1] + tuple(p - 1 for p in pos[at:]),
                neg[:k] + tuple(j - 1 for j in neg[k:]))
    return pos, neg[:k] + (g,) + neg[k:]


def reduce_to_normal_form(w: Word) -> NormalForm:
    """Reduce an arbitrary word to the unique normal form of its element."""
    pos: tuple = ()
    neg: tuple = ()
    for index, sign in w.letters:
        pos, neg = (_times_positive if sign > 0 else _times_negative)(pos, neg, index)
    return _trusted(pos, neg)


def nf_multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Normal form of the product ab."""
    pos, neg = a.pos, a.neg
    for i in b.pos:
        pos, neg = _times_positive(pos, neg, i)
    for j in reversed(b.neg):
        pos, neg = _times_negative(pos, neg, j)
    return _trusted(pos, neg)


def nf_invert(a: NormalForm) -> NormalForm:
    """Normal form of the inverse: swap the positive and negative halves.
    The side condition is symmetric, so no further rewriting is needed."""
    return _trusted(a.neg, a.pos)


# -- literal small-step rewriting --------------------------------------------


STRATEGIES = ("leftmost", "rightmost")


def _adjacent_rewrite(a: Letter, b: Letter) -> tuple[Letter, ...] | None:
    """Replacement for the adjacent pair (a, b), or None if irreducible."""
    if a.index == b.index and a.sign == -b.sign:
        return ()
    if a.sign > 0 and b.sign > 0 and a.index > b.index:
        return (b, Letter(a.index + 1, 1))
    if a.sign < 0 and b.sign < 0 and a.index < b.index:
        return (Letter(b.index + 1, -1), a)
    if a.sign < 0 and b.sign > 0:
        if a.index < b.index:
            return (Letter(b.index + 1, 1), a)
        return (b, Letter(a.index + 1, -1))
    return None


def _seminormalize(letters: list[Letter], leftmost: bool) -> None:
    """Apply the adjacent rules in place until none fires, attacking the
    leftmost or the rightmost redex first."""
    if leftmost:
        k = 0
        while k < len(letters) - 1:
            replacement = _adjacent_rewrite(letters[k], letters[k + 1])
            if replacement is None:
                k += 1
            else:
                letters[k : k + 2] = replacement
                k = max(0, k - 1)
    else:
        k = len(letters) - 2
        while k >= 0:
            replacement = _adjacent_rewrite(letters[k], letters[k + 1])
            if replacement is None:
                k -= 1
            else:
                letters[k : k + 2] = replacement
                k = min(len(letters) - 2, k + 1)


def _find_shift_redex(letters: list[Letter], leftmost: bool):
    """Locate a factor x_i w x_i^-1 with all indices of w >= i+2."""
    order = range(len(letters)) if leftmost else range(len(letters) - 1, -1, -1)
    for k in order:
        index, sign = letters[k]
        if sign < 0:
            continue
        for l in range(k + 1, len(letters)):
            other, other_sign = letters[l]
            if other == index and other_sign < 0:
                return k, l
            if other < index + 2:
                break
    return None


def reduce_word_by_rewriting(w: Word, strategy: str = "leftmost") -> NormalForm:
    """Reduce by applying one rewriting rule at a time.

    `strategy` picks which redex to attack first ("leftmost" or
    "rightmost"); every strategy reaches the same normal form.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    leftmost = strategy == "leftmost"
    letters = list(w.letters)
    while True:
        _seminormalize(letters, leftmost)
        redex = _find_shift_redex(letters, leftmost)
        if redex is None:
            break
        k, l = redex
        letters[k : l + 1] = [Letter(ix - 1, sg) for ix, sg in letters[k + 1 : l]]
    split = len(letters)
    for m, lt in enumerate(letters):
        if lt.sign < 0:
            split = m
            break
    pos = tuple(lt.index for lt in letters[:split])
    neg = tuple(lt.index for lt in reversed(letters[split:]))
    return NormalForm(pos, neg)


# -- standard two-generator alphabet -----------------------------------------


def _standard_letters(n: int, sign: int) -> tuple[Letter, ...]:
    # x_n = x0^-(n-1) x1 x0^(n-1) for n >= 2
    if n <= 1:
        return (Letter(n, sign),)
    wing = n - 1
    return (Letter(0, -1),) * wing + (Letter(1, sign),) + (Letter(0, 1),) * wing


def to_standard_word(a: NormalForm) -> Word:
    """Spell the element over {x0^+-1, x1^+-1} only, freely reducing
    adjacent inverse pairs.  The output is not claimed geodesic."""
    out: list[Letter] = []
    for lt in a.word():
        for std in _standard_letters(lt.index, lt.sign):
            if out and out[-1].index == std.index and out[-1].sign == -std.sign:
                out.pop()
            else:
                out.append(std)
    return Word(tuple(out))


def from_standard_word(w: Word) -> NormalForm:
    """Normal form of a word over the standard alphabet {x0^+-1, x1^+-1}."""
    for lt in w.letters:
        if lt.index > 1:
            raise ValueError(
                f"letter x{lt.index} is not in the standard alphabet {{x0, x1}}"
            )
    return reduce_to_normal_form(w)
