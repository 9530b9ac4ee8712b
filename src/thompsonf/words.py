"""Words and normal forms in Thompson's group F.

The group is generated by x0, x1, x2, ... subject to the relations
x_j x_i = x_i x_{j+1} for all i < j.  Every element has a unique normal
form

    x_{i_1} ... x_{i_s} x_{j_t}^-1 ... x_{j_1}^-1

in which the i's and the j's are non-decreasing and, whenever some x_i
and x_i^-1 both occur, x_{i+1} or x_{i+1}^-1 occurs as well.  This module
parses and prints words, reduces arbitrary words to normal form, and
implements exact multiplication, inversion, and the change of alphabet
between the infinite generating set and the standard pair {x0, x1}.  It
also packs normal forms into bytes keys, on which the Cayley-graph BFS
takes its letter steps.

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
not matter.  `reduce_to_normal_form` folds a word's letters into a normal
form one at a time, and `nf_multiply` folds a long right factor's letters
onto the left factor the same way: on a vector that counts each index of
the positive half and bytes that count the negative half's entries below
each index, or on the tuple steps when the negative half could outgrow a
byte or the indices spread too wide for vectors.
The literal rules, applied one redex at a time, are the test oracle in
`thompsonf.rewriting`, which no CLI verb loads.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, groupby, repeat
from operator import countOf, itemgetter, sub
from typing import Iterable, NamedTuple, Sequence


class ParseError(ValueError):
    """Raised when a word or diagram string does not match its grammar."""


class InvariantViolation(RuntimeError):
    """An internal structural invariant failed; this always signals a bug."""


class Letter(NamedTuple):
    """One signed generator occurrence x_index^sign with sign in {+1, -1}."""

    index: int
    sign: int


class _Value:
    """Base of the small read-only value types.  Its constructor takes one
    positional value per `__slots__` field and runs `__post_init__`;
    equality, hash and repr run over the fields, as a frozen dataclass's do."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # a subclass that adds no field, as CanonicalDiagram, keeps its parent's
        cls._names = cls.__slots__ or cls._names

    def __init__(self, *values) -> None:
        if len(values) != len(self._names):
            raise TypeError(f"{type(self).__name__} takes {len(self._names)} values, "
                            f"got {len(values)}")
        for name, value in zip(self._names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self._names))

    def __eq__(self, other: object) -> bool:
        # CanonicalDiagram == Diagram is NotImplemented here; Python then asks Diagram
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._names, self._fields())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object = None) -> None:
        # so __init__ sets the fields through object.__setattr__
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Word(_Value):
    """A finite sequence of letters; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()) -> None:
        super().__init__(letters)

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


class NormalForm(tuple):
    """The unique normal form of a group element.

    `pos` holds the indices i_1 <= ... <= i_s of the positive letters and
    `neg` the indices j_1 <= ... <= j_t of the negative letters, denoting
    x_{i_1}...x_{i_s} x_{j_t}^-1 ... x_{j_1}^-1.

    A normal form is the immutable tuple `(pos, neg)`, so hashing and
    equality are tuple's.  Two consequences: a form equals the plain pair
    `(pos, neg)` and hashes like it, and forms order like tuples (by
    `pos`, then `neg`), an order with no meaning in the group.  It never
    equals a `Word` or a `str`.  `NormalForm(pos, neg)` checks both halves
    in `__init__`; the arithmetic below builds its results through
    `_trusted`, which skips `__init__`.
    """

    __slots__ = ()

    pos = property(itemgetter(0), doc="indices of the positive letters")
    neg = property(itemgetter(1), doc="indices of the negative letters")

    def __new__(cls, pos: tuple[int, ...] = (), neg: tuple[int, ...] = ()) -> "NormalForm":
        return tuple.__new__(cls, (pos, neg))

    def __init__(self, pos: tuple[int, ...] = (), neg: tuple[int, ...] = ()) -> None:
        for half, name in ((pos, "pos"), (neg, "neg")):
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
        ps, ns = set(pos), set(neg)
        for i in ps & ns:
            if i + 1 not in ps and i + 1 not in ns:
                raise ValueError(
                    f"x{i} and x{i}^-1 both occur but neither x{i + 1} nor "
                    f"x{i + 1}^-1 does"
                )

    def __getnewargs__(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # copy and pickle rebuild through __new__(cls, *args); tuple's own
        # __getnewargs__ would pass the pair as `pos`
        return tuple(self)

    def __repr__(self) -> str:
        return f"NormalForm(pos={self[0]!r}, neg={self[1]!r})"

    def word(self) -> Word:
        letters = tuple(Letter(i, 1) for i in self.pos) + tuple(
            Letter(j, -1) for j in reversed(self.neg)
        )
        return Word(letters)

    def inverse(self) -> "NormalForm":
        return nf_invert(self)

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        if not isinstance(other, NormalForm):
            raise TypeError(
                f"the group product '*' takes two NormalForms, not NormalForm "
                f"and {type(other).__name__}"
            )
        return nf_multiply(self, other)

    # tuple's concatenation and repetition mean nothing in the group.  These
    # raise rather than return NotImplemented, which would fall back to them.
    def __rmul__(self, other):
        raise TypeError(
            f"the group product '*' takes two NormalForms, not "
            f"{type(other).__name__} and NormalForm"
        )

    def __add__(self, other):
        raise TypeError("NormalForm has no '+': the group product is '*'")

    __radd__ = __add__

    def __str__(self) -> str:
        return format_halves(*self)


def _trusted(pos: tuple, neg: tuple) -> NormalForm:
    """A normal form that this module's arithmetic built from checked ones;
    made without `__init__`, so it is not checked again."""
    return tuple.__new__(NormalForm, (pos, neg))


IDENTITY = NormalForm()

# [0-9], not \d: \d matches every script's digits, and int() reads them all
_TOKEN_RE = re.compile(r"x([0-9]+)(?:\^(-?)([0-9]+))?\Z")

# Longest word parse_word expands.  Reduction, and the product by a right
# factor of more than _SHORT_FACTOR letters, are still quadratic in the
# worst case: on the count vectors each letter may move their tail, in C;
# on the tuple steps, which take each fold whose neg half could pass 255
# entries, each letter rebuilds both halves and a landing may read every
# neg entry.  With Python 3.11.7 on one pinned CPU of a shared 2-CPU box,
# in process, best of 3: x0^100000 reduces in 0.03 s and x_{n-1} ... x0
# in 0.06 s at n = 10,000 and 0.36 s at 30,000 (vectors); x0^-n in 0.16 s
# at n = 10,000 and 1.4-1.5 s at 30,000, x0^-100000 x1^100000 in 32 s,
# x0^-1 ...
# x9999^-1 in 0.16 s, x4999^-1 ... x0^-1 x1^5000 in 0.72 s and x0^-1 ...
# x4999^-1 x0^5000, the slowest measured within the cap, in 0.67-0.72 s
# (tuple steps).  The product of the forms of two 10,000-letter random
# words over x0..x12 (about 4,000 letters each) takes 0.16-0.36 s.
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


def format_halves(pos: tuple | bytes, neg: tuple | bytes) -> str:
    """The formatted normal form with index halves `pos` and `neg`, given
    as tuples or as the bytes halves of a packed key."""
    return format_word([(i, 1) for i in pos] + [(j, -1) for j in reversed(neg)])


# -- incremental reduction ---------------------------------------------------
#
# One letter times a normal form is normal again after one local step, as
# the docstrings below prove.  So results return through `_trusted`: only
# the public constructors check, where forms enter, and the tests re-check
# results.  A pair is an index in both halves, and its witness is the next
# index, in either half.  The tuple steps run in `nf_multiply` for short
# right factors, so they stay lean.  `_fold` takes the same steps on count
# vectors, for `reduce_to_normal_form` and for long right factors, and the
# BFS on packed keys (`GENERATOR_STEPS`); in both, shifting every index
# above the landing point is one C-level operation instead of a rebuilt
# suffix.


def _landing(neg: tuple, g: int) -> tuple[int, int]:
    """Where a right factor x_g^{+-1} lands in neg: (k, g').  It passes the
    k leading j of neg below its current index, which grows by one per j
    (x_j^-1 x_g^{+-1} -> x_{g+1}^{+-1} x_j^-1), so g' = g + k and k is the
    first with neg[k] >= g + k.  Each neg[m] passed is below g + m <= g'-1:
    nothing in neg lies at g'-1, and neg[k:] lies at g' or above.  So g' is
    also the least fixed point of t = g + bisect_left(neg, t), the rule
    `_fold` reads in its bytes; the right side never decreases in t, so
    rounds from t = g reach it, each passing every entry below t in one
    C-level bisection.  Where neg runs through about one value an index,
    rounds crawl by a few entries each; so once a round passes no more
    entries than the rounds before it, the rest is read one entry at a
    time.  A landing then takes at most about sqrt(2 len(neg)) rounds and
    reads each entry at most once."""
    k = rounds = 0
    while (passed := bisect_left(neg, g + k, k) - k) > rounds:
        k += passed
        rounds += 1
    t = g + k
    if passed:
        for j in neg[k:]:
            if j >= t:
                break
            t += 1
    return t - g, t


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
    return (pos[:at] + (g,) + tuple([p + 1 for p in pos[at:]]),
            neg[:k] + tuple([j + 1 for j in neg[k:]]))


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
        return (pos[: at - 1] + tuple([p - 1 for p in pos[at:]]),
                neg[:k] + tuple([j - 1 for j in neg[k:]]))
    return pos, neg[:k] + (g,) + neg[k:]


# right-multiplication alphabet, in fixed BFS order; GENERATORS[k ^ 1] is
# the inverse of GENERATORS[k]
GENERATORS: tuple[NormalForm, ...] = (
    NormalForm((0,), ()),
    NormalForm((), (0,)),
    NormalForm((1,), ()),
    NormalForm((), (1,)),
)


# -- packed keys ---------------------------------------------------------------
#
# A packed key is one bytes object, bytes((len(pos),)) + bytes(pos) +
# bytes(neg): the BFS stores balls as keys, one small hashable object per
# element instead of three tuples.  A form packs when len(pos), len(neg)
# and every index are at most PACKED_MAX: the class rule looks for x1's
# landing point, up to len(neg) + 1, in a key's bytes halves, and a bytes
# membership test raises above 255.  `_key_steps` reads `_times_positive` and
# `_times_negative` (proofs there) on keys: an index shift is one
# `translate` of the key from the first pos byte above the landing point
# t on, and the neg bytes the landing passed lie below t, so the table for
# t keeps them.  A step returns the key of its product whenever that
# product packs, as every product the BFS takes does (the radius bound in
# `folner`).

PACKED_MAX = 254
_BYTE = [bytes((i,)) for i in range(256)]  # one-byte keys parts, built once
_IDENTITY_TABLE = bytes(range(256))
# translate tables: _RAISE[t] raises each byte >= t by one, _LOWER[t] lowers each > t
_RAISE = [_IDENTITY_TABLE[:t] + _IDENTITY_TABLE[t + 1 :] + b"\xff" for t in range(256)]
_LOWER = [_IDENTITY_TABLE[: t + 1] + _IDENTITY_TABLE[t:255] for t in range(256)]


def pack(v: NormalForm) -> bytes | None:
    """The packed key of `v`, or None when it does not pack."""
    pos, neg = v
    if max(len(pos), len(neg), *pos[-1:], *neg[-1:]) > PACKED_MAX:
        return None
    return bytes((len(pos),)) + bytes(pos) + bytes(neg)


def key_halves(key: bytes) -> tuple[bytes, bytes]:
    """The (pos, neg) halves of a packed key, as bytes."""
    p = key[0] + 1
    return key[1:p], key[p:]


def unpack(key: bytes) -> NormalForm:
    """The normal form a packed key holds."""
    return _trusted(*map(tuple, key_halves(key)))


def _key_steps(g: int) -> tuple:
    """The packed steps for the right factors x_g and x_g^-1.  Both walk
    `at` over the neg bytes b[n0:] to neg[k], and t = g + k.  x_t cancels
    against neg[k] == t, or else enters pos after its indices up to t.
    x_t^-1 takes the shift rule when pos holds t and neither half t+1, or
    else enters neg at k."""

    def times_positive(b: bytes) -> bytes:
        at = n0 = b[0] + 1
        end, t = len(b), g
        while at < end and b[at] < t:
            at += 1
            t += 1
        if at < end and b[at] == t:
            return b[:at] + b[at + 1 :]
        q = bisect_right(b, t, 1, n0)
        return _BYTE[n0] + b[1:q] + _BYTE[t] + b[q:].translate(_RAISE[t])

    def times_negative(b: bytes) -> bytes:
        at = n0 = b[0] + 1
        end, t = len(b), g
        while at < end and b[at] < t:
            at += 1
            t += 1
        q = bisect_right(b, t, 1, n0)
        if b[q - 1] == t and q > 1 and b.find(t + 1, 1) < 0:
            return _BYTE[n0 - 2] + b[1 : q - 1] + b[q:].translate(_LOWER[t])
        return b[:at] + _BYTE[t] + b[at:]

    return times_positive, times_negative


# GENERATOR_STEPS[k](key) is the key of v * GENERATORS[k], for the form v
# that `key` holds: the one letter step nf_multiply takes for that right
# factor, on packed keys
GENERATOR_STEPS = (*_key_steps(0), *_key_steps(1))


# Letters fold on count vectors when the index spread of the seed form and
# the letters together is at most this many times the letter count n plus
# the seed form's length m.  A landing reads a byte a round at any spread,
# but every insert, delete and translate moves the vectors' tail.  With
# Python 3.11.7 on one pinned CPU of a shared 2-CPU box, on 40 random words
# of n letters with indices up to s * n, the byte fold took, over the tuple
# steps' time: at n = 16 to 256, 0.29-0.91x at s = 1, 0.31-0.82x at 2,
# 0.37-0.76x at 3, 0.39-1.02x at 4 and 0.56-1.19x at 8; at n = 8, 1.11x,
# 1.14x and 1.21x at s = 1, 2, 3.  So a larger budget is no gain.
_SPREAD_PER_LETTER = 2
# nf_multiply folds a right factor of more than this many letters by
# `_fold`, a shorter one by the tuple steps.  The fold costs a few us more
# to set up (the letter list, the spread, seeding the vectors) and less a
# letter, as the tuple steps rebuild both halves of the growing form.  With
# Python 3.11.7 on one pinned CPU of a shared 2-CPU box, best of 3 x 7 over
# 40 random forms from words over x0..x12, us per product, tuple / fold:
#
#     |b|   |a| = 8    |a| = 20   |a| = 40   |a| = 80    |a| = 150
#      8      8 / 12    10 / 15    14 / 20    20 / 28     28 / 41
#     12     13 / 15    16 / 17    21 / 22    30 / 32     43 / 45
#     14     15 / 16    20 / 20    25 / 25    34 / 31     51 / 45
#     16     18 / 18    22 / 21    28 / 25    37 / 33     56 / 45
#     20     21 / 19    27 / 22    32 / 25    45 / 33     66 / 48
#     24     27 / 22    33 / 26    40 / 30    57 / 37     73 / 47
#     32     35 / 26    42 / 29    52 / 32    71 / 39    109 / 53
#     47     52 / 32    60 / 38    80 / 41   106 / 51    162 / 67
#
# So the fold wins from about 16 letters at every left form size; at
# 150 x 150 letters (the oracle's long jobs) it takes 133 us against 600.
_SHORT_FACTOR = 15


def reduce_to_normal_form(w: Word) -> NormalForm:
    """Reduce an arbitrary word to the unique normal form of its element:
    its letters folded onto the identity by `_fold`."""
    return _fold((), (), w.letters) if w.letters else IDENTITY


def _fold(pos: tuple, neg: tuple, letters: Sequence[tuple[int, int]]) -> NormalForm:
    """The normal form (pos, neg) times the non-empty `letters`, (index,
    sign) pairs folded from the left, each by the step of `_times_positive`
    or `_times_negative`, on positions p that stand for x_{b+p}, where b is
    the smallest index in the form and the letters.  Every relation and the
    shift rule commute with x_i -> x_{i+c}, and no step makes an index
    smaller than the smallest one in its input, so folding with all indices
    lowered by b and raising the result by b gives the same form.

    cp[p] counts the copies of x_{b+p} in pos, and the byte below[p] the neg
    entries at positions < p.  The landing g' of x_g is the least fixed
    point of t = g + below[t] (the k of `_landing` is below[g']); below
    never decreases, so iterating from t = g reaches it, one read a round.
    x_{g'} cancels a neg entry at g' if there is one, or else enters cp[g']
    after a 0 is inserted at g'+1 in both vectors, raising every index
    above g'.  x_{g'}^-1 takes the shift rule when cp[g'] > 0 and position
    g'+1 is empty: one cp[g'] goes and position g'+1 is deleted, lowering
    every index above g'; otherwise it enters neg at g'.  An entry or a
    cancel at g' is one `translate` of the bytes above g'.  Positions from
    `end` - 1 on hold no index, so an insert or delete there is skipped.

    neg never holds more entries than len(neg) plus the inverse letters.
    A landing passes at most that bound's entries, less one for each
    position a shift rule deleted (each spends an inverse letter), so the
    vectors, laid out bound + 1 positions past the largest index, hold
    every read.  The letters fold on them when bytes hold the counts, the
    bound being at most 255, and the index spread of the form and the
    letters together is at most _SPREAD_PER_LETTER times the form's length
    plus the letter count; otherwise they fold on the tuple steps, so
    x0 x1000000000 allocates no billion.
    """
    base, top = min(letters)[0], max(letters)[0]
    end = 0  # the identity seeds empty vectors
    if pos or neg:
        base = min(base, *pos[:1], *neg[:1])
        top = max(top, *pos[-1:], *neg[-1:])
        end = top - base + 2
    bound = len(neg) + countOf(map(itemgetter(1), letters), -1)
    if bound > 255 or top - base > _SPREAD_PER_LETTER * (len(letters) + len(pos) + len(neg)):
        for index, sign in letters:
            pos, neg = (_times_positive if sign > 0 else _times_negative)(pos, neg, index)
        return _trusted(pos, neg)
    cp, below = [0] * (top - base + bound + 2), bytearray(top - base + bound + 3)
    for i in pos:
        cp[i - base] += 1
    for j in neg:
        below[j - base + 1] += 1
    below = bytearray(accumulate(below))
    for index, sign in letters:
        t = g = index - base
        while t != (t := g + below[t]):
            pass
        inner = t + 2 < end
        if not inner:
            end = t + 2
        if sign > 0:
            if below[t + 1] > below[t]:
                below[t + 1 :] = below[t + 1 :].translate(_LOWER[0])
            else:
                if inner:
                    cp.insert(t + 1, 0)
                    below.insert(t + 1, below[t + 1])
                    end += 1
                cp[t] += 1
        elif cp[t] and not cp[t + 1] and below[t + 2] == below[t + 1]:
            cp[t] -= 1
            if inner:
                del cp[t + 1], below[t + 1]
                end -= 1
        else:
            below[t + 1 :] = below[t + 1 :].translate(_RAISE[0])
    return _trusted(_indices(cp, base), _indices([*map(sub, below[1:], below)], base))


def _indices(counts: list, base: int) -> tuple:
    """The sorted indices that a count vector offset by `base` holds."""
    out: list = []
    for p in compress(range(len(counts)), counts):
        out += [p + base] * counts[p]
    return tuple(out)


def nf_multiply(a: NormalForm, b: NormalForm) -> NormalForm:
    """Normal form of the product ab: b's letters, x_i for each i of b.pos
    and then x_j^-1 for each j of b.neg from the last, folded onto a.  A b
    of more than _SHORT_FACTOR letters folds by `_fold`, a shorter one
    (every one-letter product) by the tuple steps."""
    pos, neg = a
    b_pos, b_neg = b
    if len(b_pos) + len(b_neg) > _SHORT_FACTOR:
        return _fold(pos, neg, [*zip(b_pos, repeat(1)), *zip(reversed(b_neg), repeat(-1))])
    for i in b_pos:
        pos, neg = _times_positive(pos, neg, i)
    for j in reversed(b_neg):
        pos, neg = _times_negative(pos, neg, j)
    return _trusted(pos, neg)


def nf_invert(a: NormalForm) -> NormalForm:
    """Normal form of the inverse: swap the positive and negative halves.
    The side condition is symmetric, so no further rewriting is needed."""
    return _trusted(a.neg, a.pos)


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
