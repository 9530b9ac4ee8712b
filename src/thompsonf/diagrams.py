"""Canonical diagrams for Thompson's group F as pairs of binary forests.

A diagram is stored as a pair (top, bottom) of ordered forests of binary
trees with equal leaf counts.  Each forest is its preorder string: a leaf
is ".", a caret is "(" left right ")", and the trees of a forest are
concatenated, so the forest of X_0 is "(..)".  The top forest splits the
top boundary path down to the common interface, the bottom forest
mirrors it back up; every caret is one cell.  A diagram whose top forest
has p roots and bottom forest q roots runs from a path of p edges to one
of q edges.  The text form of a diagram is the two strings joined by "|".

A pair is REDUCED when no interface position carries an exposed caret
(one with two leaf children, the substring "(..)") in both forests; such
a matched pair is a dipole and cancels.  A reduced pair is CANONICAL when
the two forests do not additionally both end in a single-leaf tree (a
final "."); trailing matched edges are trimmed away, with the identity
diagram epsilon(1) as the sole exception.  Canonical diagrams represent
group elements uniquely.

Multiplication pads the narrower boundary with trivial edges, grows the
two forests meeting at the glued path to their least common refinement,
glues, cancels dipoles, and trims.  Products and conversions each read
the forest strings in one left-to-right scan, so their cost is linear
in forest length.

`right_divisible` applies the definition of a right divisor literally;
`classify` reads the same flags off normal forms and is tested against it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import add

from .words import InvariantViolation, NormalForm, ParseError, _Value

Forest = str

LEAF: Forest = "."
_CARET = "(..)"
_DIGITS = str.maketrans(".AB", "010", "()")  # with "(..)" as "AB": 1 at its left leaf


def _check_forest(forest) -> None:
    """Raise unless `forest` is one or more binary trees in preorder."""
    if not isinstance(forest, str):
        raise TypeError(f"forests must be strings, got {type(forest).__name__}")
    if not forest:
        raise ValueError("forests must contain at least one tree")
    enclosing: list[int] = []  # finished subtrees of each enclosing caret
    done = -1  # finished subtrees of the innermost open caret, -1 at root level
    for pos, ch in enumerate(forest):
        if ch == ".":
            if done == 2:
                raise ParseError(f"missing ')' at offset {pos}")
        elif ch == "(":
            if done == 2:
                raise ParseError(f"missing ')' at offset {pos}")
            enclosing.append(done)
            done = 0
            continue
        elif ch == ")":
            if done != 2:
                raise ParseError(f"unexpected ')' at offset {pos}")
            done = enclosing.pop()
        else:
            raise ParseError(f"unexpected character {ch!r} at offset {pos}")
        if done >= 0:
            done += 1
    if enclosing:
        raise ParseError("unexpected end of forest text")


def _roots(forest: Forest) -> int:
    # a binary tree has one more leaf than carets
    return forest.count(LEAF) - forest.count("(")


class Diagram(_Value):
    """A forest pair with equal leaf counts; not necessarily reduced."""

    __slots__ = ("top", "bottom")

    # in Diagram's own dict, where perfbench/tracer.py wraps it
    __init__ = _Value.__init__

    def __post_init__(self) -> None:
        _check_forest(self.top)
        _check_forest(self.bottom)
        top_leaves, bottom_leaves = self.top.count(LEAF), self.bottom.count(LEAF)
        if top_leaves != bottom_leaves:
            raise ValueError(
                f"leaf counts differ: top has {top_leaves}, bottom {bottom_leaves}"
            )

    def __add__(self, other: "Diagram") -> "Diagram":
        return diagram_sum(self, other)

    def __mul__(self, other: "Diagram") -> "CanonicalDiagram":
        return concat_product(self, other)

    def __str__(self) -> str:
        return format_diagram(self)


class CanonicalDiagram(Diagram):
    """A reduced diagram that is not a sum of a diagram and an edge."""

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if _has_dipole(self.top, self.bottom):
            raise ValueError("diagram has a dipole and is not canonical")
        if self.top.endswith(LEAF) and self.bottom.endswith(LEAF) and self.top != LEAF:
            raise ValueError("diagram has a trailing common edge and is not canonical")


def exposed_caret_positions(forest: Forest) -> list[int]:
    """Leaf positions k such that leaves k, k+1 are the children of one caret."""
    out: list[int] = []
    leaves = start = 0
    pos = forest.find(_CARET)
    while pos >= 0:
        leaves += forest.count(LEAF, start, pos)
        out.append(leaves)
        start = pos
        pos = forest.find(_CARET, pos + len(_CARET))
    return out


def _has_dipole(top: Forest, bottom: Forest) -> bool:
    """Whether forests of equal leaf counts share an exposed caret position,
    read as one binary digit per leaf (base 2 has no int digit limit)."""
    return bool(int(top.replace(_CARET, "AB").translate(_DIGITS), 2)
                & int(bottom.replace(_CARET, "AB").translate(_DIGITS), 2))


def _cut_at_leaf(forest: Forest, k: int) -> tuple[str, str]:
    """The text before and the text after leaf k."""
    parts = forest.split(LEAF, k + 1)
    if k < 0 or len(parts) < k + 2:
        raise IndexError(f"leaf position {k} out of range")
    return LEAF.join(parts[:-1]), parts[-1]


def forest_split_leaf(forest: Forest, k: int) -> Forest:
    """Replace leaf k by a caret over two leaves."""
    head, tail = _cut_at_leaf(forest, k)
    return head + _CARET + tail


def forest_collapse_caret(forest: Forest, k: int) -> Forest:
    """Replace the exposed caret covering leaves k, k+1 by a single leaf."""
    head, tail = _cut_at_leaf(forest, k)
    if not (head.endswith("(") and tail.startswith(".)")):
        raise InvariantViolation("positions k, k+1 are not children of one caret")
    return head[:-1] + LEAF + tail[2:]


# -- constructors -------------------------------------------------------------


def epsilon(k: int) -> Diagram:
    """The diagram with no cells on a path of k edges.  epsilon(1) is the
    canonical identity element; for k > 1 it is a non-canonical diagram
    of the identity, the unit of `diagram_sum` on k edges."""
    if k < 1:
        raise ValueError("the base path must have at least one edge")
    if k == 1:
        return CanonicalDiagram(LEAF, LEAF)
    return Diagram(LEAF * k, LEAF * k)


@lru_cache(maxsize=None)
def atomic(i: int, sign: int) -> CanonicalDiagram:
    """The one-cell diagram X_i (sign +1) splitting edge i, or its mirror
    X_i^-1 (sign -1)."""
    if i < 0:
        raise ValueError("generator index must be non-negative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    split = LEAF * i + _CARET
    flat = LEAF * (i + 2)
    if sign > 0:
        return CanonicalDiagram(split, flat)
    return CanonicalDiagram(flat, split)


def mirror(d: Diagram) -> Diagram:
    """Swap the two forests; inverts the group element."""
    return type(d)(d.bottom, d.top)


def diagram_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 to the right of d1, the sum `d1 + d2`.  The result is
    generally not canonical."""
    return Diagram(d1.top + d2.top, d1.bottom + d2.bottom)


def cells(d: Diagram) -> int:
    """Total number of cells, i.e. carets in both forests."""
    return d.top.count("(") + d.bottom.count("(")


def right_divisible(d: CanonicalDiagram, index: int, sign: int) -> bool:
    """Whether d factors as some diagram followed by atomic(index, sign).

    Implemented literally: multiply by the mirrored atomic and watch the
    cell count drop by one.
    """
    probe = atomic(index, -sign)
    return cells(concat_product(d, probe)) == cells(d) - 1


# -- reduction and the product ------------------------------------------------


def _cancel_dipoles(top: Forest, bottom: Forest) -> tuple[Forest, Forest]:
    """Collapse matched exposed carets until none remain, in one
    shift-reduce pass over both forests, which have equal leaf counts.

    Both forests are copied one leaf at a time, so the two copies end in
    the same leaf.  While both strings then continue with ")" and both
    copies end in "(..", the two carets cover the same two leaves: they
    are a dipole, and each collapses to one leaf, which the next ")" may
    close into another dipole.  Any other ")" closes a caret that is in
    no dipole, now or after a later collapse, and is copied as it is.
    So the result is reduced, and as reduction is confluent (tested), it
    is the pair that cancelling dipoles in any order reaches.
    """
    if not _has_dipole(top, bottom):
        return top, bottom
    out_top: list[str] = []
    out_bottom: list[str] = []
    i = j = 0
    for _ in range(top.count(LEAF)):
        end = top.index(LEAF, i) + 1
        out_top += top[i:end]
        i = end
        end = bottom.index(LEAF, j) + 1
        out_bottom += bottom[j:end]
        j = end
        while (top.startswith(")", i) and bottom.startswith(")", j)
               and out_top[-2] == out_bottom[-2] == LEAF):
            out_top[-3:] = out_bottom[-3:] = [LEAF]
            i += 1
            j += 1
    return "".join(out_top) + top[i:], "".join(out_bottom) + bottom[j:]


def reduce_dipoles(d: Diagram) -> Diagram:
    """Cancel matched exposed carets until none remain.  The result does
    not depend on the cancellation order (tested)."""
    return Diagram(*_cancel_dipoles(d.top, d.bottom))


def _trimmed(top: Forest, bottom: Forest) -> CanonicalDiagram:
    # epsilon(k) keeps one edge, as the identity epsilon(1)
    trim = min(len(top) - len(top.rstrip(LEAF)), len(bottom) - len(bottom.rstrip(LEAF)),
               len(top) - 1)
    return CanonicalDiagram(top[: len(top) - trim], bottom[: len(bottom) - trim])


def canonicalize(d: Diagram) -> CanonicalDiagram:
    """Trim the trailing single-leaf trees common to both forests.  The
    input must already be free of dipoles; trimming removes only leaves
    after the last caret, so CanonicalDiagram rejects any dipole left."""
    return _trimmed(d.top, d.bottom)


def _tree_end(forest: Forest, start: int) -> int:
    """Offset just past the subtree whose root caret opens at `start`."""
    depth, end = 0, start
    while True:
        close = forest.index(")", end)
        depth += forest.count("(", end, close) - 1
        end = close + 1
        if not depth:
            return end


def _graft(forest: Forest, trees: dict[int, Forest]) -> Forest:
    """`forest` with leaf k replaced by trees[k] for every key k."""
    pieces = forest.split(LEAF)
    leaves = [LEAF] * (len(pieces) - 1)
    for k, tree in trees.items():
        leaves[k] = tree
    return "".join(map(add, pieces, leaves)) + pieces[-1]


def concat_product(d1: Diagram, d2: Diagram) -> CanonicalDiagram:
    """Multiply two diagrams.

    The narrower of the two glued boundaries is padded with trivial
    edges.  The bottom forest b1 of d1 and the top forest t2 of d2, now
    with as many roots, are grown to their least common refinement; once
    the glued forests coincide they cancel against each other, leaving
    the outer pair, which is then reduced and trimmed.  All of this works
    on the forest strings; the result is the only diagram constructed.

    The refinement is one scan of b1 and t2 together, with a leaf counter
    for each side.  The two strings agree until one has a leaf "." where
    the other starts a subtree T.  If the leaf is leaf k1 of b1, the
    refinement grows it into T, and so must leaf k1 of the top forest t1:
    inserting a dipole at a leaf of d1 splits that leaf in both of its
    forests, so growing it by dipoles into T grows both copies into T.
    Likewise a leaf k2 of t2 facing a subtree of b1 grows into that
    subtree in b2.  The scan then resumes after the leaf on one side and
    after T on the other.  Only t1 and b2 are rebuilt, once each.
    """
    q, s = _roots(d1.bottom), _roots(d2.top)
    # pad both forests of the narrower side; LEAF * n is "" for n <= 0
    t1, b1 = d1.top + LEAF * (s - q), d1.bottom + LEAF * (s - q)
    t2, b2 = d2.top + LEAF * (q - s), d2.bottom + LEAF * (q - s)
    into_t1: dict[int, Forest] = {}
    into_b2: dict[int, Forest] = {}
    i = j = k1 = k2 = 0
    while i < len(b1):
        ch = b1[i]
        if ch == t2[j]:
            if ch == LEAF:
                k1 += 1
                k2 += 1
            i += 1
            j += 1
        elif ch == LEAF:
            end = _tree_end(t2, j)
            into_t1[k1] = t2[j:end]
            k1 += 1
            k2 += t2.count(LEAF, j, end)
            i += 1
            j = end
        else:
            end = _tree_end(b1, i)
            into_b2[k2] = b1[i:end]
            k1 += b1.count(LEAF, i, end)
            k2 += 1
            i = end
            j += 1
    return _trimmed(*_cancel_dipoles(_graft(t1, into_t1), _graft(b2, into_b2)))


# -- conversion to and from normal forms --------------------------------------


def _forest_from_indices(indices: tuple[int, ...]) -> Forest:
    """Fold splitting cells over a trivial path: for each index i, pad the
    forest to at least i+1 leaves and split leaf i.  Equals the product of
    the positive atomic diagrams for `indices` read in order.

    The indices are non-decreasing, so each new caret lies right of or
    below the ones before, and in preorder the caret of index i follows
    exactly i leaves.  The string is therefore written left to right:
    leaves up to each index, then "(", and each caret closes with ")"
    once its second child is complete.  Trailing leaves pad the result to
    the fold's width.
    """
    width = 1
    for i in indices:
        width = max(width, i + 1) + 1
    out: list[str] = []
    has_first: list[bool] = []  # per open caret: is its first child complete
    leaves = 0
    for i in (*indices, width):
        while leaves < i:
            leaves += 1
            out.append(LEAF)
            while has_first and has_first[-1]:
                has_first.pop()
                out.append(")")
            if has_first:
                has_first[-1] = True
        out.append("(")
        has_first.append(False)
    # the last stop only pads to the fold's width; its "(" is dropped
    return "".join(out[:-1])


def _indices_from_forest(forest: Forest) -> tuple[int, ...]:
    """Inverse of _forest_from_indices up to trailing leaves: every caret,
    in preorder, is the index given by the number of leaves to its left."""
    return tuple(accumulate(map(str.count, forest.split("("), repeat(LEAF))))[:-1]


def nf_to_diagram(a: NormalForm) -> CanonicalDiagram:
    """Canonical diagram of a normal form.

    Equals the product of atomic(i, +1) over the positive indices in
    order followed by atomic(j, -1) over the negative indices in reverse
    order (tested against that literal fold); for a valid normal form no
    dipole cancels, so the result has len(pos) + len(neg) cells.  The
    padded pair needs no trim: only the forest with fewer leaves is
    padded, and the other ends in ")" unless both are ".".  The
    constructor checks both conditions.
    """
    top = _forest_from_indices(a.pos)
    bottom = _forest_from_indices(a.neg)
    nt, nb = top.count(LEAF), bottom.count(LEAF)
    return CanonicalDiagram(top + LEAF * (nb - nt), bottom + LEAF * (nt - nb))


def diagram_to_nf(d: CanonicalDiagram) -> NormalForm:
    """Decompose a canonical diagram back into its normal form.

    The top forest spells the positive indices and the bottom forest the
    negative ones, each read as the inverse of the fold in nf_to_diagram;
    so the letter count equals the cell count.
    """
    try:
        return NormalForm(_indices_from_forest(d.top), _indices_from_forest(d.bottom))
    except ValueError as exc:
        raise InvariantViolation(f"diagram does not read as a normal form: {exc}") from exc


# -- text and DOT serialization -----------------------------------------------


def format_diagram(d: Diagram) -> str:
    """Bit-exact text form: leaf ".", caret "(lr)", forests concatenated,
    top and bottom separated by "|" (X_0 reads "(..)|..")."""
    return d.top + "|" + d.bottom


def parse_diagram(text: str) -> Diagram:
    """Inverse of format_diagram."""
    try:
        top, bottom = text.split("|")
    except ValueError:
        raise ParseError(f"expected exactly one '|' in {text!r}") from None
    return Diagram(top, bottom)


def _caret_arcs(forest: Forest) -> list[list[int]]:
    """[first leaf, last leaf + 1] vertex span of every caret, preorder."""
    arcs: list[list[int]] = []
    open_arcs: list[list[int]] = []
    leaves = 0
    for ch in forest:
        if ch == "(":
            arc = [leaves, 0]
            arcs.append(arc)
            open_arcs.append(arc)
        elif ch == ")":
            open_arcs.pop()[1] = leaves
        else:
            leaves += 1
    return arcs


def diagram_to_dot(d: Diagram) -> str:
    """DOT rendering of the plane graph: interface vertices on a horizontal
    line, caret arcs of the top forest drawn above (blue), those of the
    bottom forest below (red)."""
    n = d.top.count(LEAF)
    lines = ["graph diagram {", "  node [shape=point];"]
    for v in range(n + 1):
        lines.append(f'  v{v} [pos="{v},0!"];')
    for v in range(n):
        lines.append(f"  v{v} -- v{v + 1};")
    for a, b in _caret_arcs(d.top):
        lines.append(f"  v{a} -- v{b} [color=blue];")
    for a, b in _caret_arcs(d.bottom):
        lines.append(f"  v{a} -- v{b} [color=red];")
    lines.append("}")
    return "\n".join(lines) + "\n"
