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
two forests meeting at the glued path to their least common refinement
by inserting dipoles, glues, cancels dipoles, and trims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .words import NormalForm, ParseError

Forest = str

LEAF: Forest = "."
_CARET = "(..)"


class InvariantViolation(RuntimeError):
    """An internal structural invariant failed; this always signals a bug."""


def _check_forest(forest) -> None:
    """Raise unless `forest` is one or more binary trees in preorder."""
    if not isinstance(forest, str):
        raise ValueError(f"forests must be strings, got {type(forest).__name__}")
    if not forest:
        raise ValueError("forests must contain at least one tree")
    children: list[int] = []  # finished subtrees of each open caret
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


def _roots(forest: Forest) -> int:
    # a binary tree has one more leaf than carets
    return forest.count(LEAF) - forest.count("(")


@dataclass(frozen=True, eq=False)
class Diagram:
    """A forest pair with equal leaf counts; not necessarily reduced."""

    top: Forest
    bottom: Forest

    def __post_init__(self) -> None:
        _check_forest(self.top)
        _check_forest(self.bottom)
        top_leaves, bottom_leaves = self.top.count(LEAF), self.bottom.count(LEAF)
        if top_leaves != bottom_leaves:
            raise ValueError(
                f"leaf counts differ: top has {top_leaves}, bottom {bottom_leaves}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.top == other.top and self.bottom == other.bottom

    def __hash__(self) -> int:
        return hash((self.top, self.bottom))

    def __add__(self, other: "Diagram") -> "Diagram":
        return diagram_sum(self, other)

    def __mul__(self, other: "Diagram") -> "CanonicalDiagram":
        return concat_product(self, other)

    def __str__(self) -> str:
        return format_diagram(self)


class CanonicalDiagram(Diagram):
    """A reduced diagram that is not a sum of a diagram and an edge."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if _common_exposed(self.top, self.bottom):
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


def _common_exposed(top: Forest, bottom: Forest) -> set[int]:
    return set(exposed_caret_positions(top)) & set(exposed_caret_positions(bottom))


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
    canonical identity element; wider copies only serve as padding."""
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
    """Place d2 to the right of d1.  The result is generally not canonical;
    it exists for padding."""
    return Diagram(d1.top + d2.top, d1.bottom + d2.bottom)


def cells(d: Diagram) -> int:
    """Total number of cells, i.e. carets in both forests."""
    return d.top.count("(") + d.bottom.count("(")


# -- reduction and the product ------------------------------------------------


def reduce_dipoles(d: Diagram) -> Diagram:
    """Cancel matched exposed carets until none remain.  The result does
    not depend on the cancellation order (tested)."""
    top, bottom = d.top, d.bottom
    while True:
        common = _common_exposed(top, bottom)
        if not common:
            return Diagram(top, bottom)
        # descending order keeps the remaining positions valid within a batch
        for k in sorted(common, reverse=True):
            top = forest_collapse_caret(top, k)
            bottom = forest_collapse_caret(bottom, k)


def _trailing_leaves(forest: Forest) -> int:
    return len(forest) - len(forest.rstrip(LEAF))


def canonicalize(d: Diagram) -> CanonicalDiagram:
    """Trim the trailing single-leaf trees common to both forests.  The
    input must already be free of dipoles."""
    if _common_exposed(d.top, d.bottom):
        raise ValueError("cannot canonicalize a diagram that still has dipoles")
    top, bottom = d.top, d.bottom
    # epsilon(k) keeps one edge, as the identity epsilon(1)
    trim = min(_trailing_leaves(top), _trailing_leaves(bottom), len(top) - 1)
    return CanonicalDiagram(top[: len(top) - trim], bottom[: len(bottom) - trim])


def concat_product(d1: Diagram, d2: Diagram) -> CanonicalDiagram:
    """Multiply two diagrams.

    The narrower of the two glued boundaries is padded with trivial
    edges.  While the bottom forest of d1 and the top forest of d2
    disagree somewhere, the diagram holding the leaf at the first
    disagreement gets a dipole inserted there (the leaf splits in both of
    its forests); once the glued forests coincide they cancel against
    each other, leaving the outer pair, which is then reduced and
    trimmed.

    Two forests with as many roots first differ, if at all, where one has
    a leaf "." and the other a caret "("; the leaf index there is the
    number of "." before it in either string.  A split leaves the text
    before it unchanged, so the scan resumes where it stopped.
    """
    q, s = _roots(d1.bottom), _roots(d2.top)
    if q < s:
        d1 = diagram_sum(d1, epsilon(s - q))
    elif s < q:
        d2 = diagram_sum(d2, epsilon(q - s))
    t1, b1 = d1.top, d1.bottom
    t2, b2 = d2.top, d2.bottom
    pos = 0
    while b1 != t2:
        while b1[pos] == t2[pos]:
            pos += 1
        k = b1.count(LEAF, 0, pos)
        if b1[pos] == LEAF:
            t1 = forest_split_leaf(t1, k)
            b1 = forest_split_leaf(b1, k)
        else:
            t2 = forest_split_leaf(t2, k)
            b2 = forest_split_leaf(b2, k)
    return canonicalize(reduce_dipoles(Diagram(t1, b2)))


# -- conversion to and from normal forms --------------------------------------


def _forest_from_indices(indices: tuple[int, ...]) -> Forest:
    """Fold splitting cells over a trivial path: for each index i, pad the
    forest to at least i+1 leaves and split leaf i.  Equals the product of
    the positive atomic diagrams for `indices` read in order."""
    forest = LEAF
    nleaves = 1
    for i in indices:
        if nleaves < i + 1:
            forest += LEAF * (i + 1 - nleaves)
            nleaves = i + 1
        head, tail = _cut_at_leaf(forest, i)
        forest = head + _CARET + tail
        nleaves += 1
    return forest


def _indices_from_forest(forest: Forest) -> tuple[int, ...]:
    """Inverse of _forest_from_indices up to trailing leaves: every caret,
    in preorder, is the index given by the number of leaves to its left."""
    return tuple(accumulate(part.count(LEAF) for part in forest.split("(")))[:-1]


def nf_to_diagram(a: NormalForm) -> CanonicalDiagram:
    """Canonical diagram of a normal form.

    Equals the product of atomic(i, +1) over the positive indices in
    order followed by atomic(j, -1) over the negative indices in reverse
    order (tested against that literal fold); for a valid normal form no
    dipole cancels (canonicalize rejects one), so the result has
    len(pos) + len(neg) cells.
    """
    top = _forest_from_indices(a.pos)
    bottom = _forest_from_indices(a.neg)
    nt, nb = top.count(LEAF), bottom.count(LEAF)
    if nt < nb:
        top += LEAF * (nb - nt)
    elif nb < nt:
        bottom += LEAF * (nt - nb)
    return canonicalize(Diagram(top, bottom))


def diagram_to_nf(d: CanonicalDiagram) -> NormalForm:
    """Decompose a canonical diagram back into its normal form.

    The top forest spells the positive indices and the bottom forest the
    negative ones, each read as the inverse of the fold in nf_to_diagram;
    so the letter count equals the cell count.
    """
    try:
        return NormalForm(
            _indices_from_forest(d.top), _indices_from_forest(d.bottom)
        )
    except ValueError as exc:
        raise InvariantViolation(
            f"diagram does not read as a normal form: {exc}"
        ) from exc


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
    lines = [
        "graph diagram {",
        "  node [shape=point];",
    ]
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
