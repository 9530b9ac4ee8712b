"""Canonical diagrams for Thompson's group F as pairs of binary forests.

A diagram is stored as a pair (top, bottom) of ordered forests of binary
trees with equal leaf counts.  Trees are nested tuples: a leaf is the
empty tuple and a caret is a pair (left, right).  The top forest splits
the top boundary path down to the common interface, the bottom forest
mirrors it back up; every caret is one cell.  A diagram whose top forest
has p roots and bottom forest q roots runs from a path of p edges to one
of q edges.

A pair is REDUCED when no interface position carries an exposed caret
(one with two leaf children) in both forests; such a matched pair is a
dipole and cancels.  A reduced pair is CANONICAL when the two forests do
not additionally both end in a single-leaf tree; trailing matched edges
are trimmed away, with the identity diagram epsilon(1) as the sole
exception.  Canonical diagrams represent group elements uniquely.

Multiplication pads the narrower boundary with trivial edges, grows the
two forests meeting at the glued path to their least common refinement
by inserting dipoles, glues, cancels dipoles, and trims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import NormalForm, ParseError

Tree = tuple
Forest = tuple

LEAF: Tree = ()


class InvariantViolation(RuntimeError):
    """An internal structural invariant failed; this always signals a bug."""


def tree_leaves(t: Tree) -> int:
    if not t:
        return 1
    return tree_leaves(t[0]) + tree_leaves(t[1])


def forest_leaves(forest: Forest) -> int:
    return sum(tree_leaves(t) for t in forest)


def forest_cells(forest: Forest) -> int:
    # every caret of a binary tree is one cell
    return forest_leaves(forest) - len(forest)


def _validate_tree(t) -> int:
    """Check tuple shape and return the leaf count."""
    if not isinstance(t, tuple):
        raise ValueError(f"tree nodes must be tuples, got {type(t).__name__}")
    if len(t) == 0:
        return 1
    if len(t) != 2:
        raise ValueError("carets must have exactly two children")
    return _validate_tree(t[0]) + _validate_tree(t[1])


@dataclass(frozen=True, eq=False)
class Diagram:
    """A forest pair with equal leaf counts; not necessarily reduced."""

    top: Forest
    bottom: Forest

    def __post_init__(self) -> None:
        if not self.top or not self.bottom:
            raise ValueError("forests must contain at least one tree")
        top_leaves = sum(_validate_tree(t) for t in self.top)
        bottom_leaves = sum(_validate_tree(t) for t in self.bottom)
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
        if (
            self.top[-1] == LEAF
            and self.bottom[-1] == LEAF
            and (len(self.top) > 1 or len(self.bottom) > 1)
        ):
            raise ValueError("diagram has a trailing common edge and is not canonical")


def exposed_caret_positions(forest: Forest) -> list[int]:
    """Leaf positions k such that leaves k, k+1 are the children of one caret."""
    out: list[int] = []
    base = 0
    for t in forest:
        base += _collect_exposed(t, base, out)
    return out


def _collect_exposed(t: Tree, base: int, out: list[int]) -> int:
    if not t:
        return 1
    left, right = t
    nl = _collect_exposed(left, base, out)
    nr = _collect_exposed(right, base + nl, out)
    if not left and not right:
        out.append(base)
    return nl + nr


def _common_exposed(top: Forest, bottom: Forest) -> set[int]:
    return set(exposed_caret_positions(top)) & set(exposed_caret_positions(bottom))


def forest_split_leaf(forest: Forest, k: int) -> Forest:
    """Replace leaf k by a caret over two leaves."""
    acc = 0
    for idx, t in enumerate(forest):
        n = tree_leaves(t)
        if k < acc + n:
            return forest[:idx] + (_split_tree(t, k - acc),) + forest[idx + 1 :]
        acc += n
    raise IndexError(f"leaf position {k} out of range")


def _split_tree(t: Tree, k: int) -> Tree:
    if not t:
        return (LEAF, LEAF)
    left, right = t
    nl = tree_leaves(left)
    if k < nl:
        return (_split_tree(left, k), right)
    return (left, _split_tree(right, k - nl))


def forest_collapse_caret(forest: Forest, k: int) -> Forest:
    """Replace the exposed caret covering leaves k, k+1 by a single leaf."""
    acc = 0
    for idx, t in enumerate(forest):
        n = tree_leaves(t)
        if k < acc + n:
            return forest[:idx] + (_collapse_tree(t, k - acc),) + forest[idx + 1 :]
        acc += n
    raise IndexError(f"leaf position {k} out of range")


def _collapse_tree(t: Tree, k: int) -> Tree:
    if not t:
        raise InvariantViolation("no caret to collapse at a leaf")
    left, right = t
    if not left and not right:
        if k != 0:
            raise InvariantViolation("collapse position does not match the caret")
        return LEAF
    nl = tree_leaves(left)
    if k + 1 < nl:
        return (_collapse_tree(left, k), right)
    if k >= nl:
        return (left, _collapse_tree(right, k - nl))
    raise InvariantViolation("positions k, k+1 are not children of one caret")


# -- constructors -------------------------------------------------------------


def epsilon(k: int) -> Diagram:
    """The diagram with no cells on a path of k edges.  epsilon(1) is the
    canonical identity element; wider copies only serve as padding."""
    if k < 1:
        raise ValueError("the base path must have at least one edge")
    if k == 1:
        return CanonicalDiagram((LEAF,), (LEAF,))
    return Diagram((LEAF,) * k, (LEAF,) * k)


@lru_cache(maxsize=None)
def atomic(i: int, sign: int) -> CanonicalDiagram:
    """The one-cell diagram X_i (sign +1) splitting edge i, or its mirror
    X_i^-1 (sign -1)."""
    if i < 0:
        raise ValueError("generator index must be non-negative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    split = (LEAF,) * i + ((LEAF, LEAF),)
    flat = (LEAF,) * (i + 2)
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
    return forest_cells(d.top) + forest_cells(d.bottom)


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


def canonicalize(d: Diagram) -> CanonicalDiagram:
    """Trim the trailing single-leaf trees common to both forests.  The
    input must already be free of dipoles."""
    if _common_exposed(d.top, d.bottom):
        raise ValueError("cannot canonicalize a diagram that still has dipoles")
    top, bottom = d.top, d.bottom
    while len(top) > 1 and top[-1] == LEAF and bottom[-1] == LEAF:
        top = top[:-1]
        bottom = bottom[:-1]
    return CanonicalDiagram(top, bottom)


def _first_disagreement(left: Forest, right: Forest):
    """First preorder position where one forest has a leaf against the
    other's caret.  Returns (0, k) when `left` holds the leaf at its leaf
    index k, (1, k) when `right` does, or None when the forests agree."""
    kl = kr = 0
    for tl, tr in zip(left, right):
        hit = _tree_disagreement(tl, tr, kl, kr)
        if hit is not None:
            return hit
        kl += tree_leaves(tl)
        kr += tree_leaves(tr)
    return None


def _tree_disagreement(a: Tree, b: Tree, ka: int, kb: int):
    if not a and not b:
        return None
    if not a:
        return (0, ka)
    if not b:
        return (1, kb)
    hit = _tree_disagreement(a[0], b[0], ka, kb)
    if hit is not None:
        return hit
    return _tree_disagreement(a[1], b[1], ka + tree_leaves(a[0]), kb + tree_leaves(b[0]))


def concat_product(d1: Diagram, d2: Diagram) -> CanonicalDiagram:
    """Multiply two diagrams.

    The narrower of the two glued boundaries is padded with trivial
    edges.  While the bottom forest of d1 and the top forest of d2
    disagree somewhere, the diagram holding the leaf at the first
    disagreement gets a dipole inserted there (the leaf splits in both of
    its forests); once the glued forests coincide they cancel against
    each other, leaving the outer pair, which is then reduced and
    trimmed.
    """
    q, s = len(d1.bottom), len(d2.top)
    if q < s:
        d1 = diagram_sum(d1, epsilon(s - q))
    elif s < q:
        d2 = diagram_sum(d2, epsilon(q - s))
    t1, b1 = d1.top, d1.bottom
    t2, b2 = d2.top, d2.bottom
    while True:
        hit = _first_disagreement(b1, t2)
        if hit is None:
            break
        side, k = hit
        if side == 0:
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
    trees: list[Tree] = [LEAF]
    nleaves = 1
    for i in indices:
        while nleaves < i + 1:
            trees.append(LEAF)
            nleaves += 1
        acc = 0
        for idx, t in enumerate(trees):
            n = tree_leaves(t)
            if i < acc + n:
                trees[idx] = _split_tree(t, i - acc)
                break
            acc += n
        nleaves += 1
    return tuple(trees)


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
    nt, nb = forest_leaves(top), forest_leaves(bottom)
    if nt < nb:
        top = top + (LEAF,) * (nb - nt)
    elif nb < nt:
        bottom = bottom + (LEAF,) * (nt - nb)
    return canonicalize(Diagram(top, bottom))


def diagram_to_nf(d: CanonicalDiagram) -> NormalForm:
    """Decompose a canonical diagram back into its normal form.

    Negative atomic right divisors peel off first, always at the smallest
    divisible index (the leftmost caret-rooted tree of the bottom
    forest); positive divisors then peel at the largest divisible index
    (the rightmost exposed caret of the top forest).  Each peel removes
    exactly one cell, so the letter count equals the cell count.
    """
    top = list(d.top)
    bottom = list(d.bottom)
    neg: list[int] = []
    while True:
        j = next((idx for idx, t in enumerate(bottom) if t != LEAF), None)
        if j is None:
            break
        left, right = bottom[j]
        bottom[j : j + 1] = [left, right]
        neg.append(j)
        _trim_in_place(top, bottom)
    pos_reversed: list[int] = []
    while True:
        exposed = exposed_caret_positions(tuple(top))
        if not exposed:
            break
        k = exposed[-1]
        top = list(forest_collapse_caret(tuple(top), k))
        del bottom[k]
        pos_reversed.append(k)
        _trim_in_place(top, bottom)
    if top != [LEAF] or bottom != [LEAF]:
        raise InvariantViolation(
            "canonical diagram did not decompose into atomic factors"
        )
    try:
        return NormalForm(tuple(reversed(pos_reversed)), tuple(neg))
    except ValueError as exc:
        raise InvariantViolation(
            f"peeled letter sequence is not a normal form: {exc}"
        ) from exc


def _trim_in_place(top: list, bottom: list) -> None:
    while len(top) > 1 and top[-1] == LEAF and bottom[-1] == LEAF:
        top.pop()
        bottom.pop()


# -- text and DOT serialization -----------------------------------------------


def _tree_str(t: Tree) -> str:
    if not t:
        return "."
    return "(" + _tree_str(t[0]) + _tree_str(t[1]) + ")"


def format_diagram(d: Diagram) -> str:
    """Bit-exact text form: leaf ".", caret "(lr)", forests concatenated,
    top and bottom separated by "|" (X_0 reads "(..)|..")."""
    return "".join(map(_tree_str, d.top)) + "|" + "".join(map(_tree_str, d.bottom))


def parse_diagram(text: str) -> Diagram:
    """Inverse of format_diagram."""
    try:
        top_text, bottom_text = text.split("|")
    except ValueError:
        raise ParseError(f"expected exactly one '|' in {text!r}") from None
    return Diagram(_parse_forest(top_text), _parse_forest(bottom_text))


def _parse_forest(text: str) -> Forest:
    trees: list[Tree] = []
    pos = 0
    while pos < len(text):
        tree, pos = _parse_tree(text, pos)
        trees.append(tree)
    return tuple(trees)


def _parse_tree(text: str, pos: int) -> tuple[Tree, int]:
    if pos >= len(text):
        raise ParseError("unexpected end of forest text")
    ch = text[pos]
    if ch == ".":
        return LEAF, pos + 1
    if ch == "(":
        left, pos = _parse_tree(text, pos + 1)
        right, pos = _parse_tree(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise ParseError(f"missing ')' at offset {pos}")
        return (left, right), pos + 1
    raise ParseError(f"unexpected character {ch!r} at offset {pos}")


def _caret_arcs(forest: Forest) -> list[tuple[int, int]]:
    """(first leaf, last leaf + 1) vertex span of every caret, preorder."""
    arcs: list[tuple[int, int]] = []
    base = 0
    for t in forest:
        base += _collect_arcs(t, base, arcs)
    return arcs


def _collect_arcs(t: Tree, base: int, arcs: list[tuple[int, int]]) -> int:
    if not t:
        return 1
    n = tree_leaves(t)
    arcs.append((base, base + n))
    nl = _collect_arcs(t[0], base, arcs)
    _collect_arcs(t[1], base + nl, arcs)
    return n


def diagram_to_dot(d: Diagram) -> str:
    """DOT rendering of the plane graph: interface vertices on a horizontal
    line, caret arcs of the top forest drawn above (blue), those of the
    bottom forest below (red)."""
    n = forest_leaves(d.top)
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
