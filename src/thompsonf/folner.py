"""Finite subsets of F as subgraphs of its Cayley graph on {x0, x1}.

A finite set of elements spans a subgraph of the Cayley graph; its
density is the average number of the four oriented generator edges that
stay inside the set, an exact rational strictly below 4.  This module
builds balls by breadth-first search, computes densities and per-class
histograms, translates and filters sets, and checks the vertex-deletion
density bound.  All arithmetic uses fractions.Fraction; nothing here
touches floating point.

Every set is a byte mask over an interned Cayley graph (`_CayleyGraph`):
elements numbered 0, 1, 2, ..., a dict from normal form to number, and
four `array('i')` columns, one per generator in GENERATORS order, holding
the number of v*g for every element v, or -1 when v*g lies outside the
graph.  Sort ranks and classes (one byte per element, the value of its
`class_of` label, read off each normal form with no product) are derived
once per graph, on first use.  Densities, histograms, deletion checks and
sort orders read columns, class bytes and masks; none multiplies normal
forms.

A ball (`_CayleyBall`) is built once, by BFS.  Its elements are numbered
in BFS order, so each sphere is a run of consecutive numbers, and the
numbering of a smaller ball is a prefix of that of a larger one.  Each
product u*g = w the BFS computes fills both directions (w*g^-1 = u), and
the BFS skips the edges it already knows.  A set whose elements all lie
in a built ball is a mask over the smallest such ball.  Any other set
spans its own graph when it is made: four products per element, once.

Why -1 means "outside the ball": the exponent sum is a homomorphism from
F to the integers (every relation x_j x_i = x_i x_{j+1} has two letters
on each side) and sends each of x0, x1 to 1.  So every word for an
element has the parity of its exponent sum, the radius does too, and no
edge joins two elements of the same sphere.  A neighbour of an element
at radius r < n lies in the ball, and the BFS has recorded that edge
once it has expanded the element.  A neighbour of an element at radius n lies at
radius n-1, an edge recorded from the other end, or at radius n+1,
outside the ball.
"""

from __future__ import annotations

import weakref
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator

from .classify import ClassLabel, class_of
from .words import GENERATORS, IDENTITY, NormalForm, nf_multiply

DEFAULT_ELEMENT_LIMIT = 1_000_000


class ResourceLimitError(RuntimeError):
    """Raised when a ball would exceed the configured element limit."""


class _CayleyGraph:
    """Numbered elements and their neighbour columns (module docstring)."""

    __slots__ = ("elements", "number", "columns", "_rank", "_classes", "__weakref__")

    def __init__(self, elements: list[NormalForm], number: dict[NormalForm, int],
                 columns: tuple[array, ...]) -> None:
        self.elements = elements
        self.number = number
        self.columns = columns
        self._rank: array | None = None
        self._classes: bytes | None = None

    def rank(self) -> array:
        """Position of every element in the order of formatted normal forms;
        each element is formatted once."""
        if self._rank is None:
            keys = [str(v) for v in self.elements]
            rank = array("i", [0]) * len(keys)
            for position, u in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
                rank[u] = position
            self._rank = rank
        return self._rank

    def classes(self) -> bytes:
        """The class of every element, as the value 1 ... 7 of its label.  The
        whole graph is classified on first use, however small the set (ball(8):
        11,237 `class_of` calls), so later histograms and drops on it are free."""
        if self._classes is None:
            self._classes = bytes(class_of(v).value for v in self.elements)
        return self._classes


def _spanned_graph(items: list[NormalForm]) -> tuple[_CayleyGraph, bytes]:
    """The graph `items` span (four products per element) and its full mask."""
    elements = list(dict.fromkeys(items))
    number = {v: u for u, v in enumerate(elements)}
    columns = tuple(array("i", [number.get(nf_multiply(v, g), -1) for v in elements])
                    for g in GENERATORS)
    return _CayleyGraph(elements, number, columns), b"\1" * len(elements) + b"\0"


class _CayleyBall(_CayleyGraph):
    """The radius-n ball, built by one BFS (module docstring)."""

    __slots__ = ("radius", "sphere_starts")

    def __init__(self, n: int, limit: int) -> None:
        elements = [IDENTITY]
        number = {IDENTITY: 0}
        columns = tuple(array("i", [-1]) for _ in GENERATORS)
        starts = [0, 1]  # sphere r holds the numbers starts[r] .. starts[r+1]-1
        for radius in range(1, n + 1):
            for u in range(starts[-2], starts[-1]):
                v = elements[u]
                for k, g in enumerate(GENERATORS):
                    if columns[k][u] >= 0:
                        continue
                    w = nf_multiply(v, g)
                    j = number.get(w)
                    if j is None:
                        if len(elements) >= limit:
                            raise ResourceLimitError(
                                f"element limit {limit} exceeded at radius {radius} "
                                f"(radius {radius - 1} completed)"
                            )
                        j = len(elements)
                        number[w] = j
                        elements.append(w)
                        for column in columns:
                            column.append(-1)
                    columns[k][u] = j
                    columns[k ^ 1][j] = u
            starts.append(len(elements))
        super().__init__(elements, number, columns)
        self.radius = n
        self.sphere_starts = starts


# every completed ball still referenced, by the cache or by a set
_BUILT: "weakref.WeakSet[_CayleyBall]" = weakref.WeakSet()


@lru_cache(maxsize=8)
def _ball_members(n: int, limit: int) -> _CayleyBall:
    graph = _CayleyBall(n, limit)
    _BUILT.add(graph)
    return graph


def _ball_mask(items: list[NormalForm]) -> tuple[_CayleyBall, bytes] | None:
    """The smallest built ball that holds every item, with the items' mask
    over it; None when no built ball holds them all."""
    largest = max(_BUILT, key=lambda b: b.radius, default=None)
    if largest is None:
        return None
    number = largest.number
    mask = bytearray(len(largest.elements) + 1)
    for v in items:
        u = number.get(v)
        if u is None:
            return None
        mask[u] = 1
    # numberings are prefixes of one another, so any ball that is longer
    # than the highest number holds the set
    top = mask.rfind(1)
    graph = min((b for b in _BUILT if len(b.elements) > top), key=lambda b: b.radius)
    return graph, bytes(mask[: len(graph.elements)]) + b"\0"


class ElementSet:
    """A finite set of group elements keyed by their normal forms.

    Every set is a byte mask over an interned graph's numbering, with one
    extra 0 byte at the end, which a -1 column entry reads.  A set made
    from elements lies on the smallest built ball that holds it, or else
    on the graph it spans, built when the set is made; `&` and `-` keep
    the left operand's graph.  `members` is the frozenset of the
    elements, derived on request.
    """

    __slots__ = ("_graph", "_mask", "_size")

    def __init__(self, elements: Iterable[NormalForm]) -> None:
        items = list(elements)
        graph, mask = _ball_mask(items) or _spanned_graph(items)
        self._graph, self._mask, self._size = graph, mask, mask.count(1)

    @classmethod
    def _view(cls, graph: _CayleyGraph, mask: bytes) -> "ElementSet":
        s = cls.__new__(cls)
        s._graph, s._mask, s._size = graph, mask, mask.count(1)
        return s

    @classmethod
    def of(cls, elements: Iterable[NormalForm]) -> "ElementSet":
        """The set of `elements`, as the constructor makes it."""
        return cls(elements)

    @property
    def members(self) -> frozenset[NormalForm]:
        return frozenset(self)

    def _operands(self, other: "ElementSet") -> tuple[int, int]:
        """Both masks as ints over self's graph (byte i of the int is byte
        i of the mask).  Members of `other` outside that graph set only
        the trailing byte, which is 0 in self's mask, so `&`, `-` and `<=`
        ignore them."""
        mask = other._mask
        if other._graph is not self._graph:
            number = self._graph.number
            mask = bytearray(len(self._mask))
            for v in other:
                mask[number.get(v, -1)] = 1
        return int.from_bytes(self._mask, "little"), int.from_bytes(mask, "little")

    def _result(self, combined: int) -> "ElementSet":
        return ElementSet._view(self._graph, combined.to_bytes(len(self._mask), "little"))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[NormalForm]:
        return compress(self._graph.elements, self._mask)

    def __contains__(self, nf: NormalForm) -> bool:
        return self._mask[self._graph.number.get(nf, -1)] == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return len(self) == len(other) and self <= other

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"ElementSet(members={self.members!r})"

    def __le__(self, other: "ElementSet") -> bool:
        a, b = self._operands(other)
        return (a | b) == b

    def __and__(self, other: "ElementSet") -> "ElementSet":
        a, b = self._operands(other)
        return self._result(a & b)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        if other._graph is not self._graph:
            return ElementSet(chain(self, other))
        a, b = self._operands(other)
        return self._result(a | b)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        a, b = self._operands(other)
        return self._result(a ^ (a & b))

    def sorted_members(self) -> list[NormalForm]:
        """Members ordered by formatted normal form; the order every
        output format uses."""
        elements, rank = self._graph.elements, self._graph.rank()
        numbers = compress(range(len(elements)), self._mask)
        return [elements[u] for u in sorted(numbers, key=rank.__getitem__)]


@dataclass(frozen=True)
class SubgraphStats:
    """Vertex count, oriented edge count, and their exact quotient."""

    vertex_count: int
    oriented_edge_count: int
    density: Fraction

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex count must be positive")
        if self.density != Fraction(self.oriented_edge_count, self.vertex_count):
            raise ValueError("density must equal oriented_edge_count/vertex_count")
        if not 0 <= self.density < 4:
            raise ValueError(f"density {self.density} outside [0, 4)")


def ball(n: int, limit: int = DEFAULT_ELEMENT_LIMIT) -> ElementSet:
    """All elements of word length at most n in {x0^+-1, x1^+-1}, by
    breadth-first search from the identity.  Deterministic content;
    raises ResourceLimitError when the set would exceed `limit`."""
    if n < 0:
        raise ValueError("radius must be non-negative")
    if limit < 1:
        raise ValueError(f"element limit must be at least 1, got {limit}")
    graph = _ball_members(n, limit)
    return ElementSet._view(graph, b"\1" * len(graph.elements) + b"\0")


def subgraph_density(s: ElementSet) -> SubgraphStats:
    """Density of the subgraph spanned by s: each vertex contributes one
    oriented edge per generator image that stays inside s."""
    if not len(s):
        raise ValueError("density of the empty set is undefined")
    mask = s._mask  # mask[-1] is the trailing 0, read for a -1 entry
    edges = sum(sum(map(mask.__getitem__, compress(column, mask)))
                for column in s._graph.columns)
    return SubgraphStats(len(s), edges, Fraction(edges, len(s)))


def class_histogram(s: ElementSet) -> dict[ClassLabel, int]:
    """Element count per class, with every label present in M1..M7 order."""
    counts = Counter(compress(s._graph.classes(), s._mask))
    return {label: counts[label.value] for label in ClassLabel}


def mu_hat(s: ElementSet, z: ElementSet) -> Fraction:
    """The exact quotient |s intersect z| / |s|."""
    if not len(s):
        raise ValueError("mu_hat needs a nonempty reference set")
    return Fraction(len(s & z), len(s))


def drop_classes(s: ElementSet, classes: Iterable[ClassLabel]) -> ElementSet:
    """Remove every element whose class lies in `classes`."""
    dropped = {label.value for label in classes}
    if not dropped:
        return s
    keep = bytes(value not in dropped for value in range(256))
    return s & ElementSet._view(s._graph, s._graph.classes().translate(keep) + b"\0")


def translate_set(s: ElementSet, g: NormalForm) -> ElementSet:
    """Right-translate: {v*g for v in s}.  A bijection, so the size is kept."""
    return ElementSet.of(nf_multiply(v, g) for v in s)


@dataclass(frozen=True)
class DeletionBoundReport:
    """Densities before and after deleting K, the advertised bound
    density(S) - 4*|K|/|S| and the corrected bound density(S) - 8*|K|/|S|.

    A deleted vertex costs up to 8 oriented edges (its own 4 and up to 4
    into it), so only the corrected bound holds for every input."""

    density_before: Fraction
    density_after: Fraction
    bound: Fraction
    holds: bool
    corrected_bound: Fraction
    corrected_holds: bool


def deletion_bound_check(s: ElementSet, k: ElementSet) -> DeletionBoundReport:
    """Delete the vertices of k from s and compare the new density against
    both bounds.  `holds` can be false (deleting the identity from ball(1)
    is the smallest case); a false `corrected_holds` would disprove the
    corrected bound."""
    if not k <= s:
        raise ValueError("deleted vertices must form a subset of the graph")
    if len(k) == len(s):
        raise ValueError("cannot delete every vertex; the remainder has no density")
    before = subgraph_density(s).density
    after = subgraph_density(s - k).density
    bound = before - Fraction(4 * len(k), len(s))
    corrected = before - Fraction(8 * len(k), len(s))
    return DeletionBoundReport(
        density_before=before,
        density_after=after,
        bound=bound,
        holds=after >= bound,
        corrected_bound=corrected,
        corrected_holds=after >= corrected,
    )


# -- CSV and DOT output --------------------------------------------------------


def histogram_csv(counts: dict[ClassLabel, int]) -> str:
    lines = ["class,count"]
    lines.extend(f"{label},{counts.get(label, 0)}" for label in ClassLabel)
    return "\n".join(lines) + "\n"


def density_csv(label: str, stats: SubgraphStats) -> str:
    return (
        "label,vertices,oriented_edges,density_num,density_den\n"
        f"{label},{stats.vertex_count},{stats.oriented_edge_count},"
        f"{stats.density.numerator},{stats.density.denominator}\n"
    )


def elements_csv(s: ElementSet) -> str:
    lines = ["element"]  # sorted_members order: the strings are unique
    lines.extend(sorted(map(str, s)))
    return "\n".join(lines) + "\n"


def subgraph_dot(s: ElementSet) -> str:
    """DOT digraph of the spanned subgraph: vertices labelled by normal
    forms, one arrow per x0 and x1 edge staying inside the set."""
    lines = ["digraph cayley_subgraph {"]
    graph, mask = s._graph, s._mask
    ordered = s.sorted_members()
    for v in ordered:
        lines.append(f'  "{v}";')
    for v in ordered:
        for k, name in ((0, "x0"), (2, "x1")):
            w = graph.columns[k][graph.number[v]]
            if mask[w]:  # mask[-1] is the trailing 0
                lines.append(f'  "{v}" -> "{graph.elements[w]}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
