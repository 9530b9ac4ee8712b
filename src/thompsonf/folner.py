"""Finite subsets of F as subgraphs of its Cayley graph on {x0, x1}.

A finite set of elements spans a subgraph of the Cayley graph; its
density is the average number of the four oriented generator edges that
stay inside the set, an exact rational strictly below 4.  This module
builds balls by breadth-first search, computes densities and per-class
histograms, translates and filters sets, and checks the vertex-deletion
density bound.  All arithmetic uses fractions.Fraction; nothing here
touches floating point.

A ball is built once, as an interned Cayley graph (`_CayleyBall`).  Its
elements are numbered 0, 1, 2, ... in BFS order, so each sphere is a run
of consecutive numbers, and the numbering of a smaller ball is a prefix
of that of a larger one.  Four `array('i')` columns, one per generator in
GENERATORS order, hold the number of v*g for every element v, or -1 for
an edge the BFS did not record.  Each product u*g = w the BFS computes
fills both directions (w*g^-1 = u), and the BFS skips the edges it
already knows.  Sort ranks and divisor flags (classify's rule, read off
each normal form with no product) are derived once per ball, on first
use.

Why -1 means "outside the ball": the exponent sum is a homomorphism from
F to the integers (every relation x_j x_i = x_i x_{j+1} has two letters
on each side) and sends each of x0, x1 to 1.  So every word for an
element has the parity of its exponent sum, the radius does too, and no
edge joins two elements of the same sphere.  A neighbour of an element
at radius r < n lies in the ball, and the BFS has recorded that edge
once it has expanded the element.  A neighbour of an element at radius n lies at
radius n-1, an edge recorded from the other end, or at radius n+1,
outside the ball.

A set drawn from a built ball (`ball`, `ElementSet.of` on elements of a
ball, and what set operations and `drop_classes` derive from those) is a
byte mask over the ball's numbering, so densities, classes, deletion
checks and sort orders read columns, flags and masks instead of
multiplying normal forms.  A set with an element outside every built
ball keeps a frozenset and the `nf_multiply` path, which is also the
oracle the graph path is tested against.
"""

from __future__ import annotations

import weakref
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator

from .classify import ClassLabel, DivisorSet, _divisor_flags, class_of
from .words import NormalForm, nf_multiply

DEFAULT_ELEMENT_LIMIT = 1_000_000

# right-multiplication alphabet, in fixed BFS order; GENERATORS[k ^ 1] is
# the inverse of GENERATORS[k]
GENERATORS: tuple[NormalForm, ...] = (
    NormalForm((0,), ()),
    NormalForm((), (0,)),
    NormalForm((1,), ()),
    NormalForm((), (1,)),
)

# divisor flags (X0, X0^-1, X1, X1^-1) of every 4-bit value, bit f for flag f
_FLAGS = [tuple(bool(bits >> f & 1) for f in range(4)) for bits in range(16)]
_BITS = {flags: bits for bits, flags in enumerate(_FLAGS)}


class ResourceLimitError(RuntimeError):
    """Raised when a ball would exceed the configured element limit."""


def _label(bits: int) -> ClassLabel:
    """The class of a divisor-flag byte; InvariantViolation if inadmissible."""
    return DivisorSet(*_FLAGS[bits]).label()


class _CayleyBall:
    """The radius-n ball as an interned Cayley graph (module docstring)."""

    __slots__ = ("radius", "elements", "number", "columns", "sphere_starts",
                 "_rank", "_flags", "__weakref__")

    def __init__(self, n: int, limit: int) -> None:
        identity = NormalForm()
        elements = [identity]
        number = {identity: 0}
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
        self.radius = n
        self.elements = elements
        self.number = number
        self.columns = columns
        self.sphere_starts = starts
        self._rank: array | None = None
        self._flags: bytes | None = None

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

    def flags(self) -> bytes:
        """Divisor flags of every element as bits (1 X0, 2 X0^-1, 4 X1,
        8 X1^-1), by classify's rule on each normal form."""
        if self._flags is None:
            self._flags = bytes(_BITS[_divisor_flags(v)] for v in self.elements)
        return self._flags


# every completed ball still referenced, by the cache or by a set
_BUILT: "weakref.WeakSet[_CayleyBall]" = weakref.WeakSet()


@lru_cache(maxsize=8)
def _ball_members(n: int, limit: int) -> _CayleyBall:
    graph = _CayleyBall(n, limit)
    _BUILT.add(graph)
    return graph


class ElementSet:
    """A finite set of group elements keyed by their normal forms.

    A set drawn from a built ball is a byte mask over that ball's
    numbering, with one extra 0 byte at the end, which a -1 column entry
    reads; any other set holds a frozenset.  Both kinds answer the same
    questions, and `members` is the frozenset either way.
    """

    __slots__ = ("_members", "_graph", "_mask", "_size")

    def __init__(self, members: frozenset[NormalForm]) -> None:
        self._members: frozenset[NormalForm] | None = members
        self._graph: _CayleyBall | None = None
        self._mask = b""
        self._size = len(members)

    @classmethod
    def _view(cls, graph: _CayleyBall, mask: bytes) -> "ElementSet":
        s = cls.__new__(cls)
        s._members = None
        s._graph = graph
        s._mask = mask
        s._size = mask.count(1)
        return s

    @classmethod
    def of(cls, elements: Iterable[NormalForm]) -> "ElementSet":
        """The set of `elements`; a mask over the smallest built ball that
        holds them all, when there is one."""
        items = list(elements)
        largest = max(_BUILT, key=lambda b: b.radius, default=None)
        if largest is None:
            return cls(frozenset(items))
        number = largest.number
        mask = bytearray(len(largest.elements) + 1)
        for v in items:
            u = number.get(v)
            if u is None:
                return cls(frozenset(items))
            mask[u] = 1
        # numberings are prefixes of one another, so any ball that is
        # longer than the highest number holds the set
        top = mask.rfind(1)
        graph = min((b for b in _BUILT if len(b.elements) > top),
                    key=lambda b: b.radius)
        size = len(graph.elements)
        return cls._view(graph, bytes(mask[:size]) + b"\0")

    @property
    def members(self) -> frozenset[NormalForm]:
        if self._members is None:
            self._members = frozenset(self)
        return self._members

    def _numbers(self) -> Iterator[int]:
        return compress(range(len(self._graph.elements)), self._mask)

    def _operands(self, other: "ElementSet"):
        """Both masks as ints (byte i of the int is byte i of the mask)
        when the sets share a ball, else both frozensets; `&`, `|`, `^`
        and `==` mean the same set operation on either."""
        if self._graph is not None and self._graph is other._graph:
            return int.from_bytes(self._mask, "little"), int.from_bytes(other._mask, "little")
        return self.members, other.members

    def _result(self, combined) -> "ElementSet":
        if isinstance(combined, int):
            return ElementSet._view(self._graph, combined.to_bytes(len(self._mask), "little"))
        return ElementSet.of(combined)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[NormalForm]:
        if self._graph is None:
            return iter(self._members)
        return map(self._graph.elements.__getitem__, self._numbers())

    def __contains__(self, nf: NormalForm) -> bool:
        return nf in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.members == other.members

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
        a, b = self._operands(other)
        return self._result(a | b)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        a, b = self._operands(other)
        return self._result(a ^ (a & b))

    def sorted_members(self) -> list[NormalForm]:
        """Members ordered by formatted normal form; the order every
        output format uses."""
        if self._graph is None:
            return sorted(self._members, key=str)
        elements, rank = self._graph.elements, self._graph.rank()
        return [elements[u] for u in sorted(self._numbers(), key=rank.__getitem__)]

    def _image(self, v: NormalForm, k: int) -> NormalForm | None:
        """v * GENERATORS[k] when it lies in the set, else None."""
        if self._graph is None:
            w = nf_multiply(v, GENERATORS[k])
            return w if w in self._members else None
        w = self._graph.columns[k][self._graph.number[v]]
        return self._graph.elements[w] if self._mask[w] else None


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
    graph = _ball_members(n, limit)
    return ElementSet._view(graph, b"\1" * len(graph.elements) + b"\0")


def subgraph_density(s: ElementSet) -> SubgraphStats:
    """Density of the subgraph spanned by s: each vertex contributes one
    oriented edge per generator image that stays inside s."""
    if not len(s):
        raise ValueError("density of the empty set is undefined")
    if s._graph is None:
        members = s.members
        edges = sum(nf_multiply(v, g) in members for v in members for g in GENERATORS)
    else:
        mask = s._mask  # mask[-1] is the trailing 0, read for a -1 entry
        edges = sum(sum(map(mask.__getitem__, compress(column, mask)))
                    for column in s._graph.columns)
    return SubgraphStats(len(s), edges, Fraction(edges, len(s)))


def class_histogram(s: ElementSet) -> dict[ClassLabel, int]:
    """Element count per class, with every label present in M1..M7 order."""
    counts = {label: 0 for label in ClassLabel}
    if s._graph is None:
        for v in s.members:
            counts[class_of(v)] += 1
    else:
        for bits, count in Counter(compress(s._graph.flags(), s._mask)).items():
            counts[_label(bits)] += count
    return counts


def mu_hat(s: ElementSet, z: ElementSet) -> Fraction:
    """The exact quotient |s intersect z| / |s|."""
    if not len(s):
        raise ValueError("mu_hat needs a nonempty reference set")
    return Fraction(len(s & z), len(s))


def drop_classes(s: ElementSet, classes: Iterable[ClassLabel]) -> ElementSet:
    """Remove every element whose class lies in `classes`."""
    dropped = set(classes)
    if not dropped:
        return s
    if s._graph is None:
        return ElementSet(frozenset(v for v in s.members if class_of(v) not in dropped))
    flags = s._graph.flags()
    keep = bytearray(256)
    for bits in set(compress(flags, s._mask)):
        keep[bits] = _label(bits) not in dropped
    return s & ElementSet._view(s._graph, flags.translate(keep) + b"\0")


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
    lines = ["element"]
    lines.extend(str(v) for v in s.sorted_members())
    return "\n".join(lines) + "\n"


def subgraph_dot(s: ElementSet) -> str:
    """DOT digraph of the spanned subgraph: vertices labelled by normal
    forms, one arrow per x0 and x1 edge staying inside the set."""
    lines = ["digraph cayley_subgraph {"]
    ordered = s.sorted_members()
    for v in ordered:
        lines.append(f'  "{v}";')
    for v in ordered:
        for k, name in ((0, "x0"), (2, "x1")):
            w = s._image(v, k)
            if w is not None:
                lines.append(f'  "{v}" -> "{w}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
