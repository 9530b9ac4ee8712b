"""Finite subsets of F as subgraphs of its Cayley graph on {x0, x1}.

A finite set of elements spans a subgraph of the Cayley graph; its
density is the average number of the four oriented generator edges that
stay inside the set, an exact rational strictly below 4.  This module
builds balls by breadth-first search, computes densities and per-class
histograms, translates and filters sets, and checks the vertex-deletion
density bound.  All arithmetic uses fractions.Fraction; nothing here
touches floating point.

Every set is a byte mask over an interned Cayley graph (`_CayleyGraph`):
elements numbered 0, 1, 2, ..., a dict from normal form to number (for a
ball, unpacked from its keys on first use, see below), and two
`array('i')` columns, for x0 and then x1, holding the number of v*g
for every element v, or -1 when v*g lies outside the graph.  No column
holds the x0^-1 and x1^-1 edges, because inside a set they are the x0
and x1 edges read from the other end: for v, w in the set, v*g^-1 = w
exactly when w*g = v.  So a density counts the x0 and x1 edges inside
the set and doubles the count; that needs only that every column entry
inside the graph is the exact product, which the BFS and the spanned
graph both guarantee.  The sort order and the classes (one byte per
element, the value of its `class_of` label, read off the (pos, neg)
halves of each element with no product) are derived once per graph, on
first use.  The sort order is kept as the numbers in that order and as
the elements in that order; a number dict built after it shares the
numbers' int objects.  Every set is sorted by one `operator.itemgetter`
call that reads its mask in that order, and one `compress`.  A density
keeps nothing per graph: one itemgetter call, made for the set, reads
the mask bytes at each column's entries under the mask, so densities
never derive the sort order.  Densities, histograms, deletion checks and
sort orders read columns, class bytes and masks; none multiplies normal
forms.  The check
passes read them too and only decide; the closure pass makes just the
products no column holds (those that leave the graph, and those by x0^-1
and x1^-1), and a failing check's lines come from its `classify` oracle.

A ball (`_CayleyBall`) is built once, by BFS, on packed keys: each
element is one bytes object (`words.pack`), and the BFS dedups them one
sphere at a time, in a dict from key to number that it drops once the
sphere is done.  The ball keeps the keys; its normal forms and their
dict are unpacked only when a set operation, a membership test or
iteration asks for them, so the ball, density, histogram and drop paths
build no `NormalForm`.  Elements are numbered in BFS order, so each
sphere is a run of consecutive numbers, and the numbering of a smaller
ball is a prefix of that of a larger one.  The BFS takes each edge
u*g = w with one packed letter step of `words.GENERATOR_STEPS`, the step
`nf_multiply` takes for that one-letter right factor, and fills both
directions (w*g^-1 = u) in four working columns, one per generator in
GENERATORS order; it skips the edges it already knows.  The columns
grow one sphere at a time: before a sphere is expanded each is padded
with -1 by the number of unknown edges out of the sphere, which bounds
its new elements, and trimmed back to the element count after.  The
ball keeps the x0 and x1 columns.

Every ball built is kept in one dict by radius for the life of the
process, and none is evicted: ball sizes grow about 2.8 times a radius,
so all the balls up to radius n hold about 1.6 times ball(n).  A set
whose elements all lie in a built ball is a mask over the smallest such
ball.  Any other set spans its own graph when it is made: two products
per element (by x0 and x1), once.

Why -1 means "outside the ball": the exponent sum is a homomorphism from
F to the integers (every relation x_j x_i = x_i x_{j+1} has two letters
on each side) and sends each of x0, x1 to 1.  So every word for an
element has the parity of its exponent sum, the radius does too, and no
edge joins two elements of the same sphere.  A neighbour of an element
at radius r < n lies in the ball, and the BFS has recorded that edge
once it has expanded the element.  A neighbour of an element at radius n lies at
radius n-1, an edge recorded from the other end, or at radius n+1,
outside the ball.  In the same way every unknown edge out of sphere r
lands in sphere r+1 (an edge into sphere r-1 was recorded when r-1 was
expanded), so the dedup can forget each sphere once it is done.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, compress, repeat, starmap
from operator import itemgetter, mul
from typing import Iterable, Iterator

from . import classify
from .classify import ClassLabel, class_values
from .words import (GENERATOR_STEPS, GENERATORS, IDENTITY, PACKED_MAX, InvariantViolation,
                    NormalForm, _Value, format_halves, key_halves, nf_multiply, pack, unpack)


def Fraction(numerator: int, denominator: int) -> Fraction:
    """`fractions.Fraction`, imported by the first call, which rebinds this
    name to it: only densities, `mu_hat` and the deletion check make a
    Fraction, and `fractions` loads `decimal` and `numbers` too, so the
    other verbs skip all three."""
    global Fraction
    from fractions import Fraction
    return Fraction(numerator, denominator)


DEFAULT_ELEMENT_LIMIT = 1_000_000
# Largest radius the BFS builds.  Every index and the letter count of an
# element of ball(n) are at most n: a letter step moves an index by at most
# one, and a new index is at most one more than the letter count.  So the
# product of any element by a generator packs, as the BFS steps and the
# closure pass (which steps from sphere n too) need.  The class rule on it
# probes no byte above 255: the landing k is at most 1 + len(neg) <= n + 2,
# and k + 1 is probed only when k is in pos, so k <= n + 1.
_MAX_RADIUS = PACKED_MAX - 1


class ResourceLimitError(RuntimeError):
    """Raised when a ball would exceed the configured element limit, or the
    largest radius whose elements pack into bytes keys."""


class _CayleyGraph:
    """Numbered elements and their x0 and x1 neighbour columns, in that
    order; every entry is the exact product or -1 (module docstring)."""

    __slots__ = ("_elements", "_number", "columns", "_order", "_classes")

    def __init__(self, elements: list[NormalForm] | None,
                 number: dict[NormalForm, int] | None, columns: tuple[array, ...]) -> None:
        self._elements = elements
        self._number = number
        self.columns = columns
        self._order: tuple[tuple[int, ...], list[NormalForm]] | None = None
        self._classes: bytes | None = None

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def elements(self) -> list[NormalForm]:
        return self._elements

    @property
    def number(self) -> dict[NormalForm, int]:
        """Normal form to number, derived on first use.  Built after the
        sort order, the dict shares its int objects rather than hold two per
        element (ball(10): 2.8 MB)."""
        if self._number is None:
            if self._order is None:
                self._number = {v: u for u, v in enumerate(self.elements)}
            else:
                order, in_order = self._order
                self._number = dict(zip(in_order, order))
        return self._number

    def halves(self, mask: bytes | None = None) -> Iterable[tuple]:
        """The (pos, neg) halves of every element, or of those `mask`
        selects, in number order."""
        return self.elements if mask is None else compress(self.elements, mask)

    def products(self, numbers: Iterable[int], k: int) -> Iterator[tuple]:
        """The (pos, neg) halves of v * GENERATORS[k] for each element v
        that `numbers` names."""
        return map(nf_multiply, map(self.elements.__getitem__, numbers), repeat(GENERATORS[k]))

    def order(self) -> tuple[tuple[int, ...], list[NormalForm]]:
        """The numbers in the order of formatted normal forms, then two -1
        (reads of a mask's trailing 0 byte, so that an itemgetter over them
        returns a tuple however few the elements), and the elements in that
        order; each element is formatted once."""
        if self._order is None:
            keys = list(starmap(format_halves, self.halves()))
            order = sorted(range(len(keys)), key=keys.__getitem__)
            del keys
            self._order = (*order, -1, -1), list(map(self.elements.__getitem__, order))
        return self._order

    def classes(self) -> bytes:
        """The class of every element, as the value 1 ... 7 of its label.  The
        whole graph is classified on first use, however small the set (ball(8):
        11,237 elements), so later histograms and drops on it are free.  An
        inadmissible divisor set raises, as in `class_of`."""
        if self._classes is None:
            self._classes = class_values(self.halves())
        return self._classes


def _spanned_graph(items: list[NormalForm]) -> tuple[_CayleyGraph, bytes]:
    """The graph `items` span (two products per element) and its full mask."""
    for v in items:  # before the dedup, which takes a tuple equal to one as a repeat
        if not isinstance(v, NormalForm):
            raise TypeError(f"elements must be NormalForms, got {type(v).__name__}")
    elements = list(dict.fromkeys(items))
    number = {v: u for u, v in enumerate(elements)}
    columns = tuple(array("i", [number.get(nf_multiply(v, g), -1) for v in elements])
                    for g in GENERATORS[::2])
    return _CayleyGraph(elements, number, columns), b"\1" * len(elements) + b"\0"


class _CayleyBall(_CayleyGraph):
    """The radius-n ball, built by one BFS of packed letter steps, its
    columns grown and its new elements deduplicated a sphere at a time
    (module docstring).  The elements are kept as packed keys; the normal
    forms are unpacked on first use."""

    __slots__ = ("keys", "sphere_starts")

    def __init__(self, n: int, limit: int) -> None:
        keys = [pack(IDENTITY)]
        columns = tuple(array("i", [-1]) for _ in GENERATORS)
        starts = [0, 1]  # sphere r holds the numbers starts[r] .. starts[r+1]-1
        steps = tuple(enumerate(GENERATOR_STEPS))
        for radius in range(1, n + 1):
            first, end = starts[-2], starts[-1]
            # each unknown edge out of the sphere adds at most one element
            room = sum(column[first:end].count(-1) for column in columns)
            padding = array("i", [-1]) * room
            for column in columns:
                column.extend(padding)
            sphere = {}  # the keys of sphere `radius`, to their numbers from `end`
            for u in range(first, end):
                v = keys[u]
                for k, step in steps:
                    if columns[k][u] >= 0:
                        continue
                    j = sphere.setdefault(step(v), end + len(sphere))
                    if j >= limit:  # only a new element can be numbered this high
                        raise ResourceLimitError(
                            f"element limit {limit} exceeded at radius {radius} "
                            f"(radius {radius - 1} completed)"
                        )
                    columns[k][u] = j
                    columns[k ^ 1][j] = u
            keys += sphere  # in insertion order, which is numbering order
            for column in columns:
                del column[len(keys):]
            starts.append(len(keys))
        super().__init__(None, None, columns[::2])
        self.keys = keys
        self.sphere_starts = starts

    @property
    def elements(self) -> list[NormalForm]:
        if self._elements is None:
            self._elements = list(map(unpack, self.keys))
        return self._elements

    def halves(self, mask: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        return map(key_halves, self.keys if mask is None else compress(self.keys, mask))

    def products(self, numbers: Iterable[int], k: int) -> Iterator[tuple[bytes, bytes]]:
        # one packed letter step each; every product packs (_MAX_RADIUS)
        step = GENERATOR_STEPS[k]
        return map(key_halves, map(step, map(self.keys.__getitem__, numbers)))


# every ball built in this process, by radius (module docstring)
_BALLS: dict[int, _CayleyBall] = {}


def _ball_mask(items: list[NormalForm]) -> tuple[_CayleyBall, bytes] | None:
    """The smallest built ball that holds every item, with the items' mask
    over it; None when no built ball holds them all."""
    for n in sorted(_BALLS):
        graph = _BALLS[n]
        number = graph.number
        mask = bytearray(len(graph) + 1)
        for v in items:
            if not isinstance(v, NormalForm):  # a tuple equal to one would match
                raise TypeError(f"elements must be NormalForms, got {type(v).__name__}")
            u = number.get(v)
            if u is None:
                break
            mask[u] = 1
        else:
            return graph, bytes(mask)
    return None


class ElementSet:
    """A finite set of group elements keyed by their normal forms.

    Every set is a byte mask over an interned graph's numbering, with one
    extra 0 byte at the end, which a -1 column entry reads.  A set made
    from elements lies on the smallest ball built in the process (balls
    are kept by radius, never evicted) that holds it, or else on the
    graph it spans, built when the set is made; `&` and `-` keep
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

    def __le__(self, other: object) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        a, b = self._operands(other)
        return (a | b) == b

    def __and__(self, other: object) -> "ElementSet":
        if not isinstance(other, ElementSet):
            return NotImplemented
        a, b = self._operands(other)
        return self._result(a & b)

    def __or__(self, other: object) -> "ElementSet":
        if not isinstance(other, ElementSet):
            return NotImplemented
        if other._graph is not self._graph:
            return ElementSet(chain(self, other))
        a, b = self._operands(other)
        return self._result(a | b)

    def __sub__(self, other: object) -> "ElementSet":
        if not isinstance(other, ElementSet):
            return NotImplemented
        a, b = self._operands(other)
        return self._result(a ^ (a & b))

    def sorted_members(self) -> list[NormalForm]:
        """Members ordered by formatted normal form; the order every
        output format uses.  One itemgetter call reads the mask in the
        graph's sorted order and the sorted elements are compressed by it:
        no Python call per member, at a cost in the graph's size."""
        order, in_order = self._graph.order()
        # an itemgetter keeps the tuple it is given: made in O(1)
        return list(compress(in_order, itemgetter(*order)(self._mask)))


class SubgraphStats(_Value):
    """Vertex count, oriented edge count, and their exact quotient."""

    __slots__ = ("vertex_count", "oriented_edge_count", "density")

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex count must be positive")
        if self.density != Fraction(self.oriented_edge_count, self.vertex_count):
            raise ValueError("density must equal oriented_edge_count/vertex_count")
        if not 0 <= self.density < 4:
            raise ValueError(f"density {self.density} outside [0, 4)")


def ball(n: int, limit: int = DEFAULT_ELEMENT_LIMIT) -> ElementSet:
    """All elements of word length at most n in {x0^+-1, x1^+-1}, by
    breadth-first search from the identity.  Deterministic content; raises
    ResourceLimitError past radius _MAX_RADIUS (253) or `limit` elements."""
    for name, value in (("radius", n), ("limit", limit)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if n < 0:
        raise ValueError("radius must be non-negative")
    if n > _MAX_RADIUS:
        raise ResourceLimitError(f"radius {n} exceeds {_MAX_RADIUS}, the largest radius "
                                 "whose elements pack into bytes")
    if limit < 1:
        raise ValueError(f"element limit must be at least 1, got {limit}")
    graph = _BALLS.get(n)
    if graph is None or len(graph) > limit:
        # over the limit, the BFS raises before anything is stored
        graph = _BALLS[n] = _CayleyBall(n, limit)
    return ElementSet._view(graph, b"\1" * len(graph) + b"\0")


def subgraph_density(s: ElementSet) -> SubgraphStats:
    """Density of the subgraph spanned by s: each vertex contributes one
    oriented edge per generator image that stays inside s.  The x_g^-1
    edges inside s are in bijection with its x_g edges (v*g^-1 = w exactly
    when w*g = v), so the x0 and x1 edges are counted and doubled.  Each
    column's count is the sum of the mask bytes at the members' entries,
    read by one itemgetter made for s; a getter kept per graph and column
    would hold about 36 bytes an element for the life of the process."""
    if not len(s):
        raise ValueError("density of the empty set is undefined")
    mask = s._mask  # mask[-1] is the trailing 0, read for a -1 entry
    # one itemgetter call reads the members' targets; the two -1 make it a tuple
    edges = 2 * sum(sum(itemgetter(-1, -1, *compress(column, mask))(mask))
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
    dropped = set()
    for label in classes:
        if not isinstance(label, ClassLabel):
            raise TypeError(f"classes must be ClassLabels, got {type(label).__name__}")
        dropped.add(label.value)
    if not dropped:
        return s
    keep = bytes(value not in dropped for value in range(256))
    return s & ElementSet._view(s._graph, s._graph.classes().translate(keep) + b"\0")


def translate_set(s: ElementSet, g: NormalForm) -> ElementSet:
    """Right-translate: {v*g for v in s}.  A bijection, so the size is kept."""
    if not isinstance(g, NormalForm):
        raise TypeError(f"g must be a NormalForm, got {type(g).__name__}")
    return ElementSet.of(nf_multiply(v, g) for v in s)


def partition_violations(s: ElementSet) -> list[str]:
    """The lines of `classify.check_partition` on the members of s.  The
    class pass `classes()` decides: it raises at the first inadmissible
    divisor set in the graph, and only then does the oracle run on s."""
    try:
        s._graph.classes()
    except InvariantViolation:
        return classify.check_partition(s)
    return []


def closure_violations(s: ElementSet) -> list[str]:
    """The lines of `classify.check_closures` on the members of s, which
    runs only once a rule fails on the graph.  A rule's sources are the
    members whose class byte it applies to.  For x0 and x1, the class of a
    source's product is the class byte its column entry names; only the
    products outside the graph, and every product by x0^-1 or x1^-1 (no
    column holds those edges), are made by `products` (a packed letter
    step on a ball) and classified from their halves."""
    graph, mask = s._graph, s._mask
    classes = graph.classes()
    members = bytes(map(mul, classes, mask))  # the class value of a member, else 0
    for _, sources, factor, expected in classify._CLOSURE_RULES:
        k = GENERATORS.index(factor)
        select = bytearray(256)
        for label in sources:
            select[label.value] = 1
        numbers = array("i", compress(range(len(graph)), members.translate(select)))
        got = b""  # the class values of the sources' products
        if not k & 1:
            targets = array("i", map(graph.columns[k >> 1].__getitem__, numbers))
            got = bytes(map(classes.__getitem__, filter((-1).__lt__, targets)))
            numbers = array("i", compress(numbers, map((-1).__eq__, targets)))
        got += class_values(graph.products(numbers, k))
        if got.count(expected.value) != len(got):
            return classify.check_closures(s)
    return []


def deletion_bound_check(s: ElementSet, k: ElementSet) -> DeletionBoundReport:
    """Delete the vertices of k from s and compare the new density against
    both bounds.  `holds` can be false (deleting the identity from ball(1)
    is the smallest case); a false `corrected_holds` would disprove the
    corrected bound."""
    from .deletion_report import DeletionBoundReport
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


# -- CSV output ----------------------------------------------------------------


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
    lines.extend(sorted(starmap(format_halves, s._graph.halves(s._mask))))
    return "\n".join(lines) + "\n"
