"""Thompson's group F: exact arithmetic in two independent representations.

Elements live either as normal forms over the infinite generating set
(`words`) or as canonical forest-pair diagrams (`diagrams`); the two
models multiply independently and are tested against each other.  On top
sit the right-divisor classification into M1..M7 (`classify`) and a
Cayley-graph toolkit with exact rational densities (`folner`).
"""

from .words import (
    IDENTITY,
    Letter,
    NormalForm,
    ParseError,
    Word,
    format_word,
    from_standard_word,
    nf_invert,
    nf_multiply,
    parse_word,
    reduce_to_normal_form,
    reduce_word_by_rewriting,
    to_standard_word,
)
from .diagrams import (
    LEAF,
    CanonicalDiagram,
    Diagram,
    InvariantViolation,
    atomic,
    canonicalize,
    cells,
    concat_product,
    diagram_sum,
    diagram_to_dot,
    diagram_to_nf,
    epsilon,
    format_diagram,
    mirror,
    nf_to_diagram,
    parse_diagram,
    reduce_dipoles,
)
from .classify import (
    ClassLabel,
    DivisorSet,
    check_closures,
    check_partition,
    class_of,
    right_divisible,
    right_divisors,
)
from .folner import (
    DEFAULT_ELEMENT_LIMIT,
    GENERATORS,
    DeletionBoundReport,
    ElementSet,
    ResourceLimitError,
    SubgraphStats,
    ball,
    class_histogram,
    deletion_bound_check,
    drop_classes,
    mu_hat,
    subgraph_density,
    translate_set,
)

__version__ = "0.1.0"
