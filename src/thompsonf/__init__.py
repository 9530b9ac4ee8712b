"""Thompson's group F: exact arithmetic in two independent representations.

Elements live either as normal forms over the infinite generating set
(`words`) or as canonical forest-pair diagrams (`diagrams`).  On top sit
the right-divisor classification into M1..M7 (`classify`) and a
Cayley-graph toolkit with exact rational densities (`folner`).  The two
test oracles, `diagrams` and `rewriting`, are not imported here.
"""

from .words import (
    GENERATORS,
    IDENTITY,
    InvariantViolation,
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
    to_standard_word,
)
from .classify import (
    ClassLabel,
    DivisorSet,
    check_closures,
    check_partition,
    class_of,
    right_divisors,
)
from .folner import (
    DEFAULT_ELEMENT_LIMIT,
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
