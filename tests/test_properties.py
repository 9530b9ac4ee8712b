"""Property tests: the two models agree on words deep enough to build combs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from thompsonf.diagrams import (
    CanonicalDiagram,
    concat_product,
    diagram_to_nf,
    format_diagram,
    nf_to_diagram,
    parse_diagram,
)
from thompsonf.words import nf_multiply, parse_word, reduce_to_normal_form

tokens = st.tuples(
    st.integers(0, 12),
    st.integers(-50, 50).filter(bool),
)
words = st.lists(tokens, max_size=60).map(
    lambda ts: " ".join(f"x{i}^{e}" for i, e in ts)
)
normal_forms = words.map(lambda text: reduce_to_normal_form(parse_word(text)))

deep = settings(deadline=None, max_examples=100)


@deep
@given(normal_forms)
def test_normal_form_diagram_roundtrip(g):
    d = nf_to_diagram(g)
    assert diagram_to_nf(d) == g
    assert parse_diagram(format_diagram(d)) == d


@deep
@given(normal_forms, normal_forms)
def test_models_multiply_alike(a, b):
    d = concat_product(nf_to_diagram(a), nf_to_diagram(b))
    # the constructor revalidates REDUCED and CANONICAL
    assert CanonicalDiagram(d.top, d.bottom) == d
    assert diagram_to_nf(d) == nf_multiply(a, b)
