import hashlib

from thompsonf.diagrams import (
    diagram_to_dot,
    diagram_to_nf,
    format_diagram,
    nf_to_diagram,
    parse_diagram,
)
from thompsonf.folner import ball
from thompsonf.words import NormalForm

# SHA-256 of format_diagram(d) + "\n" + diagram_to_dot(d) over every d in
# ball(5), in sorted_members() order, recorded while forests were still
# nested tuples.  It pins the text form and the preorder DOT arc order.
BALL5_DIAGRAM_SHA256 = "f6240c8d9453bf5c1e9c783c722ecffe5ad553690d5e4982cc022ef0e125501e"


def test_ball5_output_is_unchanged():
    h = hashlib.sha256()
    for g in ball(5).sorted_members():
        d = nf_to_diagram(g)
        h.update((format_diagram(d) + "\n" + diagram_to_dot(d)).encode())
    assert h.hexdigest() == BALL5_DIAGRAM_SHA256


def test_deep_comb_roundtrips():
    g = NormalForm((0,) * 2000, ())
    d = nf_to_diagram(g)
    assert parse_diagram(format_diagram(d)) == d
    assert diagram_to_nf(d) == g
    assert diagram_to_dot(d).count("[color=blue]") == 2000
