"""The report of `folner.deletion_bound_check`: a frozen dataclass, kept
apart so that only that check loads `dataclasses`."""

from dataclasses import dataclass
from fractions import Fraction


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
