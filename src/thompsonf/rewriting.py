"""Literal small-step rewriting in Thompson's group F: the test oracle for
`words.reduce_to_normal_form`.

`reduce_word_by_rewriting` applies the rewriting rules listed in the
`words` docstring (the oriented relations and the shift rule) one redex
at a time, under a selectable strategy, so the tests can compare the
strategies with each other and with the production fold.  No CLI verb
runs it, so the package namespace does not re-export it: import it as
`thompsonf.rewriting`, as with `thompsonf.diagrams`.
"""

from __future__ import annotations

from .words import Letter, NormalForm, Word

STRATEGIES = ("leftmost", "rightmost")


def _adjacent_rewrite(a: Letter, b: Letter) -> tuple[Letter, ...] | None:
    """Replacement for the adjacent pair (a, b), or None if irreducible."""
    if a.index == b.index and a.sign == -b.sign:
        return ()
    if a.sign > 0 and b.sign > 0 and a.index > b.index:
        return (b, Letter(a.index + 1, 1))
    if a.sign < 0 and b.sign < 0 and a.index < b.index:
        return (Letter(b.index + 1, -1), a)
    if a.sign < 0 and b.sign > 0:
        if a.index < b.index:
            return (Letter(b.index + 1, 1), a)
        return (b, Letter(a.index + 1, -1))
    return None


def _seminormalize(letters: list[Letter], leftmost: bool) -> None:
    """Apply the adjacent rules in place until none fires, attacking the
    leftmost or the rightmost redex first."""
    k = 0 if leftmost else len(letters) - 2
    while 0 <= k < len(letters) - 1:
        replacement = _adjacent_rewrite(letters[k], letters[k + 1])
        if replacement is None:
            k += 1 if leftmost else -1
        else:
            letters[k : k + 2] = replacement
            k = max(0, k - 1) if leftmost else min(len(letters) - 2, k + 1)


def _find_shift_redex(letters: list[Letter], leftmost: bool):
    """Locate a factor x_i w x_i^-1 with all indices of w >= i+2."""
    order = range(len(letters)) if leftmost else range(len(letters) - 1, -1, -1)
    for k in order:
        index, sign = letters[k]
        if sign < 0:
            continue
        for l in range(k + 1, len(letters)):
            other, other_sign = letters[l]
            if other == index and other_sign < 0:
                return k, l
            if other < index + 2:
                break
    return None


def reduce_word_by_rewriting(w: Word, strategy: str = "leftmost") -> NormalForm:
    """Reduce by applying one rewriting rule at a time.

    `strategy` picks which redex to attack first ("leftmost" or
    "rightmost"); every strategy reaches the same normal form.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    leftmost = strategy == "leftmost"
    letters = list(w.letters)
    while True:
        _seminormalize(letters, leftmost)
        redex = _find_shift_redex(letters, leftmost)
        if redex is None:
            break
        k, l = redex
        letters[k : l + 1] = [Letter(ix - 1, sg) for ix, sg in letters[k + 1 : l]]
    split = len(letters)
    for m, lt in enumerate(letters):
        if lt.sign < 0:
            split = m
            break
    pos = tuple(lt.index for lt in letters[:split])
    neg = tuple(lt.index for lt in reversed(letters[split:]))
    return NormalForm(pos, neg)
