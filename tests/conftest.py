import itertools
import random

import pytest

from thompsonf import folner
from thompsonf.words import Letter, NormalForm, Word, reduce_to_normal_form


@pytest.fixture
def no_built_balls():
    """Empty the process's ball store before and after the test, so that it
    builds, times and counts every ball it asks for."""
    folner._BALLS.clear()
    yield
    folner._BALLS.clear()


def random_word(rng: random.Random, max_len=30, max_index=8) -> Word:
    n = rng.randint(0, max_len)
    return Word(
        tuple(Letter(rng.randint(0, max_index), rng.choice((1, -1))) for _ in range(n))
    )


def random_normal_form(rng: random.Random, max_len=30, max_index=8):
    return reduce_to_normal_form(random_word(rng, max_len, max_index))


def small_normal_forms(most=4, indices=range(7)):
    """Every valid normal form whose halves hold at most `most` indices
    from `indices`."""
    halves = [
        half
        for size in range(most + 1)
        for half in itertools.combinations_with_replacement(indices, size)
    ]
    for pos in halves:
        for neg in halves:
            try:
                yield NormalForm(pos, neg)
            except ValueError:
                pass
