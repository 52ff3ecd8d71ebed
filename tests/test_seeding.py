import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate.seeding import derive_seed, rng_for


@pytest.mark.parametrize("args, seed", [
    ((0,), 8493733112532773764),
    ((0, "demo", 0, 0), 4078450856530292723),
    ((7, "fm-step", 3), 1366852137013927613),
    ((12345, "expert", 2, 1), 5414547037495175648),
    ((-1, "x"), 3308054284174717336),
])
def test_derive_seed_values_are_pinned(args, seed):
    """Every stored dataset, checkpoint and digest depends on these values."""
    assert derive_seed(*args) == seed


def test_distinct_tags_give_distinct_seeds():
    tags = [("demo", i, attempt) for i, attempt in itertools.product(range(20), range(12))]
    tags += [("expert", i, attempt) for i, attempt in itertools.product(range(20), range(12))]
    tags += [(), ("demo",), ("demo", 0), ("fm-step", 0), ("corruption",)]
    seeds = [derive_seed(base, *t) for base in (0, 1, 1000) for t in tags]
    assert len(set(seeds)) == len(seeds)


@settings(max_examples=50, deadline=None)
@given(base=st.integers(-2**70, 2**70),
       tags=st.lists(st.one_of(st.integers(), st.text(max_size=8)), max_size=4))
def test_seeds_are_below_two_to_the_63(base, tags):
    seed = derive_seed(base, *tags)
    assert 0 <= seed < 2**63


def test_rng_for_draws_as_default_rng_of_the_derived_seed():
    a = rng_for(3, "demo", 1, 2)
    b = np.random.default_rng(derive_seed(3, "demo", 1, 2))
    assert np.array_equal(a.standard_normal(16), b.standard_normal(16))
    assert np.array_equal(a.integers(0, 2**31, size=8), b.integers(0, 2**31, size=8))
