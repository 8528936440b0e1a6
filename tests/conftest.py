import numpy as np
import pytest
from hypothesis import strategies as st

from cptq.choquet import DiscreteLaw


def random_discrete_law(rng, max_atoms=50, scale=5.0, signed=False):
    n = int(rng.integers(1, max_atoms + 1))
    values = rng.normal(0.0, scale, n) if signed else rng.exponential(scale, n)
    probs = rng.dirichlet(np.ones(n))
    return DiscreteLaw(values, probs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


# one sample value per declared constructor argument of the registry kinds
KIND_PARAMS = {"alpha": st.floats(0.2, 3.0), "beta": st.floats(0.2, 3.0),
               "shape": st.floats(0.2, 0.9)}


def registry_member(kinds):
    def build(cls):
        return st.tuples(*(KIND_PARAMS[name] for name in cls.params)).map(
            lambda args: cls(*args))
    return st.sampled_from(sorted(kinds.values(), key=lambda c: c.kind)).flatmap(build)


@st.composite
def signed_laws(draw):
    n = draw(st.integers(1, 30))
    # one decimal place: many exact ties and zero atoms
    values = np.round(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)), 1)
    weights = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return DiscreteLaw(values, weights / weights.sum())
