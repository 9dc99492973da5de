import random

import pytest

from toricarcs.cones import Cone


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the record."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def a1():
    return Cone([(1, 0), (1, 2)])


@pytest.fixture
def a2():
    return Cone([(1, 0), (1, 3)])


@pytest.fixture
def quadrant():
    return Cone([(1, 0), (0, 1)])


def random_full_cone(rng: random.Random, dim: int, spread: int = 3) -> Cone:
    """A random strongly convex full-dimensional cone, rejection-sampled."""
    while True:
        count = rng.randint(dim, dim + 2)
        gens = [tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(count)]
        try:
            cone = Cone(gens, dim)
        except ValueError:
            continue
        if cone.is_full_dimensional():
            return cone


def random_smooth_cone(rng: random.Random, dim: int, shear: int = 2) -> Cone:
    """A random smooth full-dimensional cone: unimodular image of the orthant."""
    basis = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(6):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-shear, shear)
        basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
    return Cone(basis, dim)
