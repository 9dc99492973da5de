import itertools
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


# Most draws a rejection sampler of the suite makes before it raises.  The
# samplers run while test modules are collected, so a fault that makes every
# draw fail (say, Cone dropping rays) must end them, not hang the suite; the
# seeded draws of the suite need at most a few dozen each.
MAX_DRAWS = 1000


def draws(sampler: str):
    """The draws of a rejection sampler: MAX_DRAWS of them, then a RuntimeError naming it."""
    yield from range(MAX_DRAWS)
    raise RuntimeError(f"{sampler}: no accepted draw finished it in {MAX_DRAWS} draws")


def random_full_cone(rng: random.Random, dim: int, spread: int = 3) -> Cone:
    """A random strongly convex full-dimensional cone, rejection-sampled; see draws."""
    for _ in draws("random_full_cone"):
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


def cube_cone(n: int) -> Cone:
    """The cone over the unit cube: rays (x, 1) for x in {0, 1}^n."""
    return Cone([x + (1,) for x in itertools.product((0, 1), repeat=n)])


def cross_polytope_cone(n: int) -> Cone:
    """The cone over the cross-polytope: rays (+-e_i, 1)."""
    return Cone([tuple(s * (i == j) for j in range(n)) + (1,) for i in range(n) for s in (1, -1)])


def simplex_product_cone(a: int, b: int) -> Cone:
    """The cone over Delta_a x Delta_b: rays (p, q, 1), p in {0, e_1..e_a}, q in {0, e_1..e_b}."""

    def vertices(k):
        return [tuple(int(i == j) for j in range(k)) for i in range(-1, k)]

    return Cone([p + q + (1,) for p in vertices(a) for q in vertices(b)])
