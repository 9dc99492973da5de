#!/usr/bin/env python3
"""Survey the components of the arc fiber over Sing X for small charts.

Walks the A_n family, a batch of random two- and three-dimensional
charts, two simplicial charts of rank 4 and 5, one of rank 12 whose
singular faces are the 2^10 faces holding an A_1 2-face, and the cones
over the 5-cube and over Delta3 x Delta3, printing each component's
lattice point and its divisorial valuation data (multiplicity times
primitive vector), with timings.  The last two have one component per
face of dimension 2 or more of the cube (131) and one per square face of
the simplex product (36).
"""

import itertools
import random
import time

from toricarcs.cones import Cone, is_smooth
from toricarcs.ideals import sing_components, singular_faces


def describe(cone: Cone) -> str:
    return "cone" + str([list(r.coords) for r in cone.rays])


def survey(cone: Cone) -> None:
    start = time.monotonic()
    components = sing_components(cone)
    elapsed = time.monotonic() - start
    faces = singular_faces(cone)
    print(f"{describe(cone)}  singular faces: {len(faces)}  [{elapsed * 1000:.1f} ms]")
    if not components:
        print("    smooth chart: empty fiber decomposition")
    for c in components:
        print(f"    v={list(c.point)}  valuation = {c.e} * val_D({list(c.v0)})")


def main() -> None:
    print("== A_n family ==")
    for n in range(1, 9):
        survey(Cone([(1, 0), (1, n + 1)]))

    print()
    print("== random charts ==")
    rng = random.Random(20260810)
    found = 0
    while found < 6:
        dim = rng.choice([2, 3])
        spread = 4 if dim == 2 else 2
        count = rng.randint(dim, dim + 1)
        gens = [tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(count)]
        try:
            cone = Cone(gens, dim)
        except ValueError:
            continue
        if not cone.is_full_dimensional() or is_smooth(cone):
            continue
        survey(cone)
        found += 1

    print()
    print("== rank 4 and 5 ==")
    survey(Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)]))
    survey(Cone([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 2, 3, 4, 9)]))

    print()
    print("== rank 12 ==")
    rays = [tuple(int(i == j) for j in range(12)) for i in range(12)]
    rays[1] = (1, 2) + (0,) * 10
    survey(Cone(rays))

    print()
    print("== cone over the 5-cube: 131 components ==")
    survey(Cone([x + (1,) for x in itertools.product((0, 1), repeat=5)]))

    print()
    print("== cone over Delta3 x Delta3: 36 components ==")
    vertices = [tuple(int(i == j) for j in range(3)) for i in range(-1, 3)]
    survey(Cone([p + q + (1,) for p in vertices for q in vertices]))


if __name__ == "__main__":
    main()
