#!/usr/bin/env python3
"""Profile contact-locus components of sample ideals across levels.

For each sample ideal, prints the Newton vertices, the dual subdivision,
the polar polytope at p = 1, and then the component list for p = 1..12.
At levels p that clear the polar denominators it compares the minimal set
with the lattice points of the compact faces.  They coincide on the 2D
samples; on the singular 3D chart the face points are minimal, but so are
some points of order p on the unbounded faces of the level set.
"""

import math

from toricarcs.cones import Cone
from toricarcs.ideals import (
    compact_face_lattice_points,
    contact_components,
    dual_fan,
    monomial_ideal,
    newton_polytope,
    polar_polytope,
)


SAMPLES = [
    ("monomial curve ideal on the plane", Cone([(0, 1), (1, 0)]), [(2, 0), (0, 3)]),
    ("maximal ideal of the A_1 chart", Cone([(1, 0), (1, 2)]), [(0, 1), (1, 0), (2, -1)]),
    ("principal ideal on the plane", Cone([(0, 1), (1, 0)]), [(1, 1)]),
    (
        "ideal on a singular 3D chart",
        Cone([(0, 1, 0), (1, 0, 0), (1, 1, 2)]),
        [(0, 0, 1), (0, 3, -1), (1, 1, -1)],
    ),
]


def main() -> None:
    for name, chart, gens in SAMPLES:
        ideal = monomial_ideal(chart, gens)
        data = newton_polytope(ideal)
        polar = polar_polytope(ideal, 1)
        lcm = 1
        for vertex in polar.vertices:
            for coord in vertex:
                lcm = lcm * coord.denominator // math.gcd(lcm, coord.denominator)
        print(f"== {name} ==")
        print(f"  chart rays      : {[list(r.coords) for r in chart.rays]}")
        print(f"  generators      : {[list(u.coords) for u in ideal.generators]}")
        print(f"  newton vertices : {[list(u.coords) for u in data.vertices]}")
        print(f"  dual fan cells  : {[[list(r.coords) for r in c.rays] for c in dual_fan(ideal)]}")
        print(f"  polar vertices  : {[[str(x) for x in v] for v in polar.vertices]}  (denominator lcm {lcm})")
        for p in range(1, 13):
            components = contact_components(ideal, p)
            tags = []
            if p % lcm == 0:
                face_pts = compact_face_lattice_points(ideal, p)
                coincide = face_pts == tuple(c.point for c in components)
                tags.append("= compact-face points" if coincide else "!= compact-face points")
            label = ", ".join(f"{c.e}*{list(c.v0)}" for c in components) or "(empty)"
            print(f"    p={p:>2}: {label}  {' '.join(tags)}")
        print()


if __name__ == "__main__":
    main()
