"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's own algorithms: membership
is decided by small exact rational solves (Caratheodory subsets), duals and
minimal elements by bounded lattice enumeration.  Slow but trustworthy at
desk scale.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction
from functools import lru_cache


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def solve_square(rows, rhs):
    """Solve an exact linear system with as many independent rows as unknowns."""
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [p - f * q for p, q in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][n] != 0:
            return None
    if rank < n:
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol


def rank_fraction(matrix):
    """Rank over the rationals by Gauss-Jordan elimination in Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def minors(matrix, k):
    """All k x k minors of an integer matrix, by Laplace expansion along the first row."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0

    @lru_cache(maxsize=None)
    def det(rows, cols):
        if not rows:
            return 1
        first, rest = rows[0], rows[1:]
        return sum(
            (-1) ** j * matrix[first][c] * det(rest, cols[:j] + cols[j + 1 :])
            for j, c in enumerate(cols)
            if matrix[first][c]
        )

    return [
        det(rows, cols)
        for rows in itertools.combinations(range(m), k)
        for cols in itertools.combinations(range(n), k)
    ]


def determinantal_divisors(matrix):
    """(d_1, ..., d_r): d_k is the gcd of the k x k minors, r the largest k with d_k != 0."""
    out = []
    for k in range(1, min(len(matrix), len(matrix[0]) if matrix else 0) + 1):
        d = math.gcd(*minors(matrix, k))
        if d == 0:
            break
        out.append(d)
    return tuple(out)


def extends_to_basis(rows):
    """Integer rows extend to a lattice basis: independent, maximal minors coprime."""
    if rank_fraction(rows) != len(rows):
        return False
    return math.gcd(*minors(rows, len(rows))) == 1


def in_cone_rational(rays, v):
    """v in cone(rays) over Q, by Caratheodory: some independent subset works."""
    if all(x == 0 for x in v):
        return True
    if not rays:
        return False
    n = len(v)
    for size in range(1, n + 1):
        for subset in itertools.combinations(rays, size):
            # solve sum lambda_i subset_i = v
            rows = [[subset[j][i] for j in range(size)] for i in range(n)]
            aug = [[Fraction(x) for x in row] + [Fraction(vi)] for row, vi in zip(rows, v)]
            rank = 0
            pivots = []
            for col in range(size):
                piv = next((i for i in range(rank, n) if aug[i][col] != 0), None)
                if piv is None:
                    continue
                aug[rank], aug[piv] = aug[piv], aug[rank]
                inv = 1 / aug[rank][col]
                aug[rank] = [x * inv for x in aug[rank]]
                for i in range(n):
                    if i != rank and aug[i][col] != 0:
                        f = aug[i][col]
                        aug[i] = [p - f * q for p, q in zip(aug[i], aug[rank])]
                pivots.append(col)
                rank += 1
            if any(aug[i][size] != 0 for i in range(rank, n)):
                continue
            if rank < size:
                continue  # dependent subset; a smaller one will cover it
            lam = [Fraction(0)] * size
            for r, col in enumerate(pivots):
                lam[col] = aug[r][size]
            if all(l >= 0 for l in lam):
                return True
    return False


def box_points(lo, hi, dim):
    return itertools.product(*(range(lo, hi + 1) for _ in range(dim)))


def box_points_where(constraints, lo, hi):
    """Points of the box lo..hi with a . x >= b for every (a, b), in lexicographic order."""
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return [x for x in box if all(dot(a, x) >= b for a, b in constraints)]


def brute_dual_generators(rays, dim, box=3):
    """Primitive dual-cone generators with sup-norm <= box, by direct search.

    Returns all primitive u in the dual with u extreme (not a rational
    nonnegative combination of other dual points off u's own ray).
    """
    pts = [
        u
        for u in box_points(-box, box, dim)
        if any(u) and all(dot(r, u) >= 0 for r in rays)
    ]

    def primitive(u):
        import math

        g = 0
        for c in u:
            g = math.gcd(g, c)
        return tuple(c // g for c in u)

    prims = sorted({primitive(u) for u in pts})
    extreme = []
    for u in prims:
        others = [w for w in prims if w != u and primitive(w) != primitive(u)]
        if not in_cone_rational(others, u):
            extreme.append(u)
    return extreme


def dual_generators_by_rank(constraints, dim):
    """cones.dual_generators by the rank criterion, the route the library took before.

    The same incremental double description, but a (plus, minus) pair is
    adjacent iff the processed constraints tight on both have rank dim -
    dim(lineality) - 2, and the rays are reduced modulo the lineality after
    every insertion.  Ranks and the reduction use the library's lattice
    layer, as the old route did, so the canonical representatives agree.
    """
    from toricarcs.lattice import LatticeVector, primitive_tuple, quotient_lattice, rank_of

    def canonical_sign(vec):
        prim = primitive_tuple(vec)[1]
        first = next(c for c in prim if c)
        return prim if first > 0 else tuple(-x for x in prim)

    def canonicalized(ray_list):
        if not lin:
            out = [primitive_tuple(r)[1] for r in ray_list]
        else:
            q = quotient_lattice(dim, [LatticeVector(l, "N") for l in lin])
            out = [q.lift(primitive_tuple(q.project(LatticeVector(r, "N")).coords)[1]).coords for r in ray_list]
        return list(dict.fromkeys(out))

    if dim == 0:
        return (), ()
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays, processed = [], []
    for a in constraints:
        a = tuple(a)
        if not any(a):
            continue
        hit = next((i for i, l in enumerate(lin) if dot(a, l) != 0), None)
        if hit is not None:
            l0 = lin[hit] if dot(a, lin[hit]) > 0 else tuple(-x for x in lin[hit])
            d0 = dot(a, l0)
            new_lin = [
                canonical_sign([d0 * x - dot(a, l) * y for x, y in zip(l, l0)])
                for i, l in enumerate(lin)
                if i != hit
            ]
            adjusted = [primitive_tuple([d0 * x - dot(a, r) * y for x, y in zip(r, l0)])[1] for r in rays]
            lin = new_lin
            processed.append(a)
            rays = canonicalized(adjusted + [l0])
            continue
        plus = [r for r in rays if dot(a, r) > 0]
        minus = [r for r in rays if dot(a, r) < 0]
        new_rays = [r for r in rays if dot(a, r) >= 0]
        target = dim - len(lin) - 2
        for rp, rm in itertools.product(plus, minus):
            common = [c for c in processed if dot(c, rp) == 0 and dot(c, rm) == 0]
            if target >= 0 and rank_of(common) == target:
                vp, vm = dot(a, rp), dot(a, rm)
                new_rays.append(primitive_tuple([vp * x - vm * y for x, y in zip(rm, rp)])[1])
        processed.append(a)
        rays = canonicalized(new_rays)
    return tuple(sorted(rays)), tuple(sorted(lin))


def cone_rays_by_rank(gens, dim):
    """The extreme rays of cone(gens), a generator kept iff the dual rays tight on it have rank dim - 1.

    The span's annihilator counts as tight; gens are made primitive and
    deduplicated first, as Cone does.
    """
    from toricarcs.lattice import primitive_tuple, rank_of

    prims = sorted({primitive_tuple(g)[1] for g in gens if any(g)})
    dual_rays, dual_lin = dual_generators_by_rank(prims, dim)
    return tuple(r for r in prims if rank_of(list(dual_lin) + [u for u in dual_rays if dot(r, u) == 0]) == dim - 1)


def g_value(ideal_gens, v):
    return min(dot(v, u) for u in ideal_gens)


def brute_contact_minimal(chart_rays, ideal_gens, p, box_side, member):
    """Minimal elements of {v in cone, g(v) = p} inside [0-ish, box]^n.

    `member` is an exact cone-membership predicate (the oracle caller passes
    the rational-combination test).  Pairwise comparisons only; no local
    criteria.
    """
    dim = len(chart_rays[0])
    level = [
        v
        for v in box_points(-box_side, box_side, dim)
        if member(v) and g_value(ideal_gens, v) == p
    ]
    minimal = []
    for v in level:
        dominated = False
        for w in level:
            if w != v and member(tuple(a - b for a, b in zip(v, w))):
                dominated = True
                break
        if not dominated:
            minimal.append(v)
    return sorted(minimal)


def brute_sing_minimal(cone, bound):
    """Minimal points of the union of singular-face relative interiors.

    Relative-interior membership is recomputed by rational solves: v lies in
    relint F iff it is in cone(F) but in no face of the cone strictly inside
    F, since the proper faces of F are exactly those faces.  Any face,
    simplicial or not, is handled.
    """
    dim = cone.dim_ambient
    faces = cone.faces()
    sing_faces = [f for f in faces if not extends_to_basis(f.key)]
    if not sing_faces:
        return []

    def in_relint(f, v):
        if not in_cone_rational(f.key, v):
            return False
        inside = [g for g in faces if set(g.indices) < set(f.indices)]
        return not any(in_cone_rational(g.key, v) for g in inside)

    def in_union(v):
        return any(in_relint(fc, v) for fc in sing_faces)

    pts = [v for v in box_points(-bound, bound, dim) if any(v) and in_union(v)]
    cone_rays = [r.coords for r in cone.rays]
    minimal = []
    for v in pts:
        dominated = False
        for w in pts:
            if w != v and in_cone_rational(
                cone_rays, tuple(a - b for a, b in zip(v, w))
            ):
                dominated = True
                break
        if not dominated:
            minimal.append(v)
    return sorted(minimal)


def decomposes_over(point, basis, member):
    """Whether point is a nonnegative integer combination of basis elements."""
    if all(x == 0 for x in point):
        return True
    for i, b in enumerate(basis):
        rest = tuple(p - q for p, q in zip(point, b))
        if member(rest) and decomposes_over(rest, basis[i:], member):
            return True
    return False


def polar_by_face_lattice(ideal, p):
    """(vertices, recession rays, compact faces) of the level-p set of an ideal.

    Read off the face lattice of the homogenized cone a . x - b s >= 0,
    s >= 0, built as a Cone from the dual generators of those constraints:
    the rays (x, s) with s > 0 are the vertices x / s, those with s = 0 the
    recession rays.  The library reads the level-p rays off the level-1
    set instead, and its face lattice off the tight constraints.
    """
    from toricarcs.cones import Cone, dual_generators

    n = ideal.chart.dim_ambient
    constraints = [(u.coords, p) for u in ideal.generators]
    constraints += list(ideal.chart.halfspace_data())
    homogenized = [tuple(a) + (-b,) for a, b in constraints] + [(0,) * n + (1,)]
    rays, lineality, _ = dual_generators(homogenized, n + 1)
    if lineality:
        raise ValueError("polyhedron contains a line")
    homog = Cone(rays, n + 1)
    vertices = tuple(sorted(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in homog.key if r[-1] > 0))
    recession = tuple(sorted(r[:-1] for r in homog.key if r[-1] == 0))
    index = {}
    for i, r in enumerate(homog.rays):
        s = r.coords[-1]
        if s > 0:
            index[i] = vertices.index(tuple(Fraction(x, s) for x in r.coords[:-1]))
    compact = {
        tuple(sorted(index[i] for i in f.indices))
        for f in homog.faces()
        if f.indices and all(i in index for i in f.indices)
    }
    return vertices, recession, tuple(sorted(compact))


def newton_by_vertex_cells(ideal):
    """(vertex coords, redundant coords, cells) of the Newton polytope, one cell per generator.

    The route ideals.newton_polytope took before it read the cells off the
    ideal's level-1 cone: the cell of a generator u is the cone cut out by
    the chart's walls and w - u >= 0 for every other generator w, built as
    a Cone from its dual generators, so two double descriptions per
    generator.  u is a vertex iff its cell is full-dimensional; the cells
    are listed in the order of the sorted vertices.
    """
    from toricarcs.cones import Cone, dual_generators

    chart = ideal.chart
    n = chart.dim_ambient
    vertices, redundant = [], []
    for u in ideal.generators:
        constraints = [normal for normal, _ in chart.halfspace_data()]
        constraints += [tuple(x - y for x, y in zip(w.coords, u.coords)) for w in ideal.generators if w != u]
        rays, lineality, _ = dual_generators(constraints, n)
        if lineality:
            raise ValueError("dual-fan cell acquired a line; chart is degenerate")
        cell = Cone(rays, n)
        if cell.dim == n:
            vertices.append((u.coords, cell))
        else:
            redundant.append(u.coords)
    vertices.sort(key=lambda pair: pair[0])
    return tuple(u for u, _ in vertices), tuple(sorted(redundant)), tuple(cell for _, cell in vertices)


def compact_face_points_by_fractions(ideal, p):
    """Lattice points on the compact faces of the level-p set, by Fraction arithmetic.

    The route ideals.compact_face_lattice_points took before it read each
    face's tight constraints off the level-1 cone: the faces and vertices
    come from polar_by_face_lattice, each face is scanned in the box of its
    vertices, floor below and ceil above, and a point is kept when it meets
    with equality every constraint that all the face's vertices meet with
    equality.  No work budget.
    """
    vertices, _, compact = polar_by_face_lattice(ideal, p)
    constraints = [(u.coords, p) for u in ideal.generators] + list(ideal.chart.halfspace_data())
    found = set()
    for face in compact:
        verts = [vertices[i] for i in face]
        lo = [math.floor(min(v[j] for v in verts)) for j in range(len(verts[0]))]
        hi = [math.ceil(max(v[j] for v in verts)) for j in range(len(verts[0]))]
        tight = [(c, b) for c, b in constraints if all(dot(c, v) == b for v in verts)]
        found.update(x for x in box_points_where(constraints, lo, hi) if all(dot(c, x) == b for c, b in tight))
    return tuple(sorted(found))


def contact_by_region_filter(ideal, p):
    """Points of the level-p contact components, by the route ideals.contact_components took before slices.

    A fresh double description of the homogenized level-p set gives the
    vertices x / s; they are boxed, floor below and ceil above by Fraction
    arithmetic, and the box is widened by the chart's rays.  Every box
    point of order >= p is scanned, those of order exactly p are kept, and
    their cones._minimal on the chart's dual rays are the components.  No
    work budget.
    """
    from toricarcs.cones import _homogenized_rays, _minimal, lattice_points_where

    n = ideal.chart.dim_ambient
    level = [(u.coords, p) for u in ideal.generators] + list(ideal.chart.halfspace_data())
    vertices = [[Fraction(x, r[-1]) for x in r[:-1]] for r in _homogenized_rays(level, n)[0] if r[-1] > 0]
    if not vertices:
        return ()
    rays = ideal.chart.key
    lo = [math.floor(min(v[j] for v in vertices)) + sum(min(0, r[j]) for r in rays) for j in range(n)]
    hi = [math.ceil(max(v[j] for v in vertices)) + sum(max(0, r[j]) for r in rays) for j in range(n)]
    gens = [u.coords for u in ideal.generators]
    exact = [x for x in lattice_points_where(level, lo, hi) if g_value(gens, x) == p]
    return tuple(_minimal(exact, [u.coords for u in ideal.chart.dual_rays]))


def face_cone(f):
    """The face f rebuilt as a Cone of its own, in its parent's ambient."""
    from toricarcs.cones import Cone

    return Cone(f.rays, f.parent.dim_ambient)


def is_face_by_cone(sub, sup):
    """Face test that rebuilds sup as a Cone and asks for its smallest face.

    The route the library's is_face_of took before it read the face off
    sup's parent; kept here as an independent reference.
    """
    sup_cone = face_cone(sup)
    if not all(sup_cone.contains(r) for r in sub.rays):
        return False
    if not sub.rays:
        return True
    return sup_cone.smallest_face_containing(list(sub.rays)).key == sub.key


def _charts_and_strata(ambient):
    from toricarcs.cones import Cone

    if isinstance(ambient, Cone):
        return (ambient,), ambient.faces()
    return tuple(ambient.maximal_cones), ambient.strata()


@lru_cache(maxsize=None)
def _charts_over(charts, face):
    return [c for c in charts if all(in_cone_rational(c.key, r.coords) for r in face.rays)]


_is_face = lru_cache(maxsize=None)(is_face_by_cone)


def dominates_by_hom_order(o1, o2):
    """Dominance as the pointwise order of semigroup homs on a common chart.

    In one chart sigma the cone order on orbits is the pointwise order of
    their homs on the dual Hilbert basis, INF above every integer: sigma is
    the dual of its dual, and a face gamma^perp of the dual cone is spanned
    by the Hilbert elements lying on it.  So o1 dominates o2 iff some
    maximal cone contains both strata, takes both labels (hom_from_label
    gives nonnegative values exactly when the point lies in the chart's
    image), and shows o1's values <= o2's.
    """
    from toricarcs.arcs import hom_from_label

    charts = _charts_and_strata(o1.ambient)[0]

    def order(value):
        return (0, value) if isinstance(value, int) else (1, 0)

    for chart in _charts_over(charts, o1.face):
        if chart not in _charts_over(charts, o2.face):
            continue
        try:
            h1 = hom_from_label(o1, chart).values
            h2 = hom_from_label(o2, chart).values
        except ValueError:
            continue
        if all(order(a) <= order(b) for a, b in zip(h1, h2)):
            return True
    return False


def dominates_by_image_cones(o1, o2):
    """Dominance as the cone order in a chart's image cones, built as Cones.

    The route the library took before it read orbits as homs: o1's stratum
    tau is a face of o2's stratum gamma, and some maximal cone over gamma
    has o1's point in its image cone in N_tau, o2's point in its image
    cone in N_gamma, and o2's point minus o1's (lifted to N, projected to
    N_gamma) in that image cone too.
    """
    from toricarcs.cones import quotient_by_face
    from toricarcs.lattice import N_SIDE, LatticeVector

    if not _is_face(o1.face, o2.face):
        return False
    v1, v2 = LatticeVector(o1.point, N_SIDE), LatticeVector(o2.point, N_SIDE)
    for chart in _charts_over(_charts_and_strata(o1.ambient)[0], o2.face):
        q_tau, q_gamma = quotient_by_face(chart, o1.face), quotient_by_face(chart, o2.face)
        moved = v2 - q_gamma.project(q_tau.lattice.lift(v1))
        image = q_gamma.image_cone
        if q_tau.image_cone.contains(v1) and image.contains(v2) and image.contains(moved):
            return True
    return False


def poset_nodes_by_image_cones(ambient, bound):
    """(stratum key, point) of every label with sup-norm <= bound, strata in face order.

    A point is a label iff some chart over its stratum has it in its image
    cone; each box is scanned in full and tested with Cone.contains.
    """
    from toricarcs.cones import quotient_by_face
    from toricarcs.lattice import N_SIDE, LatticeVector

    charts, strata = _charts_and_strata(ambient)
    nodes = []
    for face in strata:
        images = [quotient_by_face(c, face).image_cone for c in _charts_over(charts, face)]
        box = box_points(-bound, bound, images[0].dim_ambient)
        points = [p for p in box if any(im.contains(LatticeVector(p, N_SIDE)) for im in images)]
        nodes += [(face.key, p) for p in points]
    return nodes


def parallelepiped_by_box_scan(gens):
    """Lattice points sum l_i g_i with l in [0, 1)^k.

    Scans the bounding box of the parallelepiped, solves for l in Fraction
    and keeps the points whose l lies in the half-open cube.
    """
    n = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]
    rows = [[g[j] for g in gens] for j in range(n)]
    found = []
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        lam = solve_square(rows, x)
        if lam is not None and all(0 <= l < 1 for l in lam):
            found.append(x)
    return sorted(found)


def cone_by_facets(rays):
    """(cols, forms, normals) cutting out cone(rays), a pointed cone of rank k >= 2, exactly.

    The span projects one to one onto some k coordinates cols.  There every
    facet of the projected cone is spanned by k - 1 independent rays, and
    its normal is their generalized cross product, the signed (k - 1)-minors;
    the normals with every ray on one side cut the cone out.  On the span
    each other coordinate j is a linear form of the projection, solved on k
    independent rays and kept as (scale, integer w).  So v is in the cone
    iff scale * v_j = w . v[cols] for every form and u . v[cols] >= 0 for
    every normal u.
    """
    k = rank_fraction(rays)
    cols = next(J for J in itertools.combinations(range(len(rays[0])), k) if rank_fraction([[r[j] for j in J] for r in rays]) == k)
    projected = [[r[j] for j in cols] for r in rays]
    normals = []
    for spanning in itertools.combinations(projected, k - 1):
        u = [(-1) ** j * minors([row[:j] + row[j + 1 :] for row in spanning], k - 1)[0] for j in range(k)]
        sides = {(dot(u, r) > 0) - (dot(u, r) < 0) for r in projected} - {0}
        if any(u) and len(sides) == 1:
            side = sides.pop()
            normals.append([side * x for x in u])
    basis = []
    for r in rays:
        if rank_fraction(basis + [r]) > len(basis):
            basis.append(r)
    forms = {}
    for j in range(len(rays[0])):
        if j not in cols:
            w = solve_square([[b[i] for i in cols] for b in basis], [b[j] for b in basis])
            scale = math.lcm(*(x.denominator for x in w))
            forms[j] = (scale, [int(scale * x) for x in w])
    return cols, forms, normals


def triangulation_faults(rays, simplices, bound):
    """What keeps simplices, index tuples into rays, from triangulating cone(rays); [] if nothing.

    Every simplex must be as many independent rays as the rank k of the
    span.  Each facet of a simplex, its rays but one, must lie in one
    simplex if a facet normal of the cone vanishes on it, else in two:
    then the union of the simplices has no boundary inside the cone, so it
    is the cone.  Every nonzero lattice point of the box [-bound, bound]^n
    in the cone, by cone_by_facets, must lie in some simplex and in the
    relative interior (every coefficient > 0) of at most one.  The
    coefficients of a point on a simplex are those of its projection, read
    as |det| times them in integers.
    """
    k = rank_fraction(rays)
    faults = [("not full rank", s) for s in simplices if len(s) != k or rank_fraction([rays[i] for i in s]) != k]
    if faults:
        return faults
    cols, forms, normals = cone_by_facets(rays)
    shared = collections.Counter(s[:i] + s[i + 1 :] for s in simplices for i in range(k))
    for ridge, count in shared.items():
        outer = any(all(dot(u, [rays[i][j] for j in cols]) == 0 for i in ridge) for u in normals)
        if count != 2 - outer:
            faults.append((f"facet in {count} simplices", ridge))
    adjugates = []
    for s in simplices:
        rows = [[rays[i][j] for i in s] for j in cols]
        volume = abs(minors(rows, k)[0])
        columns = [solve_square(rows, [int(i == j) for i in range(k)]) for j in range(k)]
        adjugates.append([[int(volume * column[i]) for column in columns] for i in range(k)])
    for v in box_points(-bound, bound, len(rays[0])):
        point = [v[j] for j in cols]
        if not any(v) or any(dot(w, point) != scale * v[j] for j, (scale, w) in forms.items()):
            continue
        if any(dot(u, point) < 0 for u in normals):
            continue
        holding = [lam for lam in ([dot(row, point) for row in adjugate] for adjugate in adjugates) if min(lam) >= 0]
        if not holding:
            faults.append(("in no simplex", v))
        if sum(min(lam) > 0 for lam in holding) > 1:
            faults.append(("in two interiors", v))
    return faults


def sing_by_zonotope_scan(cone):
    """Minimal points of the union of singular-face relative interiors.

    The route sing_components took before parallelepipeds: for each
    singular face tau, scan tau cut by the zonotope box of the cone's
    Hilbert elements lying in tau, and keep the points of the ideal from
    which no Hilbert-basis step stays in the cone and in the ideal.
    """
    from toricarcs.ideals import singular_faces

    n = cone.dim_ambient
    dual = [u.coords for u in cone.dual_rays]

    def vanishing(vectors):
        return frozenset(j for j, u in enumerate(dual) if all(dot(u, v) == 0 for v in vectors))

    singular = {vanishing(f.key) for f in singular_faces(cone)}

    def member(v):
        return vanishing([v]) in singular

    halfspaces = cone.halfspace_data()
    walls = [normal for normal, _ in halfspaces]
    basis = [h.coords for h in cone.hilbert_basis()]
    found = set()
    for zero in singular:
        face_basis = [h for h in basis if vanishing([h]) >= zero]
        lo = [sum(min(0, h[j]) for h in face_basis) for j in range(n)]
        hi = [sum(max(0, h[j]) for h in face_basis) for j in range(n)]
        on_face = halfspaces + tuple((tuple(-x for x in dual[j]), 0) for j in zero)
        for v in box_points_where(on_face, lo, hi):
            if not member(v):
                continue
            steps_back = (tuple(a - b for a, b in zip(v, h)) for h in basis)
            if not any(all(dot(a, w) >= 0 for a in walls) and member(w) for w in steps_back):
                found.add(v)
    return sorted(found)


def hilbert_by_zonotope_scan(gens, halfspaces):
    """Minimal generating set of the pointed cone(gens) cap Z^n, cut out by halfspaces.

    The route Hilbert bases took before the parallelepiped cover: every
    irreducible element lies in the zonotope sum [0, 1] g_i, so scan the
    zonotope's bounding box, and keep a point, taken in increasing order of
    a functional positive on the cone, unless it minus an irreducible found
    earlier stays in the cone.
    """
    if not gens:
        return []
    n = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]

    def member(p):
        return all(dot(a, p) >= b for a, b in halfspaces)

    ell = [sum(col) for col in zip(*(a for a, _ in halfspaces))]
    candidates = sorted((p for p in box_points_where(halfspaces, lo, hi) if any(p)), key=lambda p: (dot(ell, p), p))
    irreducible = []
    for p in candidates:
        if not any(member(tuple(a - b for a, b in zip(p, q))) for q in irreducible):
            irreducible.append(p)
    return sorted(irreducible)


def minimal_by_pairs(points, normals):
    """Minimal points of the order q <= p iff a . (p - q) >= 0 for every normal a.

    The pairwise rule monomial_ideal used before cones._minimal: p is
    dropped when some other point lies below it, unless that point is also
    above p (they differ by the order's lineality) and comes later
    lexicographically.  Every pair is tested; no order of the points is used.
    """
    pts = sorted(set(points))

    def below(q, p):
        return all(dot(a, p) - dot(a, q) >= 0 for a in normals)

    return [
        p
        for i, p in enumerate(pts)
        if not any(below(q, p) and not (below(p, q) and j > i) for j, q in enumerate(pts) if j != i)
    ]


def orbit_poset_by_pairs(ambient, bound):
    """(nodes, relation, covers) of the orbit poset by the pairwise route.

    The same box scan for the nodes as arcs.orbit_poset, then dominates on
    all n^2 ordered node pairs, each reading the two labels' homs chart by
    chart, then covers as the related pairs (i, j) with no k related to
    both, a loop over k per pair.  arcs.orbit_poset reads the same order
    chart by chart off sorted prefix bitmasks, with no pair of nodes or
    strata.  No work budget is applied.
    """
    from toricarcs.arcs import OrbitLabel, _charts_over, dominates
    from toricarcs.cones import Fan, _stratum_quotient, lattice_points_where
    from toricarcs.lattice import pairing

    strata = ambient.strata() if isinstance(ambient, Fan) else ambient.faces()
    nodes = []
    for face in strata:
        q = _stratum_quotient(face.parent.dim_ambient, face.key)
        box_lo, box_hi = [-bound] * q.quotient_dim, [bound] * q.quotient_dim
        points = set()
        for chart in _charts_over(ambient, face):
            walls = [
                (q.push_dual(u).coords, 0)
                for u in chart.dual_generator_list()
                if not any(pairing(r, u) for r in face.rays)
            ]
            points.update(lattice_points_where(walls, box_lo, box_hi))
        for p in sorted(points):
            nodes.append(OrbitLabel._from_image(ambient, face, p))
    relation = set()
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i != j and dominates(a, b):
                relation.add((i, j))
    covers = []
    for i, j in sorted(relation):
        if not any((i, k) in relation and (k, j) in relation for k in range(len(nodes))):
            covers.append((i, j))
    return tuple(nodes), frozenset(relation), tuple(covers)


def sing_by_simplex_subsets(cone, budget=None):
    """Minimal points of the union I of singular-face relative interiors, by the per-simplex subset scan.

    The route ideals.sing_components took before it read the chart's face
    lattice: the nonzero points of each [0, 1) parallelepiped of the
    pulling triangulation and, off a simplicial chart, the ray sum over
    each set of two or more rays of each simplex whose smallest face, the
    meet of the walls holding the set, has more rays than the set.  The
    work is sum |det| plus 2^k - k - 1 sets per simplex of k rays; past
    budget, if one is given, it raises ValueError before any point is read.
    """
    from toricarcs.cones import _minimal, _parallelepiped, _triangulation

    rays = cone.key
    walls = [frozenset(i for i, r in enumerate(rays) if not dot(r, u)) for u in cone._dual_keys]
    simplices = _triangulation(rays, walls, cone.dim)
    cells = [_parallelepiped([rays[i] for i in s]) for s in simplices]
    scanned = simplices if len(simplices) > 1 else []
    work = sum(volume for volume, _ in cells) + sum(2 ** len(s) - len(s) - 1 for s in scanned)
    if budget is not None and work > budget:
        raise ValueError(f"the subset scan would read {work} points, more than {budget}")
    everything = frozenset(range(len(rays)))
    sums = [
        tuple(map(sum, zip(*(rays[i] for i in f))))
        for s in scanned
        for k in range(2, len(s) + 1)
        for f in itertools.combinations(s, k)
        if len(everything.intersection(*(w for w in walls if w.issuperset(f)))) > k
    ]
    boxes = [p for _, cell in cells for p in cell if any(p)]
    return _minimal(boxes + sums, [u.coords for u in cone.dual_rays])
