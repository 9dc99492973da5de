"""Exact orbit decomposition of toric arc spaces.

Orbits of the arc space of a toric variety are lattice points of the cone;
orbit-closure containment is the cone order.  This package computes that
correspondence exactly and answers the embedded Nash problem for invariant
monomial ideals: the irreducible components of a contact locus are the
cone-order-minimal lattice points of the matching level set of the ideal's
order function.
"""

from .arcs import (
    DominanceWitness,
    OrbitLabel,
    OrbitPoset,
    SemigroupHom,
    classify_hom,
    cylinder_level,
    dominance_witness,
    dominates,
    hom_from_label,
    monomial_arc,
    orbit_label,
    orbit_poset,
)
from .cones import (
    Cone,
    FaceRef,
    Fan,
    hilbert_basis_dual,
    intersect_cones,
    is_smooth,
    leq_sigma,
    quotient_by_face,
)
from .ideals import (
    ContactComponent,
    MonomialIdeal,
    NewtonData,
    PolarData,
    ToricValuation,
    contact_components,
    dual_fan,
    is_minimal_in_contact,
    monomial_ideal,
    newton_polytope,
    order_function,
    polar_polytope,
    sing_components,
    singular_faces,
    toric_valuation,
    toric_valuation_eval,
)
from .lattice import (
    INF,
    LatticeVector,
    QuotientLattice,
    mvec,
    nvec,
    pairing,
    quotient_lattice,
)
from .series import TruncatedSeries

__version__ = "0.1.0"
