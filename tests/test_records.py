"""The package's value classes behave as frozen records, and import cheaply."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from toricarcs.arcs import (
    DominanceWitness,
    OrbitLabel,
    OrbitPoset,
    SemigroupHom,
    WitnessEntry,
    dominance_witness,
    hom_from_label,
    orbit_label,
    orbit_poset,
)
from toricarcs.cli import InputDocument, parse_input
from toricarcs.cones import Cone, FaceQuotient, FaceRef, Fan, is_smooth, quotient_by_face
from toricarcs.ideals import (
    ContactComponent,
    MonomialIdeal,
    NewtonData,
    PolarData,
    ToricValuation,
    contact_components,
    monomial_ideal,
    newton_polytope,
    polar_polytope,
    toric_valuation,
)
from toricarcs.lattice import LatticeVector, QuotientLattice, mvec, nvec, quotient_lattice
from toricarcs.series import TruncatedSeries

SRC = pathlib.Path(__file__).parent.parent / "src"

# field names in constructor order, as documented for each class
FIELDS = {
    LatticeVector: ("coords", "side"),
    QuotientLattice: ("ambient_dim", "projection_matrix", "section_matrix"),
    FaceRef: ("parent", "indices"),
    FaceQuotient: ("lattice", "image_cone"),
    SemigroupHom: ("cone", "values"),
    OrbitLabel: ("ambient", "face", "point"),
    OrbitPoset: ("nodes", "relation", "covers"),
    WitnessEntry: (
        "character",
        "in_ring",
        "order_generic",
        "order_at_zero",
        "expected_generic",
        "expected_at_zero",
        "ok",
    ),
    DominanceWitness: ("chart", "precision", "family", "entries", "verified"),
    MonomialIdeal: ("chart", "generators", "discarded"),
    NewtonData: ("vertices", "redundant", "dual_fan_cones"),
    PolarData: ("level", "vertices", "compact_faces", "recession_rays"),
    ContactComponent: ("point", "e", "v0", "level"),
    ToricValuation: ("chart", "point", "e", "v0"),
    InputDocument: ("dim", "cones", "ideal_generators", "polynomial", "warnings"),
}


def _pairs():
    """Two records of each class that differ in at least one field."""
    a1 = Cone([(1, 0), (1, 2)])
    quadrant = Cone([(1, 0), (0, 1)])
    zero = a1.zero_face()
    label, label2 = orbit_label(a1, zero, (1, 1)), orbit_label(a1, zero, (2, 1))
    q_zero = quadrant.zero_face()
    witness = dominance_witness(orbit_label(quadrant, q_zero, (1, 1)), orbit_label(quadrant, q_zero, (2, 1)))
    witness2 = dominance_witness(orbit_label(quadrant, q_zero, (1, 1)), orbit_label(quadrant, q_zero, (1, 2)))
    ideal = monomial_ideal(a1, [(0, 1), (1, 0), (2, -1)])
    ideal2 = monomial_ideal(a1, [(0, 1)])
    return {
        LatticeVector: (nvec(1, 2), mvec(1, 2)),
        QuotientLattice: (quotient_lattice(2, [nvec(1, 2)]), quotient_lattice(2, [nvec(1, 0)])),
        FaceRef: (a1.faces()[1], a1.faces()[2]),
        FaceQuotient: (quotient_by_face(a1, a1.faces()[1]), quotient_by_face(a1, a1.faces()[2])),
        SemigroupHom: (hom_from_label(label), hom_from_label(label2)),
        OrbitLabel: (label, label2),
        OrbitPoset: (orbit_poset(a1, 1), orbit_poset(a1, 0)),
        WitnessEntry: (witness.entries[0], witness.entries[1]),
        DominanceWitness: (witness, witness2),
        MonomialIdeal: (ideal, ideal2),
        NewtonData: (newton_polytope(ideal), newton_polytope(ideal2)),
        PolarData: (polar_polytope(ideal, 1), polar_polytope(ideal, 2)),
        ContactComponent: (contact_components(ideal, 1)[0], contact_components(ideal, 2)[0]),
        ToricValuation: (toric_valuation(a1, (1, 1)), toric_valuation(a1, (1, 2))),
        InputDocument: (
            parse_input('{"dim":2,"cones":[[[1,0],[1,2]]]}'),
            parse_input('{"dim":2,"cones":[[[1,0],[0,1]]]}'),
        ),
    }


PAIRS = _pairs()
CLASSES = list(FIELDS)


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def _kwargs(record):
    return {name: getattr(record, name) for name in FIELDS[type(record)]}


def test_every_public_record_class_is_covered():
    assert set(PAIRS) == set(FIELDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_and_positional_construction_give_equal_records(cls):
    record, _ = PAIRS[cls]
    by_keyword = cls(**_kwargs(record))
    by_position = cls(*_values(record))
    assert by_keyword == record and by_position == record
    assert _values(by_keyword) == _values(record)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_is_field_wise(cls):
    record, other = PAIRS[cls]
    assert _values(record) != _values(other)
    assert record != other and not record == other
    assert record == cls(**_kwargs(record))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_is_unequal_to_another_class_with_equal_fields(cls):
    record, _ = PAIRS[cls]
    twin_class = type("Twin", (cls,), {"__slots__": ()})
    twin = twin_class(**_kwargs(record))
    assert all(getattr(twin, name) == getattr(record, name) for name in FIELDS[cls])
    assert twin != record and record != twin


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    record, _ = PAIRS[cls]
    try:
        expected = hash(_values(record))
    except TypeError:
        # a field is a list (InputDocument), so the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == expected
    assert hash(cls(**_kwargs(record))) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    record, other = PAIRS[cls]
    before = _values(record)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert _values(record) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    record, _ = PAIRS[cls]
    if cls is FaceRef:
        assert repr(record) == f"FaceRef(indices={list(record.indices)})"
    elif cls is OrbitLabel:
        assert repr(record) == "OrbitLabel(stratum=[], v=[1, 1])"
    else:
        body = ", ".join(f"{name}={value!r}" for name, value in _kwargs(record).items())
        assert repr(record) == f"{cls.__name__}({body})"


def test_repr_of_a_lattice_vector():
    assert repr(nvec(1, -2)) == "LatticeVector(coords=(1, -2), side='N')"


def test_constructors_normalize_their_fields():
    assert LatticeVector([True, 2], "N").coords == (1, 2)
    a1 = Cone([(1, 0), (1, 2)])
    assert FaceRef(a1, [1, 0]).indices == (0, 1)
    assert OrbitLabel(a1, a1.zero_face(), [1, 1]).point == (1, 1)


def test_constructors_reject_wrong_arguments():
    with pytest.raises(ValueError):
        LatticeVector((1, 2), "X")
    with pytest.raises(TypeError):
        ContactComponent((1, 1), 1, (1, 1))
    with pytest.raises(TypeError):
        ContactComponent((1, 1), 1, (1, 1), 1, point=(1, 1))
    with pytest.raises(TypeError):
        ContactComponent(point=(1, 1), e=1, v0=(1, 1), level=1, extra=0)


def test_records_copy_and_pickle_by_their_fields():
    cone = Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    fan = Fan([Cone([(1, 0), (1, 2)]), Cone([(1, 2), (0, 1)])])
    series = TruncatedSeries({(0, 0): 1, (1, 2): Fraction(-1, 3)}, 4)
    for record in (
        nvec(1, -2),
        PAIRS[ContactComponent][0],
        PAIRS[QuotientLattice][0],
        cone,
        fan,
        series,
        PAIRS[FaceRef][0],
        PAIRS[OrbitLabel][0],
        PAIRS[MonomialIdeal][0],
    ):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def _validated():
    """A record of each class whose constructor validates, with its field tuple."""
    cone = Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    fan = Fan([Cone([(1, 0), (1, 2)]), Cone([(1, 2), (0, 1)])])
    series = TruncatedSeries({(1, 2): Fraction(-1, 3), (0, 0): 1}, 4)
    return {
        Cone: (cone, (cone.key, cone.dim_ambient)),
        Fan: (fan, (fan.maximal_cones,)),
        TruncatedSeries: (series, (series.terms, series.t_precision)),
    }


VALIDATED = _validated()


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda c: c.__name__)
def test_a_validated_record_reduces_to_its_fields_in_constructor_order(cls):
    record, fields = VALIDATED[cls]
    assert cls._fields == {Cone: ("key", "dim_ambient"), Fan: ("maximal_cones",),
                           TruncatedSeries: ("terms", "t_precision")}[cls]
    assert record.__reduce__() == (cls, fields)
    assert cls(*fields) == record


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda c: c.__name__)
def test_a_validated_record_is_unequal_to_a_subclass_with_equal_fields(cls):
    record, fields = VALIDATED[cls]
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    assert twin.__reduce__()[1] == fields
    assert twin != record and record != twin


def test_a_validated_record_hashes_as_its_field_tuple():
    for cls in (Cone, Fan):
        record, fields = VALIDATED[cls]
        assert hash(record) == hash(fields) == hash(cls(*fields))
    # terms is a dict, so a series hashes its sorted items in its place
    series, (terms, t_precision) = VALIDATED[TruncatedSeries]
    assert hash(series) == hash((tuple(sorted(terms.items())), t_precision))
    assert hash(series) == hash(TruncatedSeries(dict(reversed(list(terms.items()))), t_precision))


def _fill_caches(cone, fan):
    """Fill the caches of a Cone and a Fan: faces, stratum records, Hilbert bases, the smoothness basis."""
    chart = fan.maximal_cones[0]
    for c in (cone, chart):
        orbit_label(c, c.faces()[1], (1,) * (c.dim_ambient - 1))
        c.hilbert_basis()
        is_smooth(c)
    orbit_label(fan, chart.faces()[1], (1,))
    assert cone._faces and cone._strata and cone._hilbert and cone._basis is not None
    assert fan._strata and chart._strata and chart._hilbert and chart._basis is not None


def test_a_filled_cache_is_not_a_field():
    ideal = monomial_ideal(Cone([(1, 0), (1, 2)]), [(0, 1), (1, 0), (2, -1)])
    cone = Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    fan = Fan([Cone([(1, 0), (1, 2)]), Cone([(1, 2), (0, 1)])])
    pairs = [(ideal, MonomialIdeal(*_values(ideal))), (cone, Cone(cone.key)), (fan, Fan(fan.maximal_cones))]
    polar_polytope(ideal, 3)
    _fill_caches(cone, fan)
    assert ideal._level_one is not None and pairs[0][1]._level_one is None
    assert not pairs[1][1]._strata and not pairs[2][1]._strata
    for filled, unfilled in pairs:
        for twin in (filled, copy.copy(filled), copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))):
            assert twin == unfilled and unfilled == twin
            assert hash(twin) == hash(unfilled) and repr(twin) == repr(unfilled)
    with pytest.raises(AttributeError):
        ideal._level_one = None


def test_import_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys\n"
        "import toricarcs.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # -S skips site, so only the package's own imports are seen
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
