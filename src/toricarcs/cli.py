"""Batch command-line interface.

Reads a structured JSON document describing a fan chart (and optionally an
ideal or a polynomial), dispatches to the library, and writes one JSON
object to stdout.  Warnings go to stderr so stdout stays pipeline-safe.
Exit codes: 0 success, 1 domain error, 2 parse/usage error.

Input documents are strict JSON with integer entries only; float literals
are rejected.  Rays need not be primitive: they are normalized with a
warning.  See docs/input_format.md for the full format and
docs/output.schema.json for the shape of every result.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arcs import dominance_witness, dominates, orbit_label, orbit_poset
from .cones import Cone, Fan, hilbert_basis_dual, is_smooth
from .ideals import (
    MonomialIdeal,
    contact_components,
    monomial_ideal,
    newton_polytope,
    polar_polytope,
    sing_components,
    toric_valuation,
    toric_valuation_eval,
)
from .lattice import _Record, primitive_tuple

__all__ = ["InputError", "InputDocument", "parse_input", "emit_document", "main", "run"]


class InputError(Exception):
    """Malformed or invalid input document."""


def _reject_float(value):
    raise InputError(f"float literal {value!r} is not accepted; inputs are exact integers")


def _load_json(text: str):
    """Decode strict JSON with integer numbers only; every defect is an InputError.

    Nesting past the interpreter's recursion limit and an integer literal
    past its digit limit are defects too.
    """
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as err:
        raise InputError(f"malformed JSON: {err}") from None
    except RecursionError:
        raise InputError("malformed JSON: nested too deeply") from None
    except ValueError:  # int() refused a literal past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise InputError(f"malformed JSON: an integer literal has over {limit} digits") from None


def _read(path: str | None) -> str:
    """The text of a document file, or of stdin when no path is given; bytes that are not UTF-8 are an InputError."""
    try:
        if not path:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise InputError(f"{path or 'stdin'} is not UTF-8: {err}") from None


class InputDocument(_Record):
    """A validated input document: the charts and the optional ideal and polynomial."""

    __slots__ = {
        "dim": "int",
        "cones": "list[Cone]",
        "ideal_generators": "list[tuple[int, ...]] | None",
        "polynomial": "list[tuple[int, tuple[int, ...]]] | None",
        "warnings": "list[str]",
    }


def _int_vector(obj, dim: int, what: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in obj):
        raise InputError(f"{what} must be a list of integers, got {obj!r}")
    if len(obj) != dim:
        raise InputError(f"{what} has length {len(obj)}, expected dim={dim}")
    return tuple(obj)


def parse_input(text: str) -> InputDocument:
    """Validate a JSON document; diagnostics name the offending field."""
    raw = _load_json(text)
    if not isinstance(raw, dict):
        raise InputError("top-level document must be a JSON object")
    known = {"dim", "cones", "ideal", "poly"}
    for key in raw:
        if key not in known:
            raise InputError(f"unknown field {key!r}")
    if "dim" not in raw or not isinstance(raw["dim"], int) or isinstance(raw["dim"], bool) or raw["dim"] < 1:
        raise InputError("field 'dim' must be a positive integer")
    dim = raw["dim"]
    if "cones" not in raw or not isinstance(raw["cones"], list) or not raw["cones"]:
        raise InputError("field 'cones' must be a nonempty list of ray lists")
    warnings: list[str] = []
    cones: list[Cone] = []
    for ci, rays in enumerate(raw["cones"]):
        if not isinstance(rays, list) or not rays:
            raise InputError(f"cones[{ci}] must be a nonempty list of rays")
        normalized = []
        for ri, ray in enumerate(rays):
            vec = _int_vector(ray, dim, f"cones[{ci}][{ri}]")
            if all(x == 0 for x in vec):
                raise InputError(f"cones[{ci}][{ri}] is the zero vector")
            g, prim = primitive_tuple(vec)
            if g != 1:
                warnings.append(f"warning: ray {list(vec)} normalized to {list(prim)}")
            normalized.append(prim)
        try:
            cones.append(Cone(normalized, dim))
        except ValueError as err:
            raise InputError(f"cones[{ci}]: {err}") from None
    ideal = None
    if "ideal" in raw:
        if not isinstance(raw["ideal"], list) or not raw["ideal"]:
            raise InputError("field 'ideal' must be a nonempty list of exponent vectors")
        ideal = [_int_vector(e, dim, f"ideal[{i}]") for i, e in enumerate(raw["ideal"])]
    poly = None
    if "poly" in raw:
        poly = _parse_poly(raw["poly"], dim)
    return InputDocument(dim, cones, ideal, poly, warnings)


def _parse_poly(raw, dim: int) -> list[tuple[int, tuple[int, ...]]]:
    if not isinstance(raw, list) or not raw:
        raise InputError("field 'poly' must be a nonempty list of [coefficient, exponent] pairs")
    out = []
    for i, term in enumerate(raw):
        if not isinstance(term, list) or len(term) != 2:
            raise InputError(f"poly[{i}] must be a [coefficient, exponent] pair")
        coeff, exponent = term
        if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff == 0:
            raise InputError(f"poly[{i}] coefficient must be a nonzero integer")
        out.append((coeff, _int_vector(exponent, dim, f"poly[{i}] exponent")))
    return out


def emit_document(doc: InputDocument) -> str:
    """Canonical byte form of a document; emit(parse(x)) == x for canonical x."""
    obj: dict = {"dim": doc.dim, "cones": [[list(r.coords) for r in c.rays] for c in doc.cones]}
    if doc.ideal_generators is not None:
        obj["ideal"] = [list(e) for e in doc.ideal_generators]
    if doc.polynomial is not None:
        obj["poly"] = [[c, list(e)] for c, e in doc.polynomial]
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _chart(doc: InputDocument, index: int) -> Cone:
    if not 0 <= index < len(doc.cones):
        raise InputError(f"cone index {index} out of range (document has {len(doc.cones)})")
    return doc.cones[index]


def _ambient(doc: InputDocument):
    if len(doc.cones) == 1:
        return doc.cones[0]
    return Fan(doc.cones)


def _ideal(doc: InputDocument, chart: Cone) -> MonomialIdeal:
    if doc.ideal_generators is None:
        raise InputError("this command needs an 'ideal' field in the document")
    return monomial_ideal(chart, doc.ideal_generators)


def _parse_coords(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from None


def _stratum_face(chart: Cone, text: str):
    return chart.face_from_indices(_parse_coords(text, "--stratum"))


def _components_payload(components) -> dict:
    return {
        "components": [
            {"v": list(c.point), "e": c.e, "v0": list(c.v0)} for c in components
        ]
    }


def _series_payload(series) -> list:
    return [[td, ld, str(coeff)] for (td, ld), coeff in sorted(series.terms.items())]


def cmd_dual(doc, args):
    chart = _chart(doc, args.cone)
    return {"generators": [list(u.coords) for u in chart.dual_generator_list()]}


def cmd_faces(doc, args):
    chart = _chart(doc, args.cone)
    return {"faces": [list(f.indices) for f in chart.faces()]}


def cmd_smooth(doc, args):
    return {"smooth": is_smooth(_chart(doc, args.cone))}


def cmd_hilbert(doc, args):
    chart = _chart(doc, args.cone)
    return {"basis": [list(u.coords) for u in hilbert_basis_dual(chart)]}


def cmd_orbits(doc, args):
    poset = orbit_poset(_ambient(doc), args.bound)
    nodes = [
        {"stratum": [list(r) for r in n.face.key], "v": list(n.point)}
        for n in poset.nodes
    ]
    return {"nodes": nodes, "covers": [[i, j] for i, j in poset.covers]}


def cmd_dominates(doc, args):
    ambient = _ambient(doc)
    chart = _chart(doc, args.cone)
    f1 = _stratum_face(chart, args.stratum)
    f2 = _stratum_face(chart, args.stratum2 if args.stratum2 is not None else args.stratum)
    o1 = orbit_label(ambient, f1, _parse_coords(args.v, "--v"))
    o2 = orbit_label(ambient, f2, _parse_coords(args.v2, "--v2"))
    return {"dominates": dominates(o1, o2)}


def cmd_witness(doc, args):
    ambient = _ambient(doc)
    chart = _chart(doc, args.cone)
    zero = chart.zero_face()
    o1 = orbit_label(ambient, zero, _parse_coords(args.v, "--v"))
    o2 = orbit_label(ambient, zero, _parse_coords(args.v2, "--v2"))
    witness = dominance_witness(o1, o2, args.precision)
    return {
        "dominates": True,
        "verified": witness.verified,
        "precision": witness.precision,
        "family": [
            {"character": list(char), "series": _series_payload(s)}
            for char, s in witness.family
        ],
        "report": [
            {
                "character": list(e.character),
                "in_ring": e.in_ring,
                "order_generic": e.order_generic,
                "order_at_zero": e.order_at_zero,
                "ok": e.ok,
            }
            for e in witness.entries
        ],
    }


def cmd_contact(doc, args):
    chart = _chart(doc, args.cone)
    return _components_payload(contact_components(_ideal(doc, chart), args.p))


def cmd_sing(doc, args):
    return _components_payload(sing_components(_chart(doc, args.cone)))


def cmd_newton(doc, args):
    chart = _chart(doc, args.cone)
    data = newton_polytope(_ideal(doc, chart))
    return {
        "vertices": [list(u.coords) for u in data.vertices],
        "redundant": [list(u.coords) for u in data.redundant],
    }


def cmd_polar(doc, args):
    chart = _chart(doc, args.cone)
    data = polar_polytope(_ideal(doc, chart), args.p)
    return {
        "vertices": [[str(x) for x in v] for v in data.vertices],
        "compact_faces": [list(f) for f in data.compact_faces],
    }


def cmd_valuation(doc, args):
    chart = _chart(doc, args.cone)
    if args.poly is not None:
        raw = _load_json(_read(args.poly))
        if isinstance(raw, dict) and "poly" not in raw:
            raise InputError(f"{args.poly}: field 'poly' is missing")
        terms = _parse_poly(raw["poly"] if isinstance(raw, dict) else raw, doc.dim)
    elif doc.polynomial is not None:
        terms = doc.polynomial
    else:
        raise InputError("valuation needs --poly FILE or a 'poly' field in the document")
    val = toric_valuation(chart, _parse_coords(args.v, "--v"))
    value = toric_valuation_eval(val, terms)
    return {"v": list(val.point), "e": val.e, "v0": list(val.v0), "value": value}


COMMANDS = {
    "dual": cmd_dual,
    "faces": cmd_faces,
    "smooth": cmd_smooth,
    "hilbert": cmd_hilbert,
    "orbits": cmd_orbits,
    "dominates": cmd_dominates,
    "witness": cmd_witness,
    "contact": cmd_contact,
    "sing": cmd_sing,
    "newton": cmd_newton,
    "polar": cmd_polar,
    "valuation": cmd_valuation,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricarcs",
        description="Orbit decomposition of toric arc spaces and contact loci",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, chart=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", "-i", help="input document path (default: stdin)")
        if chart:  # orbits reads the whole fan, no chart
            p.add_argument("--cone", type=int, default=0, help="chart cone index (default 0)")
        return p

    add("dual", "generators of the dual cone")
    add("faces", "ray-index subsets spanning each face")
    add("smooth", "whether the chart cone is nonsingular")
    add("hilbert", "Hilbert basis of the dual semigroup")
    p = add("orbits", "bounded slice of the orbit dominance poset", chart=False)
    p.add_argument("--bound", type=int, required=True)
    p = add("dominates", "orbit-closure containment via the lattice criterion")
    p.add_argument("--stratum", default="", help="ray indices of the first stratum face")
    p.add_argument("--v", required=True)
    p.add_argument("--stratum2", default=None, help="ray indices of the second stratum face")
    p.add_argument("--v2", required=True)
    p = add("witness", "deformation family certifying a domination")
    p.add_argument("--v", required=True)
    p.add_argument("--v2", required=True)
    p.add_argument("--precision", type=int, default=None)
    p = add("contact", "irreducible components of the p-th contact locus")
    p.add_argument("--p", type=int, required=True)
    add("sing", "components of the arc fiber over the singular locus")
    add("newton", "Newton polytope vertices of the ideal")
    p = add("polar", "vertices and compact faces of the level-p polytope")
    p.add_argument("--p", type=int, required=True)
    p = add("valuation", "toric valuation of a polynomial")
    p.add_argument("--v", required=True)
    p.add_argument("--poly", default=None, help="path to a polynomial document")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = parse_input(_read(args.input))
        for line in doc.warnings:
            print(line, file=sys.stderr)
        result = COMMANDS[args.command](doc, args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def run() -> None:
    sys.exit(main())
