"""JSON formats for graphs, polytopes, relative complexes and polynomials.

Every loader validates shape and content and raises InputError on anything
malformed, so the command line can map bad input to its own exit status
without sniffing message strings.  Dumpers sort everything they emit;
equal inputs produce byte-identical documents.
"""

import json

from .complexes import InvalidComplexError, PolytopalComplex, RelativeComplex
from .graphs import Graph
from .polytope import LatticePolytope


class InputError(ValueError):
    """Malformed user-supplied data (bad JSON, wrong shape, bad values)."""


def read_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def write_json_file(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_dict(data, keys, what):
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"{what} is missing key(s): {', '.join(missing)}")


# -- graphs -------------------------------------------------------------------

def graph_to_json(g):
    return {
        "vertices": list(g.vertices),
        "edges": [{"tail": t, "head": h} for t, h in g.edges],
    }


def graph_from_json(data):
    _require_dict(data, ("vertices", "edges"), "a graph")
    vertices = data["vertices"]
    if (not isinstance(vertices, list)
            or not all(isinstance(v, str) for v in vertices)):
        raise InputError("graph vertices must be a list of strings")
    edges = []
    if not isinstance(data["edges"], list):
        raise InputError("graph edges must be a list")
    for e in data["edges"]:
        if (not isinstance(e, dict) or set(e) != {"tail", "head"}
                or not all(isinstance(v, str) for v in e.values())):
            raise InputError(f'edge {e!r} is not an object '
                             '{"tail": ..., "head": ...} of vertex names')
        edges.append((e["tail"], e["head"]))
    try:
        return Graph(tuple(vertices), tuple(edges))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# -- polytopes ----------------------------------------------------------------

def _lattice_point(p, ambient, what):
    if (not isinstance(p, list) or len(p) != ambient
            or not all(isinstance(c, int) and not isinstance(c, bool)
                       for c in p)):
        raise InputError(
            f"{what}: every point must be a list of {ambient} integers")
    return tuple(p)


def polytope_from_json(data):
    _require_dict(data, ("ambient_dim", "vertices"), "a polytope")
    ambient = data["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 0:
        raise InputError("ambient_dim must be a non-negative integer")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise InputError("a polytope needs a nonempty vertex list")
    points = [_lattice_point(v, ambient, "polytope vertices") for v in vertices]
    return LatticePolytope(points)


# -- relative complexes -------------------------------------------------------

def cells_to_json(cells, sub_cells):
    """Vertex table plus two collections of cells as sorted index lists.

    A cell is a collection of lattice points (the vertices of a polytope or
    of a simplex); "sub_faces" is written only when sub_cells is nonempty.
    """
    table = sorted({v for c in (*cells, *sub_cells) for v in c})
    index = {v: i for i, v in enumerate(table)}

    def rows(cs):
        return sorted(sorted(index[v] for v in c) for c in cs)

    out = {"vertices": [list(v) for v in table], "faces": rows(cells)}
    if sub_cells:
        out["sub_faces"] = rows(sub_cells)
    return out


def complex_to_json(rel):
    """The maximal cells of C and of C' by cells_to_json."""
    return cells_to_json([c.vertices for c in rel.complex.maximal_cells],
                         [c.vertices for c in rel.sub.maximal_cells])


def _cells_from_rows(rows, table, what):
    if not isinstance(rows, list):
        raise InputError(f"{what} must be a list of faces")
    cells = []
    for row in rows:
        if (not isinstance(row, list) or not row
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           and 0 <= i < len(table) for i in row)):
            where = (f"in range 0..{len(table) - 1}" if table
                     else "(the vertex list is empty)")
            raise InputError(f"{what}: each face must be a nonempty list of "
                             f"vertex indices {where}")
        cells.append(LatticePolytope([table[i] for i in row]))
    return cells


def complex_from_json(data):
    _require_dict(data, ("vertices", "faces"), "a complex")
    raw = data["vertices"]
    if not isinstance(raw, list) or not all(isinstance(v, list) for v in raw):
        raise InputError("complex vertices must be a list of lattice points")
    ambient = len(raw[0]) if raw else 0
    table = [_lattice_point(v, ambient, "complex vertices") for v in raw]
    cells = _cells_from_rows(data["faces"], table, "faces")
    sub_cells = _cells_from_rows(data.get("sub_faces", []), table, "sub_faces")
    total = PolytopalComplex.generated_by(cells)
    sub = PolytopalComplex.generated_by(
        sub_cells, ambient_dim=total.ambient_dim)
    # the subcomplex needs no check of its own: RelativeComplex demands that
    # its cells be faces of C, and the faces of a valid complex form one
    try:
        total.validate()
    except InvalidComplexError as exc:
        raise InputError(f"faces do not form a complex: {exc}") from exc
    try:
        return RelativeComplex(total, sub)
    except ValueError as exc:
        raise InputError(f"sub_faces do not form a subcomplex: {exc}") from exc


# -- polynomials --------------------------------------------------------------

def polynomial_to_json(p):
    return {
        "monomial": [str(c) for c in p.coefficients],
        "binomial": [str(c) for c in p.binomial_basis],
    }
