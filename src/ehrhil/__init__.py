"""Graph counting polynomials three ways: brute force, lattice points, Hilbert functions."""

from .complexes import (
    PolytopalComplex,
    RelativeComplex,
    SimplicialComplex,
    pull_complex,
    relative_f_vector,
)
from .constructions import (
    KINDS,
    CheckFailure,
    build_family,
    certify,
    degree_bound,
    oracle,
)
from .exact import InvariantError
from .graphs import (
    Graph,
    chromatic_bf,
    complete_graph,
    cycle_basis,
    cycle_graph,
    incidence_matrix,
    int_flow_bf,
    int_tension_bf,
    mod_flow_bf,
    mod_tension_bf,
    path_graph,
)
from .normal_sr import (
    GREVLEX,
    GRLEX,
    NormalityError,
    hilbert_normal,
    homogenize,
    minimal_representatives,
)
from .polynomials import BinomialPolynomial, interpolate
from .polytope import IntegralityError, LatticePolytope
from .srideal import (
    RelativeSRIdeal,
    hilbert_by_enumeration,
    hilbert_from_f,
    realize_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialPolynomial",
    "CheckFailure",
    "GREVLEX",
    "GRLEX",
    "Graph",
    "IntegralityError",
    "InvariantError",
    "KINDS",
    "LatticePolytope",
    "NormalityError",
    "PolytopalComplex",
    "RelativeComplex",
    "RelativeSRIdeal",
    "SimplicialComplex",
    "build_family",
    "certify",
    "chromatic_bf",
    "complete_graph",
    "cycle_basis",
    "cycle_graph",
    "degree_bound",
    "hilbert_by_enumeration",
    "hilbert_from_f",
    "hilbert_normal",
    "homogenize",
    "incidence_matrix",
    "int_flow_bf",
    "int_tension_bf",
    "interpolate",
    "minimal_representatives",
    "mod_flow_bf",
    "mod_tension_bf",
    "oracle",
    "path_graph",
    "pull_complex",
    "realize_polynomial",
    "relative_f_vector",
]
