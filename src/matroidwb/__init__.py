"""matroidwb: exact matroid computations and negative-dependence checks.

Core objects: Matroid (bases as bit-sets), BoundedPoly (exact rational
polynomials, per-variable degree <= 2: basis polynomials and the Rayleigh
and c-Rayleigh differences that rayleigh_diff builds from them), Verdict
(Holds / Fails / Inconclusive with certificates and exactly-verified
witnesses).
"""

from .core import (
    Matroid,
    circuits,
    closure,
    connected_components,
    contract,
    delete,
    direct_sum,
    dual,
    from_bases,
    is_connected,
    isomorphism,
    rank_of,
    relax,
    restriction,
    two_separation,
    two_sum,
)
from .constructions import (
    LatticePathPair,
    MultiGraph,
    SetSystem,
    bicircular,
    graphic,
    lattice_path,
    lattice_path_pair_from_endpoints,
    lpm_recursive_build,
    named_atlas,
    principal_extension,
    principal_truncation,
    transversal,
    uniform,
    whirl,
)
from .poly import (
    BoundedPoly,
    basis_poly,
    rayleigh_diff,
)
from .analysis import (
    c_rayleigh_verdict,
    counterexample_search,
    hpp_verdict,
    is_balanced,
    neg_corr,
    neg_corr_all_pairs,
    nice_extension_report,
    rayleigh_verdict,
    strong_rayleigh_verdict,
    wagner_pair,
)
from .classifiers import (
    bicircular_family,
    is_base_sorting_order,
    is_paving,
    is_sparse_paving,
    lpm_family,
    positroid_verdict,
    sparse_paving_family,
)
from .sos import GramCertificate, sos_certificate, sos_certificate_orthant
from .verdicts import Certificate, Verdict, Witness

__version__ = "0.1.0"
