"""factorlab: parity [a,b]-factor deciders, extremal graph families, and
spectral-radius verification at desk scale."""

from .errors import (
    BadParamsError,
    FactorLabError,
    Graph6Error,
    NotConvergedError,
    NotEquitableError,
    ParityPreconditionError,
    SamplerExhaustedError,
    SizeLimitError,
)
from .factors import (
    CriterionWitness,
    FactorCertificate,
    ParityParams,
    Verdict,
    criterion_scan,
    criterion_witness,
    decide_by_criterion,
    decide_by_matching,
    decide_by_search,
    eta,
    search_scan,
    verify_certificate,
    verify_witness,
)
from .families import LabeledConstruction, book_family, clique_join, g_na
from .graph import (
    Graph,
    complement,
    complete,
    components,
    cycle,
    delete_set,
    disjoint_union,
    edges_between,
    from_edges,
    is_connected,
    join,
    mask_of,
    min_degree,
    path,
    relabel,
    star,
    vertices_of,
)
from .graph6 import from_graph6, read_graph6, read_graph6_file, to_graph6
from .harness import (
    GridReport,
    SurveyRecord,
    SurveyReport,
    bundled_connected_graphs,
    grid_book_spectral_bound,
    grid_bound_monotonicity,
    grid_clique_merge_dominance,
    grid_degree_size_bound,
    grid_gna_no_factor,
    grid_parity_evenness,
    recognize_gna,
    sample_connected_min_degree,
    survey_theorem,
    sweep_oracle_equivalence,
)
from .matching import has_perfect_matching
from .spectral import (
    QuotientMatrix,
    SpectralResult,
    book_charpoly,
    edge_rotation,
    equitable_partition,
    f_monotone_check,
    hong_nikiforov_bound,
    quotient,
    quotient_rho,
    spectral_radius,
)

__version__ = "0.1.0"
