"""Exact computational laboratory for the James-type tree spaces JT_INF, JH,
JH_INF and the root-free hyperplane M_HYP: norms and dual norms at desk scale
in exact rational arithmetic, norming-set slices, and certified diameter and
octahedrality witnesses."""

from .certificates import (
    CcwCertificate,
    OctahedralityReport,
    Sd2pCertificate,
    extend_within_ball,
    fresh_direction,
    l1_basis_check,
    m_ccw_witness,
    octahedrality_deficit,
    sd2p_witnesses,
)
from .config import DEFAULT_CONFIG, RunConfig
from .dualnorm import DualNormCertificate, dual_norm
from .errors import (
    CertificationError,
    ConvergenceError,
    EnumerationCapError,
    InvalidFunctionalError,
    InvalidSegmentError,
    InvalidVectorError,
    JamesTreeError,
    PreconditionError,
    ScenarioConstraintError,
    SchemaError,
    SpaceMismatchError,
)
from .functionals import (
    DualFunctional,
    MoleculeFit,
    best_molecule,
    evaluate,
    segment_functional,
    validate_functional,
)
from .norms import NormResult, evaluate_family, literal_norm_sq_jt, norm
from .slices import DiameterReport, SliceSpec, scenario_upper_bound, slice_diameter, slice_members
from .spaces import (
    ALL_SPACES,
    JH,
    JH_INF,
    JT_INF,
    M_HYP,
    ROOT,
    Node,
    SparseVector,
    SpaceKind,
    SpaceSpec,
    embed_dyadic,
    project_levels,
    unit_vector,
)
from .surds import Surd
from .trees import (
    AdmissibleFamily,
    Segment,
    enumerate_admissible_families,
    is_admissible,
    segments_disjoint,
)

__version__ = "1.0.0"
