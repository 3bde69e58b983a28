"""folsing: exact local analysis of planar holomorphic vector fields.

The package provides exact-arithmetic tools for singular points of planar
polynomial vector fields and 1-forms: classification of the linear part over
algebraic extensions of Q(i), quadratic blow-up and full reduction of
singularities with a verified intersection-number ledger, truncated normal
forms and linearization, holonomy germs, a decision procedure for local
meromorphic first integrals, global invariants on the projective plane, the
sector combinatorics attached to irregular direction fields, and a
floating-point module for parabolic (tangent-to-identity) germ dynamics.

Importing the package, or :mod:`folsing.cli`, does not load numpy: the
floating-point functions of :mod:`folsing.fatou` import it when they run, and
:mod:`folsing.towers` when a new extension level needs its complex embedding.

The command-line entry point lives in :mod:`folsing.cli`.
"""

from .errors import ToolkitError
from .scalars import Fraction, GaussianRational
from .towers import FieldElement, FieldTower, tower_caps
from .poly import MultiPoly, OneFormGerm, VectorFieldGerm, dualize, wedge
from .parsing import (
    ParseError,
    parse_any,
    parse_field,
    parse_form,
    parse_poly,
    render_any,
    render_field,
    render_form,
    render_poly,
)
from .local import SingularityClass, classify_singularity, eigen_pair
from .blowup import blow_up_field, blow_up_form, divisor_children, tangent_cone
from .resolve import ResolutionTree, resolve, verify_ledger
from .normalforms import (
    ConjugacyResult,
    SaddleNodeData,
    conjugacy_residual,
    dulac_reduce,
    poincare_linearize,
    resonant_normal_form,
    saddle_node_prepare,
    siegel_straighten,
)
from .holonomy import (
    FirstIntegralResult,
    IntegralVerdict,
    construct_first_integral_homogeneous,
    linear_holonomy,
    mattei_moussu_criterion,
    saddle_node_holonomy,
    verify_first_integral,
)
from .cp2 import (
    DegreeReport,
    fol_space_dimension,
    foliation_degree,
    jouanolou,
    line_at_infinity_invariant,
    riccati_recognize,
    tangency_count,
    tangency_samples,
)
from .sectors import (
    AdmissibleMonomialSet,
    EigenData,
    Sector,
    admissible_monomials,
    leaf_transition,
    positive_sector,
    sheaf_singular_directions,
    solution_sectors,
)
from .fatou import (
    FatouEstimate,
    NumericGerm,
    abel_residual,
    attracting_directions,
    fatou_coordinate,
    orbit_census,
    petal_points,
    repelling_directions,
)

__version__ = "0.1.0"

__all__ = [
    "ToolkitError",
    "Fraction",
    "GaussianRational",
    "FieldElement",
    "FieldTower",
    "tower_caps",
    "MultiPoly",
    "OneFormGerm",
    "VectorFieldGerm",
    "dualize",
    "wedge",
    "ParseError",
    "parse_any",
    "parse_field",
    "parse_form",
    "parse_poly",
    "render_any",
    "render_field",
    "render_form",
    "render_poly",
    "SingularityClass",
    "classify_singularity",
    "eigen_pair",
    "blow_up_field",
    "blow_up_form",
    "divisor_children",
    "tangent_cone",
    "ResolutionTree",
    "resolve",
    "verify_ledger",
    "ConjugacyResult",
    "SaddleNodeData",
    "conjugacy_residual",
    "dulac_reduce",
    "poincare_linearize",
    "resonant_normal_form",
    "saddle_node_prepare",
    "siegel_straighten",
    "FirstIntegralResult",
    "IntegralVerdict",
    "construct_first_integral_homogeneous",
    "linear_holonomy",
    "mattei_moussu_criterion",
    "saddle_node_holonomy",
    "verify_first_integral",
    "DegreeReport",
    "fol_space_dimension",
    "foliation_degree",
    "jouanolou",
    "line_at_infinity_invariant",
    "riccati_recognize",
    "tangency_count",
    "tangency_samples",
    "AdmissibleMonomialSet",
    "EigenData",
    "Sector",
    "admissible_monomials",
    "leaf_transition",
    "positive_sector",
    "sheaf_singular_directions",
    "solution_sectors",
    "FatouEstimate",
    "NumericGerm",
    "abel_residual",
    "attracting_directions",
    "fatou_coordinate",
    "orbit_census",
    "petal_points",
    "repelling_directions",
    "__version__",
]
