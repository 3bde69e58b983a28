"""folsing: exact local analysis of planar holomorphic vector fields.

The package provides exact-arithmetic tools for singular points of planar
polynomial vector fields and 1-forms: classification of the linear part over
algebraic extensions of Q(i), quadratic blow-up and full reduction of
singularities with a verified intersection-number ledger, truncated normal
forms and linearization, holonomy germs, a decision procedure for local
meromorphic first integrals, global invariants on the projective plane, the
sector combinatorics attached to irregular direction fields, and a
floating-point module for parabolic (tangent-to-identity) germ dynamics.

What loads when: importing the package registers every library module in
``sys.modules`` through :class:`importlib.util.LazyLoader` and runs none of
them.  A module's code runs when something first reads an attribute of it,
together with the modules its own ``from .x import y`` lines name.  The
public names in ``__all__`` resolve through the module ``__getattr__`` below
(PEP 562), so ``folsing.resolve`` is the function and loads only what it
needs; ``from folsing import jsonio`` returns the module unloaded.  On
Python 3.11 an ``import folsing.x`` or ``from .x import y`` statement runs
x at once (the import system reads ``x.__spec__``), so laziness holds only
where code keeps the module itself, as :mod:`folsing.cli` does for the
modules its commands call: ``import folsing.cli`` runs ``errors``,
``scalars``, ``zassenhaus``, ``towers``, ``poly``, ``parsing`` and
``local``, and each command then runs what it calls (``jsonio`` when it
prints).  The 3.11 lazy module is not thread-safe; folsing is
single-threaded.

No module loads numpy when it runs: only the orbit census of
:mod:`folsing.fatou` imports it, when it runs, and :mod:`folsing.towers`
when a new extension level needs its complex embedding.

The command-line entry point lives in :mod:`folsing.cli`, which is imported
the ordinary way, so that ``python -m folsing.cli`` can run it as
``__main__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Every library module, with the public names it exports.
_EXPORTS = {
    "errors": ("ToolkitError",),
    "scalars": ("Fraction", "GaussianRational"),
    "towers": ("FieldElement", "FieldTower", "tower_caps"),
    "poly": ("MultiPoly", "OneFormGerm", "VectorFieldGerm", "dualize",
             "wedge"),
    "parsing": ("ParseError", "parse_any", "parse_field", "parse_form",
                "parse_poly", "render_any", "render_field", "render_form",
                "render_poly"),
    "local": ("SingularityClass", "classify_singularity", "eigen_pair"),
    "blowup": ("blow_up_field", "blow_up_form", "divisor_children",
               "tangent_cone"),
    "resolve": ("ResolutionTree", "resolve", "verify_ledger"),
    "normalforms": ("ConjugacyResult", "SaddleNodeData", "conjugacy_residual",
                    "dulac_reduce", "poincare_linearize",
                    "resonant_normal_form", "saddle_node_prepare",
                    "siegel_straighten"),
    "holonomy": ("FirstIntegralResult", "IntegralVerdict",
                 "construct_first_integral_homogeneous", "linear_holonomy",
                 "mattei_moussu_criterion", "saddle_node_holonomy",
                 "verify_first_integral"),
    "cp2": ("DegreeReport", "fol_space_dimension", "foliation_degree",
            "jouanolou", "line_at_infinity_invariant", "riccati_recognize",
            "tangency_count", "tangency_samples"),
    "sectors": ("AdmissibleMonomialSet", "EigenData", "Sector",
                "admissible_monomials", "leaf_transition", "positive_sector",
                "sheaf_singular_directions", "solution_sectors"),
    "fatou": ("FatouEstimate", "NumericGerm", "abel_residual",
              "attracting_directions", "fatou_coordinate", "orbit_census",
              "petal_points", "repelling_directions"),
    "jsonio": (),
    "zassenhaus": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    """A public name from its module, or a library module itself."""
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    if name in _EXPORTS:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
