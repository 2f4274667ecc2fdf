"""Local commutative real algebras: structure, lifting, torus verification."""

from .algebra import (
    Element,
    StandardBasisInfo,
    StructureConstants,
    from_spec,
    mul,
    preset,
    radical_basis,
    radical_filtration,
    radical_part,
    socle_basis,
    standard_basis,
    standardize,
    validate_algebra,
)
from .expr import CORPUS, CORPUS_VARS, diff, eval_real, parse, to_text
from .lift import (
    APoint,
    adiff_defect,
    e1_component_residual,
    format_element,
    lift_eval,
    lift_map,
    parse_element,
    parse_point,
    taylor_lift,
)
from .torus import (
    ConstraintSystem,
    TorusConfig,
    TrigSpace,
    assemble_function_constraints,
    make_torus,
    solve_nullspace,
    verify_constancy,
    verify_min_leaf,
    verify_socle_decomposition,
)
from .forms import (
    CohomologyReport,
    assemble_form_constraints,
    cohomology_report,
    component_space_dim,
    verify_class_injectivity,
)

__version__ = "0.1.0"
