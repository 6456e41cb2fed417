"""Exact rational plane geometry for a family of parallel-line constructions.

Everything is computed over ``fractions.Fraction``: results are exact, all
invariants are checked by equality rather than tolerance, and every
construction records enough witness data to be re-verified from scratch.
"""

from .errors import (
    CaseUnavailableError,
    CoincidentPointsError,
    DegenerateTransversalError,
    GeomError,
    InconsistentError,
    OriginOffAxisError,
    OriginOnLineError,
    ParallelLinesError,
    ParallelProjectionError,
    ParseError,
    PreconditionError,
    SingularSystemError,
)
from .kernel import (
    ORIGIN,
    X_AXIS,
    Y_AXIS,
    Direction,
    Frame,
    Line,
    Point,
    Scalar,
    contains,
    dist_sq,
    frame_to_standard,
    intersect,
    is_parallel,
    line_from_points,
    line_through,
    midpoint,
    parallel_through,
    reflect_through,
    scalar,
    side_of,
    swap_line,
    translate,
)
from .linsolve import solve_unique
from .textio import (
    format_line,
    format_point,
    format_scalar,
    format_value,
    parse_line_spec,
    parse_point,
    parse_scalar,
)
from .double_projection import (
    ProjectionCase,
    ProjectionWitness,
    TransversalScene,
    oracle_point,
    p_hor,
    p_hor_closed_form,
    p_ver,
    p_ver_closed_form,
    rho_pair,
    rho_tilde_pair,
)
from .axis_projection import (
    AxisCase,
    AxisProjectionResult,
    AxisScene,
    construct_p,
    verify_p2,
)
from .parallelogram import (
    StripScene,
    build_witness,
    connecting_line,
    minus_nu_check,
    mu,
    mu_closed_form,
    mu_witness,
    nu,
    nu_closed_form,
    s_bar_t_bar_closed_form,
    swap_scene,
)
from .parallelogram_axis import (
    AxisParallelogram,
    AxisStripScene,
    nu_general,
    nu_general_invariance,
    transform_scene,
    transported_offset,
)

__version__ = "0.1.0"
