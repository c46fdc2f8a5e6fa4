"""Exact-arithmetic engine for coherent lower previsions on finite spaces.

Coherence checking, natural extension, weak and strong invariance under
transformation monoids, strongly invariant natural extension, Choquet
integration, shift-invariant functionals on sequence gambles, and
exchangeable predictive updating.  All arithmetic is exact rational.
"""

from .core import (
    Event,
    Gamble,
    Space,
    Transformation,
    conjugate_upper,
    constant_gamble,
    constant_map,
    event,
    gamble,
    identity,
    indicator,
    inf,
    lift,
    sup,
)
from .errors import (
    CapExceededError,
    LowPrevError,
    NoInvariantDominatorError,
    NotAGroupError,
    NotStronglyInvariantError,
    PositivityError,
    SpaceMismatchError,
    SureLossError,
    TruncatedClosureError,
    ValidationError,
)
from .previsions import (
    Assessment,
    CredalSet,
    DesirableSet,
    almost_prefers,
    avoids_partial_loss,
    avoids_sure_loss,
    coherent_version,
    credal_vertices,
    desirable_cone_contains,
    incomparable,
    indifferent,
    is_coherent,
    natural_extension,
    upper_extension,
)
from .rationals import format_rational, frac, parse_rational
from .solver import Constraint, LPResult, SimplexLP, enumerate_vertices, solve_fractional_min, solve_min, solve_minmax
from .transforms import (
    InvariantAtoms,
    MonoidFlags,
    TransformationMonoid,
    classify,
    closure,
    invariant_atoms,
    is_invariant_gamble,
    monoid,
    pushforward,
)
from .invariance import (
    AtomLowerPrevision,
    InvarianceReport,
    assessment_weakly_invariant,
    atom_representation,
    credal_weakly_invariant,
    extract_atom_lowprev,
    invariance_report,
    invariant_previsions_exist,
    invariant_polytope_vertices,
    mixture_lower_prevision,
    strongly_invariant,
    strongly_invariant_natex,
    symmetrize,
    weakly_invariant_closure,
)
from .shift import (
    Convergent,
    EventuallyPeriodic,
    FinSupport,
    ShiftValue,
    Truncated,
    banach_crosscheck,
    cesaro_mean,
    lnex_res,
    lnex_theta,
    lsamp_theta,
    quadratic_event,
    residue_counterexample_event,
    residue_estimate,
    unex_theta,
    usamp_theta,
    window_inf_mean,
    window_sup_mean,
)
from .exchange import (
    CategorySpace,
    atom_size,
    count_gamble,
    counting_map,
    exchangeable_assessment,
    exchangeable_from_counts,
    is_exchangeable,
    likelihood,
    posterior_count_assessment,
    predictive_update,
    uniform_given_count,
    update_counts,
)
from .choquet import (
    SetFunction,
    assessment_from_set_function,
    belief_function,
    choquet_integral,
    inner_extension,
    inner_set_function,
    is_n_monotone,
    possibility_upper,
)

__version__ = "0.1.0"
