"""Convex-duality consumption-investment solvers on finite scenario trees."""

from .errors import (
    BudgetError,
    ClockError,
    ConvergenceError,
    DualityLabError,
    InfeasibleMarketError,
    MalformedTreeError,
    PriceError,
    ValueDivergenceError,
)
from .market import (
    AssetProcess,
    ClockReport,
    ExampleMarketSpec,
    MarketModel,
    ScenarioTree,
    StochasticClock,
    build_example_market,
    build_tree,
    load_model,
    model_to_dict,
    quotient,
    save_model,
    truncate,
    validate_clock,
)
from .utility import (
    ConjugateField,
    InadaReport,
    UtilityField,
    check_inada,
    conjugate,
    eval_utility,
    field_from_spec,
    field_to_spec,
    inverse_marginal,
    marginal,
)
from .primal import (
    AdmissibilityReport,
    PrimalSolution,
    admissibility_check,
    analytic_log_binomial,
    solve_primal,
)
from .dual import (
    DualSolution,
    MartingalePolytope,
    dual_over_measures,
    martingale_polytope,
    solve_dual,
)
from .harness import (
    ConjugacyReport,
    ExampleReport,
    RelationsReport,
    SuperrepResult,
    ValueCurves,
    bounded_threshold,
    conjugacy_check,
    convergence_summary,
    curve_shape_checks,
    default_grid,
    dual_superrep_price,
    example_portfolio_study,
    marginal_value_estimate,
    min_conjugate_over_y,
    optimality_relations_check,
    pair_solutions,
    superreplication_price,
    terminal_payoff_claim,
    unit_terminal_claim,
    value_convergence_study,
)

__version__ = "0.1.0"
