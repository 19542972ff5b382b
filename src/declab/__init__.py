"""declab: a numerical laboratory for cap decoupling measurements of
nondegenerate model surfaces in R^4."""

from .exponents import (candidate_growth_exponent, contradiction_search,
                        default_eps_model, eps_model_from_table,
                        exponent_constants, interpolation_weight,
                        iterate_growth_bound, linear_bound_from_table,
                        one_step_recursion_bound, scale_reduction_sequence)
from .fields import (AmplitudeField, ExtensionEvaluator, LineEvaluator,
                     extension_evaluator, extension_value)
from .geometry import (CurveEvaluator, CurveLiftSurface, NormalForm,
                       QuadCoeffs, QuadSurface, SurfaceEvaluator, curve_lift,
                       curve_nondegeneracy_det, is_admissible,
                       is_nondegenerate, lift_nondegeneracy_det, moment_curve,
                       normal_form, quad_surface, random_admissible)
from .grid import CapPartition, DyadicSquare, cap_level_for, square_at
from .harness import (DecouplingReport, ScenarioSpec, curve_bilinear,
                      emit_plotdata, fit_slope, flatline_l2_reference,
                      measure_bilinear, measure_linear,
                      measure_square_function, measure_trivial,
                      parabola_reference, predicted_exponent, run_cell,
                      scenario)
from .norms import (BallSpec, NormEstimate, PoisonedEstimateError, Sampler,
                    weight_mass, weighted_lp_norm, weighted_norm_batch)
from .rescale import ShearMap, rescale_field, rescaling_residual, shear_point
from .transversality import (TransversalityForm, TransversalityGraph,
                             jacobian_residual, min_abs_form,
                             min_abs_form_grid, transversality_form,
                             transversality_graph)

__version__ = "0.1.0"
