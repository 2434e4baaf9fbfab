"""Polyhedral reachability certificates for smooth fully-connected networks.

Pipeline: localize preactivations over the input set, turn them into local
Lipschitz and Hessian certificates, bound each support direction with a
first-order model inside branch and bound, and assemble the resulting
half-spaces into a sound over-approximation of the image set.
"""

from .bnb import BnBConfig, BnBResult, solve, solve_zonotope
from .hessian import (MatrixHessianBound, ScalarHessianBound,
                      hessian_norm_bound, interval_hessian,
                      two_layer_matrix_bounds)
from .lipschitz import (LipschitzReport, LoopTransform, default_loop_transform,
                        lipschitz_report, liplt, naive_lipschitz,
                        operator_norm, refine_loop_transform)
from .localize import (LayerIntervals, LocalBounds, bounds_for_box,
                       global_bounds, ibp_intervals, local_bounds)
from .model import (Activation, Layer, Network, ScalarObjective, gradient,
                    network_from_dict, network_to_dict, prepend_affine,
                    scalarize)
from .reach import (Box, DirectionTemplate, LinearSystem, Polytope, Zonotope,
                    axes_directions, closed_loop_reach, closed_loop_step,
                    pca_directions, reach_polytope, simulate,
                    uniform_directions)
from .taylor import (BallRegion, epsilon_crossover, first_upper,
                     optimal_perturbation, shifted_center, two_layer_dual_upper,
                     vertex_upper)

__version__ = "0.1.0"
