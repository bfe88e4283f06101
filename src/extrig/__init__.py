"""Mobility analysis of bar-joint and point-hyperplane frameworks with
extrusion symmetry: rigidity matrices, symmetry-adapted block
decompositions, character counts, and finite-flex certification."""

from .frameworks import (Configuration, ExtrusionSpec, Framework, affine_span_check,
                         apply_affine, apply_infinitesimal_rotation, extrude_framework,
                         normalize_hyperplanes, verify_extrusion_symmetry)
from .graphs import (PHGraph, Vertex, complete_decorated, extrusion_product,
                     group_elements, remove_edge, subgroup_elements)
from .rigidity import (InfinitesimalAnalysis, PinningSpec, RigidityMatrix,
                       hyperplane_pinning, infinitesimal_analysis, maxwell_rhs,
                       minimal_pinning, rigidity_matrix, trivial_motion_basis,
                       trivial_motion_dim)
from .symmetry import (BlockDecomposition, MobilityReport, RepBundle,
                       SymmetryPreconditionError, block_decompose, build_reps,
                       character_of, decompose_character, fowler_guest_count,
                       intertwining_residual, irreducible_characters,
                       translation_character)
from .finiteflex import (AffineSubspace, FlexTestResult, LinearPushResult,
                         MeasurementMap, finite_flex_test, linear_push,
                         measurement_map, regular_point_test, restricted_jacobian,
                         symmetric_subspace, uniform_velocity_subspace)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
