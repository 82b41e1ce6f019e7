"""crossrank: crossed products of the polynomial disk algebra by finite
cyclic rotation actions, with verifiable stable-rank certificates.

The package builds the summable crossed product of a dense polynomial
model of the disk algebra, eliminates group components by explicit left
multiplications, and emits self-contained certificates: Bezout cofactors
witnessing that pairs generate (stable rank at most two), winding-number
obstructions ruling out single generators (stable rank at least two),
matrix lifts through the conditional expectation, and SU(1,1) conjugations
reducing arbitrary finite automorphism groups to rotations.
"""
from .algebra import (AlgMatrix, CrossedElement, GroupSpec, convolve,
                      det_on_circle, expectation, index_element, matrix_embedding,
                      quasi_basis, reconstruct)
from .bounds import BoundsReport, stable_rank_bounds
from .elimination import (BezoutCertificate, EliminationTrace, ScalingReport,
                          VerificationReport, WindingObstruction,
                          bezout_certificate, closed_form_top_n2,
                          closed_form_top_n3, eliminate, homogeneity_check,
                          perturb_avoiding, reduced_norm, verify_bezout,
                          verify_winding, winding_obstruction)
from .errors import (CoprimalityFailure, GroupMismatch, GroupTooSmall,
                     NonRealImage, OracleFailure, PerturbationExhausted,
                     ToolkitError, UndersampledPath, VanishingDeterminant)
from .liftrank import (LiftResult, TupleLift, disk_column_oracle,
                       left_invertible_lift, lift_generating_tuple)
from .moebius import (ConjugationResult, FiniteCyclicSubgroup, RotationAction,
                      SL2RMatrix, SU11Element, conjugate_into_rotations,
                      make_finite_subgroup, mobius_apply, nearest_rotation,
                      rotation_action_of, to_sl2r, verify_conjugation)
from .poly import (CirclePath, Poly, circle_points, rotate, roots,
                   sylvester_bezout, winding_number)
from .randomness import (random_crossed, random_poly, random_su11,
                         seeded_generator)

__version__ = "0.1.0"
