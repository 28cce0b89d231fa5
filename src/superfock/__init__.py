"""Exact computer algebra for free-field superconformal structures and
order-two twisted modules."""

from .scalars import ExactScalar, I, ONE, SQRT2, ZERO, pow_two
from .series import Series, substitute_root_phase
from .superalgebra import (
    Element,
    Generator,
    N1_NS,
    N1_RAMOND,
    N2_MIRROR_TWISTED,
    N2_NS,
    N2_RAMOND,
    PRESENTATIONS,
    VIRASORO,
    bracket,
    corrupted_virasoro_quintic,
    gen,
    mirror_automorphism,
    mirror_map_on_generator,
    pair_bracket,
    rescaled_virasoro,
    verify_algebra,
    verify_automorphism,
)
from .delta import apply_delta, delta_coefficients, verify_delta_equation
from .fock import FockSpaceSpec, FockState, TruncatedSpace, character, mode_apply
from .vosa import (
    N2Data,
    TensorVosa,
    Vosa,
    calibrate_n2,
    creation_report,
    grading_report,
    kappa_automorphism_report,
    n1_table_report,
    translation_report,
)
from .twisted import MirrorModule, SigmaModule, corollary2_check

__all__ = [name for name in dir() if not name.startswith("_")]
