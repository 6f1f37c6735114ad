"""Exact-arithmetic smoothing-obstruction checks for ghost components of
stable maps, with a symbolic verifier for the resolved local model."""

__version__ = "0.1.0"

from .curves import (
    HyperellipticModel,
    NodalRationalModel,
    RawEvaluationModel,
)
from .exact import QMatrix, rat, rat_to_str
from .factory import (
    StratumSpec,
    build_line_star_instance,
    dim_moduli,
    dim_stratum,
    random_instance,
)
from .laurent import LaurentPoly, normal_form_xyt, substitute
from .localmodel import (
    chart,
    expand_ghost,
    verify_chart_relations,
    verify_residue_theorem,
)
from .obstruction import (
    AttachmentColumn,
    CorollaryVerdict,
    ObstructionProblem,
    TheoremVerdict,
    Verdict,
    corollary_check,
    kernel_to_witness_d,
    obstruction_matrix,
    theorem_check,
)

__all__ = [
    "__version__",
    "AttachmentColumn",
    "CorollaryVerdict",
    "HyperellipticModel",
    "LaurentPoly",
    "NodalRationalModel",
    "ObstructionProblem",
    "QMatrix",
    "RawEvaluationModel",
    "StratumSpec",
    "TheoremVerdict",
    "Verdict",
    "build_line_star_instance",
    "chart",
    "corollary_check",
    "dim_moduli",
    "dim_stratum",
    "expand_ghost",
    "kernel_to_witness_d",
    "normal_form_xyt",
    "obstruction_matrix",
    "random_instance",
    "rat",
    "rat_to_str",
    "substitute",
    "theorem_check",
    "verify_chart_relations",
    "verify_residue_theorem",
]
