"""The paper's contribution: exact and approximate robust layering."""

from .appri import appri_layers
from .exact import exact_robust_layers, minimal_rank, minimal_rank_sampled
from .dynamic import layer_for_new_tuple
from .signed import SignedRobustLayers
from .validate import AuditReport, audit_layering

__all__ = [
    "appri_layers",
    "exact_robust_layers",
    "minimal_rank",
    "minimal_rank_sampled",
    "SignedRobustLayers",
    "layer_for_new_tuple",
    "audit_layering",
    "AuditReport",
]
