"""repro — robust layered indexing for ranked (top-k) queries.

A faithful, laptop-scale reproduction of

    Dong Xin, Chen Chen, Jiawei Han.
    "Towards Robust Indexing for Ranked Queries", VLDB 2006.

The package ships the paper's contribution (the AppRI approximate
robust index and the exact robust-layer solvers), every baseline it
evaluates against (Onion, Shell, PREFER, multi-view variants), the
substrates they run on (dominance counting, convex hulls/shells, a
mini relational engine with a layered-index-aware SQL dialect), the
paper's data generators, and the experiment harness that regenerates
Table 1 and Figures 6-14.

Quick start::

    import numpy as np
    from repro import RobustIndex, LinearQuery

    data = np.random.default_rng(0).random((10_000, 3))
    index = RobustIndex(data)          # build once
    result = index.query(LinearQuery([1, 2, 4]), k=50)
    result.tids        # the exact top-50
    result.retrieved   # tuples read: |first 50 layers|, query-independent
"""

from . import obs
from .core.appri import appri_build, appri_layers
from .core.exact import exact_build, exact_robust_layers, minimal_rank
from .core.signed import SignedRobustLayers
from .core.validate import audit_layering
from .indexes.base import QueryResult, RankedIndex
from .indexes.dynamic import DynamicRobustIndex
from .indexes.linear_scan import LinearScanIndex
from .indexes.multiview import PreferMultiView, RobustMultiView
from .indexes.onion import OnionIndex, ShellIndex
from .indexes.prefer import PreferIndex
from .indexes.robust import ExactRobustIndex, RobustIndex
from .indexes.rtree import RTreeIndex
from .indexes.threshold import ThresholdIndex
from .queries.ranking import LinearQuery
from .queries.workload import grid_weight_workload, simplex_workload

__version__ = "1.0.0"

__all__ = [
    "LinearQuery",
    "QueryResult",
    "RankedIndex",
    "RobustIndex",
    "ExactRobustIndex",
    "OnionIndex",
    "ShellIndex",
    "PreferIndex",
    "PreferMultiView",
    "RobustMultiView",
    "LinearScanIndex",
    "ThresholdIndex",
    "RTreeIndex",
    "SignedRobustLayers",
    "DynamicRobustIndex",
    "audit_layering",
    "appri_layers",
    "appri_build",
    "obs",
    "exact_build",
    "exact_robust_layers",
    "minimal_rank",
    "grid_weight_workload",
    "simplex_workload",
    "__version__",
]
