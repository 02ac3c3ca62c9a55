"""OSSM core: the structure, its theory, and the segmentation algorithms.

* :mod:`repro.core.ossm` — the map and the Equation (1) bound;
* :mod:`repro.core.configuration` — segment configurations, Lemma 1;
* :mod:`repro.core.loss` — Equation (2) and its fast evaluator;
* :mod:`repro.core.minimization` — Theorem 1 / Corollary 1 (exact
  minimal segmentation);
* :mod:`repro.core.segmentation` + the algorithm modules — the
  constrained segmentation heuristics of Section 5;
* :mod:`repro.core.bubble` — the bubble-list optimization;
* :mod:`repro.core.recipe` — the Figure 7 strategy recommendation;
* :mod:`repro.core.generalized` — the footnote-3 higher-cardinality
  extension.
"""

from .bubble import bubble_list, bubble_list_for
from .configuration import (
    configuration,
    configurations,
    distinct_configurations,
    group_by_configuration,
    same_configuration,
)
from .generalized import GeneralizedOSSM
from .greedy import GreedySegmenter
from .hybrid import HybridSegmenter, RandomGreedySegmenter, RandomRCSegmenter
from .incremental import StreamingOSSMBuilder, extend_ossm
from .loss import (
    cumulative_loss,
    cumulative_loss_naive,
    merge_loss,
    merge_loss_naive,
    merge_losses,
    pair_bound_sum,
    pair_bound_sum_naive,
    pair_bound_sums,
    pairwise_merge_losses,
)
from .minimization import (
    MinimizationResult,
    count_segmentations,
    is_exact,
    max_bound_error,
    minimize_pages,
    minimize_transactions,
    n_min_bound,
)
from .ossm import OSSM, build_from_database, build_from_pages
from .random_seg import RandomSegmenter
from .rc import RCSegmenter
from .recipe import RecipeInputs, recommend, recommended_segmenter
from .segmentation import MergeState, SegmentationResult, Segmenter

__all__ = [
    "bubble_list",
    "bubble_list_for",
    "configuration",
    "configurations",
    "distinct_configurations",
    "group_by_configuration",
    "same_configuration",
    "GeneralizedOSSM",
    "GreedySegmenter",
    "HybridSegmenter",
    "StreamingOSSMBuilder",
    "extend_ossm",
    "RandomGreedySegmenter",
    "RandomRCSegmenter",
    "cumulative_loss",
    "cumulative_loss_naive",
    "merge_loss",
    "merge_loss_naive",
    "merge_losses",
    "pair_bound_sum",
    "pair_bound_sum_naive",
    "pair_bound_sums",
    "pairwise_merge_losses",
    "MinimizationResult",
    "count_segmentations",
    "is_exact",
    "max_bound_error",
    "minimize_pages",
    "minimize_transactions",
    "n_min_bound",
    "OSSM",
    "build_from_database",
    "build_from_pages",
    "RandomSegmenter",
    "RCSegmenter",
    "RecipeInputs",
    "recommend",
    "recommended_segmenter",
    "MergeState",
    "SegmentationResult",
    "Segmenter",
]
