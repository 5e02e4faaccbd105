"""Likelihood-based merging of factor levels.

Builds the full merging path of a grouping factor against a response
(Gaussian, binomial or survival), scores every model on the path with LRT
p-values and the generalized information criterion, selects an optimal
partition, and renders the merging-path plot as SVG.
"""

from .data import Grouping, Partition, ResponseData
from .engine import MergingPath, PathStep, merge_factors, ordering_statistic
from .errors import FactorFuseError
from .families import FittedModel, fit, group_summary, kaplan_meier
from .inference import (
    GicProfile,
    HistoryRow,
    SelectionCriterion,
    chi_square_sf,
    cut_tree,
    gic_profile,
    global_null_test,
    lrt,
    merging_history,
    optimal_partition_table,
)
from .mds import mds_project_1d
from .viz import PlotSpec, render_gic_svg, render_merging_path_svg, render_response_panel

__all__ = [
    "FactorFuseError",
    "FittedModel",
    "GicProfile",
    "Grouping",
    "HistoryRow",
    "MergingPath",
    "Partition",
    "PathStep",
    "PlotSpec",
    "ResponseData",
    "SelectionCriterion",
    "chi_square_sf",
    "cut_tree",
    "fit",
    "gic_profile",
    "global_null_test",
    "group_summary",
    "kaplan_meier",
    "lrt",
    "mds_project_1d",
    "merge_factors",
    "merging_history",
    "optimal_partition_table",
    "ordering_statistic",
    "render_gic_svg",
    "render_merging_path_svg",
    "render_response_panel",
]

__version__ = "0.1.0"
