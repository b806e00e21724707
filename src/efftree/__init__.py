"""Treatment-effect trees for observational data.

Recursive partitioning of a covariate space into subgroups with
heterogeneous treatment effects, driven by inverse-probability-weighted,
g-formula, or doubly robust subgroup effect estimators, with weakest-link
pruning and validation-set final tree selection. Includes a simulation
harness and a command-line front end.
"""

from .data import (
    Categorical,
    Continuous,
    DataError,
    Dataset,
    Ordinal,
    Schema,
    load_csv,
    write_csv,
)
from .estimators import (
    EstimatorKind,
    InadmissibleSplitError,
    NodeEffect,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    estimate_dr,
    estimate_g,
    estimate_ipw,
)
from .glm import Design, DesignSpec, FitError, ModelFit, fit_logistic, fit_ols, parse_spec, predict_mean
from .prune import DEFAULT_LAMBDA, PruneSequence, split_complexity, weakest_link_sequence
from .search import (CategoricalCardinalityError, SplitContrast, SplitRule, if_variance,
                     ipw_variance_per_child, split_contrast)
from .select import bootstrap_effects, check_lambda, fit_tree, select_final
from .simulate import (
    ExperimentSummary,
    SimSetting,
    TruthOracle,
    correct_first_split,
    generate,
    is_correct_tree,
    make_config,
    mse,
    noise_split_count,
    pairwise_similarity,
    run_experiment,
)
from .tree import GrowConfig, Tree, TreeNode, grow_max_tree, tree_from_dict

__version__ = "0.1.0"
