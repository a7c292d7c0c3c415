"""Differentially private count reporting via batched iterative shuffling.

The flow: store each value as its index in the attribute's domain (the
position of its high bit in the paper's one-hot encoding), in one
``(n, k)`` array per table; tie the attributes a query touches into one
composite channel, a grouping of that array's columns; partition rows
into near-equal batches, shuffle each batch (or, for CIS, all rows) under
S independent shufflers, account for the privacy budget in closed form,
and release the count measured on the shuffled output once it satisfies
its loss bound.

This package exports the library API the README documents, plus the
types and errors those functions take, return or raise.  Helpers such
as ``epsilon_is`` or ``apply_channel_permutations`` live in their own
modules.
"""

from .dataset import Attribute, Dataset, DatasetError, Row, Schema, load_csv
from .partition import PlanError, ShufflePlan, build_plan
from .pipeline import (
    ConfigError,
    DPReport,
    PipelineConfig,
    PipelineRefused,
    RetriesExhausted,
    load_config,
    run_pipeline,
)
from .privacy import PrivacyAccount, RROracleEstimate, account, mc_rr_estimate
from .queryplan import QueryError, QuerySpec, TiedDataset, parse_query, tie_attributes
from .shuffler import (
    ShuffledDataset,
    ShuffleError,
    cumulative_iterative_shuffle,
    export_csv,
    iterative_shuffle,
)
from .utility import (
    RiskConfig,
    RiskError,
    Scheme,
    SchemeSelection,
    UtilityReport,
    count_query,
    measure_utility,
    select_scheme,
)

__version__ = "0.1.0"

__all__ = [
    # Functions
    "account",
    "build_plan",
    "count_query",
    "cumulative_iterative_shuffle",
    "export_csv",
    "iterative_shuffle",
    "load_config",
    "load_csv",
    "mc_rr_estimate",
    "measure_utility",
    "parse_query",
    "run_pipeline",
    "select_scheme",
    "tie_attributes",
    # Types they take or return
    "Attribute",
    "DPReport",
    "Dataset",
    "PipelineConfig",
    "PrivacyAccount",
    "QuerySpec",
    "RROracleEstimate",
    "RiskConfig",
    "Row",
    "Schema",
    "Scheme",
    "SchemeSelection",
    "ShufflePlan",
    "ShuffledDataset",
    "TiedDataset",
    "UtilityReport",
    # Errors they raise
    "ConfigError",
    "DatasetError",
    "PipelineRefused",
    "PlanError",
    "QueryError",
    "RetriesExhausted",
    "RiskError",
    "ShuffleError",
]
