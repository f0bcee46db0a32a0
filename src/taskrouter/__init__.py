"""taskrouter: route closed-ended visual-task queries to the best model.

The toolkit expands prompt-template grammars into concrete prompts, scores
options under contrastive and generative backends, converts execution
records into router training text, trains a lightweight text router, and
compares it against chance/average/voting/oracle/upper-bound baselines
under leave-one-dataset-out cross-validation.
"""

from .baselines import (
    ComparisonReport,
    average_baseline,
    build_comparison_report,
    chance_majority,
    chance_uniform,
    oracle_accuracy,
    upper_bound_accuracy,
    voting_accuracy,
    voting_predict,
)
from .core import (
    DatasetManifest,
    ExecutionRecord,
    MetadataSummary,
    QueryGrid,
    Records,
    Sample,
    World,
    aggregate_accuracy,
    load_tasks,
    load_world,
    save_world,
    summarize_image,
    weighted_average,
)
from .errors import (
    BackendError,
    CoverageError,
    IntegrityError,
    InvalidInputError,
    ParseError,
    RenderError,
    TaskRouterError,
)
from .harness import (
    AblationResult,
    LodoResult,
    run_ablation,
    run_lodo,
)
from .presets import builtin_prompt_configs
from .prompts import (
    DatasetPromptConfig,
    PromptTemplate,
    PromptVariant,
    apply_rename,
    article_for,
    closed_prompt_set,
    prompt_variants,
    render,
)
from .router import (
    FeaturizerConfig,
    RouterModel,
    TrainConfig,
    evaluate_router,
    featurize,
    train_router,
)
from .routerdata import (
    RouterExample,
    SerializationFlags,
    build_router_dataset,
    parse_example,
    select_best_model,
    serialize_example,
    serialize_input,
    split_80_10_10,
)
from .scoring import (
    BackendInfo,
    EvaluationRun,
    Prediction,
    evaluate,
    predict_contrastive,
    predict_generative,
)
from .synth import WorldSpec, generate_world

__version__ = "0.1.0"
