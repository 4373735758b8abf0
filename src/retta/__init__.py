"""retta: retrieval-cached episodic test-time adaptation at desk scale.

A unit-norm feature stream is classified against fixed text embeddings; each
incoming sample retrieves a class-balanced, similarity-ranked support set
from a FIFO cache of past embeddings and entropy gradients, takes one
optimizer step from the pretrained affine parameters using the aggregated
cached gradients, predicts, and resets.
"""

from .adapter import (
    AdaptOutcome,
    AdapterConfig,
    Outcomes,
    ablation_config,
    adapt_and_predict,
    aggregate,
    gd_step,
    process_batch,
    reference_adapter_config,
    run_entropy_baseline,
    run_stream,
    run_zero_shot,
    signsgd_step,
    weigh,
)
from .analysis import (
    EvalReport,
    ImportanceCheck,
    bench_cache,
    bias_gradient_check,
    evaluate,
    similarity_bins,
    verify_feature_importance,
)
from .datagen import (
    StreamConfig,
    generate,
    load_jsonl,
    order_stream,
    reference_stream_config,
    save_jsonl,
)
from .memory import ClassMemory
from .model import (
    AffineParams,
    GradRecord,
    Prediction,
    Sample,
    Stream,
    TextBank,
    batch_grads,
    finite_diff_grad,
    forward,
    load_text_bank,
    predict,
    sample_grad,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptOutcome",
    "AdapterConfig",
    "AffineParams",
    "ClassMemory",
    "EvalReport",
    "GradRecord",
    "ImportanceCheck",
    "Outcomes",
    "Prediction",
    "Sample",
    "Stream",
    "StreamConfig",
    "TextBank",
    "ablation_config",
    "adapt_and_predict",
    "aggregate",
    "batch_grads",
    "bench_cache",
    "bias_gradient_check",
    "evaluate",
    "finite_diff_grad",
    "forward",
    "gd_step",
    "generate",
    "load_jsonl",
    "load_text_bank",
    "order_stream",
    "predict",
    "process_batch",
    "reference_adapter_config",
    "reference_stream_config",
    "run_entropy_baseline",
    "run_stream",
    "run_zero_shot",
    "sample_grad",
    "save_jsonl",
    "signsgd_step",
    "similarity_bins",
    "verify_feature_importance",
    "weigh",
]
