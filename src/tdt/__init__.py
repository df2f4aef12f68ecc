"""Hierarchical encoder-decoder with windowed bottom-up attention, segment
pooling, and top-down cross-attention correction, on a minimal float64
tensor engine with reverse-mode gradients."""

from . import attention, bench, checkpoint, model, ops, optim, pooling, rouge, tasks, training
from .attention import (
    OpCounter,
    ScoreBudget,
    band_popcount,
    count_budget,
    multi_head_attention,
)
from .checkpoint import load_model, save_model
from .model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    Model,
    ModelConfig,
    desk_config,
    encode_score_budget,
    paper_config,
)
from .ops import cross_entropy, ffn_block, linear, matmul
from .optim import Adam
from .pooling import (
    SegmentationSpec,
    build_importance_labels,
    labels_to_weights,
    pool_average,
    pool_weighted,
    segment_index_map,
)
from .rng import RngStream
from .rouge import RougeScore, rouge_l, rouge_n
from .tasks import TaskInstance, gen_copy_task, gen_keyvalue_task
from .tensor import (
    CheckpointError,
    ConfigError,
    NumericsError,
    Parameter,
    ShapeError,
    Tape,
    TdtError,
    Tensor,
    UsageError,
    backward,
    live_bytes,
    peak_bytes,
    recording,
    reset_peak,
    zero_grads,
)
from .training import Tagger, TrainReport, eval_accuracy, train, train_tagger

__version__ = "0.1.0"
