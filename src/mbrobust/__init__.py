"""Robust multi-behavior recommendation toolkit.

Builds per-behavior graph encoders over shared base embeddings, aligns
auxiliary user representations to the target behavior with a contrastive
loss, stabilizes optimization with a cross-behavior risk-variance penalty
(or its gradient-norm variants), and evaluates with leave-one-out
full-ranking HR@K / NDCG@K.  All gradients are hand-derived and verified
against finite differences.
"""

from .data import (
    DatasetError,
    DatasetManifest,
    DiagnosticsReport,
    EdgeSet,
    InteractionDataset,
    PerturbationSpec,
    SplitDataset,
    compute_bar,
    compute_dt,
    diagnose,
    drop_behaviors,
    load_dataset,
    load_split,
    perturb,
    save_dataset,
    split_leave_one_out,
    write_split,
)
from .evaluation import EvalReport, evaluate, robustness_sweep
from .gradcheck import run_gradcheck
from .graph import BehaviorGraph, build_graph, propagate, propagate_adjoint
from .losses import (
    GradientBuffer,
    Hyperparameters,
    LossBreakdown,
    ModelState,
    TripletBatch,
    main_loss,
    orm_loss,
    rrm_loss,
    total_loss,
)
from .synthetic import planted_dataset, planted_dataset_mixed_alignment
from .training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
