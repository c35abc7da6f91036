"""Multi-task post-click conversion ranking with differentiable sorting.

Library layout:

* ``gradcore``    reverse-mode autodiff over dense 2-D tensors
* ``sortops``     permutations, the SoftSort relaxation, ranking losses
* ``aggregate``   prediction/label aggregation operators
* ``data``        dataset format, validation, label matrix, batching, synthetic generator
* ``model``       shared-bottom multi-task network, baselines, training
* ``evaluation``  AUC and NDCG@k metrics
* ``checks``      gradient-check and property suite
* ``cli``         command-line interface (``mtlds`` entry point)
"""

import os

# One BLAS thread, set before any submodule imports numpy: OpenBLAS reads
# these when it loads, and with several threads it splits each matrix product
# by the thread count, which changes the last bits of the losses and so the
# reports.  A program that imports numpy before mtlds keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from .aggregate import LabelSequence, aggregate_columns
from .data import (Dataset, Impression, Sample, Schema, SynthConfig, label_matrix, load_dataset,
                   synthesize)
from .evaluation import MetricReport, auc, ndcg_at_k
from .gradcore import Graph, Tensor, grad_check
from .model import ModelConfig, SharedBottomModel, TrainReport, evaluate_model, fit
from .sortops import (
    argsort_desc,
    is_unimodal_row_stochastic,
    perm_matrix,
    soft_sort,
    sort_loss,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Graph",
    "Impression",
    "LabelSequence",
    "MetricReport",
    "ModelConfig",
    "Sample",
    "Schema",
    "SharedBottomModel",
    "SynthConfig",
    "Tensor",
    "TrainReport",
    "aggregate_columns",
    "argsort_desc",
    "auc",
    "evaluate_model",
    "fit",
    "grad_check",
    "is_unimodal_row_stochastic",
    "label_matrix",
    "load_dataset",
    "ndcg_at_k",
    "perm_matrix",
    "soft_sort",
    "sort_loss",
    "synthesize",
]
