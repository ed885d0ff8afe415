"""Entropy propagation analysis and entropy-guided training for small networks.

The package computes closed-form entropy changes across dense and 2-d
convolutional layers, turns them into training loss terms with exact
gradients, trains small networks from scratch, profiles entropy-change
patterns in stored weights, and validates experiment outcomes with
Welch t-tests.
"""

from .entropy import (
    ConvMatrix,
    EntropyDelta,
    LayerProfile,
    ProfileReport,
    SquarifiedDense,
    build_conv_matrix,
    conv_entropy_delta,
    dense_entropy_delta,
    profile_network,
    square_part,
    squarify_dense,
)
from .losses import (
    LambdaSchedule,
    LossForm,
    compound_loss,
    conv_entropy_loss,
    conv_entropy_loss_grad,
    dense_entropy_loss,
    dense_entropy_loss_grad,
)
from .nets import (
    Activation,
    Conv2D,
    Dense,
    LayerParams,
    MaxPool2,
    NetworkSpec,
    backward,
    forward,
    init_weights,
)
from .stats import (
    SignificanceGrid,
    TTestResult,
    mean_ci95,
    significance_grid,
    student_t_cdf,
    welch_t,
)
from .tensor_ops import LogDet, conv2d, lu_logabsdet, maxpool2
from .training import (
    AdamHyper,
    AdamState,
    RunResult,
    TrainConfig,
    adam_step,
    early_stop_check,
    train_autoencoder,
    train_cnn,
)
from .weights_io import read_dump, write_dump

__version__ = "0.1.0"

__all__ = [
    "Activation", "AdamHyper", "AdamState", "Conv2D", "ConvMatrix", "Dense",
    "EntropyDelta", "LambdaSchedule", "LayerParams", "LayerProfile", "LogDet",
    "LossForm", "MaxPool2", "NetworkSpec", "ProfileReport", "RunResult",
    "SignificanceGrid", "SquarifiedDense", "TTestResult", "TrainConfig",
    "adam_step", "backward", "build_conv_matrix", "compound_loss", "conv2d",
    "conv_entropy_delta", "conv_entropy_loss", "conv_entropy_loss_grad",
    "dense_entropy_delta", "dense_entropy_loss", "dense_entropy_loss_grad",
    "early_stop_check", "forward", "init_weights", "lu_logabsdet",
    "maxpool2", "mean_ci95", "profile_network", "read_dump",
    "significance_grid", "square_part", "squarify_dense", "student_t_cdf",
    "train_autoencoder", "train_cnn", "welch_t", "write_dump",
]
