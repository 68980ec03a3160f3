"""Second-order training for fully-connected networks with block-diagonal
positive-curvature Hessian approximations and Newton solvers that invert
each layer's damped Kronecker block in its factors' eigenbases."""

from .curvature import (
    CurvatureKind,
    ErrorReport,
    covariance_bound_check,
    ea_curvature,
    layerwise_error,
    true_bias_hessian,
)
from .data import Dataset, load_csv, load_idx, synth_blobs
from .errors import (
    BlockNewtonError,
    ConfigError,
    DimensionError,
    NumericalBreakdownError,
    TrainingDivergedError,
)
from .fcnn import (
    Activation,
    BatchPass,
    CrossEntropySoftmax,
    FcnnModel,
    ForwardTrace,
    LayerGradients,
    SigmoidGate,
    backprop,
    batch_pass,
    criterion_batch,
    forward,
)
from .linalg import EigenDecomposition, pos_eig, sym_eig
from .solvers import (
    HvpMode,
    NewtonDirection,
    PiPolicy,
    SolverConfig,
    ea_cg_direction,
    kfi_direction,
    sherman_morrison_apply,
)
from .trainer import (
    SecondOrderSpec,
    SolverChoice,
    TrainConfig,
    TrainReport,
    train,
)

__version__ = "0.1.0"
