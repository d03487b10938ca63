"""Regularized energy networks trained with generalized Fenchel-Young losses.

The pieces compose left to right: an :mod:`~efy.energies` coupling scores an
(input, output) pair, a :mod:`~efy.regularizers` term makes the output
maximization well posed, the :mod:`~efy.conjugate` oracle solves it, and
:mod:`~efy.losses` turns the solution into training losses whose gradients
come from the envelope theorem. :mod:`~efy.models` maps features to energy
inputs, :mod:`~efy.training` fits them, and :mod:`~efy.calibration` relates
surrogate excess risk to target excess risk.
"""
from .calibration import (
    AffineDecomposition,
    CalibrationReport,
    accuracy,
    calibration_check,
    comparison_bound,
    decode,
    enumerate_labels,
    estimate_smoothness,
    hamming_decode,
    hamming_decomposition,
    surrogate_pointwise_risk,
    target_excess,
    target_pointwise_risk,
)
from .conjugate import (
    ConjugateResult,
    SolverConfig,
    c_transform,
    conjugate,
    conjugate_with_restarts,
    coordinate_ascent_box_quadratic,
    projected_gradient_ascent,
)
from .data import (
    MultilabelDataset,
    Standardizer,
    format_libsvm_multilabel,
    parse_libsvm_multilabel,
    planted_pairwise,
    split,
    standardize,
)
from .energies import (
    BilinearEnergy,
    Energy,
    LinQuadInput,
    LinearQuadraticEnergy,
    LogSumExpEnergy,
    MaxoutEnergy,
    PairwiseEnergy,
    PairwiseInput,
    PriorWeights,
    RectifierEnergy,
    SpenEnergy,
    SpenInput,
)
from .exceptions import (
    ContractViolation,
    DivergenceError,
    DomainBoundaryError,
    EvaluationError,
    InfeasibleError,
    ParseError,
    SingularMatrixError,
    TrainingDivergence,
    UnsupportedOperation,
)
from .losses import (
    LossEval,
    biconjugate,
    energy_loss,
    fy_loss,
    generalized_bregman,
    gfy_loss,
    input_grad_finite_diff,
    linearized_upper_bound,
    perceptron_loss,
    xent_loss,
)
from .models import (
    MLPParams,
    Model,
    PairwiseModel,
    PairwiseParams,
    SpenModel,
    SpenParams,
    UnaryModel,
    default_hidden,
    load_params,
    make_model,
    save_params,
)
from .numerics import (
    finite_diff_grad,
    is_negative_semidefinite,
    rel_err,
    rng_from_seed,
    solve_spd,
)
from .regularizers import (
    GiniBinary,
    Indicator,
    OutputSet,
    Regularizer,
    ShannonBinary,
    ShannonSimplex,
    SquaredL2,
    box,
    box01,
    lse,
    make_regularizer,
    reals,
    restrict,
    simplex,
    softmax,
)
from .training import (
    SearchResult,
    TrainConfig,
    TrainReport,
    batch_gradient,
    evaluate_accuracy,
    hyperparam_search,
    objective_value,
    predict_marginals,
    train,
)

__version__ = "0.1.0"
