"""Desk-scale conditional-diffusion laboratory.

Implements per-timestep optimization of the conditioning embedding during
reverse diffusion sampling, together with guidance baselines, ablations,
and an executable verification suite for the supporting theory on
analytically tractable Gaussian-mixture tasks.
"""

from .schedules import (
    NoiseSchedule,
    ScheduleError,
    default_schedule,
    make_schedule,
    perturb,
    step_alg1,
    step_ddim,
    step_ddpm,
    tweedie_mean,
)
from .autodiff import Graph, GraphError, Param, evaluate, gradient
from .models import (
    DeskTask,
    MixtureModel,
    ScoreNet,
    ddpm_chain,
    default_task,
    load_checkpoint,
    save_checkpoint,
    tiny_task,
    train_dsm,
    unconditional_score,
)
from .alignment import (
    AlignmentBoundInputs,
    CompositeAlignment,
    CosineAlignment,
    LinearAlignment,
    QuadraticAlignment,
    eval_h_t,
    lipschitz_bound,
)
from .update import (
    DateConfig,
    UpdateDirection,
    build_update_schedule,
    date_update,
    grad_h_t_wrt_c,
    multi_iter_update,
)
from .guidance import GuidanceConfig, ablation_update, cfg_score, cg_score, classifier_grad, ug_score
from .verify import ALL_CHECKS, run_checks

__version__ = "0.1.0"
