"""Experiment configuration, execution, metrics, and the command line.
run_experiment returns (run, report): a record array, one row per trajectory;
run_variants returns one such pair per config, sampled as one batch."""

from .config import ConfigError, ExperimentConfig, load_config, config_from_dict, config_to_dict
from .metrics import MetricsReport, compute_metrics, gaussian_frechet, paired_ttest
from .run import run_experiment, run_variants
