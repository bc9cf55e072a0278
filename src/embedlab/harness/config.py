"""Experiment configuration: JSON in, validated dataclasses out.

Loading is strict: unknown keys and duplicate keys are rejected with the
offending key path, and a value of the wrong type (a bool or a string where
a number belongs, or a float with a fractional part where an integer
belongs) or outside a checked range names the key that caused it.
Serialization materializes all defaults, so load -> serialize -> load is
the identity.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

from ..guidance import GuidanceConfig, GuidanceError
from ..update import DateConfig, UpdateError


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScheduleSpec:
    T: int = 100
    kind: str = "linear"
    beta_lo: float = 1e-3
    beta_hi: float = 0.12


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "analytic"        # "analytic" | "learned"
    task_seed: int = 7            # seeds the analytic desk task (and prompts)
    checkpoint: str | None = None  # learned models load their net from here


@dataclass(frozen=True)
class HSpec:
    kind: str = "cosine"          # "cosine" | "quadratic" | "composite"
    seed: int = 0                 # seeds the cosine feature map
    feature_dim: int = 8
    sign: float = -1.0            # quadratic orientation; -1 peaks at the target
    weights: tuple = ()           # composite parts: ((kind, weight), ...)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    prompt: int = 0
    sampler: str = "ddpm"
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    date: DateConfig | None = field(default_factory=DateConfig)
    h: HSpec = field(default_factory=HSpec)
    n_samples: int = 16
    out_dir: str = "out"


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for k, v in pairs:
        if k in seen:
            raise ConfigError(f"duplicate key {k!r}")
        seen.add(k)
        out[k] = v
    return out


def _check_keys(d, allowed, path):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _int(v):
    """int(v), refusing what int() would silently truncate or reinterpret:
    a float with a fractional part, a bool or a string."""
    if isinstance(v, (bool, str)) or (isinstance(v, float) and not v.is_integer()):
        raise TypeError(v)
    return int(v)


def _float(v):
    """float(v), refusing a bool, a string, NaN and the infinities (json.load
    reads the NaN and Infinity literals)."""
    if isinstance(v, (bool, str)):
        raise TypeError(v)
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(v)
    return v


_CONVERT = {"int": _int, "float": _float, "str": str}
_EXPECTED = {"float": "finite float"}


def _as(kind, v, path):
    """v converted to the type named `kind`; a value of the wrong type is a
    ConfigError naming the key path."""
    try:
        return _CONVERT[kind](v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: expected {_EXPECTED.get(kind, kind)}, got {v!r}") from exc


def _spec(cls, d, section, **given):
    """cls built from the config object d at key path `section`.  Fields in
    `given` come from the caller and absent keys take the field's default;
    any other value is converted to the type its annotation names, and a
    null stays null where the annotation allows None."""
    _check_keys(d, [f.name for f in fields(cls)], section)
    prefix = "" if section == "config" else section + "."
    for f in fields(cls):
        if f.name in d and f.name not in given:
            v = d[f.name]
            if v is not None or not f.type.endswith("| None"):
                v = _as(f.type.split(" ")[0], v, prefix + f.name)
            given[f.name] = v
    return cls(**given)


def _section(d, name):
    v = d.get(name, {})
    _require(isinstance(v, dict), name, "must be an object")
    return v


def config_from_dict(raw):
    schedule = _spec(ScheduleSpec, _section(raw, "schedule"), "schedule")
    _require(schedule.T >= 1, "schedule.T", "must be >= 1")
    _require(schedule.kind in ("linear", "constant"), "schedule.kind",
             "must be 'linear' or 'constant'")
    _require(0.0 < schedule.beta_lo < 1.0, "schedule.beta_lo", "must lie in (0, 1)")
    _require(schedule.beta_lo <= schedule.beta_hi < 1.0, "schedule.beta_hi",
             "must lie in [beta_lo, 1)")

    model = _spec(ModelSpec, _section(raw, "model"), "model")
    _require(model.task_seed >= 0, "model.task_seed", "must be >= 0")
    _require(model.kind in ("analytic", "learned"), "model.kind",
             "must be 'analytic' or 'learned'")
    if model.kind == "learned":
        _require(model.checkpoint is not None, "model.checkpoint",
                 "required for learned models")
        _require(os.path.exists(model.checkpoint), "model.checkpoint",
                 f"file not found: {model.checkpoint}")

    hd = _section(raw, "h")
    parts = hd.get("weights") or []
    _require(isinstance(parts, (list, tuple))
             and all(isinstance(p, dict) and set(p) == {"kind", "weight"} for p in parts),
             "h.weights", 'must be a list of {"kind": ..., "weight": ...} objects')
    h = _spec(HSpec, hd, "h", weights=tuple(
        (str(p["kind"]), _as("float", p["weight"], f"h.weights[{i}].weight"))
        for i, p in enumerate(parts)))
    _require(h.kind in ("cosine", "quadratic", "composite"), "h.kind",
             "must be 'cosine', 'quadratic', or 'composite'")
    _require(h.sign in (-1.0, 1.0), "h.sign", "must be -1 or +1")
    _require(h.seed >= 0, "h.seed", "must be >= 0")
    _require(h.feature_dim >= 1, "h.feature_dim", "must be >= 1")
    if h.kind == "composite":
        _require(len(h.weights) > 0, "h.weights", "composite needs parts")
        for kind, _ in h.weights:
            _require(kind in ("cosine", "quadratic"), "h.weights",
                     f"unknown part kind {kind!r}")

    try:
        guidance = _spec(GuidanceConfig, _section(raw, "guidance"), "guidance")
    except GuidanceError as exc:
        raise ConfigError(f"guidance.{exc}") from exc
    if guidance.kind in ("cfg", "cg", "ug"):
        _require(model.kind == "analytic", "guidance.kind",
                 "score-composition guidance needs the analytic model")

    # an absent date section means defaults; an explicit null disables updates
    date = None
    if "date" not in raw:
        date = DateConfig()
    elif raw["date"] is not None:
        dd = raw["date"]
        _require(isinstance(dd, dict), "date", "must be an object or null")
        steps = dd.get("update_steps")
        if steps is not None:
            _require(isinstance(steps, (list, tuple)), "date.update_steps",
                     "must be a list of steps")
            steps = [_as("int", s, "date.update_steps") for s in steps]
            _require(all(1 <= s <= schedule.T for s in steps), "date.update_steps",
                     f"steps must lie in 1..{schedule.T}")
        try:
            date = _spec(DateConfig, dd, "date", update_steps=steps)
        except UpdateError as exc:
            raise ConfigError(f"date.{exc}") from exc

    if guidance.kind == "ablation":
        _require(date is not None, "guidance", "ablations need a date section "
                 "to supply the update schedule")

    cfg = _spec(ExperimentConfig, raw, "config", schedule=schedule, model=model,
                guidance=guidance, date=date, h=h)
    _require(cfg.sampler in ("ddpm", "alg1", "ddim"), "sampler",
             "must be ddpm/alg1/ddim")
    _require(cfg.seed >= 0, "seed", "must be >= 0")
    _require(cfg.n_samples >= 1, "n_samples", "must be >= 1")
    _require(cfg.prompt >= 0, "prompt", "must be a nonnegative prompt id")
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _require(isinstance(raw, dict), "config", "top level must be an object")
    return config_from_dict(raw)


def config_to_dict(cfg):
    """All fields materialized, defaults included; loads back identically."""
    out = asdict(cfg)
    out["h"]["weights"] = [{"kind": k, "weight": w} for k, w in cfg.h.weights]
    return out
