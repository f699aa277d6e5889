"""Declarative config files: a flat INI document with [model], [mezo], and
[experiment] sections.

[model] carries exactly the architecture keys of ModelConfig plus an optional
`preset` that expands to documented values before overrides apply. [mezo]
holds the zeroth-order hyperparameters. [experiment] appears only in training
plan files and may override per-method model fields with bp_/mezo_ prefixes.
Unknown keys are rejected.
"""
from __future__ import annotations

import configparser
from pathlib import Path

from mezofit.bench import ExperimentPlan
from mezofit.memory import ConfigError, ModelConfig
from mezofit.tasks import TaskKind, ToyTask
from mezofit.zo import ZOConfig

PRESETS: dict[str, dict] = {
    # 7B-class decoder: B=1, V=32000, N=2048, L=32, b=2 (FP16), H=32, D=4096
    "llama2-7b": dict(context_length=2048, num_layers=32, hidden_dim=4096,
                      num_heads=32, vocab_size=32000, batch_size=1,
                      bytes_per_param=2.0, stored_layers=1.0),
    "gpt2-medium": dict(context_length=1024, num_layers=24, hidden_dim=1024,
                        num_heads=16, vocab_size=50257, batch_size=1,
                        bytes_per_param=2.0, stored_layers=1.0),
}

_MODEL_INT_KEYS = ("context_length", "num_layers", "hidden_dim", "num_heads",
                   "kv_heads", "num_mlps", "vocab_size", "batch_size")
_MODEL_FLOAT_KEYS = ("expansion_factor", "bytes_per_param", "stored_layers")
MODEL_KEYS = _MODEL_INT_KEYS + _MODEL_FLOAT_KEYS

_MEZO_KEYS = ("epsilon", "learning_rate", "num_perturbations", "master_seed")

_EXPERIMENT_KEYS = ("budget_bytes", "task", "task_vocab_size", "task_seq_len",
                    "task_seed", "steps", "eval_every", "lr_grid_bp",
                    "lr_grid_mezo", "run_seed")


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from exc


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from exc


def _read(path_or_text: str | Path, is_text: bool = False) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if is_text:
            parser.read_string(path_or_text)
        else:
            p = Path(path_or_text)
            if not p.exists():
                raise ConfigError(f"config file not found: {p}")
            parser.read_string(p.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def _model_fields(section_name: str, items: dict[str, str],
                  where: str) -> dict:
    fields: dict = {}
    preset = items.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"[{where}] unknown preset {preset!r}; "
                f"available: {', '.join(sorted(PRESETS))}")
        fields.update(PRESETS[preset])
    for key, raw in items.items():
        if key in _MODEL_INT_KEYS:
            fields[key] = _parse_int(where, key, raw)
        elif key in _MODEL_FLOAT_KEYS:
            fields[key] = _parse_float(where, key, raw)
        else:
            raise ConfigError(f"[{where}] unknown key {key!r}")
    return fields


def parse_model_config(path_or_text: str | Path, is_text: bool = False) -> ModelConfig:
    """Build the ModelConfig from a config file's [model] section."""
    return _model_config(_read(path_or_text, is_text))


def _model_config(parser: configparser.ConfigParser) -> ModelConfig:
    if not parser.has_section("model"):
        raise ConfigError("config must contain a [model] section")
    for section in parser.sections():
        if section not in ("model", "mezo", "experiment"):
            raise ConfigError(f"unknown section [{section}]")
    fields = _model_fields("model", dict(parser.items("model")), "model")
    try:
        return ModelConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"incomplete [model] section: {exc}") from exc


def parse_zo_config(path_or_text: str | Path, is_text: bool = False) -> ZOConfig:
    """ZOConfig from the [mezo] section (defaults when absent)."""
    return _zo_config(_read(path_or_text, is_text))


def _zo_config(parser: configparser.ConfigParser) -> ZOConfig:
    if not parser.has_section("mezo"):
        return ZOConfig()
    fields: dict = {}
    for key, raw in parser.items("mezo"):
        if key in ("epsilon", "learning_rate"):
            fields[key] = _parse_float("mezo", key, raw)
        elif key in ("num_perturbations", "master_seed"):
            fields[key] = _parse_int("mezo", key, raw)
        else:
            raise ConfigError(f"[mezo] unknown key {key!r}")
    return ZOConfig(**fields)


def _lr_grid(section: str, key: str, raw: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a list of numbers") from exc
    if not grid:
        raise ConfigError(f"[{section}] {key} must be non-empty")
    return grid


def parse_plan(path_or_text: str | Path, is_text: bool = False) -> ExperimentPlan:
    """Build an ExperimentPlan from a plan file.

    The [model] section is the shared base; [experiment] keys prefixed with
    bp_/mezo_ override model fields per method.
    """
    parser = _read(path_or_text, is_text)
    base = _model_config(parser)
    zo = _zo_config(parser)
    if not parser.has_section("experiment"):
        raise ConfigError("plan file must contain an [experiment] section")

    items = dict(parser.items("experiment"))
    bp_over: dict[str, str] = {}
    mezo_over: dict[str, str] = {}
    plain: dict[str, str] = {}
    for key, raw in items.items():
        if key.startswith("bp_") and key[3:] in MODEL_KEYS:
            bp_over[key[3:]] = raw
        elif key.startswith("mezo_") and key[5:] in MODEL_KEYS:
            mezo_over[key[5:]] = raw
        elif key in _EXPERIMENT_KEYS:
            plain[key] = raw
        else:
            raise ConfigError(f"[experiment] unknown key {key!r}")

    def apply(cfg: ModelConfig, overrides: dict[str, str]) -> ModelConfig:
        changes: dict = {}
        for key, raw in overrides.items():
            changes[key] = (_parse_int("experiment", key, raw)
                            if key in _MODEL_INT_KEYS
                            else _parse_float("experiment", key, raw))
        return cfg.replace(**changes) if changes else cfg

    for required in ("task", "steps", "eval_every", "lr_grid_bp",
                     "lr_grid_mezo", "run_seed"):
        if required not in plain:
            raise ConfigError(f"[experiment] missing required key {required!r}")

    try:
        kind = TaskKind(plain["task"])
    except ValueError as exc:
        raise ConfigError(
            f"[experiment] task must be one of "
            f"{', '.join(k.value for k in TaskKind)}") from exc

    bp_model = apply(base, bp_over)
    mezo_model = apply(base, mezo_over)
    task = ToyTask(
        kind=kind,
        vocab_size=_parse_int("experiment", "task_vocab_size",
                              plain.get("task_vocab_size", str(base.vocab_size))),
        seq_len=_parse_int("experiment", "task_seq_len",
                           plain.get("task_seq_len", str(base.context_length))),
        seed=_parse_int("experiment", "task_seed", plain.get("task_seed", "0")),
    )
    if "budget_bytes" in plain:
        budget = _parse_float("experiment", "budget_bytes", plain["budget_bytes"])
    else:
        from mezofit.memory import bp_memory, mezo_memory
        budget = max(bp_memory(bp_model).total_bytes,
                     mezo_memory(mezo_model).total_bytes)
    return ExperimentPlan(
        budget_bytes=budget,
        bp_model=bp_model,
        mezo_model=mezo_model,
        task=task,
        steps=_parse_int("experiment", "steps", plain["steps"]),
        eval_every=_parse_int("experiment", "eval_every", plain["eval_every"]),
        lr_grid_bp=_lr_grid("experiment", "lr_grid_bp", plain["lr_grid_bp"]),
        lr_grid_mezo=_lr_grid("experiment", "lr_grid_mezo", plain["lr_grid_mezo"]),
        zo=zo,
        run_seed=_parse_int("experiment", "run_seed", plain["run_seed"]),
    )
