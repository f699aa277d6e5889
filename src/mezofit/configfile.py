"""Declarative config files: a flat INI document with [model], [mezo], and
[experiment] sections.

[model] carries exactly the architecture keys of ModelConfig plus an optional
`preset` that expands to documented values before overrides apply. [mezo]
holds the zeroth-order hyperparameters of ZOConfig. [experiment] appears only
in training plan files and may override per-method model fields with bp_/mezo_
prefixes. Each key's type is that of the dataclass field it fills. Unknown
sections and keys are rejected.
"""
from __future__ import annotations

import configparser
from pathlib import Path

from mezofit.bench import ExperimentPlan
from mezofit.memory import ConfigError, ModelConfig, bp_memory, field_types, mezo_memory
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


def _lr_grid(raw: str) -> tuple[float, ...]:
    grid = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not grid:
        raise ValueError("empty grid")
    return grid


# [experiment]'s own keys: each one's parser and whether it is required. The
# optional ones default to the [model] values or the models' totals below.
_EXPERIMENT = {
    "task": (TaskKind, True),
    "task_vocab_size": (int, False),
    "task_seq_len": (int, False),
    "task_seed": (int, False),
    "steps": (int, True),
    "eval_every": (int, True),
    "lr_grid_bp": (_lr_grid, True),
    "lr_grid_mezo": (_lr_grid, True),
    "run_seed": (int, True),
    "budget_bytes": (float, False),
}

# What a value each parser accepts looks like, for error messages.
_EXPECTED = {int: "an integer", float: "a number",
             _lr_grid: "a non-empty list of numbers",
             TaskKind: f"one of {', '.join(k.value for k in TaskKind)}"}


def _value(where: str, key: str, parse, raw: str):
    """One raw value through its key's parser (None for an unknown key)."""
    if parse is None:
        raise ConfigError(f"[{where}] unknown key {key!r}")
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{where}] {key} must be {_EXPECTED[parse]}, got {raw!r}") from exc


def _fields(cls, where: str, items: dict[str, str]) -> dict:
    """Raw values as the types of the `cls` fields they fill."""
    types = field_types(cls)
    return {key: _value(where, key, types.get(key), raw) for key, raw in items.items()}


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
        # configparser spreads some messages over several lines
        raise ConfigError(f"malformed config: {' '.join(str(exc).split())}") from exc
    for section in parser.sections():
        if section not in ("model", "mezo", "experiment"):
            raise ConfigError(f"unknown section [{section}]")
    return parser


def parse_model_config(path_or_text: str | Path, is_text: bool = False) -> ModelConfig:
    """Build the ModelConfig from a config file's [model] section."""
    return _model_config(_read(path_or_text, is_text))


def _model_config(parser: configparser.ConfigParser) -> ModelConfig:
    if not parser.has_section("model"):
        raise ConfigError("config must contain a [model] section")
    items = dict(parser.items("model"))
    preset = items.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"[model] unknown preset {preset!r}; "
                          f"available: {', '.join(sorted(PRESETS))}")
    fields = {**PRESETS.get(preset, {}), **_fields(ModelConfig, "model", items)}
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
    return ZOConfig(**_fields(ZOConfig, "mezo", dict(parser.items("mezo"))))


def parse_plan(path_or_text: str | Path, is_text: bool = False) -> ExperimentPlan:
    """Build an ExperimentPlan from a plan file.

    The [model] section is the shared base; [experiment] keys prefixed with
    bp_/mezo_ override model fields per method. [mezo] may not set
    learning_rate, which each run takes from lr_grid_mezo.
    """
    parser = _read(path_or_text, is_text)
    if parser.has_option("mezo", "learning_rate"):
        raise ConfigError("[mezo] learning_rate is not read by a plan; lr_grid_mezo sets it")
    base = _model_config(parser)
    zo = _zo_config(parser)
    if not parser.has_section("experiment"):
        raise ConfigError("plan file must contain an [experiment] section")

    overrides: dict[str, dict[str, str]] = {"bp": {}, "mezo": {}}
    exp: dict = {}
    for key, raw in parser.items("experiment"):
        method, _, field = key.partition("_")
        if method in overrides and field in field_types(ModelConfig):
            overrides[method][field] = raw
        else:
            parse, _ = _EXPERIMENT.get(key, (None, False))
            exp[key] = _value("experiment", key, parse, raw)
    for key, (_, required) in _EXPERIMENT.items():
        if required and key not in exp:
            raise ConfigError(f"[experiment] missing required key {key!r}")

    bp_model, mezo_model = (base.replace(**_fields(ModelConfig, "experiment", overrides[m]))
                            for m in ("bp", "mezo"))
    task = ToyTask(kind=exp["task"],
                   vocab_size=exp.get("task_vocab_size", base.vocab_size),
                   seq_len=exp.get("task_seq_len", base.context_length),
                   seed=exp.get("task_seed", 0))
    budget = exp["budget_bytes"] if "budget_bytes" in exp else max(
        bp_memory(bp_model).total_bytes, mezo_memory(mezo_model).total_bytes)
    return ExperimentPlan(
        budget_bytes=budget, bp_model=bp_model, mezo_model=mezo_model, task=task,
        steps=exp["steps"], eval_every=exp["eval_every"],
        lr_grid_bp=exp["lr_grid_bp"], lr_grid_mezo=exp["lr_grid_mezo"],
        zo=zo, run_seed=exp["run_seed"])
