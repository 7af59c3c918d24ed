"""Run configuration: one JSON document covering every stage's settings.

The file holds optional sections; anything omitted keeps its default, and
unknown keys are rejected loudly. Example:

    {
      "seed": 7,
      "scene": {"height": 64, "width": 64, "curves_min": 2, "curves_max": 3},
      "loss": {"delta_v": 0.5, "delta_d": 3.0},
      "optim": {"epochs": 30, "learning_rate": 0.0003},
      "mean_shift": {"bandwidth": 0.75, "coord_scale": 0.25},
      "resolve": {"beta": 2.0, "threshold_a": 0.7},
      "pipeline": {"seg_threshold": 0.5},
      "augment": {"rotation_degrees": 10.0}   // or null to disable
    }
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .clustering import MeanShiftConfig
from .grids import AugmentParams
from .intersections import ResolveConfig
from .network import LossConfig
from .optim import OptimConfig
from .pipeline import PipelineConfig
from .synth import SceneSpec


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    seed: int = 0
    scene: SceneSpec = field(default_factory=SceneSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    augment: AugmentParams | None = field(default_factory=AugmentParams)

    def pipeline_config(self) -> PipelineConfig:
        return self.pipeline


_SECTIONS = {
    "scene": SceneSpec,
    "loss": LossConfig,
    "optim": OptimConfig,
    "mean_shift": MeanShiftConfig,
    "resolve": ResolveConfig,
    "pipeline": PipelineConfig,
    "augment": AugmentParams,
}
# Sections stored inside RunConfig.pipeline rather than as fields of their own.
_PIPELINE_PARTS = ("mean_shift", "resolve")


def _build_section(cls, data, section):
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    # nested sections (PipelineConfig.mean_shift, ...) have top-level keys of their own
    known = {f.name for f in dataclasses.fields(cls)} - set(_SECTIONS)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    for key, value in data.items():
        if not isinstance(value, (bool, int, float)):
            raise ConfigError(f"{section}.{key} must be a number or boolean")
        # json.load accepts NaN and +-Infinity, and integers beyond float
        # range, for which isfinite raises OverflowError
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"{section}.{key} must be finite")
        if types[key] is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{section}.{key} must be an integer")
    try:
        return cls(**data)
    except ValueError as exc:
        # every settings check names its key first
        raise ConfigError(f"{section}.{exc}") from exc


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    allowed = {"seed"} | set(_SECTIONS)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs = {}
    if "seed" in doc:
        if not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool) or doc["seed"] < 0:
            raise ConfigError("seed must be a nonnegative integer")
        kwargs["seed"] = doc["seed"]
    for section, cls in _SECTIONS.items():
        if section not in doc:
            continue
        if section == "augment" and doc[section] is None:
            kwargs["augment"] = None
            continue
        kwargs[section] = _build_section(cls, doc[section], section)
    parts = {name: kwargs.pop(name) for name in _PIPELINE_PARTS if name in kwargs}
    kwargs["pipeline"] = dataclasses.replace(kwargs.get("pipeline", PipelineConfig()), **parts)
    return RunConfig(**kwargs)


def read_json(path):
    """The JSON document in a file; ConfigError naming the file when it does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # a deeply nested document exhausts the decoder's recursion limit
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_run_config(path) -> RunConfig:
    """Read and validate a JSON run config; ConfigError on bad content."""
    doc = read_json(path)
    try:
        return run_config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def run_config_to_dict(cfg: RunConfig) -> dict:
    doc = {"seed": cfg.seed}
    for section in _SECTIONS:
        value = getattr(cfg.pipeline if section in _PIPELINE_PARTS else cfg, section)
        doc[section] = None if value is None else {
            k: v for k, v in dataclasses.asdict(value).items() if k not in _SECTIONS}
    return doc
