"""Run configuration: JSON key-value file with strict schema checking."""

from __future__ import annotations

import json
import types
import typing
from dataclasses import dataclass, field

from .errors import ConfigurationError

# the news types, most severe first: a domain listed under several labels
# takes the first
LABELS = ("fake", "lowcred", "satire", "reputable")


@dataclass
class RunConfig:
    # input paths
    archive: str | None = None
    catalog_fake: str | None = None
    catalog_lowcred: str | None = None
    catalog_satire: str | None = None
    catalog_reputable: str | None = None
    subreddit_map: str | None = None
    populations: str | None = None
    centroids: str | None = None
    attributes: str | None = None
    # analysis parameters
    bin_km: float = 100.0
    damping: float = 0.85
    min_states: int = 5
    alpha: float = 0.05
    scope: str = "all_subreddits"
    rule: str = "chain"
    residual_intercept: bool = True
    reach_qualify: str = "at_least"
    cascade_ks: list[int] = field(default_factory=lambda: [2, 3, 5])
    seed: int = 0
    # synth stage parameters (passed through to SynthConfig)
    synth: dict = field(default_factory=dict)

    def catalog_files(self) -> list[tuple[str, str]]:
        pairs = []
        for label in LABELS:
            path = getattr(self, f"catalog_{label}")
            if path:
                pairs.append((path, label))
        return pairs


def config_load(path: str) -> RunConfig:
    """Load and validate a JSON run configuration; unknown keys rejected."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read().strip()
            data = json.loads(text) if text else {}
        except ValueError as exc:   # not UTF-8, or not JSON
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") \
                from None
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    check_keys(RunConfig, data, "config key")
    cfg = RunConfig(**data)
    _validate(cfg)
    return cfg


def check_keys(cls, data: dict, what: str) -> None:
    """ConfigurationError naming the first key of `data` that is not a field
    of dataclass `cls`, or whose JSON value does not fit the field's type
    (a list stands for a tuple, an integer for a float)."""
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigurationError(f"unknown {what} {key!r}")
        if not _fits(value, hints[key]):
            hint = hints[key]
            raise ConfigurationError(
                f"bad type for {what} {key!r}: {value!r} is not "
                f"{hint.__name__ if isinstance(hint, type) else hint}")


def _fits(value, hint) -> bool:
    """Whether the JSON value `value` fits the type `hint`."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and \
            all(map(_fits, value, args))
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0])
                                               for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            isinstance(k, str) and _fits(v, args[1]) for k, v in value.items())
    if hint is float:
        hint = (int, float)
    # JSON true/false are bools, which Python also counts as ints
    return isinstance(value, hint) and \
        (hint is bool or not isinstance(value, bool))


def _validate(cfg: RunConfig) -> None:
    if cfg.scope not in ("all_subreddits", "non_location_subreddits"):
        raise ConfigurationError(f"bad value for key 'scope': {cfg.scope!r}")
    if cfg.rule not in ("chain", "star"):
        raise ConfigurationError(f"bad value for key 'rule': {cfg.rule!r}")
    if cfg.reach_qualify not in ("at_least", "exactly"):
        raise ConfigurationError(
            f"bad value for key 'reach_qualify': {cfg.reach_qualify!r}")
    if not 0.0 < cfg.damping < 1.0:
        raise ConfigurationError(f"bad value for key 'damping': {cfg.damping}")
    if cfg.bin_km <= 0:
        raise ConfigurationError(f"bad value for key 'bin_km': {cfg.bin_km}")
    if cfg.min_states < 2:
        raise ConfigurationError(f"bad value for key 'min_states': {cfg.min_states}")
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigurationError(f"bad value for key 'alpha': {cfg.alpha}")
    if any(k < 2 for k in cfg.cascade_ks):
        raise ConfigurationError("bad value for key 'cascade_ks': entries must be >= 2")
