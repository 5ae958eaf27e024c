"""Run configuration: JSON key-value file with strict schema checking."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError


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
        for label in ("fake", "lowcred", "satire", "reputable"):
            path = getattr(self, f"catalog_{label}")
            if path:
                pairs.append((path, label))
        return pairs


def config_load(path: str) -> RunConfig:
    """Load and validate a JSON run configuration; unknown keys rejected."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    data = json.loads(text) if text else {}
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    known = {f.name: f for f in fields(RunConfig)}
    for key in data:
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
    cfg = RunConfig(**data)
    _validate(cfg)
    return cfg


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
