"""Run configuration: enumeration caps, expander settings, calibrated constants.

Values resolve in order: built-in defaults, then a JSON config file (path
from the COLORCUT_CONFIG environment variable or the --config flag), then
explicit command-line flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

from . import instances

ENV_CONFIG_PATH = "COLORCUT_CONFIG"

DEFAULT_EXPANSION_TARGET = 0.1
DEFAULT_EXHAUSTIVE_CAP = 16
DEFAULT_EXPANDER_RETRIES = 64
DEFAULT_EMBED_RETRIES = 20
DEFAULT_EXPANDER_SEED = 0

# Calibrated constants (see the calibrate command): congestion ratios are
# LP optima, independent of how the flow splits into paths, and peak at 1.60
# (ell = 16); depth ratios peak at 1.95 over 100 trials; the single-vertex
# fallback for k < 8 needs BIG_C_HAT >= 7 / ln(7) ~ 3.6.
DEFAULT_C_HAT = 2.0
DEFAULT_BIG_C_HAT = 4.0


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 100
    cap_cmc_vertices: int = instances.DEFAULT_CMC_VERTEX_CAP
    cap_dual_combinations: int = instances.DEFAULT_COMBINATION_CAP
    cap_psi_assignments: int = instances.DEFAULT_ASSIGNMENT_CAP
    cap_csp_assignments: int = instances.DEFAULT_ASSIGNMENT_CAP
    cap_sat_variables: int = instances.DEFAULT_SAT_VARIABLE_CAP
    expander_exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP
    expander_target: float = DEFAULT_EXPANSION_TARGET
    expander_seed: int = DEFAULT_EXPANDER_SEED
    expander_retries: int = DEFAULT_EXPANDER_RETRIES
    embed_retries: int = DEFAULT_EMBED_RETRIES
    c_hat: float = DEFAULT_C_HAT
    big_c_hat: float = DEFAULT_BIG_C_HAT

    def __post_init__(self) -> None:
        for name in (
            "trials",
            "cap_cmc_vertices",
            "cap_dual_combinations",
            "cap_psi_assignments",
            "cap_csp_assignments",
            "cap_sat_variables",
            "expander_exhaustive_cap",
            "expander_retries",
            "embed_retries",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.expander_target <= 1:
            raise ValueError("expander_target must be in (0, 1]")
        if self.c_hat <= 0 or self.big_c_hat <= 0:
            raise ValueError("calibrated constants must be positive")


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Defaults, overlaid with the JSON file (explicit path wins over the
    environment variable), overlaid with keyword overrides (None skipped)."""
    cfg = RunConfig()
    file_path = path or os.environ.get(ENV_CONFIG_PATH)
    if file_path:
        with open(file_path, encoding="utf-8") as fh:
            data = json.load(fh)
        unknown = set(data) - _FIELD_NAMES
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cfg, **data)
    live = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(live) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown config overrides: {sorted(unknown)}")
    if live:
        cfg = replace(cfg, **live)
    return cfg


__all__ = ["ENV_CONFIG_PATH", "RunConfig", "load_config"]
