"""Run configuration shared by the engines, the CLI and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class RunConfig:
    """Caps, tolerances and reproducibility knobs.

    Same config + same inputs + same seed must give byte-identical reports.
    """

    family_cap: int = 2_000_000      # canonical enumeration, literal norm, slice grid
    candidate_cap: int = 200_000     # candidate segments per norm call
    tol: Fraction = Fraction(1, 10**9)
    grid_resolution: Fraction = Fraction(1, 8)
    iteration_cap: int = 10_000      # cutting-plane rounds
    seed: int = 0
    workers: int = 1
    output_format: str = "json"

    def __post_init__(self) -> None:
        if self.family_cap <= 0 or self.candidate_cap <= 0:
            raise ValueError("caps must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.grid_resolution <= 0 or self.grid_resolution > 1:
            raise ValueError("grid_resolution must lie in (0, 1]")
        if self.iteration_cap <= 0:
            raise ValueError("iteration_cap must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.output_format not in ("json", "tsv"):
            raise ValueError("output_format must be 'json' or 'tsv'")

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = RunConfig()
