"""Run configuration shared by the library entry points and the CLI."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class AnalysisConfig:
    subgroup_cap: int = 200
    chain_depth_cap: int = 8
    chain_visit_cap: int = 10**5

    def __post_init__(self):
        if min(self.subgroup_cap, self.chain_depth_cap, self.chain_visit_cap) <= 0:
            raise ValueError("caps must be positive")

    def to_json(self):
        return asdict(self)
