"""Cloud cost model (paper Table 2 and the cost-efficiency metric, §5.1).

The paper measures *cost efficiency* by matching each system to the cheapest
suitable Azure instance and multiplying its hourly price by the runtime:
GraphVite → NC24s v2 (4×P100), PBG → E48 v3, NetSMF/LightNE → M128s.  We
encode the exact table and expose :func:`estimate_cost` so the benchmark
harness reports the same dollars-per-run columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import EvaluationError


@dataclass(frozen=True)
class AzureInstance:
    """One row of the paper's Table 2 (Azure side)."""

    name: str
    vcores: int
    ram_gib: float
    gpus: int
    price_per_hour: float

    def cost(self, runtime_seconds: float) -> float:
        """Dollars for ``runtime_seconds`` of use."""
        if runtime_seconds < 0:
            raise EvaluationError(
                f"runtime_seconds must be >= 0, got {runtime_seconds}"
            )
        return self.price_per_hour * runtime_seconds / 3600.0


AZURE_INSTANCES: Dict[str, AzureInstance] = {
    "NC24s_v2": AzureInstance("NC24s_v2", 24, 448.0, 4, 8.28),
    "E48_v3": AzureInstance("E48_v3", 48, 384.0, 0, 3.024),
    "M64": AzureInstance("M64", 64, 1024.0, 0, 6.669),
    "M128s": AzureInstance("M128s", 128, 2048.0, 0, 13.338),
}

# System → assumed instance (paper §5.1).  Keys cover the canonical registry
# names plus the paper-facing aliases so cost lookups work with either.
SYSTEM_INSTANCE: Dict[str, str] = {
    "graphvite": "NC24s_v2",
    "deepwalk": "NC24s_v2",  # our GraphVite stand-in
    "pbg": "E48_v3",
    "netsmf": "M128s",
    "prone": "M128s",
    "prone+": "M128s",
    "lightne": "M128s",
    "sketchne": "M128s",
    "netmf+": "M128s",
    "netmfplus": "M128s",
    "netmf": "M128s",
    "nrp": "M128s",
}


def estimate_cost(system: str, runtime_seconds: float) -> float:
    """Estimated dollars for one run of ``system`` (paper's methodology)."""
    key = system.lower()
    if key not in SYSTEM_INSTANCE:
        raise EvaluationError(
            f"unknown system {system!r}; known: {sorted(SYSTEM_INSTANCE)}"
        )
    return AZURE_INSTANCES[SYSTEM_INSTANCE[key]].cost(runtime_seconds)


def hardware_table() -> list:
    """Rows of the Azure half of Table 2 (benchmark E9 prints these)."""
    return [
        {
            "instance": inst.name,
            "vCores": inst.vcores,
            "RAM (GiB)": inst.ram_gib,
            "GPU": inst.gpus,
            "$/h": inst.price_per_hour,
        }
        for inst in AZURE_INSTANCES.values()
    ]
