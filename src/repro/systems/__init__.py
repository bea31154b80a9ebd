"""System-level models: Azure cost estimation (Table 2) and memory accounting
for the sample-size ablation (paper §5.2.4)."""

from repro.systems.cost import (
    AZURE_INSTANCES,
    SYSTEM_INSTANCE,
    AzureInstance,
    estimate_cost,
)
from repro.systems.memory import (
    MemoryBudget,
    csr_bytes,
    hash_table_bytes,
    max_affordable_samples,
)

__all__ = [
    "AZURE_INSTANCES",
    "SYSTEM_INSTANCE",
    "AzureInstance",
    "estimate_cost",
    "MemoryBudget",
    "csr_bytes",
    "hash_table_bytes",
    "max_affordable_samples",
]
