"""Tests for the cost model (Table 2) and the memory model (§5.2.4)."""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.systems.cost import (
    AZURE_INSTANCES,
    SYSTEM_INSTANCE,
    estimate_cost,
    hardware_table,
)
from repro.systems.memory import (
    MemoryBudget,
    csr_bytes,
    hash_table_bytes,
    max_affordable_samples,
    per_thread_list_bytes,
)


class TestCostModel:
    def test_table2_prices(self):
        assert AZURE_INSTANCES["NC24s_v2"].price_per_hour == 8.28
        assert AZURE_INSTANCES["E48_v3"].price_per_hour == 3.024
        assert AZURE_INSTANCES["M128s"].price_per_hour == 13.338

    def test_pbg_livejournal_cost_matches_paper(self):
        # Paper: PBG takes 7.25 h on E48 v3 -> $21.95 (approx: 7.25 * 3.024).
        cost = estimate_cost("pbg", 7.25 * 3600)
        assert cost == pytest.approx(21.92, abs=0.1)

    def test_lightne_livejournal_cost_matches_paper(self):
        # Paper: LightNE takes 16 min on M128s -> $3.56 by straight math; the
        # paper reports $2.76 (they likely bill partial usage) — we assert the
        # straight product since our model is explicit.
        cost = estimate_cost("lightne", 16 * 60)
        assert cost == pytest.approx(13.338 * 16 / 60, rel=1e-6)

    def test_every_system_mapped(self):
        for system in SYSTEM_INSTANCE:
            assert estimate_cost(system, 3600) > 0

    def test_unknown_system(self):
        with pytest.raises(EvaluationError):
            estimate_cost("mystery", 10)

    def test_negative_runtime(self):
        with pytest.raises(EvaluationError):
            estimate_cost("lightne", -1)

    def test_hardware_table_rows(self):
        rows = hardware_table()
        assert len(rows) == 4
        assert {"instance", "vCores", "RAM (GiB)", "GPU", "$/h"} <= set(rows[0])

    def test_gpu_instance_most_expensive_per_vcore(self):
        nc = AZURE_INSTANCES["NC24s_v2"]
        e48 = AZURE_INSTANCES["E48_v3"]
        assert nc.price_per_hour / nc.vcores > e48.price_per_hour / e48.vcores


class TestMemoryModel:
    def test_csr_bytes(self):
        assert csr_bytes(10, 100) == 11 * 8 + 100 * 8

    def test_hash_table_power_of_two(self):
        b = hash_table_bytes(100)
        assert b % 16 == 0
        slots = b // 16
        assert slots & (slots - 1) == 0

    def test_hash_table_respects_load(self):
        assert hash_table_bytes(1000, max_load=0.25) >= hash_table_bytes(
            1000, max_load=0.5
        )

    def test_thread_lists_linear(self):
        assert per_thread_list_bytes(2000) == 2 * per_thread_list_bytes(1000)

    def test_negative_rejected(self):
        with pytest.raises(EvaluationError):
            csr_bytes(-1, 0)

    def test_budget_from_gib(self):
        assert MemoryBudget.from_gib(1.0).bytes_total == 1 << 30
        with pytest.raises(EvaluationError):
            MemoryBudget.from_gib(0)

    def test_shared_hash_affords_more_samples(self):
        """The §5.2.4 narrative: shared hashing + duplicate collapse admits a
        larger sample budget than per-thread lists under the same RAM."""
        budget = MemoryBudget.from_gib(4)
        graph_bytes = csr_bytes(10**6, 10**7)
        hash_budget = max_affordable_samples(
            budget, graph_bytes, strategy="shared_hash", distinct_ratio=0.3
        )
        list_budget = max_affordable_samples(
            budget, graph_bytes, strategy="thread_lists"
        )
        assert hash_budget > list_budget

    def test_zero_when_graph_exceeds_budget(self):
        budget = MemoryBudget(100)
        assert max_affordable_samples(budget, 200, strategy="thread_lists") == 0

    def test_unknown_strategy(self):
        with pytest.raises(EvaluationError):
            max_affordable_samples(MemoryBudget(1000), 0, strategy="magic")

    def test_lower_distinct_ratio_more_samples(self):
        """Downsampling lowers distinct/sample ratio -> more affordable samples
        (the second §5.2.4 effect)."""
        budget = MemoryBudget.from_gib(1)
        a = max_affordable_samples(budget, 0, strategy="shared_hash", distinct_ratio=0.6)
        b = max_affordable_samples(budget, 0, strategy="shared_hash", distinct_ratio=0.2)
        assert b > a
