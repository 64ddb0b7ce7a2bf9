import math
from collections import Counter

import numpy as np
import pytest

from d4kit import (
    CostModel,
    Document,
    DocumentSet,
    ValidationError,
    embed_cost,
    naive_gain,
    overall_gain,
    plan_epochs,
)


def _docs(token_counts):
    return DocumentSet.from_documents(
        [
            Document(id=f"d{i}", text="x " * t, token_count=t)
            for i, t in enumerate(token_counts)
        ]
    )


class TestPlanEpochs:
    def test_table_arithmetic(self):
        docs = _docs([10] * 4)
        plan = plan_epochs(docs, t_total=80)
        assert plan.epochs == 2.0

    def test_negative_token_count_never_reaches_a_plan(self):
        # Counted, the -3 would leave 2 tokens in the set, and t_total=10 would plan 5 epochs.
        with pytest.raises(ValidationError, match="token_count"):
            plan_epochs(DocumentSet.from_documents([Document("a", "x", -3), Document("b", "y", 5)]), 10, seed=1)

    def test_single_epoch_is_one_permutation(self):
        docs = _docs([5, 7, 3])
        plan = plan_epochs(docs, t_total=15)
        assert plan.epochs == 1.0
        assert plan.order == docs.ids

    def test_partial_epoch_stopping_rule(self):
        docs = _docs([10, 10, 10])
        plan = plan_epochs(docs, t_total=35)
        assert len(plan.order) == 4
        assert plan.order == ("d0", "d1", "d2", "d0")

    def test_epoch_coverage_and_stopping_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            tokens = [int(rng.integers(1, 30)) for _ in range(n)]
            docs = _docs(tokens)
            budget = int(rng.integers(1, 4 * sum(tokens)))
            reshuffle = bool(rng.integers(2))
            plan = plan_epochs(docs, budget, seed=int(rng.integers(1000)), reshuffle_each_epoch=reshuffle)
            token_of = {d.id: d.token_count for d in docs}
            total = sum(token_of[i] for i in plan.order)
            assert total >= budget
            assert total - token_of[plan.order[-1]] < budget
            # Every complete epoch covers the selected set exactly once.
            for e in range(len(plan.order) // n):
                epoch_ids = plan.order[e * n : (e + 1) * n]
                assert Counter(epoch_ids) == Counter(docs.ids)

    def test_reshuffle_deterministic_and_permutes(self):
        docs = _docs([1] * 20)
        a = plan_epochs(docs, 40, seed=3, reshuffle_each_epoch=True)
        b = plan_epochs(docs, 40, seed=3, reshuffle_each_epoch=True)
        assert a.order == b.order
        first, second = a.order[:20], a.order[20:]
        assert Counter(first) == Counter(second)
        assert first != second  # overwhelmingly likely under a real shuffle

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError):
            plan_epochs(DocumentSet.from_documents([]), 10)

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            plan_epochs(_docs([5]), 0)


class TestGains:
    def test_reported_naive_gain(self):
        model = CostModel(baseline_train_gpu_hours=21500, fraction_updates_saved=0.20)
        assert naive_gain(model) == 4300.0

    def test_reported_overall_gain(self):
        model = CostModel(
            baseline_train_gpu_hours=21500,
            fraction_updates_saved=0.20,
            embed_gpu_hours=888,
        )
        assert overall_gain(model) == 3412.0

    def test_zero_cases(self):
        assert naive_gain(CostModel(21500, 0.0)) == 0.0
        assert naive_gain(CostModel(0.0, 0.2)) == 0.0
        assert overall_gain(CostModel(0.0, 0.0)) == 0.0

    def test_negative_overall_gain_not_clamped(self):
        model = CostModel(100.0, 0.1, embed_gpu_hours=50.0)
        assert overall_gain(model) == -40.0

    def test_affine_in_each_field(self):
        base = CostModel(1000.0, 0.25, embed_gpu_hours=30.0, cpu_stage_gpu_hour_equivalent=5.0)
        g = overall_gain(base)
        assert overall_gain(CostModel(1100.0, 0.25, 30.0, 5.0)) == g + 100.0 * 0.25
        assert overall_gain(CostModel(1000.0, 0.25, 31.0, 5.0)) == g - 1.0
        assert overall_gain(CostModel(1000.0, 0.25, 30.0, 7.0)) == g - 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            CostModel(-1.0, 0.5)
        with pytest.raises(ValidationError):
            CostModel(10.0, 1.0)


class TestEmbedCost:
    def test_reported_throughput_identity(self):
        rate = 400e9 / 888.0
        assert abs(embed_cost(400e9, rate) - 888.0) <= 1e-9

    def test_zero_tokens(self):
        assert embed_cost(0, 1000.0) == 0.0

    def test_linearity(self):
        assert embed_cost(2_000_000, 500.0) == 2 * embed_cost(1_000_000, 500.0)

    def test_rate_validation(self):
        with pytest.raises(ValidationError):
            embed_cost(100, 0.0)

    @pytest.mark.parametrize(
        "tokens, rate", [(100, math.nan), (100, math.inf), (math.nan, 500.0), (math.inf, 500.0)]
    )
    def test_non_finite_rejected(self, tokens, rate):
        with pytest.raises(ValidationError):
            embed_cost(tokens, rate)

    @pytest.mark.parametrize("tokens, rate", [(1e308, 1e-10), (1e308, 0.5)])
    def test_overflow_rejected(self, tokens, rate):
        # Finite, valid inputs whose quotient is not a float.
        with pytest.raises(ValidationError, match="GPU hours to embed"):
            embed_cost(tokens, rate)
