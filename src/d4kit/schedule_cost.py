"""Fixed-data-regime epoch scheduling and selection-cost accounting.

When a selected subset is smaller than the training token budget, the
subset is repeated (epoched) until the budget is covered; the plan is
document-granular, so the last document may overshoot the budget by less
than one document's tokens.

Cost accounting separates the naive efficiency gain (GPU hours saved by
fewer updates) from the overall gain (naive gain minus the cost of
computing the selection, i.e. embedding plus any CPU-stage equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DocumentSet
from .errors import ValidationError, _index, _instance, _real


@dataclass(frozen=True)
class EpochPlan:
    """A document order covering the token budget.

    ``order`` concatenates per-epoch permutations of the selected ids,
    truncated at the first document that reaches the budget.
    """

    t_total: int
    t_selected: int
    order: tuple[str, ...]
    reshuffle_seed: int

    @property
    def epochs(self) -> float:
        """Exactly t_total / t_selected."""
        return self.t_total / self.t_selected


@dataclass(frozen=True)
class CostModel:
    baseline_train_gpu_hours: float
    fraction_updates_saved: float
    embed_gpu_hours: float = 0.0
    cpu_stage_gpu_hour_equivalent: float = 0.0

    def __post_init__(self):
        for name, interval in (("baseline_train_gpu_hours", "[0, inf)"), ("fraction_updates_saved", "[0, 1)"),
                               ("embed_gpu_hours", "[0, inf)"), ("cpu_stage_gpu_hour_equivalent", "[0, inf)")):
            object.__setattr__(self, name, _real(name, getattr(self, name), interval))


def plan_epochs(
    selected: DocumentSet,
    t_total: int,
    seed: int = 0,
    reshuffle_each_epoch: bool = False,
) -> EpochPlan:
    """Repeat the selected documents until the token budget is reached.

    Every full epoch contains each selected id exactly once; epoch order
    is the selection order, or a per-epoch permutation derived from
    (seed, epoch index) when ``reshuffle_each_epoch`` is set. The order
    stops at the first document whose tokens reach the budget, so the
    overshoot is bounded by the largest document.
    """
    tokens = [d.token_count for d in _instance("selected", selected, DocumentSet).docs]
    return _plan(selected.ids, tokens, t_total, seed, reshuffle_each_epoch)


def _plan(
    ids: Sequence[str], tokens: Sequence[int], t_total: int, seed: int, reshuffle_each_epoch: bool
) -> EpochPlan:
    """:func:`plan_epochs` from the selected ids and their token counts alone,
    so a caller that streams its corpus holds no text."""
    t_selected = sum(tokens)
    if len(ids) == 0 or t_selected <= 0:
        raise ValidationError("cannot schedule an empty selection")
    t_total, seed = _index("token budget", t_total, 1), _index("seed", seed)

    n = len(ids)
    order: list[str] = []
    cumulative = 0
    epoch = 0
    while cumulative < t_total:
        if reshuffle_each_epoch:
            rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, epoch])
            perm = rng.permutation(n)
        else:
            perm = range(n)
        for i in perm:
            order.append(ids[i])
            cumulative += tokens[i]
            if cumulative >= t_total:
                break
        epoch += 1

    return EpochPlan(t_total=t_total, t_selected=t_selected, order=tuple(order), reshuffle_seed=seed)


def naive_gain(model: CostModel) -> float:
    """GPU hours saved by reaching baseline quality with fewer updates."""
    return _instance("model", model, CostModel).baseline_train_gpu_hours * model.fraction_updates_saved


def overall_gain(model: CostModel) -> float:
    """Naive gain minus the cost of computing the selection.

    Negative results are returned as-is: they mean the selection cost
    exceeds what it saves. ``ValidationError`` if the difference overflows.
    """
    gain = naive_gain(model) - model.embed_gpu_hours - model.cpu_stage_gpu_hour_equivalent
    return _real("overall GPU-hour gain", gain, "(-inf, inf)")


def embed_cost(tokens_to_embed: float, tokens_per_gpu_hour: float) -> float:
    """GPU hours to embed a corpus at a given throughput; ``ValidationError`` if the quotient overflows."""
    tokens_per_gpu_hour = _real("tokens_per_gpu_hour", tokens_per_gpu_hour, "(0, inf)")
    hours = _real("tokens_to_embed", tokens_to_embed, "[0, inf)") / tokens_per_gpu_hour
    return _real("GPU hours to embed", hours, "[0, inf)")
