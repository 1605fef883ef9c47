"""Metric helpers shared by benchmarks and examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.core.campaign import CampaignResult


@dataclass(frozen=True)
class SeriesComparison:
    """Comparison of one metric between TQS and a baseline at the final hour."""

    metric: str
    tqs_value: int
    baseline_name: str
    baseline_value: int

    @property
    def ratio(self) -> float:
        """TQS value divided by the baseline value (inf-free)."""
        if self.baseline_value == 0:
            return float(self.tqs_value) if self.tqs_value else 1.0
        return self.tqs_value / self.baseline_value


def compare_final(metric: str, tqs: CampaignResult,
                  baselines: Mapping[str, CampaignResult]) -> List[SeriesComparison]:
    """Compare the final value of *metric* between TQS and each baseline."""
    comparisons = []
    tqs_value = getattr(tqs.final, metric)
    for name, result in baselines.items():
        comparisons.append(
            SeriesComparison(
                metric=metric,
                tqs_value=tqs_value,
                baseline_name=name,
                baseline_value=getattr(result.final, metric),
            )
        )
    return comparisons


def growth_is_monotonic(series: Sequence[int]) -> bool:
    """True when a cumulative series never decreases (sanity check for figures)."""
    return all(later >= earlier for earlier, later in zip(series, series[1:]))


def saturation_hour(series: Sequence[int]) -> Optional[int]:
    """First hour after which a cumulative series stops growing (Figure 9 shape)."""
    if not series:
        return None
    final = series[-1]
    for hour, value in enumerate(series, start=1):
        if value == final:
            return hour
    return len(series)


def linearity_score(series: Sequence[int]) -> float:
    """Pearson correlation of a series with time (1.0 = perfectly linear growth)."""
    n = len(series)
    if n < 2:
        return 1.0
    xs = list(range(1, n + 1))
    mean_x = sum(xs) / n
    mean_y = sum(series) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, series))
    var_x = sum((x - mean_x) ** 2 for x in xs) ** 0.5
    var_y = sum((y - mean_y) ** 2 for y in series) ** 0.5
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y)
