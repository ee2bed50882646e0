"""Temperature sampling for multilingual corpus balancing.

Given per-language sizes n_l (sample counts or durations), the sampling
probability of language l at temperature T is

    p~_l = p_l^(1/T) / sum_i p_i^(1/T),   p_l = n_l / sum_j n_j.

Exponentiation happens in log space, so extreme temperatures and many
languages stay numerically stable. Schedules are drawn from
``numpy.random.default_rng(seed)`` (PCG64) and are reproducible across
platforms for a fixed numpy major version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fileio import numbered, two_columns


class BalanceError(ValueError):
    pass


@dataclass(frozen=True)
class LanguageCounts:
    """Ordered per-language sizes; at least one must be positive."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        entries = tuple((str(lang), float(n)) for lang, n in self.entries)
        langs = [lang for lang, _ in entries]
        if len(set(langs)) != len(langs):
            raise BalanceError("language codes must be distinct")
        for lang, n in entries:
            if not math.isfinite(n) or n < 0:
                raise BalanceError(f"count for {lang!r} must be finite and >= 0, got {n}")
        if not any(n > 0 for _, n in entries):
            raise BalanceError("at least one language needs a positive count")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_mapping(cls, counts: Mapping[str, float]) -> "LanguageCounts":
        return cls(entries=tuple(counts.items()))


@dataclass(frozen=True)
class SamplingDistribution:
    """Language sampling probabilities at a given temperature.

    Zero-count languages are carried with probability exactly 0.0; the
    positive entries sum to 1 within 1e-9.
    """

    temperature: float
    probs: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise BalanceError(f"temperature must be positive, got {self.temperature}")
        probs = tuple((str(lang), float(p)) for lang, p in self.probs)
        for lang, p in probs:
            if not (p == 0.0 or 0.0 < p <= 1.0):
                raise BalanceError(f"probability for {lang!r} out of range: {p}")
        total = sum(p for _, p in probs)
        if abs(total - 1.0) > 1e-9:
            raise BalanceError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probs", probs)

    def as_dict(self) -> dict[str, float]:
        return dict(self.probs)


def temperature_distribution(counts: LanguageCounts, temperature: float) -> SamplingDistribution:
    """Evaluate the temperature-sampling formula over the given counts.

    Languages with zero count receive probability 0 and are excluded from
    the exponentiated sum. The result depends only on count ratios.
    """
    if not (temperature > 0 and math.isfinite(temperature)):
        raise BalanceError(f"temperature must be positive and finite, got {temperature}")
    langs = [lang for lang, _ in counts.entries]
    n = np.array([v for _, v in counts.entries], dtype=np.float64)
    positive = n > 0

    # p_l^(1/T) / sum p_i^(1/T) == n_l^(1/T) / sum n_i^(1/T): the total cancels
    if temperature == 1.0:
        # identity exponent: plain proportions, exact
        probs_pos = n[positive] / n[positive].sum()
    else:
        logits = np.log(n[positive]) / temperature
        logits -= logits.max()
        weights = np.exp(logits)
        probs_pos = weights / weights.sum()

    probs = np.zeros(len(langs))
    probs[positive] = probs_pos
    return SamplingDistribution(
        temperature=temperature,
        probs=tuple((lang, float(p)) for lang, p in zip(langs, probs)))


def sample_schedule(dist: SamplingDistribution, pools: Mapping[str, Sequence[str]],
                    total: int, seed: int) -> list[str]:
    """Draw ``total`` ids: language i.i.d. from ``dist``, then a uniform
    with-replacement pick inside that language's pool."""
    if total < 0:
        raise BalanceError(f"total must be >= 0, got {total}")
    active = [(lang, p) for lang, p in dist.probs if p > 0.0]
    for lang, _ in active:
        if not pools.get(lang):
            raise BalanceError(f"language {lang!r} has positive probability but an empty pool")

    if total == 0:
        return []
    langs = [lang for lang, _ in active]
    probs = np.array([p for _, p in active], dtype=np.float64)
    probs /= probs.sum()
    sizes = np.array([len(pools[lang]) for lang in langs], dtype=np.int64)

    rng = np.random.default_rng(seed)
    lang_draws = rng.choice(len(langs), size=total, p=probs)
    item_draws = rng.integers(0, sizes[lang_draws])
    # every pool in one object array; language l's items start at offsets[l]
    items = np.fromiter(chain.from_iterable(pools[lang] for lang in langs),
                        dtype=object, count=int(sizes.sum()))
    offsets = np.cumsum(sizes) - sizes
    return items[offsets[lang_draws] + item_draws].tolist()


def read_counts_tsv(path: str | Path) -> LanguageCounts:
    """Two-column TSV ``lang<TAB>n``; a non-numeric first data row is a header."""
    entries = []
    with numbered(path, BalanceError) as lines:
        for row, (lang, count) in enumerate(two_columns(lines)):
            try:
                entries.append((lang, float(count)))
            except ValueError:
                if row:  # a non-numeric first row is the header
                    raise BalanceError(f"unparsable count {count!r}") from None
    with numbered(path, BalanceError, ()):
        return LanguageCounts(entries=tuple(entries))


def read_pools_tsv(path: str | Path) -> dict[str, list[str]]:
    """Two-column TSV ``lang<TAB>id``, one pool member per line."""
    pools: dict[str, list[str]] = {}
    with numbered(path, BalanceError) as lines:
        for lang, item in two_columns(lines):
            pools.setdefault(lang, []).append(item)
    return pools
