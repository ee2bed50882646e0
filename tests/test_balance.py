from __future__ import annotations

from collections import Counter
from decimal import Decimal, getcontext

import numpy as np
import pytest

from unitforge.balance import (
    BalanceError, LanguageCounts, SamplingDistribution,
    read_counts_tsv, read_pools_tsv, sample_schedule, temperature_distribution,
)

getcontext().prec = 50


def oracle_distribution(counts: dict[str, float], temperature: float) -> dict[str, float]:
    """50-digit Decimal evaluation of p_l^(1/T) / sum_i p_i^(1/T)."""
    total = sum(Decimal(repr(v)) for v in counts.values())
    t = Decimal(repr(temperature))
    weights = {}
    for lang, v in counts.items():
        if v == 0:
            weights[lang] = Decimal(0)
        else:
            p = Decimal(repr(v)) / total
            weights[lang] = (p.ln() / t).exp()
    z = sum(weights.values())
    return {lang: float(w / z) for lang, w in weights.items()}


def dist(counts: dict[str, float], t: float) -> SamplingDistribution:
    return temperature_distribution(LanguageCounts.from_mapping(counts), t)


class TestTypes:
    def test_duplicate_lang_rejected(self):
        with pytest.raises(BalanceError):
            LanguageCounts(entries=(("en", 1.0), ("en", 2.0)))

    def test_all_zero_rejected(self):
        with pytest.raises(BalanceError):
            LanguageCounts(entries=(("en", 0.0), ("zh", 0.0)))

    def test_negative_rejected(self):
        with pytest.raises(BalanceError):
            LanguageCounts(entries=(("en", -1.0),))

    def test_distribution_sum_checked(self):
        with pytest.raises(BalanceError):
            SamplingDistribution(temperature=1.0, probs=(("a", 0.6), ("b", 0.6)))


class TestTemperatureDistribution:
    def test_t1_exact_proportions(self):
        assert dist({"a": 900, "b": 100}, 1.0).as_dict() == {"a": 0.9, "b": 0.1}

    def test_equal_counts_uniform(self):
        for t in (0.5, 1.0, 7.0, 100.0):
            d = dist({"a": 5, "b": 5, "c": 5, "d": 5}, t).as_dict()
            assert all(p == pytest.approx(0.25, abs=1e-12) for p in d.values())

    def test_t20_matches_decimal_oracle(self):
        got = dist({"a": 900, "b": 100}, 20.0).as_dict()
        expected = oracle_distribution({"a": 900, "b": 100}, 20.0)
        assert got["a"] == pytest.approx(expected["a"], abs=1e-9)
        assert got["b"] == pytest.approx(expected["b"], abs=1e-9)
        # frozen from the 50-digit oracle (also confirmed by a log-free
        # Newton nth-root evaluation): 0.52743771616388052...
        assert got["a"] == pytest.approx(0.5274377161638805, abs=1e-9)
        assert got["b"] == pytest.approx(0.4725622838361195, abs=1e-9)

    def test_matches_oracle_on_many_languages(self):
        counts = {"l%d" % i: float(2 ** i) for i in range(12)}
        for t in (0.25, 2.0, 20.0, 300.0):
            got = dist(counts, t).as_dict()
            for lang, p in oracle_distribution(counts, t).items():
                assert got[lang] == pytest.approx(p, abs=1e-9)

    def test_zero_count_language_gets_zero(self):
        d = dist({"a": 10, "b": 0, "c": 30}, 3.0).as_dict()
        assert d["b"] == 0.0
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)
        without = dist({"a": 10, "c": 30}, 3.0).as_dict()
        assert d["a"] == pytest.approx(without["a"], abs=1e-12)

    def test_high_temperature_uniform(self):
        d = dist({"a": 900, "b": 100}, 1e6).as_dict()
        assert max(abs(p - 0.5) for p in d.values()) < 1e-4

    def test_raising_t_flattens(self):
        counts = {"a": 900, "b": 90, "c": 10}
        peaks = [max(dist(counts, t).as_dict().values()) for t in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_scale_invariance(self):
        assert dist({"a": 900, "b": 100}, 20.0).as_dict() == \
            dist({"a": 9, "b": 1}, 20.0).as_dict()

    def test_bad_temperature(self):
        for t in (0.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(BalanceError):
                dist({"a": 1}, t)


def oracle_schedule(d: SamplingDistribution, pools, total: int, seed: int) -> list[str]:
    """The seed implementation: the same draws, indexed one numpy scalar at a time."""
    active = [(lang, p) for lang, p in d.probs if p > 0.0]
    langs = [lang for lang, _ in active]
    probs = np.array([p for _, p in active], dtype=np.float64)
    probs /= probs.sum()
    sizes = np.array([len(pools[lang]) for lang in langs], dtype=np.int64)
    rng = np.random.default_rng(seed)
    lang_draws = rng.choice(len(langs), size=total, p=probs)
    item_draws = rng.integers(0, sizes[lang_draws])
    return [pools[langs[ld]][int(it)] for ld, it in zip(lang_draws, item_draws)]


class TestSampleSchedule:
    def test_matches_seed_oracle(self):
        d = dist({"en": 900, "hok": 100, "zh": 0, "ja": 7}, 5.0)
        pools = {"en": [f"en{i}" for i in range(1000)], "hok": ("h0", "h1", "h2"),
                 "ja": ["ja0"]}
        for seed in range(5):
            for total in (1, 17, 5000):
                # a zero-probability language may have a pool; it is never drawn
                for given in (pools, {"zh": ["z0", "z1"], **pools}):
                    got = sample_schedule(d, given, total, seed)
                    assert got == oracle_schedule(d, given, total, seed)
                    assert all(type(item) is str for item in got)

    def test_matches_seed_oracle_on_seeded_pools(self):
        rng = np.random.default_rng(5)
        for trial in range(6):
            sizes = rng.integers(1, 60, size=8)
            counts = {f"l{i}": float(n) for i, n in enumerate(sizes)}
            counts[f"l{trial}"] = 0.0
            pools = {lang: [f"{lang}-{j}" for j in range(n)] for lang, n in zip(counts, sizes)}
            d = dist(counts, 0.5 + trial)
            assert sample_schedule(d, pools, 20_000, trial) == \
                oracle_schedule(d, pools, 20_000, trial)

    def test_total_zero(self):
        d = dist({"a": 1}, 1.0)
        assert sample_schedule(d, {"a": ["x"]}, total=0, seed=0) == []

    def test_single_language(self):
        d = dist({"a": 3}, 1.0)
        schedule = sample_schedule(d, {"a": ["x", "y"]}, total=50, seed=1)
        assert len(schedule) == 50 and set(schedule) <= {"x", "y"}

    def test_law_of_large_numbers(self):
        d = dist({"a": 900, "b": 100}, 20.0)
        pools = {"a": [f"a{i}" for i in range(5)], "b": [f"b{i}" for i in range(3)]}
        schedule = sample_schedule(d, pools, total=100_000, seed=7)
        freq = Counter(item[0] for item in schedule)
        for lang, p in d.as_dict().items():
            assert abs(freq[lang] / 100_000 - p) < 0.01

    def test_deterministic(self):
        d = dist({"a": 2, "b": 1}, 2.0)
        pools = {"a": ["a0", "a1"], "b": ["b0"]}
        assert sample_schedule(d, pools, 200, seed=3) == sample_schedule(d, pools, 200, seed=3)

    def test_empty_pool_for_positive_prob(self):
        d = dist({"a": 1, "b": 1}, 1.0)
        with pytest.raises(BalanceError, match="'b'"):
            sample_schedule(d, {"a": ["x"], "b": []}, total=5, seed=0)

    def test_zero_prob_language_needs_no_pool(self):
        d = dist({"a": 1, "b": 0}, 1.0)
        assert sample_schedule(d, {"a": ["x"]}, total=4, seed=0) == ["x"] * 4


class TestIO:
    def test_counts_tsv_with_header(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("lang\tn\nen\t900\nhok\t100\n")
        counts = read_counts_tsv(path)
        assert counts.entries == (("en", 900.0), ("hok", 100.0))

    def test_counts_tsv_without_header(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("en\t900\nhok\t100\n")
        assert read_counts_tsv(path).entries == (("en", 900.0), ("hok", 100.0))

    def test_counts_tsv_header_after_blank_line(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("\nlang\tn\nen\t900\nhok\t100\n")
        assert read_counts_tsv(path).entries == (("en", 900.0), ("hok", 100.0))

    def test_counts_tsv_non_numeric_later_row_names_its_line(self, tmp_path):
        path = tmp_path / "counts.tsv"
        for text, lineno in (("\nlang\tn\nen\tmany\n", 3), ("\nen\t900\nhok\tn\n", 3)):
            path.write_text(text)
            with pytest.raises(BalanceError, match=f"counts.tsv:{lineno}: unparsable count"):
                read_counts_tsv(path)

    def test_pools_tsv(self, tmp_path):
        path = tmp_path / "pools.tsv"
        path.write_text("en\tu1\nen\tu2\nhok\tu3\n")
        assert read_pools_tsv(path) == {"en": ["u1", "u2"], "hok": ["u3"]}


def _counts_file(tmp, text):
    path = tmp / "c.tsv"
    path.write_text(text)
    return path


# each refusal: (a call given a scratch directory, its error, its message)
REFUSALS = {
    "temperature": (lambda tmp: SamplingDistribution(temperature=0.0, probs=(("en", 1.0),)),
                    BalanceError, "temperature must be positive, got 0.0"),
    "probability": (lambda tmp: SamplingDistribution(
        temperature=1.0, probs=(("en", 1.5), ("hok", -0.5))),
                    BalanceError, "probability for 'en' out of range: 1.5"),
    "total": (lambda tmp: sample_schedule(
        temperature_distribution(LanguageCounts.from_mapping({"en": 1}), 1.0),
        {"en": ["e0"]}, total=-1, seed=0), BalanceError, "total must be >= 0, got -1"),
    "counts file, repeated language": (
        lambda tmp: read_counts_tsv(_counts_file(tmp, "en\t1\nhok\t2\nen\t3\n")),
        BalanceError, "{tmp}/c.tsv: language codes must be distinct"),
    "counts file, negative count": (
        lambda tmp: read_counts_tsv(_counts_file(tmp, "en\t1\nhok\t-2\n")),
        BalanceError, "{tmp}/c.tsv: count for 'hok' must be finite and >= 0, got -2.0"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals(tmp_path, name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message.format(tmp=tmp_path)
