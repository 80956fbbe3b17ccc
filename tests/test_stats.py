"""Unit tests for the uncertainty-quantification helpers (core/stats.py)."""

import pickle

import pytest

from repro.core.stats import (
    DEFAULT_CONFIDENCE,
    ConfidenceInterval,
    bootstrap_interval,
    required_samples,
    wilson_interval,
    z_score,
)


class TestZScore:
    def test_95_percent_quantile(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_99_percent_quantile(self):
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_degenerate_confidence(self, confidence):
        with pytest.raises(ValueError):
            z_score(confidence)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        ci = wilson_interval(7, 100)
        assert ci.lo <= ci.point <= ci.hi
        assert ci.point == pytest.approx(0.07)
        assert ci.samples == 100
        assert ci.method == "wilson"

    def test_known_value(self):
        # Classic reference case: 10/100 at 95% -> [0.0552, 0.1744].
        ci = wilson_interval(10, 100)
        assert ci.lo == pytest.approx(0.05523, abs=1e-4)
        assert ci.hi == pytest.approx(0.17437, abs=1e-4)

    def test_zero_successes_pins_lower_bound(self):
        ci = wilson_interval(0, 80)
        assert ci.lo == 0.0
        assert ci.point == 0.0
        assert 0.0 < ci.hi < 0.1  # non-degenerate: zero counts still carry risk

    def test_full_successes_pins_upper_bound(self):
        ci = wilson_interval(80, 80)
        assert ci.hi == 1.0
        assert 0.9 < ci.lo < 1.0

    def test_zero_samples_is_vacuous(self):
        ci = wilson_interval(0, 0)
        assert (ci.lo, ci.hi) == (0.0, 1.0)
        assert ci.half_width == 0.5

    def test_width_shrinks_with_samples(self):
        widths = [wilson_interval(n // 10, n).half_width for n in (10, 100, 1000)]
        assert widths[0] > widths[1] > widths[2]

    def test_higher_confidence_is_wider(self):
        narrow = wilson_interval(5, 50, confidence=0.90)
        wide = wilson_interval(5, 50, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)

    def test_covers(self):
        ci = wilson_interval(10, 100)
        assert ci.covers(0.10)
        assert not ci.covers(0.5)

    def test_payload_round_trip_fields(self):
        payload = wilson_interval(3, 30).to_payload()
        assert payload["samples"] == 30
        assert payload["method"] == "wilson"
        assert payload["half_width"] == pytest.approx(
            (payload["hi"] - payload["lo"]) / 2
        )

    def test_interval_is_picklable(self):
        ci = wilson_interval(3, 30)
        assert pickle.loads(pickle.dumps(ci)) == ci


class TestBootstrapInterval:
    def test_deterministic_for_fixed_seed(self):
        a = bootstrap_interval(12, 200, seed=7)
        b = bootstrap_interval(12, 200, seed=7)
        assert a == b

    def test_seed_changes_draws(self):
        # Quantiles of a discrete resampling distribution can coincide for a
        # seed pair, so assert sensitivity across a handful of seeds.
        bounds = {
            (ci.lo, ci.hi)
            for ci in (bootstrap_interval(123, 997, seed=s) for s in range(5))
        }
        assert len(bounds) > 1

    def test_agrees_with_wilson_roughly(self):
        boot = bootstrap_interval(50, 500, seed=0)
        wilson = wilson_interval(50, 500)
        assert boot.lo == pytest.approx(wilson.lo, abs=0.02)
        assert boot.hi == pytest.approx(wilson.hi, abs=0.02)

    def test_zero_samples_is_vacuous(self):
        ci = bootstrap_interval(0, 0)
        assert (ci.lo, ci.hi) == (0.0, 1.0)

    def test_rejects_bad_resamples(self):
        with pytest.raises(ValueError):
            bootstrap_interval(1, 10, resamples=0)


class TestRequiredSamples:
    def test_already_met_returns_current(self):
        n = 10_000
        assert required_samples(100, n, target_half_width=0.5) == n

    def test_inverts_wilson_width(self):
        needed = required_samples(5, 50, target_half_width=0.02)
        assert needed > 50
        # The returned count meets the target at the held proportion...
        assert wilson_interval(round(0.1 * needed), needed).half_width <= 0.02
        # ...and is minimal: one fewer does not.
        assert (
            wilson_interval(round(0.1 * (needed - 1)), needed - 1).half_width
            > 0.02
        )

    def test_caps_at_max_samples(self):
        assert required_samples(1, 2, 1e-9, max_samples=10_000) == 10_000

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValueError):
            required_samples(1, 10, 0.0)


class TestCoverage:
    """Empirical check: the Wilson interval covers the true proportion at
    roughly its nominal rate (the statistical contract the acceptance
    criterion leans on)."""

    def test_coverage_near_nominal(self):
        import random

        rng = random.Random(1234)
        p_true, n, trials = 0.08, 200, 400
        covered = 0
        for _ in range(trials):
            successes = sum(rng.random() < p_true for _ in range(n))
            if wilson_interval(successes, n).covers(p_true):
                covered += 1
        # 95% nominal; Wilson's actual coverage wobbles a little around it.
        assert covered / trials >= 0.90


def test_default_confidence_is_95_percent():
    assert DEFAULT_CONFIDENCE == 0.95
    ci = ConfidenceInterval(0.5, 0.4, 0.6, DEFAULT_CONFIDENCE, 10, "wilson")
    assert ci.half_width == pytest.approx(0.1)
