"""Rainfall feature and AR model tests.

Expected values come from independent oracles: mpmath at 50 digits for the
intensity-duration curve, explicit normal equations and the continued
generating recurrence for the AR fits. The AR kernel is also held to
bit-identity with its earlier, straightforward numpy formulation.
"""

import math
import random
import statistics
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slopewatch import analytics

from slopewatch.analytics import (
    ARModel,
    AnalyticsError,
    CaineDomainError,
    InsufficientDataError,
    InvalidSeriesError,
    RainEvent,
    _infer_interval,
    ar_fit,
    ar_forecast,
    ar_forecast_max,
    ar_forecast_max_rows,
    caine_threshold,
    exceeds_caine,
    flat_forecast_max,
    median_of_sorted,
    segment_events,
)
from test_alert import active_event, compute_rainfall_features  # the rain oracle

H = 3600.0


def hourly(values, t0=0.0):
    return [(t0 + (i + 1) * H, float(v)) for i, v in enumerate(values)]


class TestSegmentEvents:
    def test_all_zero_series_has_no_events(self):
        assert segment_events(hourly([0, 0, 0]), dry_gap=6 * H) == []

    def test_single_wet_hour_is_one_event(self):
        events = segment_events(hourly([0, 2.0, 0, 0]), dry_gap=6 * H)
        assert len(events) == 1
        ev = events[0]
        assert ev.total_mm == 2.0
        assert ev.duration_h == pytest.approx(1.0)
        assert ev.mean_intensity_mm_per_h == pytest.approx(2.0)

    def test_gap_below_dry_gap_merges(self):
        # wet, 5 dry hours, wet again: dry span 5 h < 6 h
        events = segment_events(hourly([1.0, 0, 0, 0, 0, 0, 1.0]), dry_gap=6 * H)
        assert len(events) == 1
        assert events[0].total_mm == 2.0

    def test_gap_at_dry_gap_splits(self):
        # wet, 6 dry hours, wet again: dry span reaches the 6 h boundary
        events = segment_events(hourly([1.0, 0, 0, 0, 0, 0, 0, 1.0]), dry_gap=6 * H)
        assert len(events) == 2

    def test_every_wet_sample_in_exactly_one_event(self):
        rng = random.Random(5)
        series = hourly([rng.choice((0.0, 0.0, 1.5, 4.0)) for _ in range(200)])
        events = segment_events(series, dry_gap=6 * H)
        assert sum(ev.total_mm for ev in events) == pytest.approx(sum(v for _, v in series))
        # event windows cover every wet sample and never overlap
        for (_, a), (b, _) in zip(
            [(e.start, e.end) for e in events], [(e.start, e.end) for e in events][1:]
        ):
            assert b > a
        for t, v in series:
            if v > 0:
                assert sum(1 for e in events if e.start < t <= e.end) == 1

    def test_unordered_input_rejected(self):
        with pytest.raises(InvalidSeriesError):
            segment_events([(2 * H, 1.0), (H, 1.0)], dry_gap=6 * H)

    def test_non_positive_dry_gap_rejected(self):
        with pytest.raises(AnalyticsError):
            segment_events(hourly([1.0]), dry_gap=0.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=40))
def test_median_of_sorted_matches_statistics_median(values):
    assert median_of_sorted(sorted(values)) == statistics.median(values)


class TestCaineThreshold:
    def oracle(self, d: float) -> float:
        mp.mp.dps = 50
        return float(mp.mpf("14.82") * mp.power(mp.mpf(repr(d)), mp.mpf("-0.39")))

    def test_unit_duration_is_exact_coefficient(self):
        assert caine_threshold(1.0) == 14.82

    def test_ten_hours_matches_oracle(self):
        # frozen from the 50-digit computation: 6.0373757170569506661
        assert caine_threshold(10.0) == pytest.approx(6.0373757170569507, rel=1e-12)
        assert caine_threshold(10.0) == pytest.approx(self.oracle(10.0), rel=1e-12)

    @pytest.mark.parametrize("d", [0.1, 0.167, 500.0, 600.0, 0.0, -1.0])
    def test_out_of_domain_rejected(self, d):
        with pytest.raises(CaineDomainError):
            caine_threshold(d)

    def test_matches_oracle_across_domain(self):
        for d in np.linspace(0.2, 499.0, 250):
            expected = self.oracle(float(d))
            assert abs(caine_threshold(float(d)) - expected) / expected < 1e-9

    def test_strictly_decreasing(self):
        grid = np.linspace(0.2, 499.0, 1000)
        values = [caine_threshold(float(d)) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestExceedsCaine:
    def event(self, duration_h, intensity):
        return RainEvent(start=0.0, end=duration_h * H, total_mm=intensity * duration_h)

    def test_at_threshold_counts_as_exceeded(self):
        assert exceeds_caine(self.event(1.0, 14.82)) is True

    def test_below_threshold(self):
        assert exceeds_caine(self.event(1.0, 14.0)) is False

    def test_outside_domain_not_applicable(self):
        assert exceeds_caine(self.event(600.0, 100.0)) is None

    @pytest.mark.parametrize(
        "duration_h, inside",
        [
            (math.nextafter(0.167, -math.inf), False), (0.167, False), (math.nextafter(0.167, math.inf), True),
            (math.nextafter(500.0, -math.inf), True), (500.0, False), (math.nextafter(500.0, math.inf), False),
        ],
    )
    def test_domain_ends_agree_with_caine_threshold(self, duration_h, inside):
        # Each end of the open domain, and the floats either side of it.
        assert self.event(duration_h, 1.0).duration_h == duration_h
        if not inside:
            with pytest.raises(CaineDomainError):
                caine_threshold(duration_h)
            assert exceeds_caine(self.event(duration_h, 1.0)) is None
            return
        threshold = caine_threshold(duration_h)
        verdicts = []
        for intensity in (threshold / 2, threshold, 2 * threshold):  # below, at and above the curve
            event = self.event(duration_h, intensity)
            verdicts.append(exceeds_caine(event))
            assert verdicts[-1] is (event.mean_intensity_mm_per_h >= threshold)
        assert verdicts[0] is False and verdicts[2] is True


class TestRainfallFeatures:
    def test_active_event_reported(self):
        series = hourly([0, 0, 3.0, 4.0])
        feats = compute_rainfall_features(series, now=4 * H, dry_gap=6 * H)
        assert feats.total_mm == 7.0
        assert feats.event_duration_h == pytest.approx(2.0)
        assert feats.event_intensity_mm_per_h == pytest.approx(3.5)

    def test_stale_event_not_active(self):
        series = hourly([3.0] + [0] * 10)
        feats = compute_rainfall_features(series, now=11 * H, dry_gap=6 * H)
        assert feats.event_duration_h is None


class TestActiveEvent:
    def test_no_wet_sample(self):
        assert active_event([], now=H, dry_gap=6 * H, interval=H) is None
        assert active_event(hourly([0, 0, 0]), now=3 * H, dry_gap=6 * H, interval=H) is None

    def test_dry_span_at_dry_gap_splits(self):
        # Wet at 1 h and 8 h: the span between them is 8 - 1 - 1 = 6 h dry.
        series = hourly([2.0] + [0] * 6 + [3.0])
        assert active_event(series, now=8 * H, dry_gap=6 * H, interval=H) == RainEvent(7 * H, 8 * H, 3.0)

    def test_dry_span_just_under_dry_gap_merges(self):
        series = hourly([2.0] + [0] * 5 + [3.0])
        assert active_event(series, now=7 * H, dry_gap=6 * H, interval=H) == RainEvent(0.0, 7 * H, 5.0)

    def test_event_older_than_dry_gap_is_inactive(self):
        series = hourly([3.0, 1.0] + [0] * 7)
        assert active_event(series, now=8 * H, dry_gap=6 * H, interval=H) == RainEvent(0.0, 2 * H, 4.0)
        assert active_event(series, now=9 * H, dry_gap=6 * H, interval=H) is None

    def test_non_positive_dry_gap_rejected(self):
        with pytest.raises(AnalyticsError):
            active_event(hourly([1.0]), now=H, dry_gap=0.0, interval=H)

    def test_agrees_with_segment_events_on_random_series(self):
        rng = random.Random(11)
        for _ in range(400):
            t, series = 0.0, []
            for _ in range(rng.randint(0, 40)):
                t += rng.choice([0.0, 600.0, 3600.0, 3600.0, 7200.0, 5 * H])
                series.append((t, rng.choice([0.0, 0.0, 0.0, 0.5, 2.0, 7.25])))
            now = t + rng.choice([0.0, 1800.0, 4 * H, 8 * H])
            dry_gap = rng.choice([1 * H, 3 * H, 6 * H])
            interval = _infer_interval(series)  # as segment_events infers it
            events = segment_events(series, dry_gap)
            expected = None
            if events and (now - events[-1].end) - interval < dry_gap:
                expected = events[-1]
            assert active_event(series, now, dry_gap, interval) == expected


def generate_ar2(n=200, phi=(0.6, -0.2), c=1.0, seed=42):
    """The noiseless generating recurrence x_t = c + 0.6 x_{t-1} - 0.2 x_{t-2}."""
    rng = random.Random(seed)
    xs = [rng.uniform(0, 1), rng.uniform(0, 1)]
    while len(xs) < n:
        xs.append(c + phi[0] * xs[-1] + phi[1] * xs[-2])
    return xs


def normal_equations_fit(series, p):
    """Independent oracle: build X'X b = X'y explicitly and solve."""
    x = np.asarray(series)
    n = len(x)
    X = np.ones((n - p, p + 1))
    for lag in range(1, p + 1):
        X[:, lag] = x[p - lag : n - lag]
    y = x[p:]
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    return beta[0], beta[1:]


class TestArFit:
    def test_recovers_noiseless_ar2(self):
        series = generate_ar2()
        model = ar_fit(series, 2)
        assert model.coefficients[0] == pytest.approx(0.6, abs=1e-6)
        assert model.coefficients[1] == pytest.approx(-0.2, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_normal_equations_oracle(self):
        series = generate_ar2(seed=7)
        model = ar_fit(series, 2)
        c_oracle, phi_oracle = normal_equations_fit(series, 2)
        assert model.intercept == pytest.approx(c_oracle, abs=1e-6)
        assert model.coefficients == pytest.approx(tuple(phi_oracle), abs=1e-6)

    def test_constant_series_forecasts_exactly(self):
        model = ar_fit([5.0] * 50, 1)
        assert 5.0 * model.coefficients[0] + model.intercept == 5.0
        assert ar_forecast(model, [5.0] * 10, 7) == [5.0] * 7

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientDataError):
            ar_fit([1.0, 2.0, 3.0], 2)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidSeriesError):
            ar_fit([1.0, float("nan")] * 10, 2)

    def test_insufficient_exactly_at_boundary(self):
        ar_fit(list(range(6)), 2)  # 2p+2 = 6 is allowed
        with pytest.raises(InsufficientDataError):
            ar_fit(list(range(5)), 2)

    def test_coefficient_length_enforced(self):
        with pytest.raises(AnalyticsError):
            ARModel(order=2, coefficients=(0.5,), intercept=0.0)


class TestArForecast:
    def test_one_step_matches_formula(self):
        model = ARModel(order=2, coefficients=(0.5, 0.25), intercept=1.0)
        history = [2.0, 4.0]  # oldest first
        expected = 1.0 + 0.5 * 4.0 + 0.25 * 2.0
        assert ar_forecast(model, history, 1) == [pytest.approx(expected)]

    def test_five_steps_match_continued_recurrence(self):
        series = generate_ar2(seed=3)
        model = ar_fit(series, 2)
        forecast = ar_forecast(model, series, 5)
        continued = generate_ar2(n=205, seed=3)[200:]
        assert forecast == pytest.approx(continued, abs=1e-6)

    def test_short_history_rejected(self):
        model = ARModel(order=3, coefficients=(0.1, 0.1, 0.1), intercept=0.0)
        with pytest.raises(InsufficientDataError):
            ar_forecast(model, [1.0, 2.0], 4)


# ---------------------------------------------------------------------------
# Bit-identity of the AR kernel with its earlier formulation
# ---------------------------------------------------------------------------


def sum_left_to_right(values) -> float:
    """``sum()`` of floats as Python 3.11 computes it: added left to right
    from 0.0. From 3.12 on, ``sum()`` of floats is compensated."""
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_ar_fit(series: list[float], order: int) -> ARModel:
    """The earlier ``ar_fit``, verbatim but for the residual RMS, which
    ``ARModel`` no longer carries, and for its ``sum()``, spelt as the
    Python 3.11 the alert decisions were recorded with adds."""
    if order < 1:
        raise AnalyticsError(f"order must be >= 1, got {order}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise InvalidSeriesError("series must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise InvalidSeriesError("series contains non-finite values")
    n = x.size
    if n < 2 * order + 2:
        raise InsufficientDataError(
            f"AR({order}) needs at least {2 * order + 2} samples, got {n}"
        )
    mean = x.mean()
    xc = x - mean
    rows = n - order
    design = np.ones((rows, order + 1))
    for lag in range(1, order + 1):
        design[:, lag] = xc[order - lag : n - lag]
    target = xc[order:]
    beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    centered_intercept = float(beta[0])
    coeffs = tuple(float(b) for b in beta[1:])
    intercept = float(mean * (1.0 - sum_left_to_right(coeffs)) + centered_intercept)
    return ARModel(order=order, coefficients=coeffs, intercept=intercept)


def oracle_ar_forecast(model: ARModel, history: list[float], horizon: int) -> list[float]:
    """The earlier ``ar_forecast``, verbatim but for its ``sum()``, spelt as
    Python 3.11 adds."""
    if horizon < 1:
        raise AnalyticsError(f"horizon must be >= 1, got {horizon}")
    if len(history) < model.order:
        raise InsufficientDataError(
            f"AR({model.order}) forecast needs {model.order} history samples, got {len(history)}"
        )
    window = list(history[-model.order :])
    out: list[float] = []
    for _ in range(horizon):
        nxt = model.intercept + sum_left_to_right(
            phi * window[-lag] for lag, phi in enumerate(model.coefficients, start=1)
        )
        out.append(nxt)
        window.append(nxt)
        window = window[-model.order :]
    return out


def outcome(fn, *args):
    """The value ``fn`` returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except AnalyticsError as exc:
        return type(exc)


def make_series(shape: str, n: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    level = rng.choice([0.0, 1.0, -3.5, 60.0, 1e6 * rng.random(), rng.gauss(0, 100)])
    if shape == "constant":
        return [level] * n
    if shape == "two-valued":
        other = level + rng.choice([1.0, 1e-3, 2.0 ** -40, rng.gauss(0, 10)])
        return [rng.choice((level, other)) for _ in range(n)]
    if shape == "near-constant":
        return [level + rng.uniform(-1e-12, 1e-12) for _ in range(n)]
    return [rng.gauss(level, rng.choice([1e-6, 1.0, 50.0])) for _ in range(n)]


SERIES_SHAPES = ("constant", "two-valued", "near-constant", "gaussian")


@st.composite
def ar_cases(draw):
    order = draw(st.integers(1, 3))
    n = draw(st.integers(2 * order + 1, 600))
    shape = draw(st.sampled_from(SERIES_SHAPES))
    return make_series(shape, n, draw(st.integers(0, 2**32 - 1))), order


class TestArKernelMatchesEarlierFormulation:
    @settings(max_examples=400, deadline=None)
    @given(case=ar_cases(), horizon=st.integers(1, 8))
    def test_fit_and_forecast_bit_identical(self, case, horizon):
        series, order = case
        model = outcome(ar_fit, series, order)
        assert model == outcome(oracle_ar_fit, series, order)
        if not isinstance(model, ARModel):
            assert len(series) < 2 * order + 2
            return
        numbers = [*model.coefficients, model.intercept]
        assert all(type(v) is float for v in numbers)
        forecast = ar_forecast(model, series, horizon)
        assert forecast == oracle_ar_forecast(model, series, horizon)
        assert all(type(v) is float for v in forecast)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_same_error_on_non_finite_input(self, order, bad):
        for n in (2 * order + 1, 2 * order + 2, 50):
            series = make_series("gaussian", n, seed=n)
            series[n // 2] = bad
            assert outcome(ar_fit, series, order) is InvalidSeriesError
            assert outcome(oracle_ar_fit, series, order) is InvalidSeriesError

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_same_error_on_short_input(self, order):
        for n in range(2 * order + 2):
            series = make_series("gaussian", n, seed=n)
            assert outcome(ar_fit, series, order) is outcome(oracle_ar_fit, series, order)
            assert outcome(ar_fit, series, order) in (InsufficientDataError, AnalyticsError)


class TestArInterceptSum:
    """The intercept adds the coefficients left to right, as the forecast
    adds its terms, so a compensated ``sum()`` (Python 3.12 on) or a plain
    one (up to 3.11) leaves every fit as it is."""

    SERIES = [make_series("gaussian", 24 + seed % 40, seed) for seed in range(400)]

    @pytest.mark.parametrize("shadow", [math.fsum, sum_left_to_right], ids=["fsum", "left_to_right"])
    def test_ar3_fits_unchanged_with_sum_shadowed(self, shadow):
        fits = [ar_fit(series, 3) for series in self.SERIES]
        rows = self.SERIES[::40]  # ten series of 24 samples
        stacked = ar_forecast_max_rows(rows, 3, 6)
        with mock.patch.object(analytics, "sum", shadow, create=True):
            assert [ar_fit(series, 3) for series in self.SERIES] == fits
            assert ar_forecast_max_rows(rows, 3, 6) == stacked


class TestArForecastMaxMatchesEarlierFormulation:
    """``ar_forecast_max`` is the maximum of the earlier fit-then-forecast."""

    @staticmethod
    def oracle(series, order, horizon):
        return max(oracle_ar_forecast(oracle_ar_fit(series, order), series, horizon))

    @settings(max_examples=400, deadline=None)
    @given(case=ar_cases(), horizon=st.integers(1, 12))
    def test_bit_identical(self, case, horizon):
        series, order = case
        got = outcome(ar_forecast_max, series, order, horizon)
        assert got == outcome(self.oracle, series, order, horizon)
        if isinstance(got, type):
            assert len(series) < 2 * order + 2
        else:
            assert type(got) is float
            assert got == ar_forecast_max(np.asarray(series), order, horizon)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_same_error_on_non_finite_input(self, order, bad):
        for n in (2 * order + 1, 2 * order + 2, 50):
            series = make_series("gaussian", n, seed=n)
            series[n // 2] = bad
            assert outcome(ar_forecast_max, series, order, 4) is InvalidSeriesError
            assert outcome(self.oracle, series, order, 4) is InvalidSeriesError

    def test_finite_values_whose_sum_overflows_fail_as_before(self):
        # No value is non-finite, but the mean overflows and the solve fails on it.
        series = [1e308, 1.5e308, 1.2e308, 1.7e308, 1.1e308, 1.6e308]
        with np.errstate(all="ignore"):
            for fn in (ar_forecast_max, self.oracle):
                with pytest.raises(np.linalg.LinAlgError):
                    fn(series, 1, 3)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_same_error_on_short_input(self, order):
        for n in range(2 * order + 2):
            series = make_series("gaussian", n, seed=n)
            got = outcome(ar_forecast_max, series, order, 4)
            assert got is outcome(self.oracle, series, order, 4)
            assert got in (InsufficientDataError, AnalyticsError)

    def test_horizon_below_one_rejected(self):
        series = make_series("gaussian", 40, seed=1)
        assert outcome(ar_forecast_max, series, 2, 0) is outcome(self.oracle, series, 2, 0)
        assert outcome(ar_forecast_max, series, 2, 0) is AnalyticsError


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def poisoned(series: list[float], bad: float | None, at: int) -> list[float]:
    """The series with ``bad`` written over one sample, or unchanged if ``bad`` is None."""
    if bad is None:
        return series
    series = list(series)
    series[at % len(series)] = bad
    return series


@st.composite
def ar_stacks(draw):
    """One to five equal-length series of any shapes, some with a non-finite sample."""
    order = draw(st.integers(1, 3))
    n = draw(st.integers(2 * order + 1, 600))
    rows = [
        poisoned(
            make_series(draw(st.sampled_from(SERIES_SHAPES)), n, draw(st.integers(0, 2**32 - 1))),
            draw(st.one_of(st.none(), st.none(), st.sampled_from(NON_FINITE))),
            draw(st.integers(0, n - 1)),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    return rows, order


class TestStackedArKernel:
    """``ar_forecast_max_rows`` solves several series in one LAPACK call, and
    gives each the earlier fit-then-forecast maximum, or None if it holds a
    non-finite value."""

    oracle = staticmethod(TestArForecastMaxMatchesEarlierFormulation.oracle)

    def expected(self, rows, order, horizon):
        return [None if outcome(self.oracle, row, order, horizon) is InvalidSeriesError
                else self.oracle(row, order, horizon) for row in rows]

    @settings(max_examples=300, deadline=None)
    @given(case=ar_stacks(), horizon=st.integers(1, 12))
    def test_each_row_bit_identical_to_the_oracle(self, case, horizon):
        rows, order = case
        got = outcome(ar_forecast_max_rows, rows, order, horizon)
        if all(not np.isfinite(row).all() for row in rows) or len(rows[0]) >= 2 * order + 2:
            assert got == self.expected(rows, order, horizon)
            assert all(type(v) is float for v in got if v is not None)
        else:
            assert got is InsufficientDataError

    @pytest.mark.parametrize("n", [20, 168, 512])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", SERIES_SHAPES)
    def test_every_shape_and_stack_height(self, shape, k, n):
        # Row 1 of a stack of two or more holds a nan, and gives None alone.
        rows = [make_series(shape, n, seed=31 * k + i) for i in range(k)]
        if k > 1:
            rows[1] = poisoned(rows[1], float("nan"), n // 3)
        got = ar_forecast_max_rows([np.asarray(row) for row in rows], 2, 6)
        assert got == self.expected(rows, 2, 6)
        assert [v is None for v in got] == [i == 1 for i in range(k)]

    def test_one_call_for_the_whole_stack(self, monkeypatch):
        calls = []
        gelsd = analytics._gelsd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return gelsd(a, *args, **kwargs)

        monkeypatch.setattr(analytics, "_gelsd", counted)
        rows = [make_series("gaussian", 40, seed=i) for i in range(5)]
        rows[2] = poisoned(rows[2], float("inf"), 7)
        ar_forecast_max_rows(rows, 2, 4)
        assert calls == [(4, 38, 3)]  # the four finite rows, each a (rows, order + 1) design
        calls.clear()
        assert ar_forecast_max_rows([rows[2]], 2, 4) == [None]
        assert calls == []

    def test_finite_values_whose_sum_overflows_fail_the_stack(self):
        series = [1e308, 1.5e308, 1.2e308, 1.7e308, 1.1e308, 1.6e308]
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            ar_forecast_max_rows([make_series("gaussian", 6, seed=1), series], 1, 3)

    def test_errors_before_the_solve(self):
        rows = [make_series("gaussian", 20, seed=i) for i in range(3)]
        assert outcome(ar_forecast_max_rows, rows, 0, 4) is AnalyticsError
        assert outcome(ar_forecast_max_rows, [rows[0], np.ones((4, 5))], 2, 4) is InvalidSeriesError
        assert outcome(ar_forecast_max_rows, rows, 2, 0) is AnalyticsError
        short = [row[:5] for row in rows]
        assert outcome(ar_forecast_max_rows, short, 2, 4) is InsufficientDataError
        assert ar_forecast_max_rows([poisoned(row, float("nan"), 0) for row in short], 2, 4) == [None] * 3

    def test_rows_of_unequal_lengths_are_named(self):
        with pytest.raises(InvalidSeriesError, match=r"unequal lengths \[10, 12\]"):
            ar_forecast_max_rows([np.arange(10.0), np.arange(12.0)], 2, 6)
        with pytest.raises(InvalidSeriesError, match=r"unequal lengths \[20, 20, 19\]"):
            ar_forecast_max_rows([make_series("gaussian", n, seed=n) for n in (20, 20, 19)], 2, 6)

    def test_no_rows_give_no_forecasts_and_no_solve(self):
        calls = []
        with mock.patch.object(analytics, "_gelsd", lambda *args, **kwargs: calls.append(args)):
            assert ar_forecast_max_rows([], 2, 6) == []
            assert ar_forecast_max_rows(np.empty((0, 40)), 2, 6) == []
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(case=ar_stacks(), horizon=st.integers(1, 12), pad=st.integers(0, 3))
    def test_views_lists_and_one_array_agree(self, case, horizon, pad):
        # The same rows as views into a wider buffer, as lists and as one 2-D array.
        rows, order = case
        n = len(rows[0])
        assume(n >= 2 * order + 2 and any(np.isfinite(row).all() for row in rows))
        buffer = np.zeros((len(rows), n + 2 * pad))
        buffer[:, pad : pad + n] = rows
        calls = []
        gelsd = analytics._gelsd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return gelsd(a, *args, **kwargs)

        results = []
        with mock.patch.object(analytics, "_gelsd", counted):
            for form in (list(buffer[:, pad : pad + n]), rows, np.array(rows)):
                calls.clear()
                results.append(ar_forecast_max_rows(form, order, horizon))
                assert len(calls) == 1
        assert results[0] == results[1] == results[2]


FLAT_VALUES = [0.0, -0.0, 5e-324, 1e-310, 0.5, 20.0, 0.4, -3.5, 1e300, math.inf, -math.inf, math.nan]


def solver_mean(window) -> float:
    """The mean the solver centres a series by: its ``np.add.reduce`` over a stack, over its length."""
    return float(np.add.reduce(np.array([window]), axis=1)[0]) / len(window)


class TestFlatForecast:
    """A window of one finite value whose solver mean is that value has the
    forecast maximum ``v + 0.0``, which ``flat_forecast_max`` gives without a
    solve and bit for bit as ``ar_forecast_max_rows`` computes it."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_the_solver_on_every_length(self, order):
        # Each window is a view into a wider buffer whose other columns are
        # not the window's value; each is solved alone and in one stack.
        width, pad = 512, 3
        buffer = np.full((len(FLAT_VALUES), width + 2 * pad), 7.25)
        inexact = {v: 0 for v in FLAT_VALUES if math.isfinite(v)}
        for n in range(2 * order + 1, width + 1):
            for row, v in zip(buffer, FLAT_VALUES):
                row[pad : pad + n] = v
            windows = list(buffer[:, pad : pad + n])
            got = [flat_forecast_max(w, order) for w in windows]
            if n < 2 * order + 2:
                assert got == [None] * len(windows)
                assert outcome(ar_forecast_max_rows, windows[:1], order, 1) is InsufficientDataError
                continue
            for horizon in (1, 6):
                stacked = ar_forecast_max_rows(windows, order, horizon)
                for w, v, top, solved in zip(windows, FLAT_VALUES, got, stacked):
                    flat = math.isfinite(v) and solver_mean(w) == v
                    assert (top is not None) == flat, (v, n)
                    if flat:
                        (alone,) = ar_forecast_max_rows([w], order, horizon)
                        assert repr(top) == repr(solved) == repr(alone) == repr(v + 0.0), (v, n, horizon)
                    elif math.isfinite(v) and horizon == 1:
                        inexact[v] += 1
        # 0.4 and 1e300 times a length may round, so their means are sometimes
        # inexact; the dyadic values, zeros and subnormals never are.
        assert inexact[0.4] > 0 and inexact[1e300] > 0
        assert all(inexact[v] == 0 for v in (0.0, -0.0, 5e-324, 1e-310, 0.5, 20.0, -3.5))

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [6, 7, 40, 512])
    def test_one_other_value_anywhere_is_not_flat(self, order, n):
        for at in (0, n // 2, n - 1):
            for other in (20.5, -0.5, math.nan, math.inf):
                window = np.full(n, 20.0)
                window[at] = other
                assert flat_forecast_max(window, order) is None, (at, other)

    @pytest.mark.parametrize("n", [6, 9, 64])
    def test_mixed_signed_zeros_are_flat(self, n):
        window = np.zeros(n)
        window[1::2] = -0.0
        for start in (window, -window):
            for horizon in (1, 6):
                (solved,) = ar_forecast_max_rows([start], 2, horizon)
                assert repr(flat_forecast_max(start, 2)) == repr(solved) == "0.0"

    def test_inexact_mean_is_not_flat(self):
        window = np.full(7, 0.4)
        assert solver_mean(window) != 0.4
        assert flat_forecast_max(window, 2) is None
        assert flat_forecast_max(np.full(8, 0.4), 2) == 0.4  # 8 x 0.4 sums exactly
