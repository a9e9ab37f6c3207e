"""Hydrological features and per-sensor forecasting.

Rain-event segmentation, the global intensity-duration threshold of Caine
(1980), and autoregressive value prediction used by the alert engine's
"predicted" pathway.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

CAINE_COEFF = 14.82
CAINE_EXPONENT = -0.39
CAINE_D_MIN_H = 0.167  # open interval bounds, in hours
CAINE_D_MAX_H = 500.0


# LAPACK's least-squares solver over a stack of matrices (numpy >= 2.0).
_gelsd = _umath_linalg.lstsq
_EPS = float(np.finfo(float).eps)


class AnalyticsError(ValueError):
    pass


class InvalidSeriesError(AnalyticsError):
    """Input series unordered or containing non-finite values."""


class InsufficientDataError(AnalyticsError):
    """Series too short for the requested model order or horizon."""


class CaineDomainError(AnalyticsError):
    """Duration outside the curve's published validity range."""


# ---------------------------------------------------------------------------
# Rainfall features
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RainEvent:
    """A maximal wet period bounded by dry gaps.

    Samples are accumulation totals over the preceding sampling interval,
    so an event opens one interval before its first wet sample.
    """

    start: float
    end: float
    total_mm: float

    @property
    def duration_h(self) -> float:
        return (self.end - self.start) / 3600.0

    @property
    def mean_intensity_mm_per_h(self) -> float:
        return self.total_mm / self.duration_h


def _check_ordered(series: list[tuple[float, float]]) -> None:
    for (t1, _), (t2, _) in zip(series, series[1:]):
        if t2 < t1:
            raise InvalidSeriesError(f"rain series not time-ordered at t={t2}")


def _check_dry_gap(dry_gap: float) -> None:
    if dry_gap <= 0:
        raise AnalyticsError(f"dry_gap must be positive, got {dry_gap}")


def median_of_sorted(values: list[float]) -> float:
    """Median of a non-empty sorted list, by ``statistics.median``'s formula:
    the middle value, or the mean of the two middle values."""
    n = len(values)
    if n % 2 == 1:
        return values[n // 2]
    return (values[n // 2 - 1] + values[n // 2]) / 2


def _infer_interval(series: list[tuple[float, float]]) -> float:
    gaps = sorted(t2 - t1 for (t1, _), (t2, _) in zip(series, series[1:]) if t2 > t1)
    return median_of_sorted(gaps) if gaps else 3600.0


def segment_events(rain: list[tuple[float, float]], dry_gap: float) -> list[RainEvent]:
    """Split a (timestamp, mm) series into rain events.

    Two wet samples belong to the same event unless the zero-rain span
    between them reaches ``dry_gap`` seconds. Every nonzero sample lands in
    exactly one event, so event totals sum to the series total.
    """
    _check_dry_gap(dry_gap)
    _check_ordered(rain)
    wet = [(t, mm) for t, mm in rain if mm > 0]
    if not wet:
        return []
    interval = _infer_interval(rain)
    events: list[RainEvent] = []
    run_start, _ = wet[0]
    run_total = 0.0
    last_t = None
    for t, mm in wet:
        if last_t is not None and (t - last_t) - interval >= dry_gap:
            events.append(RainEvent(start=run_start - interval, end=last_t, total_mm=run_total))
            run_start, run_total = t, 0.0
        run_total += mm
        last_t = t
    events.append(RainEvent(start=run_start - interval, end=last_t, total_mm=run_total))
    return events


def last_event(times: np.ndarray, mm: np.ndarray, dry_gap: float, interval: float) -> tuple[float, float, float] | None:
    """(first wet time, last wet time, total mm) of a time-ordered series' last rain event.

    The event is the last run of wet (mm > 0) samples with no dry span of
    ``dry_gap`` or more between neighbours, as ``segment_events`` splits
    them, found with array operations over the two float rows. None if no
    sample is wet. Neither order nor ``dry_gap`` is checked.
    """
    wet = (mm > 0).nonzero()[0]
    if not wet.size:
        return None
    t = times.take(wet)
    # Dry time between neighbouring wet samples, as segment_events computes it.
    dry = t[1:] - t[:-1]
    dry -= interval
    splits = (dry >= dry_gap).nonzero()[0]
    first = int(splits[-1]) + 1 if splits.size else 0
    # cumsum adds left to right, as the event's running total always has.
    total = float(mm.take(wet[first:]).cumsum()[-1])
    return float(t[first]), float(t[-1]), total


# ---------------------------------------------------------------------------
# Intensity-duration threshold
# ---------------------------------------------------------------------------


def caine_threshold(duration_h: float) -> float:
    """Critical mean rainfall intensity (mm/h) for a storm of the given duration.

    Caine's 1980 worldwide curve I = 14.82 * D^-0.39, valid on the open
    interval 0.167 h < D < 500 h. Outside it the curve has no support and
    a CaineDomainError is raised rather than clamping.
    """
    if not CAINE_D_MIN_H < duration_h < CAINE_D_MAX_H:
        raise CaineDomainError(
            f"duration {duration_h} h outside the curve domain ({CAINE_D_MIN_H}, {CAINE_D_MAX_H})"
        )
    return CAINE_COEFF * duration_h**CAINE_EXPONENT


def exceeds_caine(event: RainEvent) -> bool | None:
    """Whether the event's mean intensity reaches or exceeds the curve.

    Returns None (not applicable) when the duration is outside the curve
    domain. The domain is checked here rather than by catching
    ``caine_threshold``'s error: a long storm outlasts the curve on every
    batch it is judged in.
    """
    duration_h = event.duration_h
    if not CAINE_D_MIN_H < duration_h < CAINE_D_MAX_H:
        return None
    return event.mean_intensity_mm_per_h >= CAINE_COEFF * duration_h**CAINE_EXPONENT


# ---------------------------------------------------------------------------
# Autoregressive prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ARModel:
    """AR(p) with intercept: x_t = c + sum_i phi_i * x_{t-i}."""

    order: int
    coefficients: tuple[float, ...]  # phi_1 .. phi_p (lag-1 first)
    intercept: float

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.order:
            raise AnalyticsError(
                f"AR order {self.order} but {len(self.coefficients)} coefficients"
            )


def _raise_svd_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _finite_rows(series: list, order: int) -> tuple[np.ndarray, np.ndarray, Sequence[int]]:
    """Check equal-length series and stack those with no non-finite value.

    Several series are stacked with one copy, ``np.array(series)``; a
    single series as a view of itself, and none as an empty stack. Returns
    the stack, the sum of each of its rows (one ``np.add.reduce``) and the
    indices in ``series`` of its rows.
    """
    if order < 1:
        raise AnalyticsError(f"order must be >= 1, got {order}")
    if not len(series):
        return np.empty((0, 0)), np.empty(0), ()
    try:
        x = np.asarray(series[0], dtype=float)[None] if len(series) == 1 else np.array(series, dtype=float)
    except ValueError:
        # Ragged: a row that is not 1-D, or rows of unequal lengths.
        rows = [np.asarray(s, dtype=float) for s in series]
        if any(row.ndim != 1 for row in rows):
            raise InvalidSeriesError("series must be one-dimensional") from None
        raise InvalidSeriesError(f"series of unequal lengths {[row.size for row in rows]}") from None
    if x.ndim != 2:
        raise InvalidSeriesError("series must be one-dimensional")
    totals = np.add.reduce(x, axis=1)
    # A finite sum has no inf or nan among its terms; only overflow needs the full scan.
    if all(map(math.isfinite, totals.tolist())):
        return x, totals, range(len(x))
    finite = np.isfinite(x).all(axis=1)
    return x[finite], totals[finite], finite.nonzero()[0].tolist()


# lstsq's error handling, over the whole solve: an SVD that does not converge
# raises LinAlgError. As a decorator, the errstate is made once, at import.
@np.errstate(call=_raise_svd_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _ar_solve(x: np.ndarray, totals: np.ndarray, order: int) -> list[list[float]]:
    """Centre each row of ``x`` and solve its AR(p) least-squares problem.

    ``totals`` holds the rows' sums. All rows are solved in one call of
    the LAPACK ``gelsd`` gufunc that ``np.linalg.lstsq`` runs once per
    matrix, over the stack of their designs, with ``lstsq``'s ``rcond`` and
    error handling; each solution is bit for bit the one ``lstsq`` gives
    for its row alone. Rows are mean-centered before solving, which keeps
    constant series exactly reproducible and leaves rank-deficient designs
    to the minimum-norm solution of the centered problem. The designs are
    built as ``(order + 1, rows)`` C arrays and handed over transposed, so
    LAPACK's column-major copy of each is a contiguous one.

    Returns each row's model as ``[intercept, phi_1, .., phi_p]``, the
    intercept that of the uncentered series.
    """
    n = x.shape[1]
    if n < 2 * order + 2:
        raise InsufficientDataError(
            f"AR({order}) needs at least {2 * order + 2} samples, got {n}"
        )
    means = totals / n
    xc = x - means[:, None]
    rows = n - order
    design = np.empty((len(x), order + 1, rows))
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = xc[:, order - lag : n - lag]
    # lstsq's rcond=None is eps * max(rows, order + 1), and rows > order + 1.
    beta = _gelsd(design.transpose(0, 2, 1), xc[:, order:, None], _EPS * rows, signature="ddd->ddid")[0][..., 0]
    models = beta.tolist()
    for model, mean in zip(models, means.tolist()):
        # The coefficients are added left to right from 0.0, as _ar_recurse
        # adds its terms: from Python 3.12 on, sum() of floats is compensated.
        phi_sum = 0.0
        for phi in model[1:]:
            phi_sum += phi
        model[0] = mean * (1.0 - phi_sum) + model[0]
    return models


def ar_fit(series: list[float], order: int) -> ARModel:
    """Least-squares AR(p) fit over all usable rows of the series."""
    x, totals, finite = _finite_rows([series], order)
    if not finite:
        raise InvalidSeriesError("series contains non-finite values")
    ((intercept, *coefficients),) = _ar_solve(x, totals, order)
    return ARModel(order=order, coefficients=tuple(coefficients), intercept=intercept)


def _ar_recurse(models: list, windows: list[list[float]], horizon: int) -> list[float]:
    """Run each ``[intercept, phi_1, .., phi_p]`` model, all of one order p, ``horizon``
    steps on from its window (at least p values), feeding its predictions back;
    appends them to the windows and returns each one's largest."""
    # window[end - lag] is the lag-th newest value. The terms are added from
    # 0.0 (as from int 0) in lag order, the rounding the recorded alert
    # decisions were made with.
    lags = range(1, len(models[0]))
    tops = []
    for model, window in zip(models, windows):
        intercept = model[0]
        top = None
        for end in range(len(window), len(window) + horizon):
            acc = 0.0
            for lag in lags:
                acc += model[lag] * window[end - lag]
            nxt = intercept + acc
            window.append(nxt)
            # max()'s choice: the first prediction, then any greater one.
            if top is None or nxt > top:
                top = nxt
        tops.append(top)
    return tops


def ar_forecast(model: ARModel, history: list[float], horizon: int) -> list[float]:
    """Recursive h-step-ahead forecast, feeding predictions back as inputs."""
    if horizon < 1:
        raise AnalyticsError(f"horizon must be >= 1, got {horizon}")
    if len(history) < model.order:
        raise InsufficientDataError(
            f"AR({model.order}) forecast needs {model.order} history samples, got {len(history)}"
        )
    window = list(history[-model.order :])
    _ar_recurse([(model.intercept, *model.coefficients)], [window], horizon)
    return window[model.order :]


def ar_forecast_max_rows(series: list, order: int, horizon: int) -> list[float | None]:
    """Largest value of the h-step forecast from an AR(p) fit of each of several equal-length series.

    Item i is ``ar_forecast_max(series[i], order, horizon)``, bit for bit,
    or None if ``series[i]`` holds a non-finite value. The series are
    stacked with one copy (a single one is a view of itself), and every
    finite one is solved in one stacked LAPACK call and run on in one
    recursion; the errors are ``ar_forecast_max``'s, and series of unequal
    lengths raise ``InvalidSeriesError``. No series gives ``[]``.
    """
    x, totals, finite = _finite_rows(series, order)
    out: list[float | None] = [None] * len(series)
    if finite:
        models = _ar_solve(x, totals, order)
        if horizon < 1:
            raise AnalyticsError(f"horizon must be >= 1, got {horizon}")
        for i, top in zip(finite, _ar_recurse(models, x[:, -order:].tolist(), horizon)):
            out[i] = top
    return out


def ar_forecast_max(series: list[float] | np.ndarray, order: int, horizon: int) -> float:
    """Largest value of the h-step forecast from an AR(p) fit of the series.

    Equal, bit for bit, to ``max(ar_forecast(ar_fit(series, order), series,
    horizon))`` and raises the same errors, but computes no residuals and
    builds no model.
    """
    (top,) = ar_forecast_max_rows([series], order, horizon)
    if top is None:
        raise InvalidSeriesError("series contains non-finite values")
    return top
