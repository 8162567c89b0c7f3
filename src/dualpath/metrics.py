"""Cross-sectional backtest engine.

Scores become a daily long-only portfolio (equal weight in the top
fraction of nodes, full rebalance each day) whose return series feeds
the aggregate report: IC, PNL, annualized return and volatility, max
drawdown, Sharpe, Calmar, win rate and profit/loss ratio. A 240-day
trading year is assumed throughout. Ratios whose denominator is zero
(flat returns, no drawdown, no losing days) are reported as None rather
than NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import NumericError, ParameterError

TRADING_DAYS_PER_YEAR = 240


@dataclass(frozen=True)
class DailyScores:
    """One day's cross-section: prediction scores and realized next-period returns."""

    day_index: int
    scores: np.ndarray
    realized_returns: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        realized = np.asarray(self.realized_returns, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "realized_returns", realized)
        if scores.shape != realized.shape or scores.ndim != 1:
            raise ParameterError(
                f"scores {scores.shape} and returns {realized.shape} must be equal-length vectors"
            )
        if not (np.isfinite(scores).all() and np.isfinite(realized).all()):
            raise NumericError(f"day {self.day_index}: non-finite scores or returns")


@dataclass(frozen=True)
class BacktestReport:
    daily_returns: np.ndarray
    ic: float | None
    pnl: float
    ar: float
    vol: float
    mdd: float
    sharpe: float | None
    calmar: float | None
    winr: float
    pl_ratio: float | None


def build_portfolio_return(day: DailyScores, top_frac: float) -> float:
    """Equal-weighted mean realized return of the ceil(top_frac * N) best-scored nodes.

    Ties keep the lower node index, so selection is deterministic.
    """
    if not 0.0 < top_frac <= 1.0:
        raise ParameterError(f"top_frac must lie in (0, 1], got {top_frac}")
    n = day.scores.shape[0]
    if n == 0:
        raise ParameterError("empty cross-section")
    k = math.ceil(top_frac * n)
    picked = np.argsort(-day.scores, kind="stable")[:k]
    return float(day.realized_returns[picked].mean())


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Plain cross-sectional Pearson; None when either side is constant."""
    va = np.var(a)
    vb = np.var(b)
    if va == 0.0 or vb == 0.0:
        return None
    ac = a - a.mean()
    bc = b - b.mean()
    return float((ac * bc).sum() / np.sqrt((ac * ac).sum() * (bc * bc).sum()))


def information_coefficient(days: list[DailyScores]) -> float:
    """Mean over days of cross-sectional Pearson(scores, realized returns).

    Zero-variance days are skipped; if every day is degenerate there is
    no correlation to report and a NumericError is raised.
    """
    if not days:
        raise ParameterError("information_coefficient needs at least one day")
    values = []
    for day in days:
        if day.scores.shape[0] < 2:
            raise ParameterError(f"day {day.day_index}: cross-section needs >= 2 nodes")
        r = _pearson(day.scores, day.realized_returns)
        if r is not None:
            values.append(r)
    if not values:
        raise NumericError("all days have zero cross-sectional variance")
    return float(np.mean(values))


def max_drawdown(returns: np.ndarray) -> float:
    """Largest peak-to-trough decline of the cumulative-sum PNL curve.

    The curve starts at 0 before the first day, so an initial loss
    counts as a drawdown.
    """
    cum = np.concatenate([[0.0], np.cumsum(returns)])
    peaks = np.maximum.accumulate(cum)
    return float((peaks - cum).max())


def aggregate_metrics(returns) -> BacktestReport:
    """Fold a daily portfolio-return series into the nine-metric report.

    Volatility uses the population standard deviation. Calmar is the
    annualized return A_RET over the maximum drawdown. Sharpe, Calmar
    and the profit/loss ratio come back as None when their denominator
    (volatility, drawdown, losing days) vanishes.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.ndim != 1 or r.shape[0] < 2:
        raise ParameterError(f"need a vector of >= 2 daily returns, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise NumericError("daily returns contain non-finite values")
    n_days = r.shape[0]
    annual = float(TRADING_DAYS_PER_YEAR)

    pnl = float(r.sum())
    ar = annual / n_days * pnl
    sigma = float(r.std())
    vol = sigma * math.sqrt(annual)
    mdd = max_drawdown(r)
    mu = float(r.mean())
    sharpe = mu / sigma * math.sqrt(annual) if sigma > 0.0 else None
    calmar = ar / mdd if mdd > 0.0 else None

    wins = r[r > 0.0]
    losses = r[r < 0.0]
    winr = wins.shape[0] / n_days
    if wins.shape[0] > 0 and losses.shape[0] > 0:
        pl_ratio = float(wins.mean() / abs(losses.mean()))
    else:
        pl_ratio = None

    # ic needs the per-day score data; run_backtest fills it in
    return BacktestReport(
        daily_returns=r,
        ic=None,
        pnl=pnl,
        ar=ar,
        vol=vol,
        mdd=mdd,
        sharpe=sharpe,
        calmar=calmar,
        winr=winr,
        pl_ratio=pl_ratio,
    )


def run_backtest(days: list[DailyScores], top_frac: float = 0.1) -> BacktestReport:
    """Portfolio construction + aggregation + IC over a list of scored days."""
    returns = np.array([build_portfolio_return(day, top_frac) for day in days])
    report = aggregate_metrics(returns)
    return replace(report, ic=information_coefficient(days))


def format_report(report: BacktestReport) -> str:
    """Flat key=value text block; absent ratios print as n/a."""

    def fmt(value: float | None) -> str:
        return "n/a" if value is None else repr(float(value))

    lines = [
        f"IC={fmt(report.ic)}",
        f"PNL={fmt(report.pnl)}",
        f"A_RET={fmt(report.ar)}",
        f"A_VOL={fmt(report.vol)}",
        f"MAXD={fmt(report.mdd)}",
        f"SHARPE={fmt(report.sharpe)}",
        f"CALMAR={fmt(report.calmar)}",
        f"WINR={fmt(report.winr)}",
        f"PL={fmt(report.pl_ratio)}",
    ]
    return "\n".join(lines) + "\n"
