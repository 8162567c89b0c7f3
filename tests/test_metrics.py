import numpy as np
import pytest

from dualpath.metrics import (
    DailyScores,
    aggregate_metrics,
    build_portfolio_return,
    format_report,
    information_coefficient,
    max_drawdown,
    run_backtest,
)
from dualpath.numerics import NumericError, ParameterError


def day(scores, returns, idx=0):
    return DailyScores(day_index=idx, scores=np.array(scores, float), realized_returns=np.array(returns, float))


# -- portfolio construction ---------------------------------------------------


def test_portfolio_full_universe_is_mean():
    d = day([3.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert abs(build_portfolio_return(d, 1.0) - 0.2) < 1e-15


def test_portfolio_single_pick_takes_best_score():
    d = day([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.7])
    assert build_portfolio_return(d, 0.25) == 0.7


def test_portfolio_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        scores = rng.standard_normal(5)
        returns = rng.standard_normal(5) * 0.02
        d = day(scores, returns)
        got = build_portfolio_return(d, 0.4)  # k = 2
        order = sorted(range(5), key=lambda i: (-scores[i], i))
        expected = (returns[order[0]] + returns[order[1]]) / 2.0
        assert abs(got - expected) < 1e-15


def test_portfolio_tie_break_lower_index():
    d = day([1.0, 1.0, 1.0], [0.5, 0.1, 0.2])
    assert build_portfolio_return(d, 1 / 3) == 0.5


def test_portfolio_rejects_bad_fraction():
    d = day([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ParameterError):
        build_portfolio_return(d, 0.0)
    with pytest.raises(ParameterError):
        build_portfolio_return(d, 1.5)


# -- information coefficient ---------------------------------------------


def test_ic_perfect_scores():
    days = [day([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], i) for i in range(3)]
    assert abs(information_coefficient(days) - 1.0) < 1e-12


def test_ic_anti_scores():
    days = [day([0.3, 0.2, 0.1], [-0.3, -0.2, -0.1], i) for i in range(3)]
    assert abs(information_coefficient(days) + 1.0) < 1e-12


def test_ic_hand_built_half():
    perfect = day([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], 0)
    # orthogonal pattern: correlation exactly 0
    flat = day([1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], 1)
    assert abs(information_coefficient([perfect, flat]) - 0.5) < 1e-12


def test_ic_skips_degenerate_days():
    good = day([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0)
    degenerate = day([1.0, 1.0, 1.0], [0.3, 0.2, 0.1], 1)
    assert abs(information_coefficient([good, degenerate]) - 1.0) < 1e-12


def test_ic_all_degenerate_is_numeric_error():
    days = [day([1.0, 1.0], [0.5, 0.5], i) for i in range(2)]
    with pytest.raises(NumericError):
        information_coefficient(days)


def test_ic_affine_score_invariance():
    rng = np.random.default_rng(1)
    days = [day(rng.standard_normal(6), rng.standard_normal(6), i) for i in range(4)]
    base = information_coefficient(days)
    rescaled = [
        day(3.5 * d.scores + 2.0, d.realized_returns, d.day_index) for d in days
    ]
    assert abs(information_coefficient(rescaled) - base) < 1e-12


# -- aggregate metrics --------------------------------------------------------


def test_constant_positive_returns():
    report = aggregate_metrics(np.full(240, 0.01))
    assert abs(report.pnl - 2.4) < 1e-12
    assert abs(report.ar - 2.4) < 1e-12
    assert report.vol == 0.0
    assert report.mdd == 0.0
    assert report.winr == 1.0
    assert report.sharpe is None
    assert report.calmar is None
    assert report.pl_ratio is None


def test_hand_walked_example():
    report = aggregate_metrics(np.array([0.1, -0.2, 0.05]))
    assert abs(report.pnl - (-0.05)) < 1e-12
    assert abs(report.mdd - 0.2) < 1e-12
    assert abs(report.winr - 2 / 3) < 1e-12
    assert abs(report.pl_ratio - 0.375) < 1e-12
    assert abs(report.ar - 240 / 3 * (-0.05)) < 1e-12
    # Calmar is annualized return over drawdown: -4.0 / 0.2
    assert abs(report.calmar - (-20.0)) < 1e-12


def test_sign_flip_symmetry():
    rng = np.random.default_rng(2)
    r = rng.standard_normal(30) * 0.02
    a = aggregate_metrics(r)
    b = aggregate_metrics(-r)
    assert abs(a.vol - b.vol) < 1e-15
    assert abs(a.pnl + b.pnl) < 1e-15
    assert abs(a.ar + b.ar) < 1e-15


def test_pnl_ar_consistency():
    rng = np.random.default_rng(3)
    for n in (2, 7, 240, 355):
        r = rng.standard_normal(n) * 0.01
        report = aggregate_metrics(r)
        assert abs(report.pnl - report.ar * n / 240.0) < 1e-12


def test_mdd_initial_loss_counts():
    assert abs(max_drawdown(np.array([-0.1, 0.2])) - 0.1) < 1e-15


def test_mdd_invariant_under_rising_tail():
    base = np.array([0.1, -0.2, 0.05])
    extended = np.concatenate([base, [0.3, 0.4, 0.5]])
    assert max_drawdown(base) == max_drawdown(extended)


def test_winr_bounds_and_pl_positive():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.standard_normal(15) * 0.05
        report = aggregate_metrics(r)
        assert 0.0 <= report.winr <= 1.0
        if report.pl_ratio is not None:
            assert report.pl_ratio > 0.0
        assert report.mdd >= 0.0


def test_aggregate_rejects_short_series():
    with pytest.raises(ParameterError):
        aggregate_metrics(np.array([0.1]))


def test_aggregate_rejects_nonfinite():
    with pytest.raises(NumericError):
        aggregate_metrics(np.array([0.1, np.nan]))


def test_run_backtest_fills_ic_and_pnl_sums():
    rng = np.random.default_rng(5)
    days = [day(rng.standard_normal(10), rng.standard_normal(10) * 0.02, i) for i in range(6)]
    report = run_backtest(days, top_frac=0.3)
    assert report.ic is not None
    assert abs(report.pnl - report.daily_returns.sum()) < 1e-9
    assert len(report.daily_returns) == 6


def test_format_report_keys_exact():
    report = aggregate_metrics(np.full(240, 0.01))
    text = format_report(report)
    keys = [line.split("=")[0] for line in text.strip().splitlines()]
    assert keys == ["IC", "PNL", "A_RET", "A_VOL", "MAXD", "SHARPE", "CALMAR", "WINR", "PL"]
    assert "SHARPE=n/a" in text
    assert "CALMAR=n/a" in text
    assert "PL=n/a" in text


def test_daily_scores_validation():
    with pytest.raises(ParameterError):
        DailyScores(0, np.zeros(3), np.zeros(4))
    with pytest.raises(NumericError):
        DailyScores(0, np.array([np.inf, 0.0]), np.zeros(2))
