"""Panel-data ingestion, windowing, chronological splits, synthetic markets.

A panel is a dense day x node x feature array plus a day x node array of
forward returns (the return realized over the next step). The final
`horizon` rows of the target array are unknowable inside the panel and
stay NaN; window anchors are chosen so those rows are never read.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import ParameterError


@dataclass
class PanelDataset:
    """Aligned (day x node x feature) panel with per-day forward-return targets."""

    dates: list[str]
    node_ids: list[str]
    feature_names: list[str]
    features: np.ndarray  # (n_days, n_nodes, n_features)
    targets: np.ndarray  # (n_days, n_nodes); trailing rows may be NaN

    def __post_init__(self):
        d, n, f = len(self.dates), len(self.node_ids), len(self.feature_names)
        if self.features.shape != (d, n, f):
            raise ParameterError(
                f"features shape {self.features.shape} does not match ({d}, {n}, {f})"
            )
        if self.targets.shape != (d, n):
            raise ParameterError(f"targets shape {self.targets.shape} does not match ({d}, {n})")
        if not np.isfinite(self.features).all():
            raise ParameterError("panel features contain missing values after ingestion")

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class WindowSample:
    """One training sample: lookback window x and forward target y.

    x covers days [d - T + 1, d]; y is built from returns realized over
    (d, d + t], so nothing in x postdates the anchor day.
    """

    x: np.ndarray  # (n_nodes, lookback, n_features)
    y: np.ndarray  # (n_nodes, horizon)
    day_index: int


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test day budget, as counts or fractions."""

    train: float = 0.7
    val: float = 0.15
    test: float = 0.15

    def resolve(self, n_days: int) -> tuple[int, int, int]:
        parts = (self.train, self.val, self.test)
        if all(isinstance(p, int) for p in parts):
            if sum(parts) != n_days:
                raise ParameterError(f"split day counts {parts} do not sum to {n_days}")
            if any(p < 0 for p in parts):
                raise ParameterError(f"split day counts must be non-negative: {parts}")
            return parts  # type: ignore[return-value]
        if any(p < 0 for p in parts) or sum(parts) > 1.0 + 1e-9:
            raise ParameterError(f"split fractions {parts} must be non-negative and sum to <= 1")
        n_val = int(math.floor(self.val * n_days))
        n_test = int(math.floor(self.test * n_days))
        n_train = n_days - n_val - n_test
        return n_train, n_val, n_test


@dataclass(frozen=True)
class CsvSchema:
    """Column layout and gap policy for panel CSV files."""

    date_col: str = "date"
    node_col: str = "node_id"
    target_col: str = "target"
    feature_cols: tuple[str, ...] | None = None  # None: every remaining column
    ffill_limit: int = 3
    max_missing_frac: float = 0.1


def load_panel_csv(path: str, schema: CsvSchema = CsvSchema()) -> PanelDataset:
    """Read a long-format CSV into a dense, gap-free panel.

    Rows may arrive in any order. Nodes missing more than
    `max_missing_frac` of days are dropped with a warning; remaining
    gaps are forward-filled up to `ffill_limit` consecutive days and
    anything worse is rejected. Targets are never filled: a missing
    target stays NaN and the day is simply not used as a window anchor.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParameterError(f"{path}: empty file") from None
            for col in (schema.date_col, schema.node_col, schema.target_col):
                if col not in header:
                    raise ParameterError(f"{path}: missing required column {col!r}")
            if schema.feature_cols is None:
                feature_names = [
                    c for c in header if c not in (schema.date_col, schema.node_col, schema.target_col)
                ]
            else:
                feature_names = list(schema.feature_cols)
                for col in feature_names:
                    if col not in header:
                        raise ParameterError(f"{path}: missing feature column {col!r}")
            idx = {c: header.index(c) for c in header}
            f_idx = [idx[c] for c in feature_names]
            d_idx, n_idx, t_idx = idx[schema.date_col], idx[schema.node_col], idx[schema.target_col]

            cells: dict[tuple[str, str], tuple[np.ndarray, float]] = {}
            for row in reader:
                if not row or all(not c.strip() for c in row):
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    raise ParameterError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
                date, node = row[d_idx].strip(), row[n_idx].strip()
                key = (date, node)
                if key in cells:
                    raise ParameterError(f"{path}:{line}: duplicate row for date={date} node={node}")
                feats = np.empty(len(feature_names))
                for j, col in enumerate(f_idx):
                    text = row[col].strip()
                    if text == "":
                        feats[j] = np.nan
                        continue
                    try:
                        feats[j] = float(text)
                    except ValueError:
                        raise ParameterError(
                            f"{path}:{line}: cannot parse {feature_names[j]}={row[col]!r}"
                        ) from None
                text = row[t_idx].strip()
                if text == "":
                    target = np.nan
                else:
                    try:
                        target = float(text)
                    except ValueError:
                        raise ParameterError(f"{path}:{line}: cannot parse target={row[t_idx]!r}") from None
                cells[key] = (feats, target)
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    except csv.Error as err:
        raise ParameterError(f"{path}:{reader.line_num}: {err}") from None

    if not cells:
        raise ParameterError(f"{path}: no data rows")
    dates = sorted({d for d, _ in cells}, key=_date_key)
    nodes = sorted({n for _, n in cells})
    day_of = {d: i for i, d in enumerate(dates)}
    node_of = {n: j for j, n in enumerate(nodes)}

    features = np.full((len(dates), len(nodes), len(feature_names)), np.nan)
    targets = np.full((len(dates), len(nodes)), np.nan)
    for (d, n), (feats, target) in cells.items():
        features[day_of[d], node_of[n]] = feats
        targets[day_of[d], node_of[n]] = target
    for values, columns in ((features, feature_names), (targets[..., None], [schema.target_col])):
        infinite = np.argwhere(np.isinf(values))
        if len(infinite):
            day, node, col = infinite[0]
            raise ParameterError(
                f"{path}: infinite value at date={dates[day]} node={nodes[node]} column {columns[col]!r}"
            )

    # drop nodes with too many gapped days before trying to fill anything
    missing_days = np.isnan(features).any(axis=2).sum(axis=0)
    keep = missing_days <= schema.max_missing_frac * len(dates)
    dropped = [n for n, ok in zip(nodes, keep) if not ok]
    if dropped:
        warnings.warn(f"excluding nodes with too many missing days: {dropped}", stacklevel=2)
        features = features[:, keep, :]
        targets = targets[:, keep]
        nodes = [n for n, ok in zip(nodes, keep) if ok]
    if not nodes:
        raise ParameterError(f"{path}: every node exceeded the missing-day threshold")

    _forward_fill(features, dates, nodes, schema.ffill_limit, path)
    return PanelDataset(
        dates=dates,
        node_ids=nodes,
        feature_names=feature_names,
        features=features,
        targets=targets,
    )


def _date_key(date: str):
    try:
        return (0, int(date), "")
    except ValueError:
        return (1, 0, date)


def _forward_fill(features: np.ndarray, dates, nodes, limit: int, path: str) -> None:
    """Fill feature gaps from the previous day, bounded by `limit` in a row."""
    gap = np.isnan(features)
    if not gap.any():
        return
    run = np.zeros(features.shape[1:], dtype=int)
    for d in range(features.shape[0]):
        day_gap = gap[d]
        run = np.where(day_gap, run + 1, 0)
        if (run > limit).any():
            n, f = np.argwhere(run > limit)[0]
            raise ParameterError(
                f"{path}: node {nodes[n]} feature #{f} gapped more than {limit} days ending {dates[d]}"
            )
        if d == 0 and day_gap.any():
            n, f = np.argwhere(day_gap)[0]
            raise ParameterError(f"{path}: node {nodes[n]} has no value to fill from on {dates[0]}")
        if day_gap.any():
            features[d][day_gap] = features[d - 1][day_gap]


def write_panel_csv(ds: PanelDataset, path: str) -> None:
    """Long-format export; NaN targets become empty cells. Byte-deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "node_id", *ds.feature_names, "target"])
        for d, date in enumerate(ds.dates):
            for n, node in enumerate(ds.node_ids):
                target = ds.targets[d, n]
                writer.writerow(
                    [
                        date,
                        node,
                        *[repr(float(v)) for v in ds.features[d, n]],
                        "" if np.isnan(target) else repr(float(target)),
                    ]
                )


def normalize_features(ds: PanelDataset, train_days: int) -> PanelDataset:
    """Z-score every feature using statistics from the first `train_days` days only."""
    if not 1 <= train_days <= ds.n_days:
        raise ParameterError(f"train_days {train_days} out of range [1, {ds.n_days}]")
    span = ds.features[:train_days].reshape(-1, ds.n_features)
    mu = span.mean(axis=0)
    sd = span.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return PanelDataset(
        dates=list(ds.dates),
        node_ids=list(ds.node_ids),
        feature_names=list(ds.feature_names),
        features=(ds.features - mu) / sd,
        targets=ds.targets.copy(),
    )


def make_windows(
    ds: PanelDataset, lookback: int, horizon: int, split: SplitSpec
) -> tuple[list[WindowSample], list[WindowSample], list[WindowSample]]:
    """One sample per eligible anchor day, split chronologically.

    An anchor d needs a full lookback behind it and `horizon` realized
    target days after it, all inside the anchor's own split, so train
    targets never spill into validation or test days. Every `x` is a
    read-only view into one (nodes, days, features) copy of the panel,
    so the windows cost no memory of their own.
    """
    if ds.n_days < lookback + horizon:
        raise ParameterError(
            f"panel has {ds.n_days} days, need at least lookback+horizon = {lookback + horizon}"
        )
    n_tr, n_va, _ = split.resolve(ds.n_days)
    bounds = [(0, n_tr), (n_tr, n_tr + n_va), (n_tr + n_va, ds.n_days)]
    panel = np.ascontiguousarray(ds.features.transpose(1, 0, 2))
    panel.flags.writeable = False
    out: list[list[WindowSample]] = []
    for start, end in bounds:
        samples: list[WindowSample] = []
        for d in range(max(lookback - 1, start), end - horizon):
            step_returns = ds.targets[d : d + horizon]  # (horizon, n_nodes)
            if not np.isfinite(step_returns).all():
                continue
            x = panel[:, d - lookback + 1 : d + 1]
            y = np.ascontiguousarray(np.cumprod(1.0 + step_returns, axis=0).T - 1.0)
            samples.append(WindowSample(x=x, y=y, day_index=d))
        out.append(samples)
    return out[0], out[1], out[2]


_CLUSTER_ID = re.compile(r"^c(\d+)n\d+$")


def cluster_labels(node_ids: list[str]) -> np.ndarray | None:
    """Recover cluster indices from synthetic node ids like 'c3n017'."""
    labels = []
    for node in node_ids:
        m = _CLUSTER_ID.match(node)
        if m is None:
            return None
        labels.append(int(m.group(1)))
    return np.array(labels, dtype=int)


def synth_market(
    n_nodes: int = 50,
    n_days: int = 600,
    n_features: int = 8,
    n_clusters: int = 5,
    seed: int = 0,
    factor_persistence: float = 0.7,
    market_beta: float = 0.0,
    idio_sigma: float = 1.5,
    proxy_sigma: float = 2.0,
    style_sigma: float = 0.3,
    style_alpha: float = 0.25,
    daily_scale: float = 1.0,
) -> PanelDataset:
    """Synthetic stock panel with planted cluster structure.

    Each cluster follows its own AR(1) latent factor; a node's return is
    loading * cluster factor + a small persistent style alpha +
    idiosyncratic noise (plus an optional common market term). Features
    are lagged returns, rolling statistics and two noisy per-node
    proxies: one of the fast return factor and one of the slow
    per-cluster style level. The proxies are deliberately weak one node
    at a time, so the factor state is only readable by pooling a
    cluster's cross-section while the style level identifies who
    belongs together; that makes the correlation learnable and the
    cluster assignment recoverable from attention patterns. Returns are
    left at unit scale (z-score-like units) so the default loss weights
    keep the squared-error and correlation terms comparable.
    Deterministic per seed. Node ids encode the cluster ('c2n014') so
    downstream tools can score cluster recovery.
    """
    if n_clusters > n_nodes:
        raise ParameterError(f"n_clusters {n_clusters} exceeds n_nodes {n_nodes}")
    if min(n_nodes, n_days, n_features, n_clusters) < 1:
        raise ParameterError("all generator extents must be positive")
    rng = np.random.default_rng(seed)
    phi = factor_persistence
    innov = math.sqrt(max(1.0 - phi * phi, 0.0))

    cluster = (np.arange(n_nodes) * n_clusters) // n_nodes
    loadings = rng.uniform(0.7, 1.3, n_nodes)
    styles = rng.permutation(np.linspace(-1.5, 1.5, n_clusters))

    factors = np.empty((n_days, n_clusters))
    factors[0] = rng.standard_normal(n_clusters)
    market = np.empty(n_days)
    market[0] = rng.standard_normal()
    for d in range(1, n_days):
        factors[d] = phi * factors[d - 1] + innov * rng.standard_normal(n_clusters)
        market[d] = phi * market[d - 1] + innov * rng.standard_normal()

    idio = rng.standard_normal((n_days, n_nodes))
    returns = daily_scale * (
        market_beta * market[:, None]
        + loadings[None, :] * factors[:, cluster]
        + style_alpha * styles[cluster][None, :]
        + idio_sigma * idio
    )

    factor_noise = rng.standard_normal((n_days, n_nodes))
    style_noise = rng.standard_normal((n_days, n_nodes))
    distractor = rng.standard_normal((n_days, n_nodes))

    ret_lag1 = np.vstack([np.zeros((1, n_nodes)), returns[:-1]])
    roll_mean5 = _trailing_mean(returns, 5)
    roll_std5 = _trailing_std(returns, 5)
    factor_proxy = factors[:, cluster] + proxy_sigma * factor_noise
    style_proxy = styles[cluster][None, :] + style_sigma * style_noise

    base = [
        ("ret", returns),
        ("ret_lag1", ret_lag1),
        ("roll_mean5", roll_mean5),
        ("roll_std5", roll_std5),
        ("factor_proxy", factor_proxy),
        ("style_proxy", style_proxy),
        ("noise", distractor),
    ]
    columns = base[:n_features]
    while len(columns) < n_features:
        columns.append(
            (f"noise{len(columns)}", rng.standard_normal((n_days, n_nodes)))
        )

    feature_names = [name for name, _ in columns]
    features = np.stack([arr for _, arr in columns], axis=2)

    targets = np.full((n_days, n_nodes), np.nan)
    targets[:-1] = returns[1:]

    node_ids = [f"c{cluster[n]}n{n:03d}" for n in range(n_nodes)]
    dates = [str(d) for d in range(n_days)]
    return PanelDataset(
        dates=dates,
        node_ids=node_ids,
        feature_names=feature_names,
        features=features,
        targets=targets,
    )


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    out = np.empty_like(x)
    for d in range(x.shape[0]):
        out[d] = x[max(0, d - window + 1) : d + 1].mean(axis=0)
    return out


def _trailing_std(x: np.ndarray, window: int) -> np.ndarray:
    out = np.empty_like(x)
    for d in range(x.shape[0]):
        out[d] = x[max(0, d - window + 1) : d + 1].std(axis=0)
    return out
