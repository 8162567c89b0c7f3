"""Panel-data ingestion, windowing, chronological splits, synthetic markets.

A panel is a dense day x node x feature array plus a day x node array of
forward returns (the return realized over the next step). The final
`horizon` rows of the target array are unknowable inside the panel and
stay NaN; window anchors are chosen so those rows are never read.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    """Chronological train/val/test day budget, as fractions summing to 1."""

    train: float = 0.7
    val: float = 0.15
    test: float = 0.15

    def resolve(self, n_days: int) -> tuple[int, int, int]:
        parts = (self.train, self.val, self.test)
        if any(p < 0 for p in parts) or abs(sum(parts) - 1.0) > 1e-9:
            raise ParameterError(f"split fractions {parts} must be non-negative and sum to 1")
        n_val = int(math.floor(self.val * n_days))
        n_test = int(math.floor(self.test * n_days))
        n_train = n_days - n_val - n_test
        return n_train, n_val, n_test


# Key columns of the panel CSV layout; every other column is a feature.
DATE_COL, NODE_COL, TARGET_COL = "date", "node_id", "target"

# A node missing more than this share of the days is dropped; a gap of more
# than this many days in a row is rejected rather than forward-filled.
MAX_MISSING_FRAC, FFILL_LIMIT = 0.1, 3

# The block reader reads a file this many bytes at a time, cut back to whole lines.
CSV_BLOCK_BYTES = 1 << 16
# A key the block reader takes after `bytes.strip`: printable ASCII, so the
# row loop's `str.strip`, which also strips \x1c-\x1f, leaves the same key.
_PLAIN_KEY = re.compile(rb"[ -~]+")


class _Rows(NamedTuple):
    """A panel CSV's rows as parsed, before duplicates are looked for."""

    feature_names: list[str]
    day_of: dict[str, int]  # date -> index, in order of first appearance
    node_of: dict[str, int]
    at_day: np.ndarray  # each row's date index
    at_node: np.ndarray
    lines: Sequence[int]  # each row's line number in the file
    values: np.ndarray  # (rows, features + 1): each row's feature cells, then its target cell


def load_panel_csv(path: str) -> PanelDataset:
    """Read a long-format CSV into a dense, gap-free panel.

    Rows may arrive in any order. Nodes missing more than
    `MAX_MISSING_FRAC` of days are dropped with a warning; remaining
    gaps are forward-filled up to `FFILL_LIMIT` consecutive days and
    anything worse is rejected. Targets are never filled: a missing
    target stays NaN and the day is simply not used as a window anchor.

    A plain file (see `_parse_blocks`) is parsed in blocks; any other
    file, or one with a bad cell, is parsed row by row through `csv`,
    which gives the same rows or names the line at fault.
    """
    feature_names, day_of, node_of, at_day, at_node, lines, values = (
        _parse_blocks(path) or _parse_rows(path)
    )
    _, first = np.unique(at_day * len(node_of) + at_node, return_index=True)
    if len(first) < len(lines):  # name the first row whose (date, node) came before
        repeat = np.ones(len(lines), dtype=bool)
        repeat[first] = False
        r = int(np.argmax(repeat))
        date, node = list(day_of)[at_day[r]], list(node_of)[at_node[r]]
        raise ParameterError(f"{path}:{lines[r]}: duplicate row for date={date} node={node}")
    del lines
    dates = sorted(day_of, key=_date_key)
    nodes = sorted(node_of)
    # first-appearance index -> sorted position
    at_day = np.array([*map({d: i for i, d in enumerate(dates)}.get, day_of)])[at_day]
    at_node = np.array([*map({n: j for j, n in enumerate(nodes)}.get, node_of)])[at_node]

    columns = [*feature_names, TARGET_COL]
    panel = np.full((len(dates), len(nodes), len(columns)), np.nan)
    panel[at_day, at_node] = values
    del values
    infinite = np.argwhere(np.isinf(panel))
    if len(infinite):
        day, node, col = infinite[0]
        raise ParameterError(
            f"{path}: infinite value at date={dates[day]} node={nodes[node]} column {columns[col]!r}"
        )
    features = np.ascontiguousarray(panel[..., :-1])
    targets = np.ascontiguousarray(panel[..., -1])
    del panel

    # drop nodes with too many gapped days before trying to fill anything
    missing_days = np.isnan(features).any(axis=2).sum(axis=0)
    keep = missing_days <= MAX_MISSING_FRAC * len(dates)
    dropped = [n for n, ok in zip(nodes, keep) if not ok]
    if dropped:
        warnings.warn(f"excluding nodes with too many missing days: {dropped}", stacklevel=2)
        features = features[:, keep, :]
        targets = targets[:, keep]
        nodes = [n for n, ok in zip(nodes, keep) if ok]
    if not nodes:
        raise ParameterError(f"{path}: every node exceeded the missing-day threshold")

    _forward_fill(features, dates, nodes, path)
    return PanelDataset(
        dates=dates,
        node_ids=nodes,
        feature_names=feature_names,
        features=features,
        targets=targets,
    )


def _header_columns(path: str, header: list[str]) -> tuple[list[str], int, int, list[tuple[str, int]]]:
    """Feature names, the date and node cell positions, and each value column's name and position."""
    for col in header:
        if header.count(col) > 1:
            raise ParameterError(f"{path}: column {col!r} appears more than once")
    for col in (DATE_COL, NODE_COL, TARGET_COL):
        if col not in header:
            raise ParameterError(f"{path}: missing required column {col!r}")
    feature_names = [c for c in header if c not in (DATE_COL, NODE_COL, TARGET_COL)]
    columns = [(c, header.index(c)) for c in (*feature_names, TARGET_COL)]
    return feature_names, header.index(DATE_COL), header.index(NODE_COL), columns


def _parse_rows(path: str) -> _Rows:
    """Parse any CSV `csv` reads, one row at a time; a bad row raises with its line."""
    # imported here, not at module level: runs that never read a CSV
    # would otherwise pay for loading the extension module
    from array import array

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParameterError(f"{path}: empty file") from None
            feature_names, d_idx, n_idx, columns = _header_columns(path, header)

            # each row keeps three integers and its values, never its key
            # strings, so the ingest's Python objects do not grow with the file
            day_of: dict[str, int] = {}
            node_of: dict[str, int] = {}
            at_day, at_node, lines = array("q"), array("q"), array("q")
            values = array("d")
            for row in reader:
                if not row or all(not c.strip() for c in row):
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    raise ParameterError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
                at_day.append(day_of.setdefault(row[d_idx].strip(), len(day_of)))
                at_node.append(node_of.setdefault(row[n_idx].strip(), len(node_of)))
                lines.append(line)
                for col, i in columns:
                    text = row[i].strip()
                    if text == "":
                        values.append(math.nan)
                        continue
                    try:
                        values.append(float(text))
                    except ValueError:
                        raise ParameterError(f"{path}:{line}: cannot parse {col}={row[i]!r}") from None
    except UnicodeDecodeError:
        raise ParameterError(f"{path}: not UTF-8 text") from None
    except csv.Error as err:
        raise ParameterError(f"{path}:{reader.line_num}: {err}") from None

    if not lines:
        raise ParameterError(f"{path}: no data rows")
    return _Rows(
        feature_names,
        day_of,
        node_of,
        np.frombuffer(at_day, dtype=np.int64),
        np.frombuffer(at_node, dtype=np.int64),
        lines,
        np.frombuffer(values).reshape(-1, len(columns)),
    )


def _parse_blocks(path: str) -> _Rows | None:
    """Parse a plain CSV in blocks of whole lines, or return None for the row loop.

    Plain means: ASCII with no `"` or carriage return, at least one row
    and no blank line, as many commas in every row as in the header, no
    line longer than `csv.field_size_limit()`, keys that are printable
    ASCII after stripping, and value cells that `float` reads, without
    digit-group underscores. There `csv` would split rows on `\n` and
    cells on `,` just as this does, so the rows are the row loop's, and
    a row's line number is its index + 2. Anything else, the errors the
    row loop reports included, is left to it; only a bad header raises
    here, as it would there.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        # first pass: decline what `csv` reads differently, and count the
        # lines so that every buffer is sized once
        n_breaks, last = 0, b"\n"
        while block := fh.read(CSV_BLOCK_BYTES):
            if b'"' in block or b"\r" in block or not block.isascii():
                return None
            n_breaks += block.count(b"\n")
            last = block[-1:]
        n_rows = n_breaks + (last != b"\n") - 1  # lines after the header
        if n_rows < 1:
            return None
        fh.seek(0)
        blocks = _line_blocks(fh, limit)
        head, _, rest = next(blocks).partition(b"\n")
        if len(head) > limit:
            return None
        header = head.decode().split(",")
        feature_names, d_idx, n_idx, columns = _header_columns(path, header)

        width = len(header)
        day_of: dict[bytes, int] = {}
        node_of: dict[bytes, int] = {}
        at_day = np.empty(n_rows, dtype=np.int64)
        at_node = np.empty(n_rows, dtype=np.int64)
        values = np.empty((n_rows, len(columns)))
        r = 0
        for block in itertools.chain([rest], blocks):
            lines = block.split(b"\n")
            if not lines[-1]:
                del lines[-1]  # the block's final line break
            n = len(lines)
            if not n:
                continue
            if (
                r + n > n_rows  # the file grew since the first pass
                or max(map(len, lines)) > limit
                or set(map(bytes.count, lines, itertools.repeat(b","))) != {width - 1}
            ):
                return None
            cells = b",".join(lines).split(b",")
            for index, i, at in ((day_of, d_idx, at_day), (node_of, n_idx, at_node)):
                stripped = list(map(bytes.strip, cells[i::width]))
                for key in dict.fromkeys(stripped):
                    if key not in index:
                        if not _PLAIN_KEY.fullmatch(key):
                            return None
                        index[key] = len(index)
                at[r : r + n] = list(map(index.__getitem__, stripped))
            for j, (_, i) in enumerate(columns):
                column = cells[i::width]
                try:
                    values[r : r + n, j] = list(map(float, column))
                except ValueError:  # empty cells are NaN, as in the row loop
                    try:
                        values[r : r + n, j] = [float(t) if t.strip() else math.nan for t in column]
                    except ValueError:
                        return None
            if b"_" in block and any(b"_" in b"".join(cells[i::width]) for _, i in columns):
                return None
            r += n
            del lines, cells, stripped, column  # before the next block's are made
    if r < n_rows:  # the file shrank since the first pass
        return None
    return _Rows(
        feature_names,
        {key.decode(): i for key, i in day_of.items()},
        {key.decode(): i for key, i in node_of.items()},
        at_day,
        at_node,
        range(2, n_rows + 2),
        values,
    )


def _line_blocks(fh, limit: int) -> Iterator[bytes]:
    """`fh` in blocks of about `CSV_BLOCK_BYTES`, each cut after its last line break.

    A line longer than `limit` may come out cut, still longer than `limit`.
    """
    rest = b""
    while block := fh.read(CSV_BLOCK_BYTES):
        rest += block
        cut = rest.rfind(b"\n") + 1
        if not cut:
            if len(rest) <= limit:
                continue  # a line longer than one block
            cut = len(rest)
        yield rest[:cut]
        rest = rest[cut:]
    if rest:
        yield rest


def _date_key(date: str):
    try:
        return (0, int(date), "")
    except ValueError:
        return (1, 0, date)


def _forward_fill(features: np.ndarray, dates, nodes, path: str) -> None:
    """Fill feature gaps from the previous day, at most `FFILL_LIMIT` in a row."""
    gap = np.isnan(features)
    if not gap.any():
        return
    run = np.zeros(features.shape[1:], dtype=int)
    for d in range(features.shape[0]):
        day_gap = gap[d]
        run = np.where(day_gap, run + 1, 0)
        if (run > FFILL_LIMIT).any():
            n, f = np.argwhere(run > FFILL_LIMIT)[0]
            raise ParameterError(
                f"{path}: node {nodes[n]} feature #{f} gapped more than {FFILL_LIMIT} days ending {dates[d]}"
            )
        if d == 0 and day_gap.any():
            n, f = np.argwhere(day_gap)[0]
            raise ParameterError(f"{path}: node {nodes[n]} has no value to fill from on {dates[0]}")
        if day_gap.any():
            features[d][day_gap] = features[d - 1][day_gap]


def _csv_key(key: str) -> str:
    """`key` as `csv.writer` writes it inside a row (a lone empty field would read `""`)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([key, ""])
    return buf.getvalue()[:-2]


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs) -> Iterator:
    """Open a sibling `<path>.<pid>.tmp` for writing; it replaces `path` only
    when the block finishes, and is removed if the block or the replace
    fails, so a failed write leaves the old file as it was, never a partial
    one. There is no `fsync`: this does not make the data durable."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_panel_csv(ds: PanelDataset, path: str) -> None:
    """Long-format export; NaN targets become empty cells. Byte-deterministic.

    The bytes are those of `csv.writer` rows of `repr(float(v))` cells, but
    the writer works one day at a time: each date and node id is quoted
    once, each day's values leave numpy in one `tolist()` and its rows go
    out in one `write`, so `repr` is almost the whole cost, and no more
    than one day's text is held. The panel is written through `atomic_open`,
    so an interrupted write leaves the old file, never a shorter panel.
    """
    features = np.asarray(ds.features, dtype=np.float64)
    targets = np.asarray(ds.targets, dtype=np.float64)
    nodes = [_csv_key(node) for node in ds.node_ids]
    with atomic_open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([DATE_COL, NODE_COL, *ds.feature_names, TARGET_COL])
        for date, day_x, day_y in zip(ds.dates, features, targets):
            prefix = _csv_key(date) + ","
            rows = [
                f"{prefix}{node},{','.join([*map(repr, x), '' if math.isnan(y) else repr(y)])}\n"
                for node, x, y in zip(nodes, day_x.tolist(), day_y.tolist())
            ]
            fh.write("".join(rows))


def normalize_features(ds: PanelDataset, train_days: int) -> PanelDataset:
    """Z-score every feature using statistics from the first `train_days` days only."""
    if not 1 <= train_days <= ds.n_days:
        raise ParameterError(f"train_days {train_days} out of range [1, {ds.n_days}]")
    span = ds.features[:train_days].reshape(-1, ds.n_features)
    mu = span.mean(axis=0)
    sd = span.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    z = ds.features - mu
    z /= sd  # in place: one panel-sized temporary, not two
    return PanelDataset(
        dates=list(ds.dates),
        node_ids=list(ds.node_ids),
        feature_names=list(ds.feature_names),
        features=z,
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
) -> PanelDataset:
    """Synthetic stock panel with planted cluster structure.

    Each cluster follows its own AR(1) latent factor; a node's return is
    loading * cluster factor + a small persistent style alpha +
    idiosyncratic noise. Features are lagged returns, rolling statistics
    and two noisy per-node proxies: one of the fast return factor and one
    of the slow per-cluster style level. The proxies are deliberately weak
    one node at a time, so the factor state is only readable by pooling a
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
    # factor AR(1) persistence, and the scales of the style alpha, the
    # idiosyncratic noise and the noise on the factor and style proxies
    phi, style_alpha, idio_sigma, proxy_sigma, style_sigma = 0.7, 0.25, 1.5, 2.0, 0.3
    innov = math.sqrt(1.0 - phi * phi)
    rng = np.random.default_rng(seed)

    cluster = (np.arange(n_nodes) * n_clusters) // n_nodes
    loadings = rng.uniform(0.7, 1.3, n_nodes)
    styles = rng.permutation(np.linspace(-1.5, 1.5, n_clusters))

    # each day's last shock is one that no return uses; it is still drawn,
    # so that every seed keeps the panel it has always given
    shocks = rng.standard_normal((n_days, n_clusters + 1))
    factors = np.empty((n_days, n_clusters))
    factors[0] = shocks[0, :n_clusters]
    for d in range(1, n_days):
        factors[d] = phi * factors[d - 1] + innov * shocks[d, :n_clusters]

    idio = rng.standard_normal((n_days, n_nodes))
    returns = loadings * factors[:, cluster] + style_alpha * styles[cluster] + idio_sigma * idio

    factor_noise = rng.standard_normal((n_days, n_nodes))
    style_noise = rng.standard_normal((n_days, n_nodes))
    distractor = rng.standard_normal((n_days, n_nodes))

    ret_lag1 = np.vstack([np.zeros((1, n_nodes)), returns[:-1]])
    roll_mean5 = _trailing(np.mean, returns, 5)
    roll_std5 = _trailing(np.std, returns, 5)
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


def _trailing(reduce, x: np.ndarray, window: int) -> np.ndarray:
    """`reduce(block, axis=0)` over each day's trailing `window` days (fewer at the start)."""
    out = np.empty_like(x)
    for d in range(x.shape[0]):
        out[d] = reduce(x[max(0, d - window + 1) : d + 1], axis=0)
    return out
