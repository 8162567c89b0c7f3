import numpy as np
import pytest

from dualpath.data import (
    CsvSchema,
    PanelDataset,
    SplitSpec,
    cluster_labels,
    load_panel_csv,
    make_windows,
    normalize_features,
    synth_market,
    write_panel_csv,
)
from dualpath.numerics import ParameterError


def write_csv(path, rows, header="date,node_id,f1,f2,target"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


# -- csv ingestion ------------------------------------------------------------


def test_ingest_small_well_formed(tmp_path):
    p = tmp_path / "panel.csv"
    rows = [
        f"{d},{n},{d + 0.5},{d * 2.0},{0.01 * d}"
        for d in range(3)
        for n in ("aa", "bb")
    ]
    write_csv(p, rows)
    ds = load_panel_csv(str(p))
    assert ds.features.shape == (3, 2, 2)
    assert ds.node_ids == ["aa", "bb"]
    assert ds.feature_names == ["f1", "f2"]
    assert ds.targets.shape == (3, 2)


def test_ingest_row_order_independent(tmp_path):
    rows = [
        f"{d},{n},{d * 1.0 + (0.1 if n == 'bb' else 0.0)},{d * 2.0},{0.01}"
        for d in range(4)
        for n in ("aa", "bb")
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, rows)
    write_csv(p2, rows[::-1])
    a, b = load_panel_csv(str(p1)), load_panel_csv(str(p2))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert a.dates == b.dates and a.node_ids == b.node_ids


def test_ingest_unparseable_row_names_line(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01", "0,bb,oops,2.0,0.01"])
    with pytest.raises(ParameterError) as err:
        load_panel_csv(str(p))
    assert ":3:" in str(err.value)  # header is line 1
    assert "oops" in str(err.value)


def test_ingest_duplicate_row_rejected(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01", "0,aa,1.0,2.0,0.01"])
    with pytest.raises(ParameterError):
        load_panel_csv(str(p))


def test_ingest_infinite_feature_cell_names_its_place(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01", "0,bb,1.0,2.0,0.01", "1,aa,1.0,2.0,0.01", "1,bb,1.0,-inf,0.01"])
    with pytest.raises(ParameterError) as err:
        load_panel_csv(str(p))
    assert str(p) in str(err.value)
    assert "date=1 node=bb column 'f2'" in str(err.value)


def test_ingest_infinite_target_cell_names_its_place(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01", "0,bb,1.0,2.0,inf", "1,aa,1.0,2.0,nan", "1,bb,1.0,2.0,"])
    with pytest.raises(ParameterError) as err:
        load_panel_csv(str(p))
    assert "date=0 node=bb column 'target'" in str(err.value)


def test_ingest_nan_text_and_empty_target_stay_missing(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01", "0,bb,1.0,2.0,0.01", "1,aa,1.0,2.0,nan", "1,bb,1.0,2.0,"])
    ds = load_panel_csv(str(p))
    assert np.isnan(ds.targets[1]).all() and np.isfinite(ds.targets[0]).all()


def test_ingest_forward_fill_within_limit(tmp_path):
    p = tmp_path / "panel.csv"
    rows = []
    for d in range(5):
        rows.append(f"{d},aa,{float(d)},1.0,0.0")
        if d != 2:  # node bb misses day 2 entirely
            rows.append(f"{d},bb,{float(10 + d)},2.0,0.0")
    write_csv(p, rows)
    ds = load_panel_csv(str(p), CsvSchema(ffill_limit=3, max_missing_frac=0.5))
    j = ds.node_ids.index("bb")
    assert ds.features[2, j, 0] == 11.0  # carried forward from day 1
    assert np.isnan(ds.targets[2, j])  # targets are never fabricated


def test_ingest_gap_beyond_limit_rejected(tmp_path):
    p = tmp_path / "panel.csv"
    rows = []
    for d in range(6):
        rows.append(f"{d},aa,{float(d)},1.0,0.0")
        if d not in (2, 3):
            rows.append(f"{d},bb,{float(d)},2.0,0.0")
    write_csv(p, rows)
    with pytest.raises(ParameterError):
        load_panel_csv(str(p), CsvSchema(ffill_limit=1, max_missing_frac=0.9))


def test_ingest_excludes_mostly_missing_node_with_warning(tmp_path):
    p = tmp_path / "panel.csv"
    rows = []
    for d in range(10):
        rows.append(f"{d},aa,{float(d)},1.0,0.0")
        if d < 2:
            rows.append(f"{d},bb,{float(d)},2.0,0.0")
    write_csv(p, rows)
    with pytest.warns(UserWarning, match="bb"):
        ds = load_panel_csv(str(p), CsvSchema(max_missing_frac=0.2))
    assert ds.node_ids == ["aa"]


def test_ingest_non_utf8_bytes_rejected(tmp_path):
    p = tmp_path / "panel.csv"
    p.write_bytes(b"date,node_id,f1,f2,target\n0,aa,1.0,2.0,0.01\n0,caf\xe9,1.0,2.0,0.01\n")
    with pytest.raises(ParameterError) as err:
        load_panel_csv(str(p))
    assert str(p) in str(err.value)


def test_ingest_oversized_field_names_line(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01", "0,bb," + "1" * 131_073 + ",2.0,0.01"])
    with pytest.raises(ParameterError) as err:
        load_panel_csv(str(p))
    assert f"{p}:3:" in str(err.value)


def test_ingest_missing_required_column(tmp_path):
    p = tmp_path / "panel.csv"
    p.write_text("date,node_id,f1\n0,aa,1.0\n")
    with pytest.raises(ParameterError):
        load_panel_csv(str(p))


def test_round_trip_synth_to_csv(tmp_path):
    ds = synth_market(n_nodes=6, n_days=20, n_clusters=2, seed=3)
    p = tmp_path / "panel.csv"
    write_panel_csv(ds, p)
    back = load_panel_csv(str(p))
    assert back.node_ids == ds.node_ids
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.features, ds.features)
    # NaN target tail preserved as NaN
    assert np.isnan(back.targets[-1]).all()
    assert np.array_equal(back.targets[:-1], ds.targets[:-1])


# -- normalization ------------------------------------------------------------


def test_normalize_train_span_statistics():
    ds = synth_market(n_nodes=10, n_days=120, n_clusters=2, seed=4)
    out = normalize_features(ds, 80)
    span = out.features[:80].reshape(-1, out.n_features)
    assert np.abs(span.mean(axis=0)).max() < 1e-9
    assert np.abs(span.std(axis=0) - 1.0).max() < 1e-6


def test_normalize_never_uses_future_days():
    ds = synth_market(n_nodes=10, n_days=120, n_clusters=2, seed=5)
    full = normalize_features(ds, 80)
    # truncating the future must not change the transform of the past
    clipped = PanelDataset(
        dates=ds.dates[:90],
        node_ids=ds.node_ids,
        feature_names=ds.feature_names,
        features=ds.features[:90].copy(),
        targets=ds.targets[:90].copy(),
    )
    out = normalize_features(clipped, 80)
    assert np.allclose(out.features[:90], full.features[:90])


def test_normalize_bad_span():
    ds = synth_market(n_nodes=5, n_days=30, n_clusters=2, seed=6)
    with pytest.raises(ParameterError):
        normalize_features(ds, 0)
    with pytest.raises(ParameterError):
        normalize_features(ds, 31)


# -- windowing ----------------------------------------------------------------


def test_make_windows_boundary_single_sample():
    t, h = 6, 2
    ds = synth_market(n_nodes=4, n_days=t + h, n_clusters=2, seed=7)
    train, val, test = make_windows(ds, t, h, SplitSpec(1.0, 0.0, 0.0))
    assert len(train) == 1 and not val and not test
    assert train[0].day_index == t - 1


def test_make_windows_counts_match_partition_arithmetic():
    # partition day counts proportional to the reference: 2677/239/243 of 3159
    ds = synth_market(n_nodes=3, n_days=3159, n_features=2, n_clusters=1, seed=8)
    split = SplitSpec(2677, 239, 243)
    t, h = 30, 1
    train, val, test = make_windows(ds, t, h, split)
    assert len(train) == 2677 - t - h + 1
    assert len(val) == 239 - h
    assert len(test) == 243 - h
    assert train[-1].day_index == 2676 - h
    assert val[0].day_index == 2677
    assert test[0].day_index == 2677 + 239


def test_make_windows_no_leakage():
    ds = synth_market(n_nodes=4, n_days=60, n_clusters=2, seed=9)
    t, h = 10, 2
    train, val, test = make_windows(ds, t, h, SplitSpec(0.6, 0.2, 0.2))
    n_tr = 36
    for part, start, end in ((train, 0, n_tr), (val, n_tr, 48), (test, 48, 60)):
        for s in part:
            # x spans [d-t+1, d]; targets materialize on (d, d+h], all inside the split
            assert s.day_index >= t - 1
            assert start <= s.day_index
            assert s.day_index + h <= end
            assert np.isfinite(s.y).all()
            window = ds.features[s.day_index - t + 1 : s.day_index + 1].transpose(1, 0, 2)
            assert np.array_equal(s.x, window)


def test_make_windows_are_read_only_views_of_one_panel():
    ds = synth_market(n_nodes=4, n_days=60, n_clusters=2, seed=9)
    t, h = 10, 2
    samples = [s for part in make_windows(ds, t, h, SplitSpec(0.6, 0.2, 0.2)) for s in part]
    panel = samples[0].x.base
    assert panel is not None and panel.shape == (4, 60, ds.n_features)
    for s in samples:
        assert s.x.base is panel
        assert not s.x.flags.writeable
        with pytest.raises(ValueError):
            s.x[0, 0, 0] = 1.0
        copy = np.ascontiguousarray(ds.features[s.day_index - t + 1 : s.day_index + 1].transpose(1, 0, 2))
        assert np.array_equal(s.x, copy)
    assert not np.shares_memory(panel, ds.features)


def test_make_windows_multi_horizon_compounds():
    ds = synth_market(n_nodes=3, n_days=40, n_clusters=1, seed=10)
    train, _, _ = make_windows(ds, 5, 3, SplitSpec(1.0, 0.0, 0.0))
    s = train[0]
    d = s.day_index
    r = ds.targets[d : d + 3]
    expected = np.cumprod(1.0 + r, axis=0) - 1.0
    assert np.allclose(s.y, expected.T)


def test_make_windows_insufficient_days():
    ds = synth_market(n_nodes=3, n_days=10, n_clusters=1, seed=11)
    with pytest.raises(ParameterError):
        make_windows(ds, 10, 1, SplitSpec(1.0, 0.0, 0.0))


def test_split_counts_must_sum():
    with pytest.raises(ParameterError):
        SplitSpec(5, 5, 5).resolve(20)


def test_split_fraction_resolution():
    assert SplitSpec(0.7, 0.15, 0.15).resolve(600) == (420, 90, 90)
    n_tr, n_va, n_te = SplitSpec(0.8, 0.1, 0.1).resolve(101)
    assert n_tr + n_va + n_te == 101


# -- synthetic market ---------------------------------------------------------


def test_synth_deterministic_per_seed():
    a = synth_market(n_nodes=8, n_days=50, n_clusters=2, seed=12)
    b = synth_market(n_nodes=8, n_days=50, n_clusters=2, seed=12)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets[:-1], b.targets[:-1])
    assert a.node_ids == b.node_ids


def test_synth_different_seeds_differ():
    a = synth_market(n_nodes=8, n_days=50, n_clusters=2, seed=12)
    b = synth_market(n_nodes=8, n_days=50, n_clusters=2, seed=13)
    assert not np.array_equal(a.features, b.features)


def test_synth_intra_cluster_correlation_dominates():
    ds = synth_market(seed=0)
    labels = cluster_labels(ds.node_ids)
    returns = ds.targets[:-1]
    corr = np.corrcoef(returns.T)
    same = (labels[:, None] == labels[None, :]) & ~np.eye(ds.n_nodes, dtype=bool)
    different = labels[:, None] != labels[None, :]
    margin = corr[same].mean() - corr[different].mean()
    assert margin > 0.15


def test_synth_zero_noise_returns_have_factor_rank():
    ds = synth_market(
        n_nodes=12, n_days=80, n_clusters=3, seed=14,
        idio_sigma=0.0, market_beta=0.0, style_alpha=0.0,
    )
    returns = ds.targets[:-1]  # (days, nodes)
    rank = np.linalg.matrix_rank(returns, tol=1e-10)
    assert rank <= 3


def test_synth_rejects_too_many_clusters():
    with pytest.raises(ParameterError):
        synth_market(n_nodes=3, n_clusters=4)


def test_synth_last_target_row_is_nan():
    ds = synth_market(n_nodes=5, n_days=30, n_clusters=2, seed=15)
    assert np.isnan(ds.targets[-1]).all()
    assert np.isfinite(ds.targets[:-1]).all()


def test_synth_feature_count_flexible():
    narrow = synth_market(n_nodes=4, n_days=30, n_features=3, n_clusters=2, seed=16)
    assert narrow.n_features == 3
    wide = synth_market(n_nodes=4, n_days=30, n_features=10, n_clusters=2, seed=16)
    assert wide.n_features == 10
    assert np.isfinite(wide.features).all()


def test_cluster_labels_parse_and_reject():
    assert cluster_labels(["c0n000", "c2n011"]).tolist() == [0, 2]
    assert cluster_labels(["AAPL", "MSFT"]) is None
