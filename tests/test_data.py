import csv
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dualpath import data as data_module
from dualpath.cli import main
from dualpath.data import (
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
    rows = ["0,aa,1.0,2.0,0.01", "0,bb,1.0,2.0,0.01", "", "1,bb,1.0,2.0,0.01", "1,bb,3.0,4.0,0.02", "0,aa,1.0,2.0,0.01"]
    write_csv(p, rows)
    with pytest.raises(ParameterError) as err:
        load_panel_csv(str(p))
    # the earliest repeat is named; line 4 is blank
    assert f"{p}:6: duplicate row for date=1 node=bb" in str(err.value)


def quote_node_ids(path):
    """Rewrite a panel CSV with its node ids quoted, which only the row loop reads."""
    text = path.read_text()
    path.write_text(re.sub(r"^([^,\n]*),([^,\n]*),", r'\1,"\2",', text, flags=re.M))


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted_node_ids"])
def test_ingest_holds_no_per_row_python_objects(tmp_path, quoted):
    """The ingest's traced peak is a small multiple of the panel it returns,
    through either reader; keeping each row's (date, node) strings took
    more than twice as much."""
    p = tmp_path / "panel.csv"
    write_panel_csv(synth_market(n_nodes=40, n_days=300, n_features=4, seed=1), p)
    if quoted:
        quote_node_ids(p)
    assert (data_module._parse_blocks(str(p)) is None) == quoted
    tracemalloc.start()
    try:
        ds = load_panel_csv(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (ds.features.nbytes + ds.targets.nbytes)


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
    for d in range(10):
        rows.append(f"{d},aa,{float(d)},1.0,0.0")
        if d != 2:  # node bb misses day 2 entirely: 1 day in 10, the most it may miss
            rows.append(f"{d},bb,{float(10 + d)},2.0,0.0")
    write_csv(p, rows)
    ds = load_panel_csv(str(p))
    j = ds.node_ids.index("bb")
    assert ds.features[2, j, 0] == 11.0  # carried forward from day 1
    assert np.isnan(ds.targets[2, j])  # targets are never fabricated


def test_ingest_gap_beyond_limit_rejected(tmp_path):
    p = tmp_path / "panel.csv"
    rows = []
    for d in range(40):
        rows.append(f"{d},aa,{float(d)},1.0,0.0")
        if d not in (10, 11, 12, 13):  # 4 days in 40: few enough to keep bb, one too many to fill
            rows.append(f"{d},bb,{float(d)},2.0,0.0")
    write_csv(p, rows)
    with pytest.raises(ParameterError, match="node bb feature #0 gapped more than 3 days ending 13"):
        load_panel_csv(str(p))


def test_ingest_gap_on_the_first_day_rejected(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, [f"{d},{n},{float(d)},1.0,0.0" for d in range(10) for n in ("aa", "bb") if (d, n) != (0, "bb")])
    with pytest.raises(ParameterError, match="node bb has no value to fill from on 0"):
        load_panel_csv(str(p))


def test_ingest_excludes_mostly_missing_node_with_warning(tmp_path):
    p = tmp_path / "panel.csv"
    rows = []
    for d in range(10):
        rows.append(f"{d},aa,{float(d)},1.0,0.0")
        if d < 2:
            rows.append(f"{d},bb,{float(d)},2.0,0.0")
    write_csv(p, rows)
    with pytest.warns(UserWarning, match="bb"):
        ds = load_panel_csv(str(p))
    assert ds.node_ids == ["aa"]


def test_ingest_rejects_a_panel_whose_every_node_misses_too_many_days(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, [f"{d},{'aa' if d < 5 else 'bb'},{float(d)},1.0,0.0" for d in range(10)])
    with pytest.warns(UserWarning, match=r"\['aa', 'bb'\]"):
        with pytest.raises(ParameterError, match="every node exceeded the missing-day threshold"):
            load_panel_csv(str(p))


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


def test_ingest_key_column_order_free(tmp_path):
    usual = ["0,aa,1.0,2.0,0.01", "0,bb,3.0,4.0,", "1,aa,5.0,6.0,0.02", "1,bb,7.0,8.0,0.03"]
    shuffled = []
    for row in usual:
        date, node, f1, f2, target = row.split(",")
        shuffled.append(",".join([target, f1, node, f2, date]))
    p1, p2 = tmp_path / "usual.csv", tmp_path / "shuffled.csv"
    write_csv(p1, usual)
    write_csv(p2, shuffled, header="target,f1,node_id,f2,date")
    a, b = load_panel_csv(str(p1)), load_panel_csv(str(p2))
    assert (a.dates, a.node_ids, a.feature_names) == (b.dates, b.node_ids, b.feature_names)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets, equal_nan=True)
    assert np.isnan(b.targets[0, 1])


def test_ingest_repeated_column_rejected(tmp_path):
    p = tmp_path / "panel.csv"
    write_csv(p, ["0,aa,1.0,2.0,0.01"], header="date,node_id,f,f,target")
    with pytest.raises(ParameterError, match="column 'f' appears more than once"):
        load_panel_csv(str(p))


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


def oracle_panel_csv(ds, path):
    """The row-at-a-time writer that `write_panel_csv` must match byte for byte."""
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


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e16, 1e-05, 1 / 3, -1.5e300]


def quoting_panel():
    """Keys and feature names that need quoting, and float edge cases."""
    nodes = ["n,1", 'z"', "x\ny", " s ", ""]
    features = np.array((EDGE_VALUES * 3)[:20]).reshape(2, 5, 2)
    targets = np.array([[np.nan, -0.0, 1e16, 5e-324, 1 / 3], [-1.5e300, np.nan, 0.0, 1e-05, -0.0]])
    return PanelDataset(
        dates=["2020-01-02", "d,2"],
        node_ids=nodes,
        feature_names=['f"1', "f,2"],
        features=features,
        targets=targets,
    )


def edge_value_panel():
    """Every edge value in every feature column and as a target, NaN and -0.0 too."""
    targets = [*EDGE_VALUES, np.nan, -0.0]
    return PanelDataset(
        dates=["1", "2"],
        node_ids=[f"n{i}" for i in range(len(targets))],
        feature_names=[f"f{i}" for i in range(len(EDGE_VALUES))],
        features=np.array([[np.roll(EDGE_VALUES, i) for i in range(len(targets))]] * 2),
        targets=np.array([targets, targets[::-1]]),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: synth_market(n_nodes=6, n_days=20, n_clusters=2, seed=3),
        lambda: synth_market(n_nodes=10, n_days=100, n_clusters=2, seed=5),
        quoting_panel,
        edge_value_panel,
    ],
    ids=["synth", "criterion10", "quoting", "edge_values"],
)
def test_write_panel_csv_matches_row_writer_bytes(tmp_path, make):
    ds = make()
    write_panel_csv(ds, tmp_path / "new.csv")
    oracle_panel_csv(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_panel_csv_keeps_old_file_when_interrupted(tmp_path, monkeypatch):
    path = tmp_path / "panel.csv"
    write_panel_csv(synth_market(n_nodes=4, n_days=20, n_clusters=2, seed=1), path)
    before = path.read_bytes()

    def full_disk_open(*args, **kwargs):
        """A file that takes the header and the first day, then fails like a full disk."""
        fh = open(*args, **kwargs)
        real_write, writes = fh.write, []

        def write(text):
            writes.append(len(text))
            if len(writes) > 2:
                raise OSError(28, "No space left on device")
            return real_write(text)

        fh.write = write
        return fh

    monkeypatch.setattr(data_module, "open", full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_panel_csv(synth_market(n_nodes=4, n_days=20, n_clusters=2, seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["panel.csv"]


# -- the block reader against the row loop ------------------------------------


def text_panel(rows, header="date,node_id,f1,f2,target"):
    return lambda path: path.write_bytes((header + "\n" + "\n".join(rows) + "\n").encode())


def synth_panel(n_nodes, n_days, seed=2, **kwargs):
    return lambda path: write_panel_csv(synth_market(n_nodes, n_days, seed=seed, **kwargs), path)


GRID = [f"{d},{n},{d + 0.5},{d * 2.0},{0.01 * d}" for d in range(3) for n in ("aa", "bb")]
TWO_DAYS = ["0,aa,1.0,2.0,0.01", "0,bb,1.0,2.0,0.01", "1,aa,1.0,2.0,0.01", "1,bb,1.0,2.0,0.01"]
# node bb lacks its f1 cell on a tenth of its days: two days in a row, which
# the forward fill mends, or four, one more than it mends
FILL_ROWS = [f"{d},{n},{'' if n == 'bb' and d in (5, 6) else d},1,0" for d in range(20) for n in ("aa", "bb")]
GAP_ROWS = [f"{d},{n},{'' if n == 'bb' and 5 <= d <= 8 else d},1,0" for d in range(40) for n in ("aa", "bb")]


def with_cell(rows, row, col, text):
    """`rows` with cell `col` of row `row` replaced by `text`."""
    cells = rows[row].split(",")
    cells[col] = text
    return [*rows[:row], ",".join(cells), *rows[row + 1 :]]


def raw_bytes(data):
    return lambda path: path.write_bytes(data)


# input -> (how it is written, which reader parses it: the block reader,
# the row loop, or neither because its header is at fault)
INGEST_CORPUS = {
    # every CSV the tests above read
    "small": (text_panel(GRID), "blocks"),
    "reversed_rows": (text_panel(GRID[::-1]), "blocks"),
    "unparseable": (text_panel(with_cell(TWO_DAYS, 1, 2, "oops")), "rows"),
    "duplicate_with_blank_line": (text_panel([*TWO_DAYS[:2], "", TWO_DAYS[3], TWO_DAYS[3]]), "rows"),
    "duplicate": (text_panel([*TWO_DAYS, TWO_DAYS[1]]), "blocks"),
    "infinite_feature": (text_panel(with_cell(TWO_DAYS, 3, 3, "-inf")), "blocks"),
    "infinite_target": (text_panel(with_cell(with_cell(TWO_DAYS, 1, 4, "inf"), 3, 4, "")), "blocks"),
    "nan_text_and_empty_target": (text_panel(with_cell(with_cell(TWO_DAYS, 2, 4, "nan"), 3, 4, "")), "blocks"),
    "NaN_text_target": (text_panel(with_cell(TWO_DAYS, 3, 4, "NaN")), "blocks"),
    "missing_row_drops_node": (text_panel([r for r in FILL_ROWS if not r.startswith("2,bb")]), "blocks"),
    "gap_beyond_fill_limit": (text_panel(GAP_ROWS), "blocks"),
    "non_utf8": (raw_bytes(b"date,node_id,f1,f2,target\n0,aa,1.0,2.0,0.01\n0,caf\xe9,1.0,2.0,0.01\n"), "rows"),
    "oversized_field": (text_panel(with_cell(TWO_DAYS, 1, 2, "1" * 131_073)), "rows"),
    "oversized_header_field": (text_panel(TWO_DAYS, header=f"date,node_id,f1,{'f' * 131_073},target"), "rows"),
    "key_columns_in_any_order": (
        text_panel(["0.01,1.0,aa,2.0,0", ",3.0,bb,4.0,0", "0.02,5.0,aa,6.0,1"], "target,f1,node_id,f2,date"),
        "blocks",
    ),
    "repeated_column": (text_panel(TWO_DAYS, header="date,node_id,f,f,target"), "header"),
    "missing_column": (text_panel(["0,aa,1.0"], header="date,node_id,f1"), "header"),
    "round_trip_synth": (synth_panel(6, 20, n_clusters=2, seed=3), "blocks"),
    # what the block reader takes besides
    "synth_10x100": (synth_panel(10, 100), "blocks"),
    "synth_50x600": (synth_panel(50, 600), "blocks"),
    "synth_200x750": (synth_panel(200, 750), "blocks"),
    "padded_cells": (
        text_panel([" 0 , aa , 1.5 ,\t2.0, 0.01 ", "0,bb, 1.5,2.0 ,0.01", "1,aa,1,2,3", "1, bb ,4,5, "]),
        "blocks",
    ),
    "empty_feature_cells_within_fill_limit": (text_panel(FILL_ROWS), "blocks"),
    "no_final_newline": (raw_bytes("\n".join(["date,node_id,f1,f2,target", *GRID]).encode()), "blocks"),
    "integer_and_iso_dates": (
        text_panel([f"{d},{n},1,2,0.5" for d in ("10", "2020-01-02", "9", "2019-12-31") for n in ("aa", "bb")]),
        "blocks",
    ),
    "line_longer_than_a_block": (text_panel(with_cell(GRID, 0, 2, "0." + "1" * 70_000)), "blocks"),
    # what the block reader leaves to the row loop
    "crlf_line_ends": (raw_bytes("\r\n".join(["date,node_id,f1,f2,target", *GRID, ""]).encode()), "rows"),
    "quoted_key": (text_panel(with_cell(TWO_DAYS, 0, 1, '"aa"')), "rows"),
    "non_ascii_key": (text_panel(with_cell(with_cell(TWO_DAYS, 1, 1, "café"), 3, 1, "café")), "rows"),
    "key_padded_with_x1f": (text_panel(with_cell(with_cell(TWO_DAYS, 1, 1, "\x1fbb"), 3, 1, "bb\x1f")), "rows"),
    "blank_line": (text_panel([*GRID[:3], "", *GRID[3:]]), "rows"),
    "blank_cells_row": (text_panel([*GRID[:3], " , ,,,", *GRID[3:]]), "rows"),
    "digit_group_underscores": (text_panel(with_cell(GRID, 0, 2, "1_000")), "rows"),
    "wrong_column_count": (text_panel([*GRID[:2], "1,aa,1.0,0.01"]), "rows"),
    "column_counts_that_even_out": (text_panel([*GRID[:2], "1,aa,1.0,0.01", "1,bb,1.0,2.0,0.01,9"]), "rows"),
    "header_only": (raw_bytes(b"date,node_id,f1,f2,target\n"), "rows"),
    "empty_file": (raw_bytes(b""), "rows"),
}


def reader_of(path):
    try:
        return "rows" if data_module._parse_blocks(str(path)) is None else "blocks"
    except ParameterError:
        return "header"


def ingest_outcome(path):
    """All `load_panel_csv` gives: the dataset, bit for bit, and its warnings; or its message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            ds = load_panel_csv(str(path))
        except ParameterError as err:
            return str(err)
    arrays = (ds.features.shape, ds.features.tobytes(), ds.targets.tobytes())
    return ds.dates, ds.node_ids, ds.feature_names, arrays, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", list(INGEST_CORPUS))
def test_block_reader_matches_row_loop(tmp_path, monkeypatch, name):
    write, reader = INGEST_CORPUS[name]
    path = tmp_path / "panel.csv"
    write(path)
    assert reader_of(path) == reader
    got = ingest_outcome(path)
    monkeypatch.setattr(data_module, "_parse_blocks", lambda path: None)
    assert got == ingest_outcome(path)


def test_block_reader_takes_gen_data_panel(tmp_path):
    argv = ["--nodes", "10", "--days", "100", "--clusters", "2", "--seed", "5"]  # criterion 10's panel
    assert main(["gen-data", "--out", str(tmp_path), *argv]) == 0
    assert reader_of(tmp_path / "panel.csv") == "blocks"


def test_block_reader_declines_the_quoting_corpus(tmp_path):
    write_panel_csv(quoting_panel(), tmp_path / "panel.csv")
    assert reader_of(tmp_path / "panel.csv") == "rows"


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
    # fractions a float holds exactly, so the partition is 2400/400/400 of 3200 days
    ds = synth_market(n_nodes=3, n_days=3200, n_features=2, n_clusters=1, seed=8)
    split = SplitSpec(0.75, 0.125, 0.125)
    t, h = 30, 1
    train, val, test = make_windows(ds, t, h, split)
    assert len(train) == 2400 - t - h + 1
    assert len(val) == 400 - h
    assert len(test) == 400 - h
    assert train[-1].day_index == 2399 - h
    assert val[0].day_index == 2400
    assert test[0].day_index == 2400 + 400


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


@pytest.mark.parametrize("horizon, skipped", [(1, [10]), (2, [9, 10])])
def test_make_windows_skips_anchors_whose_horizon_meets_a_missing_target(tmp_path, horizon, skipped):
    # node bb's target cell is empty on day 10 of 20 only
    p = tmp_path / "panel.csv"
    write_csv(p, [f"{d},{n},{d},1.0,{'' if (d, n) == (10, 'bb') else 0.01}" for d in range(20) for n in ("aa", "bb")])
    ds = load_panel_csv(str(p))
    assert np.isnan(ds.targets[10, 1]) and np.isfinite(ds.targets).sum() == 2 * 20 - 1
    train, _, _ = make_windows(ds, 3, horizon, SplitSpec(1.0, 0.0, 0.0))
    assert [s.day_index for s in train] == [d for d in range(2, 20 - horizon) if d not in skipped]


def test_make_windows_insufficient_days():
    ds = synth_market(n_nodes=3, n_days=10, n_clusters=1, seed=11)
    with pytest.raises(ParameterError):
        make_windows(ds, 10, 1, SplitSpec(1.0, 0.0, 0.0))


def test_split_counts_must_sum():
    with pytest.raises(ParameterError):
        SplitSpec(5, 5, 5).resolve(20)


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ParameterError, match="sum to 1"):
        SplitSpec(0.5, 0.15, 0.15).resolve(100)
    assert SplitSpec(1.0, 0.0, 0.0).resolve(100) == (100, 0, 0)


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
