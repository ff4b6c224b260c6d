"""Self-contained SVG rendering of threshold-style result tables, pinned
against committed golden files."""

from __future__ import annotations

import os

import pytest

from weakham import (
    InputError,
    Table,
    emit_plot,
    load_table,
    make_config,
    read_table,
    render_threshold_svg,
    run_experiment,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLD_CSV = os.path.join(DATA, "threshold_gold.csv")
GOLD_SVG = os.path.join(DATA, "threshold_gold.svg")


def test_render_matches_golden_file():
    table = load_table(GOLD_CSV)
    with open(GOLD_SVG, newline="") as f:
        want = f.read()
    assert render_threshold_svg(table) == want


def test_golden_table_is_reproducible_from_scratch():
    cfg = make_config(
        "threshold",
        {"n": "14", "trials": "10", "c_grid": "-1,0,1,2", "seed": "21"},
    )
    with open(GOLD_CSV, newline="") as f:
        assert run_experiment(cfg).to_csv_text() == f.read()


def test_render_is_deterministic():
    table = load_table(GOLD_CSV)
    assert render_threshold_svg(table) == render_threshold_svg(table)


def test_svg_structure():
    svg = render_threshold_svg(load_table(GOLD_CSV))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.rstrip().endswith("</svg>")
    assert "limit exp(-exp(-c))" in svg  # theory curve legend
    assert "<rect" in svg and "<text" in svg


def test_render_accepts_gnm_tables():
    cfg = make_config(
        "gnm", {"n": "12", "trials": "5", "c_grid": "0,1", "seed": "2"}
    )
    svg = render_threshold_svg(run_experiment(cfg))
    assert svg.startswith("<svg ")


def test_fresh_and_read_back_tables_give_the_same_columns_and_svg():
    # with budget 1 and no oracle, no trial at c = 4 is decided, so its
    # phat_ham cell is empty
    cfg = make_config(
        "threshold",
        {"n": "40", "c_grid": "3,4", "trials": "2", "budget": "1",
         "oracle_cutoff": "0", "seed": "0"},
    )
    fresh = run_experiment(cfg)
    back = read_table(fresh.to_csv_text())
    assert fresh.column("phat_ham")[1] == ""
    for name in fresh.columns:
        assert fresh.column(name) == back.column(name)
    assert render_threshold_svg(fresh) == render_threshold_svg(back)


def test_render_rejects_other_schemas():
    cfg = make_config("process", {"n": "8", "trials": "3", "seed": "1"})
    tab = run_experiment(cfg)
    with pytest.raises(InputError, match="expects a threshold or gnm table"):
        render_threshold_svg(tab)


def test_render_rejects_empty_table():
    table = load_table(GOLD_CSV)
    empty = Table(kind=table.kind, columns=table.columns, rows=())
    with pytest.raises(InputError, match="no data rows"):
        render_threshold_svg(empty)


def test_emit_plot_round_trip(tmp_path):
    out = os.fspath(tmp_path / "plot.svg")
    emit_plot(GOLD_CSV, out)
    with open(out, newline="") as f:
        got = f.read()
    with open(GOLD_SVG, newline="") as f:
        assert got == f.read()


def test_emit_plot_missing_input(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot(os.fspath(tmp_path / "absent.csv"), os.fspath(tmp_path / "x.svg"))
