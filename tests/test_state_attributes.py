import math

import numpy as np
import pytest

from newsgeo.errors import (
    ConfigurationError,
    DataIntegrityError,
    DegenerateVariableError,
    FormatError,
)
from newsgeo.state_attributes import (
    ATTRIBUTE_COLUMNS,
    MODEL_GROUPS,
    StateAttributeTable,
    cross_correlation,
    load_attributes,
    zscore,
)
from newsgeo.states import STATE_CODES


def write_csv(path, header, rows):
    path.write_text(",".join(header) + "\n" +
                    "\n".join(",".join(str(c) for c in row) for row in rows) +
                    "\n")


def full_fixture(tmp_path, rng, missing=()):
    header = ["state"] + ATTRIBUTE_COLUMNS
    rows = []
    for state in STATE_CODES:
        row = [state]
        for col in ATTRIBUTE_COLUMNS:
            if (state, col) in missing:
                row.append("")
            elif col == "swing_state":
                row.append(int(rng.random() < 0.3))
            elif col in ("minority", "no_highschool"):
                row.append(round(float(rng.uniform(1, 60)), 3))
            elif col == "population":
                row.append(int(rng.integers(5e5, 4e7)))
            else:
                row.append(round(float(rng.standard_normal()), 4))
        rows.append(row)
    path = tmp_path / "attrs.csv"
    write_csv(path, header, rows)
    return str(path)


class TestLoad:
    def test_fifty_state_fixture(self, tmp_path, rng):
        table = load_attributes(full_fixture(tmp_path, rng))
        assert len(table.values) == 50
        assert set(table.columns) == set(ATTRIBUTE_COLUMNS)

    def test_blank_cell_flags_incomplete(self, tmp_path, rng):
        path = full_fixture(tmp_path, rng, missing={("OH", "cultural_tightness")})
        table = load_attributes(path)
        assert table.values["OH"]["cultural_tightness"] is None
        assert "OH" not in table.complete_states(["cultural_tightness"])

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["state", "charisma"], [["OH", 1.0]])
        with pytest.raises(ConfigurationError,
                           match="bad.csv: line 1: unknown attribute column "
                                 "'charisma'"):
            load_attributes(str(path))

    @pytest.mark.parametrize("text", ["", "openness\n1.0\n"],
                             ids=["empty", "no_state"])
    def test_missing_state_column_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigurationError,
                           match="bad.csv: line 1: missing a 'state' column"):
            load_attributes(str(path))

    def test_duplicate_state_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_csv(path, ["state", "openness"], [["OH", 1.0], ["OH", 2.0]])
        with pytest.raises(DataIntegrityError,
                           match="line 3: duplicate state row 'OH'"):
            load_attributes(str(path))

    @pytest.mark.parametrize("row", [["WY"], ["WY", 1.0, 2.0]],
                             ids=["short", "long"])
    def test_row_of_another_width_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        write_csv(path, ["state", "openness"], [["OH", 1.0], row])
        with pytest.raises(FormatError,
                           match=f"line 3 has {len(row)} fields, expected 2"):
            load_attributes(str(path))

    def test_unknown_state_rejected(self, tmp_path):
        path = tmp_path / "dc.csv"
        write_csv(path, ["state", "openness"], [["OH", 1.0], ["DC", 2.0]])
        with pytest.raises(ConfigurationError, match="line 3: 'DC'"):
            load_attributes(str(path))

    def test_non_number_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["state", "openness"], [["OH", "high"]])
        with pytest.raises(FormatError, match="line 2: 'high' is not a finite number"):
            load_attributes(str(path))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"state,openness\nOH,1.0\n\xff\n")
        with pytest.raises(FormatError, match="line 3 is not UTF-8"):
            load_attributes(str(path))

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfstate,openness\nOH,1.5\n")
        table = load_attributes(str(path))
        assert table.columns == ["openness"]
        assert table.values == {"OH": {"openness": 1.5}}

    def test_bad_swing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["state", "swing_state"], [["OH", 0.5]])
        with pytest.raises(DataIntegrityError):
            load_attributes(str(path))

    def test_column_means_match_hand_computation(self, tmp_path, rng):
        path = full_fixture(tmp_path, rng)
        table = load_attributes(path)
        # independent recomputation straight from the file text
        import csv as _csv
        with open(path) as fh:
            rows = list(_csv.DictReader(fh))
        expected = sum(float(r["openness"]) for r in rows) / len(rows)
        states = table.complete_states(["openness"])
        assert table.column("openness", states).mean() == pytest.approx(expected)


class TestZscore:
    def test_three_values(self):
        table = StateAttributeTable(
            columns=["openness"],
            values={"OH": {"openness": 1.0}, "CA": {"openness": 2.0},
                    "TX": {"openness": 3.0}})
        std, dropped = zscore(table, ["openness"])
        got = [std.values[s]["openness"] for s in ("OH", "CA", "TX")]
        assert got == pytest.approx([-1.0, 0.0, 1.0])
        assert dropped == []

    def test_idempotent(self, tmp_path, rng):
        table = load_attributes(full_fixture(tmp_path, rng))
        once, _ = zscore(table, ["openness", "gdp"])
        twice, _ = zscore(once, ["openness", "gdp"])
        for s in once.states():
            assert twice.values[s]["openness"] == \
                pytest.approx(once.values[s]["openness"], abs=1e-12)

    def test_mean_zero_sd_one(self, tmp_path, rng):
        table = load_attributes(full_fixture(tmp_path, rng))
        std, _ = zscore(table, list(ATTRIBUTE_COLUMNS))
        states = std.states()
        for col in ATTRIBUTE_COLUMNS:
            values = std.column(col, states)
            assert abs(values.mean()) < 1e-12
            assert abs(values.std(ddof=1) - 1.0) < 1e-12

    def test_zero_variance_rejected(self):
        table = StateAttributeTable(
            columns=["openness"],
            values={s: {"openness": 5.0} for s in ("OH", "CA", "TX")})
        with pytest.raises(DegenerateVariableError):
            zscore(table, ["openness"])

    def test_incomplete_states_dropped(self, tmp_path, rng):
        path = full_fixture(tmp_path, rng, missing={("OH", "gdp")})
        table = load_attributes(path)
        std, dropped = zscore(table, ["gdp", "openness"])
        assert dropped == ["OH"]
        assert len(std.values) == 49


class TestCrossCorrelation:
    def test_self_correlation(self, tmp_path, rng):
        table = load_attributes(full_fixture(tmp_path, rng))
        r, _ = cross_correlation(table, ["openness", "gdp"])
        assert r[0, 0] == 1.0
        assert r[1, 1] == 1.0

    def test_symmetry_and_bounds(self, tmp_path, rng):
        table = load_attributes(full_fixture(tmp_path, rng))
        variables = ["openness", "gdp", "minority", "political"]
        r, p = cross_correlation(table, variables)
        assert np.allclose(r, r.T)
        assert np.allclose(p, p.T)
        assert np.all(np.abs(r[~np.isnan(r)]) <= 1.0 + 1e-12)

    def test_formula_oracle(self, rng):
        x = rng.standard_normal(48)
        y = rng.standard_normal(48)
        states = list(STATE_CODES[:48])
        table = StateAttributeTable(
            columns=["openness", "gdp"],
            values={s: {"openness": float(x[i]), "gdp": float(y[i])}
                    for i, s in enumerate(states)})
        r, _ = cross_correlation(table, ["openness", "gdp"])
        # direct product-moment formula
        xc, yc = x - x.mean(), y - y.mean()
        r_expected = float(xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)))
        assert r[0, 1] == pytest.approx(r_expected, abs=1e-10)

    def test_affine_rescaling_invariance(self, tmp_path, rng):
        table = load_attributes(full_fixture(tmp_path, rng))
        base, _ = cross_correlation(table, ["openness", "gdp"])
        rescaled = StateAttributeTable(
            columns=table.columns,
            values={s: {**row, "gdp": None if row["gdp"] is None
                        else 3.0 * row["gdp"] + 100.0}
                    for s, row in table.values.items()})
        again, _ = cross_correlation(rescaled, ["openness", "gdp"])
        assert abs(base[0, 1] - again[0, 1]) < 1e-12

    def test_insufficient_pair_marked_unavailable(self):
        table = StateAttributeTable(
            columns=["openness", "gdp"],
            values={"OH": {"openness": 1.0, "gdp": None},
                    "CA": {"openness": 2.0, "gdp": 1.0},
                    "TX": {"openness": 3.0, "gdp": 2.0}})
        r, p = cross_correlation(table, ["openness", "gdp"])
        assert math.isnan(r[0, 1]) and math.isnan(p[0, 1])


def test_model_groups_cover_table_columns():
    assert sorted(MODEL_GROUPS["all"]) == sorted(ATTRIBUTE_COLUMNS)
    assert len(MODEL_GROUPS["personality_culture"]) == 6
    assert len(MODEL_GROUPS["socioeconomic"]) == 5
    assert len(MODEL_GROUPS["political"]) == 3
