import pytest

from newsgeo.errors import ConfigurationError, DataIntegrityError, FormatError
from newsgeo.states import by_state, number, read_table, state_code

COLUMNS = ("state", "lat", "lon")


def rows(tmp_path, data):
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    return [(cells, where.removeprefix(f"{path}: "))
            for cells, where in read_table(str(path), COLUMNS)]


class TestReadTable:
    def test_header_is_optional(self, tmp_path):
        body = b"WA, 47.4 ,-120.5\r\nTX,31.0,-99.9\r\n"
        cells = [["WA", "47.4", "-120.5"], ["TX", "31.0", "-99.9"]]
        assert rows(tmp_path, body) == [(cells[0], "line 1"),
                                        (cells[1], "line 2")]
        assert rows(tmp_path, b"State,lat,lon\r\n" + body) == \
            [(cells[0], "line 2"), (cells[1], "line 3")]

    def test_only_the_first_row_may_be_the_header(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_bytes(b"askreddit,TX\nSubreddit,CA\n")
        assert [cells for cells, _ in read_table(
            str(path), ("subreddit", "state"))] == \
            [["askreddit", "TX"], ["Subreddit", "CA"]]
        assert rows(tmp_path, b"# c\n\nstate,lat,lon\nWA,1,2\n"
                              b"state,lat,lon\n") == \
            [(["WA", "1", "2"], "line 4"), (["state", "lat", "lon"], "line 5")]

    def test_blank_and_comment_rows_skipped(self, tmp_path):
        data = b"state,lat,lon\n\n# note,x\n ,\nWA,1,2\n"
        assert rows(tmp_path, data) == [(["WA", "1", "2"], "line 5")]

    @pytest.mark.parametrize("line", [b"WA,1", b"WA,1,2,3"])
    def test_wrong_field_count(self, tmp_path, line):
        with pytest.raises(FormatError, match="line 2 has"):
            rows(tmp_path, b"WA,1,2\n" + line + b"\n")

    def test_not_utf8_names_the_line(self, tmp_path):
        with pytest.raises(FormatError, match="line 3 is not UTF-8"):
            rows(tmp_path, b"WA,1,2\nTX,3,4\nCA\xe9,5,6\n")

    def test_byte_order_mark_dropped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        assert rows(tmp_path, bom + b"state,lat,lon\nWA,1,2\n") == \
            [(["WA", "1", "2"], "line 2")]
        with pytest.raises(FormatError, match="line 2 is not UTF-8"):
            rows(tmp_path, bom + b"WA,1,2\nCA\xe9,5,6\n")

    def test_oversized_field_names_the_line(self, tmp_path):
        with pytest.raises(FormatError, match="line 2: field larger"):
            rows(tmp_path, b"WA,1,2\nTX," + b"x" * 200_000 + b",4\n")


def test_by_state():
    assert by_state([("WA", 1, "w1"), ("TX", 2, "w2")]) == {"WA": 1, "TX": 2}
    with pytest.raises(DataIntegrityError,
                       match="w3: duplicate state row 'WA'"):
        by_state([("WA", 1, "w1"), ("TX", 2, "w2"), ("WA", 1, "w3")])


def test_state_code():
    assert state_code(" wa ", "f: line 1") == "WA"
    with pytest.raises(ConfigurationError, match="f: line 1: 'DC'"):
        state_code("DC", "f: line 1")


def test_number():
    assert number(int, "12", "w") == 12
    assert number(float, "-1.5", "w") == -1.5
    with pytest.raises(FormatError, match="w: '1.5' is not an integer"):
        number(int, "1.5", "w")
    with pytest.raises(FormatError, match="w: 'nan' is not a finite number"):
        number(float, "nan", "w")
