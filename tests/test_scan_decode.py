"""Column-at-a-time CSV decode: ``DataType.parse_column`` against the
per-field ``DataType.parse``, and the text scan built on it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import make_deployment
from repro.common.errors import ExecutionError
from repro.sql.types import DataType, Schema

# Field spellings that reach the decoder's fallbacks: both NULL spellings,
# every BOOLEAN spelling, whitespace-padded and signed numbers, and
# malformed numerics.
FIELDS = [
    "",
    r"\N",
    "0",
    "42",
    "-7",
    "+3",
    " 5",
    "6 ",
    "\t8\n",
    "1_000",
    "2.5",
    "-0.0",
    "1e3",
    " 2.5 ",
    "nan",
    "inf",
    "-Infinity",
    "true",
    "TRUE",
    " t ",
    "F",
    "1",
    "yes",
    "no",
    "abc",
    "1.2.3",
    "--1",
    "0x10",
    "12a",
    "N",
    "\\n",
    "é",
    str(2**70),
]


def reference(dtype: DataType, texts) -> tuple[str, object]:
    """What the row-at-a-time decode gives: values, or the exception."""
    try:
        return "ok", [dtype.parse(text) for text in texts]
    except Exception as exc:  # the exception type and message are compared
        return "raised", (type(exc), str(exc))


def decoded(dtype: DataType, texts) -> tuple[str, object]:
    try:
        return "ok", dtype.parse_column(texts)
    except Exception as exc:
        return "raised", (type(exc), str(exc))


def same_values(left, right) -> bool:
    """Equality that also holds for NaN and keeps int/float/bool apart."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if type(a) is not type(b):
            return False
        if a != b and not (a != a and b != b):
            return False
    return True


def assert_same(dtype: DataType, texts) -> None:
    expected, got = reference(dtype, texts), decoded(dtype, texts)
    assert expected[0] == got[0], (dtype, texts, expected, got)
    if expected[0] == "ok":
        assert same_values(expected[1], got[1]), (dtype, texts)
    else:
        assert expected[1] == got[1]


class TestParseColumn:
    @pytest.mark.parametrize("dtype", list(DataType))
    @pytest.mark.parametrize("text", FIELDS)
    def test_single_field_matches_parse(self, dtype, text):
        assert_same(dtype, (text,))

    @pytest.mark.parametrize("dtype", list(DataType))
    def test_null_free_column_matches_parse(self, dtype):
        texts = {
            DataType.INT: ("1", "-2", " 3"),
            DataType.BIGINT: ("9", str(2**70)),
            DataType.DOUBLE: ("1", "2.5", "nan"),
            DataType.VARCHAR: ("a", " b", "é"),
            DataType.BOOLEAN: ("true", "0", " YES "),
        }[dtype]
        assert_same(dtype, texts)

    @pytest.mark.parametrize("dtype", [DataType.INT, DataType.BIGINT, DataType.DOUBLE])
    def test_malformed_numeric_raises_like_parse(self, dtype):
        with pytest.raises(ValueError) as expected:
            [dtype.parse(t) for t in ("1", "", "oops", "3")]
        with pytest.raises(ValueError) as got:
            dtype.parse_column(("1", "", "oops", "3"))
        assert str(got.value) == str(expected.value)

    def test_empty_column(self):
        for dtype in DataType:
            assert dtype.parse_column(()) == []

    @settings(max_examples=200, deadline=None)
    @given(
        dtype=st.sampled_from(list(DataType)),
        texts=st.lists(st.one_of(st.sampled_from(FIELDS), st.text(max_size=6)), max_size=12),
    )
    def test_any_column_matches_parse(self, dtype, texts):
        assert_same(dtype, tuple(texts))


SCHEMA = Schema.of(
    ("id", DataType.INT),
    ("big", DataType.BIGINT),
    ("score", DataType.DOUBLE),
    ("name", DataType.VARCHAR),
    ("flag", DataType.BOOLEAN),
)


def text_table(columnar: bool, lines: list[str]):
    """A deployment with ``lines`` as an external CSV table ``t`` in two
    part files."""
    deployment = make_deployment(columnar=columnar, block_size=4096)
    deployment.dfs.mkdirs("/t")
    half = len(lines) // 2
    for index, part in enumerate((lines[:half], lines[half:])):
        deployment.dfs.write_text(f"/t/part-{index}", "\n".join(part) + "\n")
    deployment.engine.register_external_table("t", SCHEMA, "/t")
    return deployment


def sample_lines(count: int) -> list[str]:
    """Rows whose NULLs cluster in some decode chunks and not in others."""
    lines = []
    for i in range(count):
        score = "" if 600 <= i < 700 else f"{i * 0.25}"
        name = r"\N" if i % 997 == 0 else f"n{i % 13}"
        flag = ["true", "F", " yes ", ""][i % 4] if i > 1500 else "t"
        lines.append(f"{i},{i * 1_000_003},{score},{name},{flag}")
    return lines


class TestTextScan:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_scan_matches_per_field_parse(self, columnar):
        lines = sample_lines(2_500)
        deployment = text_table(columnar, lines)
        expected = [
            tuple(col.dtype.parse(field) for col, field in zip(SCHEMA, line.split(",")))
            for line in lines
        ]
        got = sorted(deployment.engine.query_rows("SELECT * FROM t"), key=_null_first)
        assert got == sorted(expected, key=_null_first)
        assert deployment.cluster.ledger.get("columnar.fallback") == 0

    @pytest.mark.parametrize("columnar", [False, True])
    def test_wrong_field_count_raises_execution_error(self, columnar):
        lines = sample_lines(40)
        lines[33] = "33,1,2.0,x"  # one field short
        deployment = text_table(columnar, lines)
        with pytest.raises(ExecutionError, match="expected 5 fields, got 4"):
            deployment.engine.query_rows("SELECT * FROM t")

    @pytest.mark.parametrize("columnar", [False, True])
    def test_malformed_number_raises_value_error(self, columnar):
        lines = sample_lines(40)
        lines[7] = "7,70,not-a-number,x,t"
        deployment = text_table(columnar, lines)
        with pytest.raises(ValueError, match="not-a-number"):
            deployment.engine.query_rows("SELECT * FROM t")

    def test_bigint_beyond_int64_falls_back_to_rows_once(self):
        """Typed storage refuses the partition holding 2**70: it stays rows,
        with one ``columnar.fallback`` tick per scan and no retry."""
        lines = sample_lines(200)
        lines[5] = f"5,{2**70},1.0,x,t"
        rows_plane = text_table(False, lines)
        columnar = text_table(True, lines)
        ledger = columnar.cluster.ledger
        for expected_ticks, query in enumerate(
            (
                "SELECT * FROM t",
                "SELECT id, big FROM t WHERE id < 50",
                "SELECT name, COUNT(*) FROM t GROUP BY name",
            ),
            start=1,
        ):
            got = columnar.engine.query_rows(query)
            assert sorted(got, key=_null_first) == sorted(
                rows_plane.engine.query_rows(query), key=_null_first
            )
            assert ledger.get("columnar.fallback") == expected_ticks


def _null_first(row: tuple) -> tuple:
    return tuple((value is not None, value) for value in row)
