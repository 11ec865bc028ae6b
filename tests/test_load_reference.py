"""Differential test: ``load_dataset`` against a naive reference loader.

The reference reads every row into one list, checks the row widths, then
coerces column by column and cell by cell, deciding each cell's type on
the spot; a Timestamp column's values go into an ``array('q')`` of
microseconds, with 0 at absent rows. ``load_dataset`` reads the text in
slices and the rows in chunks, picks each column's coercer once and
judges a repeated text once per column; on every input both must give
the same snapshot, or raise the same exception with the same message.
"""

from __future__ import annotations

import csv
import io
import json
import re
from array import array
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqlocus import ingest
from dqlocus.errors import HeaderMalformed, MissingColumn, SchemaViolation
from dqlocus.ingest import Column, DatasetSnapshot, SemanticType, load_dataset, load_manifest

FIELDS = [
    {"name": "id", "semantic_type": "Code", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
    {"name": "note", "semantic_type": "Text", "entry_mode": "FreeEntry", "generating_actor": "Clinician"},
    {"name": "num", "semantic_type": "Number", "entry_mode": "FreeEntry", "generating_actor": "Clinician"},
    {"name": "day", "semantic_type": "Date", "entry_mode": "FreeEntry", "generating_actor": "Clinician"},
    {"name": "ts", "semantic_type": "Timestamp", "entry_mode": "AutoGenerated", "generating_actor": "EHRSystem"},
]
NAMES = [f["name"] for f in FIELDS]
EXTRA = ["extra", "more"]  # header columns the manifest does not name


def manifest(sentinels=None):
    doc = {"dataset_id": "load", "stage": "SourceExtract", "fields": FIELDS}
    if sentinels is not None:
        doc["missing_sentinels"] = sorted(sentinels)
    return load_manifest(json.dumps(doc))


# --- the reference ----------------------------------------------------------

def coerce(raw, semantic):
    """(value, ok) for one cell, deciding the type per call: a timestamp is
    its microseconds since 1970-01-01T00:00 in naive UTC."""
    if semantic in (SemanticType.CODE, SemanticType.CATEGORY, SemanticType.TEXT):
        return raw, True
    try:
        if semantic is SemanticType.NUMBER:
            return float(raw), True
        if semantic is SemanticType.DATE:
            return date.fromisoformat(raw), True
        value = datetime.fromisoformat(raw)
    except ValueError:
        return None, False
    if value.tzinfo is not None:
        try:
            value = value.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:  # the offset moves it out of datetime's range
            return None, False
    return (value - datetime(1970, 1, 1)) // timedelta(microseconds=1), True


def reference_load(text, manifest):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise SchemaViolation(f"dataset is not UTF-8 text: {e}") from None
    if text.startswith("\ufeff"):  # one byte-order mark is not text
        text = text[1:]
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return reference_rows(reader, manifest)
    except csv.Error as e:
        raise SchemaViolation(f"dataset row at line {reader.line_num}: {e}") from None


def reference_rows(reader, manifest):
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMalformed("dataset has no header row") from None
    if any(not h for h in header):
        raise HeaderMalformed("header contains an empty column name")
    if len(set(header)) != len(header):
        raise HeaderMalformed("header contains duplicate column names")
    for f in manifest.fields:
        if f.name not in header:
            raise MissingColumn(f"dataset is missing manifest column {f.name!r}")
    rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise HeaderMalformed(f"row {i} has {len(row)} cells, header has {len(header)}")
    columns = {}
    for f in manifest.fields:
        pos = header.index(f.name)
        values, missing, failures = [], set(), []
        for i, row in enumerate(rows):
            raw = row[pos]
            if raw in manifest.missing_sentinels:
                values.append(None)
                missing.add(i)
                continue
            value, ok = coerce(raw, f.semantic_type)
            values.append(value)
            if not ok:
                failures.append((i, raw))
        if f.semantic_type is SemanticType.TIMESTAMP:
            values = array("q", [0 if value is None else value for value in values])
        columns[f.name] = Column(tuple(values) if isinstance(values, list) else values,
                                 frozenset(missing), tuple(failures))
    return DatasetSnapshot(manifest=manifest, row_count=len(rows), columns=columns)


def result(load, text, manifest):
    """A comparable form of a load: its columns, or its exception. Values
    compare by repr, so that a NaN equals a NaN and 1.0 differs from "1.0",
    and each column's container compares by its type."""
    try:
        snapshot = load(text, manifest)
    except Exception as e:  # noqa: BLE001 - both loaders must fail alike
        return ("raised", type(e), str(e))
    columns = {
        name: (type(col.values), tuple(map(repr, col.values)), col.missing, col.failures)
        for name, col in snapshot.columns.items()
    }
    return (snapshot.row_count, columns)


# --- inputs -----------------------------------------------------------------

TYPED = [
    "0", "-1", "12", "1.5", " 7 ", "1_0", "nan", "inf",
    "2024-01-01", "2024-02-29", "2024-01-01T10:00:00", "2024-01-01T10:00:00+02:00",
]
#: The last two are timestamps whose offset moves them out of datetime's range.
MALFORMED = ["abc", "1..2", "2024-02-30", "2024-13-01", "10:00", "-",
             "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
SENTINELS = ["", "NA", "NULL"]
TEXT = ["a,b", "line1\nline2", "two\r\nlines", 'say "hi"', "x\ry", " "]
CELLS = st.sampled_from(TYPED + MALFORMED + SENTINELS + TEXT)
#: Default sentinels, or custom ones that would otherwise parse as typed.
SENTINEL_SETS = st.sampled_from([None, {"-1"}, {"0", ""}, {"2024-01-01", "NA"}, {"", "-1", "abc"}])
#: The csv field size limit ``low_field_limit`` sets, longer than any
#: other cell drawn, and long cells of exactly the limit and one over it.
LOW_LIMIT = 32
LONG_CELLS = st.sampled_from(["x" * LOW_LIMIT, "x" * (LOW_LIMIT + 1)])


def drawn_rows(draw, cells, width, n_rows):
    """``n_rows`` rows of ``width`` cells, drawn a column at a time: each
    column draws from ``cells`` at large, from a pool of one to three of
    them (so that its texts repeat and the loader shares their values), or
    from such a pool up to a row and at large from there on (so that the
    loader stops sharing partway)."""
    columns = []
    for _ in range(width):
        pool = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=3)))
        switch = draw(st.sampled_from([0, n_rows, draw(st.integers(0, n_rows))]))
        columns.append([draw(pool if i < switch else cells) for i in range(n_rows)])
    return [list(row) for row in zip(*columns)]


def with_long_cell(draw, row):
    """``row``, with one cell in ten rows replaced by a long cell."""
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, len(row) - 1))] = draw(LONG_CELLS)
    return row


@st.composite
def csv_texts(draw, max_rows=12, ragged=False, quotings=(csv.QUOTE_MINIMAL, csv.QUOTE_ALL),
              marks=("", "", "", "\ufeff", "\ufeff\ufeff")):
    """CSV text, or its UTF-8 bytes, after one of ``marks`` (byte-order
    marks), with long cells in some rows. Minimal quoting leaves a lone
    carriage return unquoted, which ends the row there, so ragged rows
    occur then too."""
    header = draw(st.permutations(NAMES + draw(st.sampled_from([[], EXTRA[:1], EXTRA]))))
    quoting = draw(st.sampled_from(quotings))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=newline, quoting=quoting)
    writer.writerow(header)
    for row in drawn_rows(draw, CELLS, len(header), draw(st.integers(0, max_rows))):
        row = with_long_cell(draw, row)
        if ragged and draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["spare"]
        writer.writerow(row)
        if draw(st.integers(0, 4)) == 0:
            buffer.write(draw(st.sampled_from(["\n", "\r\n", "\r"])))  # a blank line
    text = buffer.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(newline)
    text = draw(st.sampled_from(marks)) + text
    return text.encode() if draw(st.booleans()) else text


QUOTE_FREE_CELLS = st.sampled_from(TYPED + MALFORMED + SENTINELS + [" "])


@st.composite
def quote_free_texts(draw, max_rows=12):
    """CSV text, or its UTF-8 bytes, with no quote, CR or NUL, so that it is
    split on commas: LF line ends, blank lines (before the header too),
    ragged rows, long cells, and 0-2 byte-order marks."""
    header = draw(st.permutations(NAMES + draw(st.sampled_from([[], EXTRA[:1], EXTRA]))))
    lines = [""] if draw(st.integers(0, 9)) == 0 else []
    lines.append(",".join(header))
    for row in drawn_rows(draw, QUOTE_FREE_CELLS, len(header), draw(st.integers(0, max_rows))):
        row = with_long_cell(draw, row)
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["spare"]
        lines.append(",".join(row))
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))  # blank lines
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    text = draw(st.sampled_from(["", "", "\ufeff", "\ufeff\ufeff"])) + text
    return text.encode() if draw(st.booleans()) else text


#: Chunk sizes of 2 and 3 rows put the drawn row counts on both sides of a
#: chunk boundary; small slices cut the text between most lines.
CHUNKS = st.sampled_from([2, 3, ingest._CHUNK_ROWS])
SLICES = st.sampled_from([1, 8, 64, ingest._SLICE_CHARS])


def load_in_chunks(text, m, chunk_rows, slice_chars):
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        with mock.patch.object(ingest, "_SLICE_CHARS", slice_chars):
            return result(load_dataset, text, m)


@pytest.fixture
def low_field_limit():
    """The csv field size limit lowered to ``LOW_LIMIT`` for the test, so
    that a long cell drawn is over it, and restored after the test."""
    old = csv.field_size_limit(LOW_LIMIT)
    try:
        yield
    finally:
        csv.field_size_limit(old)


#: The limit ``low_field_limit`` sets holds for every example of a test,
#: so the fixture is meant to run once per test, not once per example.
ONCE_PER_TEST = [HealthCheck.function_scoped_fixture]


# --- properties -------------------------------------------------------------

@settings(max_examples=300, deadline=None, suppress_health_check=ONCE_PER_TEST)
@given(text=csv_texts(), sentinels=SENTINEL_SETS, chunk_rows=CHUNKS, slice_chars=SLICES)
def test_load_equals_reference(text, sentinels, chunk_rows, slice_chars, low_field_limit):
    m = manifest(sentinels)
    assert load_in_chunks(text, m, chunk_rows, slice_chars) == result(reference_load, text, m)


@settings(max_examples=200, deadline=None, suppress_health_check=ONCE_PER_TEST)
@given(text=csv_texts(ragged=True), chunk_rows=CHUNKS, slice_chars=SLICES)
def test_ragged_rows_raise_as_the_reference_does(text, chunk_rows, slice_chars, low_field_limit):
    m = manifest()
    assert load_in_chunks(text, m, chunk_rows, slice_chars) == result(reference_load, text, m)


def no_reader(*args, **kwargs):
    raise AssertionError("csv.reader was called")


@settings(max_examples=300, deadline=None, suppress_health_check=ONCE_PER_TEST)
@given(text=quote_free_texts(), sentinels=SENTINEL_SETS, chunk_rows=CHUNKS, slice_chars=SLICES)
def test_split_load_of_quote_free_text_equals_reference(text, sentinels, chunk_rows, slice_chars, low_field_limit):
    m = manifest(sentinels)
    expected = result(reference_load, text, m)
    with mock.patch.object(ingest.csv, "reader", no_reader):
        assert load_in_chunks(text, m, chunk_rows, slice_chars) == expected


@settings(max_examples=200, deadline=None)
@given(text=csv_texts(quotings=(csv.QUOTE_ALL,), marks=("", "\ufeff")), sentinels=SENTINEL_SETS)
def test_cell_states_partition_every_column(text, sentinels):
    snapshot = load_dataset(text, manifest(sentinels))
    rows = set(range(snapshot.row_count))
    for name, col in snapshot.columns.items():
        if snapshot.manifest.get_field(name).semantic_type is SemanticType.TIMESTAMP:
            assert isinstance(col.values, array) and col.values.typecode == "q"
        else:
            assert isinstance(col.values, tuple)
        assert isinstance(col.missing, frozenset) and isinstance(col.failures, tuple)
        failed = {i for i, _ in col.failures}
        assert len(col.values) == snapshot.row_count
        assert len(failed) == len(col.failures)
        assert col.missing | failed <= rows and not (col.missing & failed)
        typed = rows - col.missing - failed  # absence is read from missing and failures alone
        if isinstance(col.values, tuple):  # None stands at exactly the absent rows
            assert {i for i, value in enumerate(col.values) if value is not None} == typed
        else:  # 0 stands at every absent row
            assert all(col.values[i] == 0 for i in rows - typed)


# --- timestamps ----------------------------------------------------------------

#: Timestamps at both ends of datetime's range, naive and aware, and aware
#: ones whose offset moves them just out of it.
TIMESTAMP_EDGES = [
    "0001-01-01T00:00:00", "0001-01-01", "0001-01-01T01:00:00+01:00", "0001-01-01T00:59:59.999999+01:00",
    "9999-12-31T23:59:59.999999", "9999-12-31", "9999-12-31T22:59:59.999999-01:00", "9999-12-31T23:00:00-01:00",
    "1970-01-01T00:00:00", "1969-12-31T23:59:59.999999",
]


@st.composite
def timestamp_texts(draw):
    """An ISO-8601 timestamp anywhere in datetime's range, to the second,
    the millisecond or the microsecond, naive or with an offset of up to a
    day less a minute either way."""
    value = draw(st.datetimes())
    sep = draw(st.sampled_from("T "))
    text = value.isoformat(sep, draw(st.sampled_from(["auto", "seconds", "milliseconds", "microseconds"])))
    minutes = draw(st.none() | st.sampled_from([0, 60, -60, 330, 1439, -1439]) | st.integers(-1439, 1439))
    if minutes is not None:
        text += f"{'-' if minutes < 0 else '+'}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
    return text


TIMESTAMP_CELLS = st.one_of(timestamp_texts(), st.sampled_from(TIMESTAMP_EDGES + SENTINELS + ["soon", "10:00"]))


@st.composite
def timestamp_columns(draw, max_rows=12):
    """The cells of one Timestamp column, drawn as ``drawn_rows`` draws a
    column, so that repeated texts share their value."""
    return [row[0] for row in drawn_rows(draw, TIMESTAMP_CELLS, 1, draw(st.integers(0, max_rows)))]


@settings(max_examples=300, deadline=None)
@given(cells=timestamp_columns(), chunk_rows=CHUNKS)
def test_timestamps_load_as_the_reference_does(cells, chunk_rows):
    """Aware and naive values, fractional seconds, both ends of datetime's
    range and offsets that leave it: the same microseconds, missing rows
    and failures as the reference, and each value the instant it names."""
    text = column_csv(ts=cells) if cells else HEADER
    m = manifest()
    assert load_in_chunks(text, m, chunk_rows, ingest._SLICE_CHARS) == result(reference_load, text, m)
    column = load_dataset(text, m).columns["ts"]
    for i in set(range(len(cells))) - column.missing - {i for i, _ in column.failures}:
        value = datetime.fromisoformat(cells[i])
        if value.tzinfo is not None:
            value = value.astimezone(timezone.utc).replace(tzinfo=None)
        assert ingest.EPOCH + timedelta(microseconds=column.values[i]) == value


# --- chunk boundaries, pinned -----------------------------------------------

def boundary_csv(n_rows, ragged_at=None):
    """Rows whose cells cycle through typed, missing and malformed ones, with
    a blank line after every third row; row ``ragged_at`` (counted over
    non-blank rows) has one cell too many."""
    lines = [",".join(NAMES)]
    for i in range(n_rows):
        num = ["1.5", "", "bad"][i % 3]
        day = ["2024-01-01", "NA", "2024-02-30"][i % 3]
        cells = [f"r{i}", f"note {i}", num, day, "2024-01-01T10:00:00+01:00"]
        if i == ragged_at:
            cells.append("spare")
        lines.append(",".join(cells))
        if i % 3 == 2:
            lines.append("")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_rows", range(8))
def test_row_counts_around_a_chunk_of_three(n_rows):
    text = boundary_csv(n_rows)
    m = manifest()
    assert load_in_chunks(text, m, 3, 16) == result(reference_load, text, m)
    assert load_dataset(text, m).row_count == n_rows


@pytest.mark.parametrize("ragged_at", [0, 2, 3, 4, 6])
def test_ragged_row_index_counts_non_blank_rows_across_chunks(ragged_at):
    text = boundary_csv(8, ragged_at=ragged_at)
    with mock.patch.object(ingest, "_CHUNK_ROWS", 3):
        with pytest.raises(HeaderMalformed) as raised:
            load_dataset(text, manifest())
    assert str(raised.value) == f"row {ragged_at} has 6 cells, header has 5"
    assert result(reference_load, text, manifest())[2] == str(raised.value)


# --- shared values, pinned ---------------------------------------------------

def column_csv(**columns):
    """A text of ``NAMES`` columns, each given one cell per row or, when not
    given, a distinct text per row (so that it takes the each-cell path)."""
    n_rows = len(next(iter(columns.values())))
    cells = {name: columns.get(name) or [f"{name}{i}" for i in range(n_rows)] for name in NAMES}
    return "".join(",".join(row) + "\n" for row in zip(*([name, *cells[name]] for name in NAMES), strict=True))


@pytest.mark.parametrize("name, text", [("note", "same note"), ("num", "1.5"), ("day", "2024-01-01")])
def test_a_repeated_text_holds_one_value_object_across_chunks(name, text):
    source = column_csv(**{name: [text] * 10})
    with mock.patch.object(ingest, "_CHUNK_ROWS", 3):
        values = load_dataset(source, manifest()).columns[name].values
    assert len({id(v) for v in values}) == 1
    assert values[0] == coerce(text, SemanticType(FIELDS[NAMES.index(name)]["semantic_type"]))[0]


def test_a_column_that_repeats_and_then_turns_distinct_loads_as_the_reference_does():
    """Shared while its texts repeat, each cell judged on its own once more
    than half its cells so far are distinct texts, and either way the
    values, missing rows and failures of the reference."""
    # 4 texts in rows 0-15; 7 in 20 rows, 11 in 24, then 15 in 28: dropped there
    cells = ["1.5", "1.5", "", "1.5"] * 2 + ["bad", "1.5", "1.5", "2"] * 2
    cells += ["0.25", "1.25", "2.25", "1.5"] + [f"{i}.25" for i in range(3, 20)] + ["", "bad", "1.5"]
    text = column_csv(num=cells, day=["2024-01-01", "NA"] * 20)
    m = manifest()
    with mock.patch.object(ingest, "_CHUNK_ROWS", 4):
        loaded = load_dataset(text, m)
        assert result(load_dataset, text, m) == result(reference_load, text, m)
    values = loaded.columns["num"].values
    assert len({id(values[i]) for i in range(24) if cells[i] == "1.5"}) == 1
    assert values[-1] == 1.5 and values[-1] is not values[0]  # judged on its own again
    assert loaded.columns["num"].failures == tuple((i, "bad") for i, raw in enumerate(cells) if raw == "bad")


def test_nan_and_signed_zero_texts_are_judged_each_by_its_own_text():
    """``"0"`` and ``"-0"`` are equal floats that print apart, and a NaN
    equals nothing: each text keeps its own value, shared only with cells
    of the same text."""
    texts = ["0", "-0", "nan", "NaN", "0.0", "-0.0"] * 4
    source = column_csv(num=texts)
    m = manifest()
    with mock.patch.object(ingest, "_CHUNK_ROWS", 12):
        values = load_dataset(source, m).columns["num"].values
        assert result(load_dataset, source, m) == result(reference_load, source, m)
    assert list(map(repr, values)) == [repr(float(t)) for t in texts]
    assert all((values[i] is values[j]) == (texts[i] == texts[j]) for i in range(6) for j in range(len(texts)))


@pytest.mark.parametrize("name, bad", [("num", "abc"), ("day", "2024-02-30"), ("ts", "10:00")])
def test_a_repeated_malformed_text_is_a_failure_on_every_row(name, bad):
    cells = [bad, "", bad, bad] * 5
    source = column_csv(**{name: cells})
    m = manifest()
    with mock.patch.object(ingest, "_CHUNK_ROWS", 3):
        column = load_dataset(source, m).columns[name]
        assert result(load_dataset, source, m) == result(reference_load, source, m)
    assert column.failures == tuple((i, bad) for i, raw in enumerate(cells) if raw == bad)
    assert column.missing == frozenset(i for i, raw in enumerate(cells) if raw == "")


# --- bad input, pinned --------------------------------------------------------

HEADER = ",".join(NAMES) + "\n"
ROW = "r1,n,1,2024-01-01,2024-01-01T10:00:00\n"


def test_timestamp_offset_out_of_range_is_a_coercion_failure():
    edge = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
    text = HEADER + "".join(f"r,n,1,2024-01-01,{ts}\n" for ts in edge)
    m = manifest()
    assert load_dataset(text, m).columns["ts"].failures == ((0, edge[0]), (1, edge[1]))
    assert result(load_dataset, text, m) == result(reference_load, text, m)


@pytest.mark.parametrize(
    "text, message",
    [
        ((HEADER + ROW).encode() + b"\xff\n",
         "dataset is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 57"),
        (HEADER + ROW + "x" * 200_000 + "\n" + ROW,
         "dataset row at line 3: field larger than field limit (131072)"),
    ],
)
def test_undecodable_bytes_and_oversized_cells_are_schema_violations(text, message):
    m = manifest()
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        load_dataset(text, m)
    assert result(load_dataset, text, m) == result(reference_load, text, m)


@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_one_leading_byte_order_mark_is_skipped(encode):
    m = manifest()
    assert result(load_dataset, encode("\ufeff" + HEADER + ROW), m) == result(load_dataset, HEADER + ROW, m)
    with pytest.raises(MissingColumn, match=re.escape("dataset is missing manifest column 'id'")):
        load_dataset(encode("\ufeff\ufeff" + HEADER + ROW), m)


# --- the split path and the reader path, pinned -------------------------------

@pytest.mark.parametrize("text", [HEADER + ROW, (HEADER + ROW).encode(), HEADER + ROW.rstrip("\n"), "", "\n"],
                         ids=["text", "bytes", "no-final-newline", "empty", "blank"])
def test_a_quote_free_text_is_split_without_the_reader(text):
    m = manifest()
    expected = result(reference_load, text, m)
    with mock.patch.object(ingest.csv, "reader", no_reader):
        assert result(load_dataset, text, m) == expected


@pytest.mark.parametrize("text", [
    HEADER + ROW.replace("n", '"n"', 1),
    HEADER.replace("\n", "\r\n") + ROW,
    HEADER + ROW + "\r",
    HEADER + ROW.replace("n", "n\0", 1),
], ids=["quote", "crlf", "cr", "nul"])
def test_a_text_with_a_quote_cr_or_nul_goes_to_the_reader(text):
    with mock.patch.object(ingest.csv, "reader", no_reader):
        with pytest.raises(AssertionError, match="csv.reader was called"):
            load_dataset(text, manifest())
    m = manifest()
    assert result(load_dataset, text, m) == result(reference_load, text, m)


def on_reader_path(text):
    """``text`` with its first cell quoted, which the reader reads as the
    same cell, so that it loads through the reader."""
    return re.sub(r"[^,\n]+", lambda cell: f'"{cell[0]}"', text, count=1)


BOTH_PATHS = pytest.mark.parametrize("path", [lambda text: text, on_reader_path], ids=["split", "reader"])


@pytest.fixture(params=[None, 20], ids=["default-limit", "limit-20"])
def field_limit(request):
    """The csv field size limit, lowered by the caller for the test's
    duration when the param is set."""
    old = csv.field_size_limit()
    if request.param is not None:
        csv.field_size_limit(request.param)
    try:
        yield csv.field_size_limit()
    finally:
        csv.field_size_limit(old)


@BOTH_PATHS
@pytest.mark.parametrize("text", [
    "\n" + HEADER + ROW,  # a blank first line is a header of no cells
    HEADER + "r1,n,1,2024-01-01,\n",  # a trailing empty cell
    HEADER + "r1,n,1,2024-01-01,",
    "\n\n",
], ids=["leading-blank-line", "trailing-empty-cell", "trailing-empty-cell-at-end", "blank-lines"])
def test_edge_texts_load_as_the_reference_does(path, text):
    m = manifest()
    assert result(load_dataset, path(text), m) == result(reference_load, text, m)


@BOTH_PATHS
@pytest.mark.parametrize("where", ["header", "row"])
@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("slice_chars", [8, ingest._SLICE_CHARS])
def test_a_cell_over_the_field_limit_names_its_line(path, where, over, slice_chars, field_limit):
    big = "x" * (field_limit + over)
    if where == "header":
        text = HEADER.replace("\n", f",{big}\n") + ROW.replace("\n", ",extra\n")
        line = 1
    else:
        text = HEADER + ROW + "\n" + ROW.replace(",n,", f",{big},")
        line = 4
    m = manifest()
    with mock.patch.object(ingest, "_SLICE_CHARS", slice_chars):
        loaded = result(load_dataset, path(text), m)
    assert loaded == result(reference_load, text, m)
    if over:
        message = f"dataset row at line {line}: field larger than field limit ({field_limit})"
        assert loaded == ("raised", SchemaViolation, message)
    else:
        assert loaded[0] == (1 if where == "header" else 2)


@pytest.mark.parametrize("big_at", [2, 3], ids=["same-chunk", "next-chunk"])
def test_a_ragged_row_and_a_long_cell_fail_alike_on_both_paths(big_at):
    """Rows are read a chunk at a time on both paths, but a ragged row
    raises only once every row is read, so a long cell fails first, in the
    ragged row's chunk or a later one, as in the reference."""
    rows = [ROW] * 5
    rows[1] = ROW.replace("\n", ",spare\n")
    rows[big_at] = ROW.replace(",n,", f",{'x' * (csv.field_size_limit() + 1)},")
    text = HEADER + "".join(rows)
    with mock.patch.object(ingest, "_CHUNK_ROWS", 3):
        split = result(load_dataset, text, manifest())
        read = result(load_dataset, on_reader_path(text), manifest())
    assert split == read == result(reference_load, text, manifest())
    assert split[1] is SchemaViolation
