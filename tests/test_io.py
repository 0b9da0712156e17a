"""The columnar CSV readers against the per-line readers they replaced.

The oracle below is the former reader: one dict per CSV line, one
``PredictionInterval`` per segment and one merged ``IntervalSet`` per row,
converted to a batch with ``IntervalBatch.from_sets``. The columnar reader
must give the same used slots, byte for byte (so the sign of zero too),
the same row order and flags, and, for a file with a single defect, the
same ``DataError`` message.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binconformal import io
from binconformal.conformal import require_finite
from binconformal.errors import DataError
from binconformal.intervals import IntervalBatch, IntervalSet, PredictionInterval

INF = math.inf


# -- the per-line oracle -----------------------------------------------------

def oracle_read_rows(path, expected_header):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        rows = []
        for record in reader:
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = [h.strip() for h in record]
                missing = [c for c in expected_header if c not in header]
                if missing:
                    raise DataError(
                        f"{path}: missing required columns {missing}; "
                        f"found {header}"
                    )
                continue
            rows.append(dict(zip(header, record)))
    if header is None:
        raise DataError(f"{path}: empty file, expected header {list(expected_header)}")
    return rows


def oracle_unique_ids(path, rows):
    seen = set()
    for rid in (r["row_id"] for r in rows):
        if rid in seen:
            raise DataError(f"{path}: duplicate row_id {rid!r}")
        seen.add(rid)


def oracle_read_calibration_csv(path):
    rows = oracle_read_rows(path, io.CALIBRATION_HEADER)
    if not rows:
        raise DataError(f"{path}: no calibration records")
    y_true = [io.parse_real(r["y_true"], "y_true") for r in rows]
    y_pred = [io.parse_real(r["y_pred"], "y_pred") for r in rows]
    return [r["row_id"] for r in rows], y_true, y_pred


def oracle_read_test_csv(path):
    rows = oracle_read_rows(path, io.TEST_HEADER)
    if not rows:
        raise DataError(f"{path}: no test records")
    oracle_unique_ids(path, rows)
    return [r["row_id"] for r in rows], [io.parse_real(r["y_pred"], "y_pred") for r in rows]


def oracle_read_truth_csv(path):
    rows = oracle_read_rows(path, io.TRUTH_HEADER)
    if not rows:
        raise DataError(f"{path}: no truth records")
    oracle_unique_ids(path, rows)
    y_true = require_finite(
        [io.parse_real(r["y_true"], "y_true") for r in rows], f"{path}: y_true"
    )
    return [r["row_id"] for r in rows], y_true


def oracle_read_intervals_csv(path):
    rows = oracle_read_rows(path, io.INTERVAL_HEADER)
    if not rows:
        raise DataError(f"{path}: no interval records")
    order = []
    segments: dict = {}
    flags: dict = {}
    previous = None
    for r in rows:
        rid = r["row_id"]
        if rid != previous:
            if rid in segments:
                raise DataError(
                    f"{path}: segments of row_id {rid!r} are not on consecutive lines"
                )
            order.append(rid)
            segments[rid] = []
            flags[rid] = tuple(t for t in r["flags"].split(";") if t)
            previous = rid
        lower = io.parse_real(r["lower"], "lower")
        upper = io.parse_real(r["upper"], "upper")
        if not lower <= upper:
            raise DataError(
                f"{path}: row_id {rid!r} has an invalid segment "
                f"[{lower!r}, {upper!r}]: endpoints must be numbers with "
                f"lower <= upper"
            )
        segments[rid].append(PredictionInterval(lower, upper))
    sets = {rid: IntervalSet(tuple(segs)) for rid, segs in segments.items()}
    return order, sets, flags


# -- generated interval files --------------------------------------------------

ENDPOINTS = st.one_of(
    st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, INF]),
    st.floats(allow_nan=False),
)
SEGMENTS = st.lists(
    st.tuples(ENDPOINTS, ENDPOINTS).map(lambda p: (p, p[::-1])[p[0] > p[1]]),
    min_size=1, max_size=5,
)
ROW_IDS = st.text(alphabet='ab1,"\' #;', min_size=0, max_size=6).filter(
    lambda s: not s.startswith("#")
)
FLAGS = st.lists(st.sampled_from(["clamped", "unbounded", "crossed"]), max_size=2)


@st.composite
def interval_files(draw):
    """(header order, lines) of a valid interval file: each line is a dict
    of column text, or a str written as it is (comments, blank lines)."""
    ids = draw(st.lists(ROW_IDS, min_size=1, max_size=8, unique=True))
    header = draw(st.permutations(io.INTERVAL_HEADER))
    lines = []
    if draw(st.booleans()):
        lines.append('# config: {"command": "intervals", "a": [1, 2]}')
    for rid in ids:
        for j, (lo, hi) in enumerate(draw(SEGMENTS)):
            lines.append({
                "row_id": rid, "segment_index": str(j),
                "lower": repr(lo), "upper": repr(hi),
                "flags": ";".join(draw(FLAGS)),
            })
            filler = draw(st.sampled_from([None, None, "", "# between, records"]))
            if filler is not None:
                lines.append(filler)
    return header, lines


def write_file(path, header, lines):
    """Comment lines first, then the header, then records and fillers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        head = 0
        while head < len(lines) and isinstance(lines[head], str):
            fh.write(lines[head] + "\n")
            head += 1
        writer.writerow(header)
        for line in lines[head:]:
            if isinstance(line, str):
                fh.write(line + "\n")
            else:
                writer.writerow([line[c] for c in header])


def assert_same_used_slots(got: IntervalBatch, want: IntervalBatch):
    assert len(got) == len(want)
    for i in range(len(want)):
        used = ~np.isnan(got.lower[i])
        want_used = ~np.isnan(want.lower[i])
        assert got.lower[i][used].tobytes() == want.lower[i][want_used].tobytes()
        assert got.upper[i][used].tobytes() == want.upper[i][want_used].tobytes()


class TestReadIntervalBatch:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(interval_files())
    def test_matches_per_line_reader(self, tmp_path, case):
        header, lines = case
        path = tmp_path / "iv.csv"
        write_file(path, header, lines)
        order, sets, flags = oracle_read_intervals_csv(path)
        row_ids, batch, row_flags = io.read_interval_batch(path)
        assert row_ids == order
        assert row_flags == [flags[rid] for rid in order]
        assert_same_used_slots(batch, IntervalBatch.from_sets(sets[rid] for rid in order))

    def test_adapter_keys_the_batch_by_row_id(self, tmp_path):
        path = tmp_path / "iv.csv"
        write_file(path, io.INTERVAL_HEADER, [
            {"row_id": "b", "segment_index": "0", "lower": "3.0", "upper": "4.0", "flags": "x"},
            {"row_id": "b", "segment_index": "1", "lower": "0.0", "upper": "3.0", "flags": ""},
            {"row_id": "a", "segment_index": "0", "lower": "-inf", "upper": "inf", "flags": ""},
        ])
        assert io.read_intervals_csv(path) == oracle_read_intervals_csv(path)
        assert io.read_intervals_csv(path)[1]["b"] == IntervalSet((PredictionInterval(0.0, 4.0),))


# -- files with exactly one defect ---------------------------------------------

READERS = {
    "calibration": (io.read_calibration_csv, oracle_read_calibration_csv,
                    io.CALIBRATION_HEADER, [("0", "1.0", "1.5"), ("1", "2.0", "2.5")]),
    "test": (io.read_test_csv, oracle_read_test_csv,
             io.TEST_HEADER, [("0", "1.5"), ("1", "2.5")]),
    "truth": (io.read_truth_csv, oracle_read_truth_csv,
              io.TRUTH_HEADER, [("0", "1.0"), ("1", "2.0")]),
    "intervals": (io.read_interval_batch, oracle_read_intervals_csv,
                  io.INTERVAL_HEADER,
                  [("a", "0", "0.0", "1.0", ""), ("a", "1", "2.0", "3.0", ""),
                   ("b", "0", "0.0", "1.0", "clamped")]),
}


def with_token(name, column, token, line=1):
    def edit(header, records):
        records[line] = tuple(
            token if h == column else v for h, v in zip(header, records[line])
        )
        return header, records
    return pytest.param(name, edit, id=f"{name}-{column}-{token}")


def defect(name, label, edit):
    return pytest.param(name, edit, id=f"{name}-{label}")


DEFECTS = [
    with_token("calibration", "y_true", "1.O"),
    with_token("calibration", "y_pred", "x"),
    with_token("test", "y_pred", ""),
    with_token("truth", "y_true", "1,5"),
    with_token("intervals", "lower", "abc"),
    with_token("intervals", "upper", "1e"),
    with_token("intervals", "lower", "5.0", line=2),
    with_token("intervals", "lower", "nan", line=2),
    with_token("intervals", "upper", "nan"),
    with_token("truth", "y_true", "inf"),
    with_token("test", "row_id", "0"),
    with_token("truth", "row_id", "0"),
    defect("intervals", "row-not-consecutive",
           lambda h, r: (h, r + [("a", "2", "5.0", "6.0", "")])),
    *[defect(name, "empty-file", lambda h, r: (None, [])) for name in READERS],
    *[defect(name, "header-only", lambda h, r: (h, [])) for name in READERS],
    *[defect(name, "missing-column", lambda h, r: (h[:-1], [v[:-1] for v in r]))
      for name in READERS],
]


@pytest.mark.parametrize("name, edit", DEFECTS)
def test_one_defect_gives_the_per_line_message(tmp_path, name, edit):
    reader, oracle, header, records = READERS[name]
    header, records = edit(tuple(header), list(records))
    path = tmp_path / f"{name}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write("# config: {}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(records)
    with pytest.raises(DataError) as want:
        oracle(path)
    with pytest.raises(DataError) as got:
        reader(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", READERS)
def test_valid_files_read_as_the_per_line_readers(tmp_path, name):
    reader, oracle, header, records = READERS[name]
    path = tmp_path / f"{name}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)
    got, want = reader(path), oracle(path)
    if name == "intervals":
        order, sets, flags = want
        want = (order, IntervalBatch.from_sets(sets[r] for r in order),
                [flags[r] for r in order])
        assert got[0] == want[0] and got[2] == want[2]
        assert_same_used_slots(got[1], want[1])
        return
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()


def test_repeated_column_name_reads_its_last_occurrence(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("row_id,y_true,y_true\na,junk,1.5\n")
    assert io.read_truth_csv(path)[1].tolist() == [1.5]
    assert oracle_read_truth_csv(path)[1].tolist() == [1.5]
