import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from binconformal import io
from binconformal.cli import main
from binconformal.intervals import IntervalBatch, PredictionInterval, union
from binconformal.pipelines import BINNED_KINDS, METHOD_KINDS

INF = math.inf


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, r)) for r in body]


def config_line(path):
    header = Path(path).read_text().splitlines()[0]
    assert header.startswith("# config: ")
    return json.loads(header[len("# config: "):])


# (bytes after the header, expected text of the error): a byte that is not
# UTF-8, and a field past the csv module's default 131,072-character limit
MALFORMED_CSV = [
    pytest.param(b"a,1.0,\xff\n", "can't decode byte 0xff", id="not-utf8"),
    pytest.param(b"a," + b"1" * 140_000 + b",1.0\n",
                 "field larger than field limit", id="oversized-field"),
]


@pytest.fixture
def two_bin_files(tmp_path):
    """Calibration realizing per-bin quantiles 0.2 (below 10) and 5 (above)."""
    cal = tmp_path / "cal.csv"
    rows = [(i, 5.0, 4.8) for i in range(19)]
    rows += [(19 + i, 15.0, 10.0) for i in range(19)]
    write_csv(cal, ("row_id", "y_true", "y_pred"), rows)
    test = tmp_path / "test.csv"
    write_csv(test, ("row_id", "y_pred"), [("a", 9.5), ("b", 2.0), ("c", 30.0)])
    return cal, test


class TestIntervalCsvRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(13)
        sets = []
        for _ in range(40):
            segs = []
            for _ in range(rng.integers(1, 4)):
                lo = rng.uniform(-50, 50) * rng.choice([1e-7, 1.0, 1e7])
                segs.append(PredictionInterval(lo, lo + rng.uniform(0, 9)))
            sets.append(union(segs))
        sets.append(union([PredictionInterval(0.0, INF)]))
        sets.append(union([PredictionInterval(3.0, 3.0)]))
        ids = [str(i) for i in range(len(sets))]
        path = tmp_path / "iv.csv"
        batch = IntervalBatch.from_sets(sets)
        io.write_intervals_csv(path, ids, batch, config={"command": "test"})
        order, parsed, _ = io.read_intervals_csv(path)
        assert order == ids
        for rid, original in zip(ids, sets):
            assert parsed[rid] == original

    def test_flags_round_trip(self, tmp_path):
        path = tmp_path / "iv.csv"
        sets = IntervalBatch.from_sets([union([PredictionInterval(0, 1)])])
        io.write_intervals_csv(path, ["r"], sets, flags=[("clamped", "unbounded")])
        _, _, flags = io.read_intervals_csv(path)
        assert flags["r"] == ("clamped", "unbounded")


class TestSimulate:
    def test_row_count_and_split_sizes(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "lognormal", "--n", "10000", "--seed", "7",
            "--out", str(out),
        ]) == 0
        header, rows = read_table(out)
        assert header == list(io.DATASET_HEADER)
        assert len(rows) == 10000
        counts = {}
        for r in rows:
            counts[r["split"]] = counts.get(r["split"], 0) + 1
        assert counts == {"train": 5000, "calibration": 2500, "test": 2500}

    def test_all_zero_outcomes(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "zicount", "--n", "1000", "--zero-prob", "1.0",
            "--seed", "3", "--out", str(out),
        ]) == 0
        _, rows = read_table(out)
        assert all(float(r["y"]) == 0.0 for r in rows)

    def test_empty_split_part_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "lognormal", "--n", "3", "--out", str(out),
        ]) == 2
        assert "calibration part" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_proportion_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "lognormal", "--n", "100",
            "--proportions", "0.5,0.5,nan", "--out", str(out),
        ]) == 2
        assert "proportions must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_prob_for_lognormal_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "lognormal", "--n", "100", "--zero-prob", "0.5",
            "--out", str(out),
        ]) == 2
        assert "--zero-prob only applies" in capsys.readouterr().err
        assert not out.exists()

    def test_zicount_zero_prob_defaults_to_the_preset(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "zicount", "--n", "100", "--out", str(out),
        ]) == 0
        assert '"zero_prob": 0.867}' in out.read_text().splitlines()[0]

    def test_lognormal_config_has_no_zero_prob(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main([
            "simulate", "--dgp", "lognormal", "--n", "100", "--out", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("# config: ")
        assert "zero_prob" not in json.loads(header[len("# config: "):])

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--dgp", "lognormal", "--n", "500", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# 36 zeros and 1..4: every quartile of these outcomes is the smallest one
MOSTLY_ZEROS = [0.0] * 36 + [1.0, 2.0, 3.0, 4.0]


class TestIntervalsCommand:
    def test_scp_three_rows_single_segments(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(out), "--alpha", "0.1",
        ]) == 0
        _, rows = read_table(out)
        assert len(rows) == 3
        assert all(r["segment_index"] == "0" for r in rows)

    def test_bccp_discontiguous_two_segments(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(out), "--alpha", "0.1",
            "--bins", "10",
        ]) == 0
        _, rows = read_table(out)
        a_rows = [r for r in rows if r["row_id"] == "a"]
        assert [r["segment_index"] for r in a_rows] == ["0", "1"]
        assert float(a_rows[0]["lower"]) == pytest.approx(9.3)
        assert float(a_rows[0]["upper"]) == pytest.approx(9.7)
        assert float(a_rows[1]["lower"]) == 10.0
        assert float(a_rows[1]["upper"]) == pytest.approx(14.5)

    def test_count_pipeline_shape(self, tmp_path):
        rng = np.random.default_rng(5)
        y = np.where(rng.random(400) < 0.6, 0.0, rng.integers(1, 300, 400))
        pred = np.maximum(0.0, y * 0.4 + rng.normal(0, 1, 400)).round(3)
        cal = tmp_path / "cal.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  list(zip(range(400), y, pred)))
        test = tmp_path / "test.csv"
        write_csv(test, ("row_id", "y_pred"), [(0, 0.2), (1, 4.0), (2, 160.0)])
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(out),
            "--bins", "1,3,8,21,55,149", "--transform", "log1p",
            "--round-counts",
        ]) == 0
        _, rows = read_table(out)
        assert rows
        for r in rows:
            lower, upper = float(r["lower"]), float(r["upper"])
            assert lower >= 0.0
            assert lower == int(lower)
            assert upper == INF or upper == int(upper)

    def test_percentile_bins_at_the_minimum_leave_no_empty_bin(self, tmp_path, capsys):
        cal, test, out = (tmp_path / f"{name}.csv" for name in ("cal", "test", "iv"))
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  [(i, v, 0.5) for i, v in enumerate(MOSTLY_ZEROS)])
        write_csv(test, ("row_id", "y_pred"), [("a", 0.5), ("b", 3.0)])
        assert main([
            "intervals", "--method", "bccp-d", "--bins", "percentiles:4",
            "--calibration", str(cal), "--test", str(test), "--out", str(out),
        ]) == 0
        assert "reduced to 1" in capsys.readouterr().err
        _, rows = read_table(out)
        assert [r["row_id"] for r in rows] == ["a", "b"]

    def test_bccp_without_bins_is_config_error(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        code = main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
        ])
        assert code == 2

    def test_bins_with_non_bcc_method_is_config_error(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        code = main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
            "--bins", "10",
        ])
        assert code == 2

    def test_bad_alpha_is_config_error(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        code = main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
            "--alpha", "1.5",
        ])
        assert code == 2

    def test_missing_column_is_data_error(self, tmp_path):
        cal = tmp_path / "cal.csv"
        write_csv(cal, ("row_id", "y_true"), [(0, 1.0)])
        test = tmp_path / "test.csv"
        write_csv(test, ("row_id", "y_pred"), [(0, 1.0)])
        code = main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize("which, text, message", [
        ("calibration", "row_id,y_true,y_pred\n0,1.0,1.5\n1,2.0,2.5\n2,2.0\n",
         "record 3 has 2 fields, no value for column 'y_pred'"),
        ("test", "row_id,y_pred\na,9.5\nb\n",
         "record 2 has 1 fields, no value for column 'y_pred'"),
    ])
    def test_short_record_is_data_error(self, two_bin_files, tmp_path, capsys,
                                        which, text, message):
        files = dict(zip(("calibration", "test"), two_bin_files))
        files[which] = tmp_path / f"short-{which}.csv"
        files[which].write_text(text)
        assert main([
            "intervals", "--method", "scp", "--calibration", str(files["calibration"]),
            "--test", str(files["test"]), "--out", str(tmp_path / "iv.csv"),
        ]) == 3
        err = capsys.readouterr().err
        assert f"short-{which}.csv: {message}" in err

    @pytest.mark.parametrize("data, message", MALFORMED_CSV)
    def test_malformed_calibration_is_data_error(self, two_bin_files, tmp_path,
                                                 capsys, data, message):
        _, test = two_bin_files
        cal = tmp_path / "bad-cal.csv"
        cal.write_bytes(b"row_id,y_true,y_pred\n" + data)
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {cal}: not a readable UTF-8 CSV file")
        assert message in err

    def test_short_optional_truth_column_is_not_read(self, two_bin_files, tmp_path):
        cal, _ = two_bin_files
        test = tmp_path / "test.csv"
        test.write_text("row_id,y_pred,y_true\na,9.5,9.0\nb,2.0\n")
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(out),
        ]) == 0
        _, rows = read_table(out)
        assert [r["row_id"] for r in rows] == ["a", "b"]

    def test_row_id_starting_with_hash_is_data_error(self, two_bin_files, tmp_path,
                                                     capsys):
        # a comment line may only come before the header, so '#a' is not
        # dropped from the intervals (and from evaluate's coverage)
        cal, _ = two_bin_files
        test = tmp_path / "test.csv"
        test.write_text("row_id,y_pred,y_true\n#a,5.0,100.0\nb,5.0,5.0\n")
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{test}: record 1 starts with '#'" in err
        assert not out.exists()

    def test_row_id_with_carriage_return_round_trips(self, two_bin_files, tmp_path):
        cal, _ = two_bin_files
        test = tmp_path / "test.csv"
        test.write_bytes(b'row_id,y_pred,y_true\n"a\rb",5.0,100.0\nb,5.0,5.0\n')
        iv, report, widths = (tmp_path / f"{name}.csv" for name in ("iv", "r", "w"))
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(iv),
        ]) == 0
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(test),
            "--out", str(report), "--widths-out", str(widths),
        ]) == 0
        assert io.read_interval_batch(iv)[0] == ["a\rb", "b"]
        with open(widths, newline="") as fh:
            assert [r[0] for r in csv.reader(fh)][2:] == ["a\rb", "b"]

    def test_empty_bin_is_data_error_without_flag(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        code = main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
            "--bins", "10,1000",
        ])
        assert code == 3
        code = main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
            "--bins", "10,1000", "--allow-empty-bins",
        ])
        assert code == 0

    def test_empty_bin_error_names_the_raw_bin(self, tmp_path, capsys):
        # the bins are cut on the log1p scale, but the message names the
        # bin the user gave: [55, inf), not [log1p(55), inf)
        cal, test = tmp_path / "cal.csv", tmp_path / "test.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  [(i, i % 5, i % 5 + 0.3) for i in range(30)])
        write_csv(test, ("row_id", "y_pred"), [("a", 1.0)])
        code = main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
            "--bins", "1,55", "--transform", "log1p",
        ])
        assert code == 3
        assert "bin 3 [55.0, inf) has no calibration records" in capsys.readouterr().err

    def test_starved_bin_is_one_note_naming_the_raw_bin(self, tmp_path, capsys):
        # 3 records in [55, inf): at alpha 0.1 a bin needs 9 for a finite
        # quantile, so that bin falls back to +inf, and the note says which
        cal, test = tmp_path / "cal.csv", tmp_path / "test.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  [(i, i % 5, i % 5 + 0.3) for i in range(60)]
                  + [(60 + i, v, v - 4.0) for i, v in enumerate((60.0, 70.0, 80.0))])
        write_csv(test, ("row_id", "y_pred"), [("a", 1.0), ("b", 70.0)])
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "bccp-d", "--calibration", str(cal),
            "--test", str(test), "--out", str(out),
            "--bins", "1,55", "--transform", "log1p",
        ]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: bin 3 [55.0, inf) fell back to an infinite quantile"
        ]
        _, rows = read_table(out)
        assert all(r["upper"] == "inf" for r in rows if r["row_id"] == "b")

    def test_negbinom_without_overdispersion_notes_the_poisson_fallback(
        self, tmp_path, capsys
    ):
        # outcomes 2 and 3 around a mean of 2.5: variance 0.25 is below it
        cal, test = tmp_path / "cal.csv", tmp_path / "test.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  [(i, 2.0 + i % 2, 2.5) for i in range(40)])
        write_csv(test, ("row_id", "y_pred"), [("a", 2.5), ("b", 6.0)])
        assert main([
            "intervals", "--method", "negbinom", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
        ]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: no overdispersion in calibration; using Poisson quantiles"
        ]

    @pytest.mark.parametrize("which, row", [
        ("test", ("b", "nan")),
        ("test", ("b", "inf")),
        ("test", ("b", "-inf")),
        ("calibration", (0, "nan", 4.8)),
        ("calibration", (0, 5.0, "inf")),
    ])
    def test_non_finite_input_is_data_error(self, tmp_path, which, row):
        cal_rows = [(i, 5.0, 4.8) for i in range(1, 20)]
        test_rows = [("a", 9.5)]
        if which == "test":
            test_rows.append(row)
        else:
            cal_rows.append(row)
        cal, test = tmp_path / "cal.csv", tmp_path / "test.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"), cal_rows)
        write_csv(test, ("row_id", "y_pred"), test_rows)
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(out),
        ]) == 3
        assert not out.exists()

    def test_duplicate_test_row_id_is_data_error(self, two_bin_files, tmp_path, capsys):
        cal, _ = two_bin_files
        test = tmp_path / "dup.csv"
        write_csv(test, ("row_id", "y_pred"), [("a", 9.5), ("b", 2.0), ("a", 3.0)])
        assert main([
            "intervals", "--method", "scp", "--calibration", str(cal),
            "--test", str(test), "--out", str(tmp_path / "iv.csv"),
        ]) == 3
        assert "duplicate row_id 'a'" in capsys.readouterr().err

    def test_poisson_mean_scipy_cannot_invert_is_numerical_error(
        self, two_bin_files, tmp_path, capsys
    ):
        cal, _ = two_bin_files
        test = tmp_path / "huge.csv"
        write_csv(test, ("row_id", "y_pred"), [("a", 9.5), ("b", 1e11)])
        out = tmp_path / "iv.csv"
        assert main([
            "intervals", "--method", "poisson", "--calibration", str(cal),
            "--test", str(test), "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "numerical error: scipy cannot compute the Poisson quantiles" in err
        assert "mean 100000000000.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("transform", ["identity", "log", "log1p"])
    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300"])
    @pytest.mark.parametrize("method", ["poisson", "negbinom"])
    def test_count_method_at_alpha_below_double_resolution(
        self, tmp_path, capsys, method, alpha, transform
    ):
        # 1 - alpha/2 rounds to 1.0: every positive mean gets [q_lo, inf]
        rng = np.random.default_rng(8)
        y = rng.negative_binomial(2, 0.2, size=200) + 1.0
        cal, test, out = (tmp_path / f"{name}.csv" for name in ("cal", "test", "iv"))
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  zip(range(200), y, np.full(200, y.mean())))
        write_csv(test, ("row_id", "y_pred"), [("z", 0.0), ("a", 0.5), ("b", 9.0)])
        assert main([
            "intervals", "--method", method, "--alpha", alpha, "--transform", transform,
            "--calibration", str(cal), "--test", str(test), "--out", str(out),
        ]) == 0
        assert "no overdispersion" not in capsys.readouterr().err
        _, rows = read_table(out)
        by_id = {r["row_id"]: r for r in rows}
        assert (by_id["z"]["lower"], by_id["z"]["upper"]) == ("0.0", "0.0")
        for rid in ("a", "b"):
            assert float(by_id[rid]["upper"]) == INF
            assert "unbounded" in by_id[rid]["flags"]

    def test_same_seed_byte_identical(self, two_bin_files, tmp_path):
        cal, test = two_bin_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "intervals", "--method", "bootstrap", "--calibration", str(cal),
            "--test", str(test), "--alpha", "0.2", "--seed", "21",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMethodTransformMatrix:
    @pytest.fixture(scope="class")
    def positive_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("positive")
        rng = np.random.default_rng(17)
        y = np.exp(rng.normal(1.0, 1.0, size=60))
        p = y * np.exp(rng.normal(0.0, 0.3, size=60))
        cal, test = tmp / "cal.csv", tmp / "test.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"), zip(range(60), y, p))
        write_csv(test, ("row_id", "y_pred"), [("a", 0.4), ("b", 1.0), ("c", 9.0)])
        return cal, test

    @pytest.mark.parametrize("transform", ["identity", "log", "log1p"])
    @pytest.mark.parametrize("method, bins", [
        *((m, None) for m in METHOD_KINDS if m not in BINNED_KINDS),
        *((m, b) for m in BINNED_KINDS for b in ("1", "percentiles:3")),
    ])
    def test_every_method_runs_under_every_transform(
        self, positive_files, tmp_path, capsys, method, bins, transform
    ):
        cal, test = positive_files
        argv = [
            "intervals", "--method", method, "--transform", transform,
            "--calibration", str(cal), "--test", str(test),
            "--out", str(tmp_path / "iv.csv"), "--bootstrap-b", "200",
        ]
        code = main(argv + (["--bins", bins] if bins else []))
        err = capsys.readouterr().err
        if method in ("bootstrap-log", "lognormal") and transform == "identity":
            assert code == 2
            assert "requires the log or log1p transform" in err
        else:
            assert code == 0, err


class TestEvaluateCommand:
    def write_intervals(self, tmp_path, rows):
        path = tmp_path / "iv.csv"
        write_csv(path, io.INTERVAL_HEADER, rows)
        return path

    def write_truth(self, tmp_path, pairs):
        path = tmp_path / "truth.csv"
        write_csv(path, ("row_id", "y_true"), pairs)
        return path

    def test_perfect_coverage(self, tmp_path):
        iv = self.write_intervals(tmp_path, [
            ("a", 0, "0.0", "10.0", ""), ("b", 0, "0.0", "10.0", ""),
        ])
        truth = self.write_truth(tmp_path, [("a", 3.0), ("b", 7.0)])
        out = tmp_path / "report.csv"
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--out", str(out),
        ]) == 0
        _, rows = read_table(out)
        assert len(rows) == 1
        assert float(rows[0]["coverage"]) == 1.0
        assert rows[0]["group"] == "aggregate"

    def test_widths_output(self, tmp_path):
        iv = self.write_intervals(tmp_path, [
            ("a", 0, "0.0", "4.0", ""), ("a", 1, "6.0", "8.0", ""),
            ("b", 0, "0.0", "inf", ""),
        ])
        truth = self.write_truth(tmp_path, [("a", 5.0), ("b", 1.0)])
        widths = tmp_path / "widths.csv"
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--out", str(tmp_path / "r.csv"), "--widths-out", str(widths),
        ]) == 0
        _, rows = read_table(widths)
        by_id = {r["row_id"]: r for r in rows}
        assert float(by_id["a"]["total_width"]) == 6.0
        assert by_id["a"]["n_segments"] == "2"
        assert by_id["a"]["covered"] == "0"
        assert float(by_id["b"]["total_width"]) == INF

    def test_quartiles_at_the_minimum_leave_no_empty_group(self, tmp_path):
        ids = [str(i) for i in range(len(MOSTLY_ZEROS))]
        iv = self.write_intervals(tmp_path, [(i, 0, "0.0", "1.0", "") for i in ids])
        truth = self.write_truth(tmp_path, zip(ids, MOSTLY_ZEROS))
        out = tmp_path / "report.csv"
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--group", "quartiles", "--out", str(out),
        ]) == 0
        _, rows = read_table(out)
        assert [(r["group"], r["n"]) for r in rows] == [("aggregate", "40"), ("Q1", "40")]

    def test_row_id_mismatch_is_data_error(self, tmp_path):
        iv = self.write_intervals(tmp_path, [("a", 0, "0.0", "1.0", "")])
        truth = self.write_truth(tmp_path, [("zzz", 0.5)])
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--out", str(tmp_path / "r.csv"),
        ]) == 3

    def evaluate(self, tmp_path, iv, truth, *extra):
        return main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--out", str(tmp_path / "r.csv"), *extra,
        ])

    def test_duplicate_truth_row_id_is_data_error(self, tmp_path, capsys):
        iv = self.write_intervals(tmp_path, [("a", 0, "0.0", "1.0", "")])
        truth = self.write_truth(tmp_path, [("a", 0.5), ("a", 2.0)])
        assert self.evaluate(tmp_path, iv, truth) == 3
        assert "duplicate row_id 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_truth_is_data_error(self, tmp_path, capsys, bad):
        iv = self.write_intervals(tmp_path, [
            ("a", 0, "0.0", "1.0", ""), ("b", 0, "0.0", "1.0", ""),
        ])
        truth = self.write_truth(tmp_path, [("a", 0.5), ("b", bad)])
        assert self.evaluate(tmp_path, iv, truth, "--group", "none") == 3
        assert "y_true must be finite" in capsys.readouterr().err

    def test_truth_row_without_interval_is_data_error(self, tmp_path, capsys):
        iv = self.write_intervals(tmp_path, [("a", 0, "0.0", "1.0", "")])
        truth = self.write_truth(tmp_path, [("a", 0.5), ("b", 2.0)])
        assert self.evaluate(tmp_path, iv, truth) == 3
        assert "'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("lower, upper", [
        ("2.0", "1.0"), ("nan", "1.0"), ("0.0", "nan"), ("inf", "inf"), ("-inf", "-inf"),
    ])
    def test_invalid_segment_is_data_error_naming_row(self, tmp_path, capsys, lower, upper):
        iv = self.write_intervals(tmp_path, [
            ("a", 0, "0.0", "1.0", ""), ("b", 0, lower, upper, ""),
        ])
        truth = self.write_truth(tmp_path, [("a", 0.5), ("b", 0.5)])
        assert self.evaluate(tmp_path, iv, truth) == 3
        assert "row_id 'b'" in capsys.readouterr().err

    def test_non_contiguous_row_segments_is_data_error(self, tmp_path, capsys):
        iv = self.write_intervals(tmp_path, [
            ("a", 0, "0.0", "1.0", ""), ("b", 0, "0.0", "1.0", ""),
            ("a", 1, "3.0", "4.0", ""),
        ])
        truth = self.write_truth(tmp_path, [("a", 0.5), ("b", 0.5)])
        assert self.evaluate(tmp_path, iv, truth) == 3
        assert "row_id 'a'" in capsys.readouterr().err

    def test_empty_interval_file_is_data_error(self, tmp_path):
        iv = self.write_intervals(tmp_path, [])
        truth = self.write_truth(tmp_path, [("a", 1.0)])
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--out", str(tmp_path / "r.csv"),
        ]) == 3

    @pytest.mark.parametrize("which, line, message", [
        ("intervals", "b,0,1.0",
         "iv.csv: record 2 has 3 fields, no value for column 'upper'"),
        ("truth", "b", "truth.csv: record 2 has 1 fields, no value for column 'y_true'"),
    ])
    def test_short_record_is_data_error(self, tmp_path, capsys, which, line, message):
        files = {
            "intervals": self.write_intervals(tmp_path, [("a", 0, "0.0", "1.0", "")]),
            "truth": self.write_truth(tmp_path, [("a", 0.5)]),
        }
        with open(files[which], "a") as fh:
            fh.write(line + "\n")
        assert self.evaluate(tmp_path, files["intervals"], files["truth"]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", MALFORMED_CSV)
    def test_malformed_interval_file_is_data_error(self, tmp_path, capsys,
                                                   data, message):
        iv = tmp_path / "bad-iv.csv"
        iv.write_bytes(b"row_id,segment_index,lower,upper,flags\n" + data)
        truth = self.write_truth(tmp_path, [("a", 0.5)])
        assert self.evaluate(tmp_path, iv, truth) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {iv}: not a readable UTF-8 CSV file")
        assert message in err

    @pytest.mark.parametrize("group", ["none", "quartiles"])
    def test_bins_without_group_bins_is_config_error(self, tmp_path, capsys, group):
        iv = self.write_intervals(tmp_path, [("a", 0, "0.0", "1.0", "")])
        truth = self.write_truth(tmp_path, [("a", 0.5)])
        out = tmp_path / "r.csv"
        assert self.evaluate(tmp_path, iv, truth, "--group", group, "--bins", "1,2") == 2
        assert "--bins only applies with --group bins" in capsys.readouterr().err
        assert not out.exists()

    def test_group_bins(self, tmp_path):
        iv = self.write_intervals(tmp_path, [
            ("a", 0, "0.0", "0.0", ""), ("b", 0, "0.0", "2.0", ""),
            ("c", 0, "5.0", "9.0", ""),
        ])
        truth = self.write_truth(tmp_path, [("a", 0.0), ("b", 4.0), ("c", 8.0)])
        out = tmp_path / "r.csv"
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(truth),
            "--out", str(out), "--group", "bins", "--bins", "1",
        ]) == 0
        _, rows = read_table(out)
        by_group = {r["group"]: r for r in rows}
        assert by_group["bin_1"]["n"] == "1"
        assert float(by_group["bin_1"]["coverage"]) == 1.0
        assert by_group["bin_2"]["n"] == "2"
        assert float(by_group["bin_2"]["coverage"]) == 0.5


class TestReportCommand:
    def test_small_study_writes_report(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main([
            "report", "--study", "lognormal", "--replications", "2",
            "--n", "800", "--seed", "5", "--methods", "scp,bccp-d-2",
            "--out", str(out),
        ]) == 0
        header, rows = read_table(out)
        assert header == list(io.REPORT_HEADER)
        methods = {r["method"] for r in rows}
        assert methods == {"scp", "bccp-d-2"}
        groups = {r["group"] for r in rows if r["method"] == "scp"}
        assert groups == {"aggregate", "Q1", "Q2", "Q3", "Q4"}

    def test_lognormal_config_has_no_zero_prob(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main([
            "report", "--study", "lognormal", "--replications", "1",
            "--n", "400", "--methods", "scp", "--out", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("# config: ")
        assert "zero_prob" not in json.loads(header[len("# config: "):])

    def test_zicount_config_keeps_zero_prob(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main([
            "report", "--study", "zicount", "--replications", "1", "--n", "400",
            "--zero-prob", "0.5", "--methods", "scp", "--out", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert json.loads(header[len("# config: "):])["zero_prob"] == 0.5

    def test_bootstrap_b_sets_the_draw_count(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main([
            "report", "--study", "lognormal", "--replications", "1", "--n", "400",
            "--methods", "bootstrap", "--bootstrap-b", "150", "--out", str(out),
        ]) == 0
        assert config_line(out)["bootstrap_draws"] == 150

    def test_empty_bin_error_names_the_raw_bin(self, tmp_path, capsys):
        assert main([
            "report", "--study", "zicount", "--replications", "1", "--n", "200",
            "--methods", "bccp-d-4", "--out", str(tmp_path / "r.csv"),
        ]) == 3
        err = capsys.readouterr().err
        assert "replicate 0: bin 4 [55.0, inf) has no calibration records" in err

    def test_starved_bin_note_reaches_report(self, tmp_path, capsys):
        # both replicates hold too few records above 149 for a finite top-bin
        # quantile, so every test row reaches +inf; one note says why
        out = tmp_path / "r.csv"
        assert main([
            "report", "--study", "zicount", "--replications", "2", "--n", "6000",
            "--methods", "bccp-d-7", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: bin 7 [149.0, inf) fell back to an infinite quantile"
        ]
        _, rows = read_table(out)
        (aggregate,) = [r for r in rows if r["group"] == "aggregate"]
        assert aggregate["inf_width_count"] == aggregate["n"] == "1200"

    def test_unknown_method_filter_is_config_error(self, tmp_path):
        assert main([
            "report", "--study", "lognormal", "--replications", "1",
            "--methods", "nope", "--out", str(tmp_path / "r.csv"),
        ]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "report", "--study", "zicount", "--replications", "1",
            "--n", "4000", "--seed", "9", "--methods", "scp,poisson",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigLines:
    def test_intervals_and_evaluate_record_every_non_path_flag(self, tmp_path):
        rng = np.random.default_rng(4)
        y = rng.negative_binomial(2, 0.2, size=120).astype(float)
        cal, test, iv, report, widths = (
            tmp_path / f"{name}.csv" for name in ("cal", "test", "iv", "report", "widths")
        )
        write_csv(cal, ("row_id", "y_true", "y_pred"), zip(range(120), y, y + 0.5))
        write_csv(test, ("row_id", "y_pred", "y_true"), [("a", 0.5, 0.0), ("b", 12.0, 9.0)])
        assert main([
            "intervals", "--method", "bccp-d", "--bins", "1,8", "--transform", "log1p",
            "--seed", "3", "--round-counts", "--calibration", str(cal),
            "--test", str(test), "--out", str(iv),
        ]) == 0
        assert main([
            "evaluate", "--intervals", str(iv), "--truth", str(test), "--out", str(report),
            "--group", "bins", "--bins", "1", "--method-name", "m",
            "--widths-out", str(widths),
        ]) == 0
        assert config_line(iv) == {
            "command": "intervals", "method": "bccp-d", "alpha": 0.1, "bins": "1,8",
            "transform": "log1p", "seed": 3, "bootstrap_b": 2000, "round_counts": True,
            "allow_empty_bins": False, "grid_resolution": 4001,
        }
        evaluate = {"command": "evaluate", "group": "bins", "bins": "1", "method_name": "m"}
        assert config_line(report) == evaluate
        assert config_line(widths) == evaluate


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["simulate", "report", "intervals"])
    def test_negative_seed_is_config_error(self, command, two_bin_files, tmp_path,
                                           capsys):
        cal, test = two_bin_files
        argv = {
            "simulate": ["simulate", "--dgp", "lognormal", "--n", "100"],
            "report": ["report", "--study", "lognormal", "--replications", "1",
                       "--n", "800", "--methods", "scp"],
            "intervals": ["intervals", "--method", "bootstrap",
                          "--calibration", str(cal), "--test", str(test)],
        }[command]
        assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "o.csv")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHOD_KINDS)
    def test_every_method_rejects_a_negative_seed(self, method, two_bin_files, tmp_path,
                                                  capsys):
        # methods that draw nothing check the seed too, and write no file
        cal, test = two_bin_files
        out = tmp_path / "o.csv"
        argv = [
            "intervals", "--method", method, "--transform", "log1p",
            "--calibration", str(cal), "--test", str(test), "--seed", "-1",
            "--out", str(out),
        ]
        assert main(argv + (["--bins", "1"] if method in BINNED_KINDS else [])) == 2
        assert "seeds must be non-negative integers, got -1" in capsys.readouterr().err
        assert not out.exists()


SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs in a fresh interpreter, since this one has imported scipy.stats
# already. After each step it records whether scipy.stats, scipy.special and
# any scipy module are loaded: first every method that needs no scipy
# function, one evaluate and a lognormal report, then the count methods.
IMPORT_BUDGET_SCRIPT = """
import json, sys
import binconformal
from binconformal import cli

cal, test, out, report = sys.argv[1:]
def intervals(method, *extra):
    return cli.main(["intervals", "--method", method, "--calibration", cal,
                     "--test", test, "--out", out, "--transform", "log1p",
                     "--bootstrap-b", "100", *extra])
steps = [(m, lambda m=m: intervals(m))
         for m in ("scp", "bootstrap", "bootstrap-log", "quantreg")]
steps += [(m, lambda m=m: intervals(m, "--bins", "1")) for m in ("bccp-d", "bccp-c")]
steps.append(("evaluate", lambda: cli.main(["evaluate", "--intervals", out,
                                            "--truth", cal, "--out", report])))
steps.append(("lognormal", lambda: intervals("lognormal")))
steps.append(("report", lambda: cli.main(["report", "--study", "lognormal",
                                          "--replications", "1", "--n", "400",
                                          "--out", report])))
steps += [(m, lambda m=m: intervals(m)) for m in ("poisson", "negbinom")]
trace = []
for name, run in steps:
    code = run()
    trace.append([name, code, "scipy.stats" in sys.modules,
                  "scipy.special" in sys.modules,
                  any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)])
print(json.dumps(trace))
"""
COUNT_METHODS = ("poisson", "negbinom")


def run_fresh(args, env=None, **kwargs):
    env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, **kwargs)


class TestFreshProcess:
    def test_module_runs_as_a_program(self):
        done = run_fresh(["-m", "binconformal", "--help"])
        assert done.returncode == 0
        assert done.stdout.startswith("usage: binconformal")

    @pytest.mark.parametrize("command", ["intervals", "evaluate"])
    def test_collapsed_percentile_bins_are_a_note(self, tmp_path, command):
        # mostly zeros: the percentile breakpoints coincide, and the warning
        # about it is a note even when warnings are errors
        y = [0.0] * 36 + [1.0, 2.0, 3.0, 4.0]
        cal, test, iv = (tmp_path / f"{name}.csv" for name in ("cal", "test", "iv"))
        write_csv(cal, ("row_id", "y_true", "y_pred"), [(i, v, 0.5) for i, v in enumerate(y)])
        write_csv(test, ("row_id", "y_pred", "y_true"),
                  [(i, 0.5, v) for i, v in enumerate(y)])
        if command == "intervals":
            argv = ["intervals", "--method", "bccp-d", "--bins", "percentiles:4",
                    "--transform", "log1p", "--calibration", str(cal),
                    "--test", str(test), "--out", str(iv)]
        else:
            io.write_intervals_csv(
                iv, [str(i) for i in range(len(y))],
                IntervalBatch.from_bounds(np.zeros(len(y)), np.ones(len(y))),
            )
            argv = ["evaluate", "--intervals", str(iv), "--truth", str(test),
                    "--group", "quartiles", "--out", str(tmp_path / "report.csv")]
        done = run_fresh(["-m", "binconformal", *argv], env={"PYTHONWARNINGS": "error"})
        assert done.returncode == 0, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith(
            "note: duplicate or out-of-support percentile breakpoints collapsed: "
            "4 requested bins reduced to "
        )

    def test_scipy_stats_loads_only_for_a_method_that_calls_it(self, tmp_path):
        rng = np.random.default_rng(2)
        y = np.round(rng.lognormal(1.0, 1.0, size=200))
        cal, test = tmp_path / "cal.csv", tmp_path / "test.csv"
        write_csv(cal, ("row_id", "y_true", "y_pred"),
                  [(i, v, v + 0.5) for i, v in enumerate(y)])
        write_csv(test, ("row_id", "y_pred"), [(i, v + 0.5) for i, v in enumerate(y)])
        done = run_fresh(["-c", IMPORT_BUDGET_SCRIPT, str(cal), str(test),
                          str(tmp_path / "out.csv"), str(tmp_path / "report.csv")])
        assert done.returncode == 0, done.stderr
        trace = json.loads(done.stdout)
        names = [t[0] for t in trace]
        assert names[-len(COUNT_METHODS):] == list(COUNT_METHODS)
        assert {"lognormal", "report"} <= set(names[:-len(COUNT_METHODS)])
        for name, code, stats_loaded, special_loaded, any_scipy in trace:
            assert code == 0, name
            # no method calls scipy.stats; the lognormal method and study
            # load no scipy module at all, and scipy.special arrives with
            # the first count method
            assert not stats_loaded, f"scipy.stats imported by {name}"
            assert special_loaded == (name in COUNT_METHODS), name
            assert any_scipy == (name in COUNT_METHODS), name
