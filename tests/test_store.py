"""CSV ingestion and the append-only classification cache."""
import dataclasses
import fcntl
import json
import os

import pytest

from selmerfan.curves import CurveQ, classify_prime, classify_primes, good_primes
from selmerfan import store
from selmerfan.errors import DataError
from selmerfan.store import (
    append_records,
    cache_checksum,
    cache_path,
    ensure_classified,
    line_to_record,
    load_records,
    read_curves_csv,
    record_to_line,
)

FIX = CurveQ(1, 1, "fix")


class TestCurvesCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "curves.csv"
        path.write_text(text)
        return str(path)

    def test_reads_plain_rows(self, tmp_path):
        path = self.write(tmp_path, "alpha,1,1\nbeta,0,1\n")
        curves = read_curves_csv(path)
        assert [(c.label, c.A, c.B) for c in curves] == [("alpha", 1, 1), ("beta", 0, 1)]

    def test_header_comments_blanks(self, tmp_path):
        path = self.write(tmp_path, "label,A,B\n# comment\n\nalpha,1,1\n")
        assert len(read_curves_csv(path)) == 1

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_curves_csv("/nonexistent/curves.csv")

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "alpha,1\n")
        with pytest.raises(DataError, match="curves.csv:1"):
            read_curves_csv(path)

    def test_non_integer_coefficient(self, tmp_path):
        path = self.write(tmp_path, "alpha,x,1\n")
        with pytest.raises(DataError, match=":1:"):
            read_curves_csv(path)

    def test_singular_row_carries_line_number(self, tmp_path):
        path = self.write(tmp_path, "alpha,1,1\nbad,0,0\n")
        with pytest.raises(DataError, match=":2:"):
            read_curves_csv(path)

    def test_duplicate_label(self, tmp_path):
        path = self.write(tmp_path, "alpha,1,1\nalpha,0,1\n")
        with pytest.raises(DataError, match="duplicate"):
            read_curves_csv(path)

    def test_empty_label(self, tmp_path):
        path = self.write(tmp_path, ",1,1\n")
        with pytest.raises(DataError, match="empty label"):
            read_curves_csv(path)

    @pytest.mark.parametrize("label", ["../escaped", "a/b", ".", "..", "a\0b", "/abs"])
    def test_label_that_is_not_a_file_name(self, tmp_path, label):
        path = self.write(tmp_path, f"alpha,1,1\n{label},0,1\n")
        with pytest.raises(DataError, match=":2: label .* is not a plain file name"):
            read_curves_csv(path)

    def test_dotted_label_is_a_file_name(self, tmp_path):
        path = self.write(tmp_path, "a.b,1,1\n..c,0,1\n")
        assert [c.label for c in read_curves_csv(path)] == ["a.b", "..c"]


def asdict_line(record):
    """The canonical line as `dataclasses.asdict` and `json.dumps` render it."""
    return json.dumps(dataclasses.asdict(record), sort_keys=True, separators=(",", ":")) + "\n"


class TestRecordLines:
    def test_matches_asdict_rendering(self):
        for label, a, b in [("fix", 1, 1), ("tw", 2, 3), ("cm", 0, -432)]:
            curve = CurveQ(a, b, label)
            for rec in classify_primes(curve, good_primes(curve, 3000)):
                assert record_to_line(rec) == asdict_line(rec)

    def test_escapes_labels_as_ascii(self):
        for label in ["é", 'a"b', "a\\b", 'é"\\']:
            rec = dataclasses.replace(classify_prime(FIX, 5), label=label)
            line = record_to_line(rec)
            assert line == asdict_line(rec)
            assert line.isascii()
            assert line_to_record(line) == rec

    def test_round_trip_is_byte_identical(self):
        for p in [5, 7, 13, 61]:
            rec = classify_prime(FIX, p)
            line = record_to_line(rec)
            assert line_to_record(line) == rec
            assert record_to_line(line_to_record(line)) == line

    def test_malformed_lines(self):
        with pytest.raises(DataError):
            line_to_record("not json\n")
        with pytest.raises(DataError):
            line_to_record('{"label": "x"}\n')


class TestCache:
    def test_append_then_load(self, tmp_path):
        path = cache_path(str(tmp_path), "fix")
        recs = classify_primes(FIX, good_primes(FIX, 200))
        assert append_records(path, recs) == len(recs)
        loaded = load_records(path)
        assert len(loaded) == len(recs)
        assert loaded[("fix", 5)] == recs[0]

    def test_second_append_is_noop(self, tmp_path):
        path = cache_path(str(tmp_path), "fix")
        recs = classify_primes(FIX, good_primes(FIX, 200))
        append_records(path, recs)
        before = open(path, "rb").read()
        assert append_records(path, recs) == 0
        assert open(path, "rb").read() == before

    def test_append_holds_an_exclusive_lock(self, tmp_path, monkeypatch):
        path = cache_path(str(tmp_path), "fix")
        probes = []

        def probe(fd):
            with open(path, "rb") as other, pytest.raises(BlockingIOError):
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            probes.append(fd)

        monkeypatch.setattr("selmerfan.store.os.fsync", probe)
        assert append_records(path, classify_primes(FIX, good_primes(FIX, 100))) > 0
        assert len(probes) == 1
        with open(path, "rb") as other:  # released once the append returns
            fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)

    def test_append_reads_existing_keys_under_its_lock(self, tmp_path, monkeypatch):
        path = cache_path(str(tmp_path), "fix")
        recs = classify_primes(FIX, good_primes(FIX, 200))
        monkeypatch.setattr(store, "load_records", lambda p: pytest.fail("separate read"))
        assert append_records(path, recs[:3]) == 3
        assert append_records(path, recs) == len(recs) - 3
        assert open(path).read() == "".join(record_to_line(r) for r in recs)

    def test_missing_cache_is_empty(self, tmp_path):
        assert load_records(str(tmp_path / "none.jsonl")) == {}
        assert cache_checksum(str(tmp_path / "none.jsonl")) is None

    def test_checksum_tracks_content(self, tmp_path):
        path = cache_path(str(tmp_path), "fix")
        recs = classify_primes(FIX, good_primes(FIX, 100))
        append_records(path, recs[:3])
        c1 = cache_checksum(path)
        append_records(path, recs)
        c2 = cache_checksum(path)
        assert c1 != c2
        assert len(c1) == 64

    def test_ensure_classified_cold_then_warm(self, tmp_path, monkeypatch):
        path = cache_path(str(tmp_path), "fix")
        first, fresh1 = ensure_classified(FIX, 300, path)
        assert fresh1 == len(first) > 0
        bytes_after_first = open(path, "rb").read()
        reads = []
        monkeypatch.setattr(store, "load_records", lambda p: reads.append(p) or load_records(p))
        second, fresh2 = ensure_classified(FIX, 300, path)
        assert reads == [path]  # a warm run parses the cache once
        assert fresh2 == 0
        assert second == first
        assert open(path, "rb").read() == bytes_after_first

    def test_ensure_classified_extends(self, tmp_path):
        path = cache_path(str(tmp_path), "fix")
        small, _ = ensure_classified(FIX, 200, path)
        bigger, fresh = ensure_classified(FIX, 400, path)
        assert set(small) < set(bigger)
        assert fresh == len(bigger) - len(small)
        # old lines must be untouched prefixes of the grown file
        lines = open(path).read().splitlines()
        assert lines[: len(small)] == [record_to_line(small[p]).strip() for p in sorted(small)]

    def test_caches_for_two_labels_are_separate_files(self, tmp_path):
        a = cache_path(str(tmp_path), "a")
        b = cache_path(str(tmp_path), "b")
        assert a != b
        assert os.path.dirname(a) == str(tmp_path)
