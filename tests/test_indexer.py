import os
from datetime import date, datetime
from pathlib import Path

import pytest

from smokecurate import indexer
from smokecurate.corpusgen import (DESK_DRIFT_GEOMETRY, DESK_GEOMETRY,
                                   CorpusSpec, generate_corpus)
from smokecurate.indexer import build_coverage, consistency_report, scan_cache
from smokecurate.timecal import UTC

from conftest import (BAD_GEOMETRY_OFFSET, SMALL_GEOM, count_reads,
                      granule_to_bytes, simple_granule, simple_granule_bytes,
                      with_geometry_field)


def write_cache(tmp_path, granules):
    cache = tmp_path / "cache"
    for i, g in enumerate(granules):
        d = cache / g.header.forecast_id
        d.mkdir(parents=True, exist_ok=True)
        (d / f"dispersion_{20220302 + i}.gran").write_bytes(granule_to_bytes(g))
    return cache


def test_scan_all_valid(tmp_path):
    cache = write_cache(tmp_path, [simple_granule(ntimes=2) for _ in range(8)])
    records = scan_cache(cache)
    assert len(records) == 8
    assert all(r.ok for r in records)
    assert [str(r.path) for r in records] == sorted(str(r.path) for r in records)


def test_scan_flags_html_artifact(tmp_path):
    cache = write_cache(tmp_path, [simple_granule(ntimes=2)])
    (cache / "BSC00CA12-01" / "dispersion_20220399.gran").write_bytes(
        b"<html>nope</html>")
    records = scan_cache(cache)
    statuses = sorted(r.status for r in records)
    assert statuses == ["not_a_granule", "ok"]


def test_scan_flags_header_truncation(tmp_path):
    data = granule_to_bytes(simple_granule(ntimes=3))
    cache = tmp_path / "cache"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    (cache / "BSC00CA12-01" / "dispersion_20220302.gran").write_bytes(data[:60])
    [record] = scan_cache(cache)
    assert record.status == "truncated"


def test_scan_flags_payload_truncation_via_size(tmp_path):
    data = granule_to_bytes(simple_granule(ntimes=3))
    cache = tmp_path / "cache"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    (cache / "BSC00CA12-01" / "dispersion_20220302.gran").write_bytes(
        data[:-40])  # header intact, payload short
    [record] = scan_cache(cache)
    assert record.status == "truncated"


def test_scan_flags_bytes_past_the_declared_size(tmp_path):
    """A cache file longer than its granule is not ok: a fetch's
    `validate_stream` rejects the same bytes as truncated at the declared
    length, so the scan calls it truncated too, naming both sizes."""
    data = granule_to_bytes(simple_granule(ntimes=3))
    cache = tmp_path / "cache"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    (cache / "BSC00CA12-01" / "dispersion_20220302.gran").write_bytes(
        data + bytes(17))
    [record] = scan_cache(cache)
    assert record.status == "truncated"
    assert record.detail == (f"file is {len(data) + 17} bytes, expected "
                             f"{len(data)}")



def change_after_header(monkeypatch, change):
    """Run `change(path)` on each scanned file just after its header is
    read, while the scan still holds it open."""
    read_header = indexer.read_header

    def read_then_change(f):
        header = read_header(f)
        change(Path(f.name))
        return header

    monkeypatch.setattr(indexer, "read_header", read_then_change)


def test_scan_sizes_the_file_it_read_when_unlinked(tmp_path, monkeypatch):
    """A file unlinked after its header is read is sized from the file the
    scan has open: it is ok, and the scan does not abort."""
    cache = write_cache(tmp_path, [simple_granule(ntimes=6)])
    change_after_header(monkeypatch, Path.unlink)
    [record] = scan_cache(cache)
    assert record.status == "ok"
    assert record.header.ntimes == 6


def test_scan_sizes_the_file_it_read_when_replaced(tmp_path, monkeypatch):
    """A horizon-6 granule replaced by a valid horizon-3 one after its
    header is read is sized from the file the header came from: it is ok,
    not truncated against the other file's size."""
    cache = write_cache(tmp_path, [simple_granule(ntimes=6)])
    shorter = granule_to_bytes(simple_granule(ntimes=3))

    def replace(path):
        other = path.with_name("replacement")
        other.write_bytes(shorter)
        os.replace(other, path)

    change_after_header(monkeypatch, replace)
    [record] = scan_cache(cache)
    assert record.status == "ok"
    assert record.header.ntimes == 6

def test_scan_flags_non_finite_origin(tmp_path):
    cache = tmp_path / "cache"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    (cache / "BSC00CA12-01" / "dispersion_20220302.gran").write_bytes(
        with_geometry_field(simple_granule_bytes(), "lat0", float("nan")))
    [record] = scan_cache(cache)
    assert record.status == "invalid_header"
    assert "bad geometry" in record.detail
    assert f"(at byte {BAD_GEOMETRY_OFFSET})" in record.detail


def test_scan_reads_zero_payload_bytes(tmp_path):
    granules = [simple_granule(ntimes=12) for _ in range(5)]
    cache = write_cache(tmp_path, granules)
    with count_reads() as reads:
        records = scan_cache(cache)
    assert all(r.ok for r in records)
    for r in records:
        header_region = 96 + r.header.ntimes * 8
        assert reads[str(r.path)] == header_region


def test_geometry_classification(tmp_path):
    cache = write_cache(tmp_path, [
        simple_granule(ntimes=1, geometry=DESK_GEOMETRY),
        simple_granule(ntimes=1, geometry=DESK_DRIFT_GEOMETRY),
        simple_granule(ntimes=1, geometry=SMALL_GEOM),
    ])
    records = scan_cache(cache, canonical=DESK_GEOMETRY,
                         drift=DESK_DRIFT_GEOMETRY)
    classes = sorted(r.geometry_class for r in records)
    assert classes == ["canonical", "drift", "other"]


def test_consistency_report_single_group(tmp_path):
    cache = write_cache(tmp_path, [simple_granule(ntimes=1) for _ in range(3)])
    report = consistency_report(scan_cache(cache), canonical=SMALL_GEOM)
    assert len(report.groups) == 1
    assert not [g for g in report.groups if g.flagged]
    assert report.groups[0].count == 3


def test_consistency_report_drift_group_dates(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 5),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=3, geometry=DESK_GEOMETRY,
                      drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 4), seed=2)
    generate_corpus(spec, tmp_path / "c")
    report = consistency_report(scan_cache(tmp_path / "c"),
                                canonical=DESK_GEOMETRY)
    assert len(report.groups) == 2
    [drift_group] = [g for g in report.groups if g.flagged]
    assert drift_group.geometry == DESK_DRIFT_GEOMETRY
    assert drift_group.last_created.date() < date(2022, 3, 4)


def test_consistency_report_distinct_spacings(tmp_path):
    geoms = [SMALL_GEOM,
             SMALL_GEOM.__class__(6, 8, 40.0, -120.0, 0.25, 0.5),
             SMALL_GEOM.__class__(6, 8, 40.0, -120.0, 0.5, 0.25)]
    cache = write_cache(tmp_path, [simple_granule(ntimes=1, geometry=g)
                                   for g in geoms])
    report = consistency_report(scan_cache(cache))
    assert len(report.groups) == 3


def test_coverage_single_granule(tmp_path):
    cache = write_cache(tmp_path, [simple_granule(ntimes=84)])
    index = build_coverage(scan_cache(cache))
    assert len(index.timesteps()) == 84
    assert all(len(index.candidates(t)) == 1 for t in index.timesteps())


def test_coverage_full_schedule_interior_count(tmp_path, tiny_corpus_spec):
    generate_corpus(tiny_corpus_spec, tmp_path / "c")
    index = build_coverage(scan_cache(tmp_path / "c"))
    # interior timestep: horizon 24 h / 6 h cadence = 4 runs per ID x 4 IDs
    t = datetime(2022, 3, 4, 3, tzinfo=UTC)
    assert len(index.candidates(t)) == 16


def test_coverage_ordering_invariant(tmp_path, tiny_corpus_spec):
    generate_corpus(tiny_corpus_spec, tmp_path / "c")
    index = build_coverage(scan_cache(tmp_path / "c"))
    for t in index.timesteps():
        keys = [c.recency_key for c in index.candidates(t)]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def test_coverage_completeness(tmp_path):
    cache = write_cache(tmp_path, [simple_granule(ntimes=5),
                                   simple_granule(ntimes=3,
                                                  forecast_id="BSC06CA12-01")])
    records = scan_cache(cache)
    index = build_coverage(records)
    total = sum(len(index.candidates(t)) for t in index.timesteps())
    assert total == 5 + 3


def test_nonexistent_root_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        scan_cache(tmp_path / "missing")
