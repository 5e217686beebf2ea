import builtins
from datetime import date, datetime

import pytest

from smokecurate.corpusgen import (DESK_DRIFT_GEOMETRY, DESK_GEOMETRY,
                                   CorpusSpec, generate_corpus)
from smokecurate.granule import granule_to_bytes
from smokecurate.indexer import build_coverage, consistency_report, scan_cache
from smokecurate.timecal import UTC

from conftest import (BAD_GEOMETRY_OFFSET, SMALL_GEOM, simple_granule,
                      simple_granule_bytes, with_geometry_field)


class PayloadCountingFile:
    """File wrapper that records read positions so tests can prove the
    payload region was never touched."""

    totals: dict = {}

    def __init__(self, path, mode):
        self._f = builtins.open(path, mode)
        self._path = str(path)

    def read(self, n=-1):
        data = self._f.read(n)
        self.totals[self._path] = self.totals.get(self._path, 0) + len(data)
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


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
    assert record.forecast_id == "BSC00CA12-01"  # from the directory name


def test_scan_flags_payload_truncation_via_size(tmp_path):
    data = granule_to_bytes(simple_granule(ntimes=3))
    cache = tmp_path / "cache"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    (cache / "BSC00CA12-01" / "dispersion_20220302.gran").write_bytes(
        data[:-40])  # header intact, payload short
    [record] = scan_cache(cache)
    assert record.status == "truncated"


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
    PayloadCountingFile.totals = {}
    records = scan_cache(cache, opener=PayloadCountingFile)
    assert all(r.ok for r in records)
    for r in records:
        header_region = 96 + r.header.ntimes * 8
        assert PayloadCountingFile.totals[str(r.path)] == header_region


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
    assert not report.flagged_groups
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
