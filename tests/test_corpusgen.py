import hashlib
import weakref
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from smokecurate import corpusgen
from smokecurate.corpusgen import (DEFAULT_FORECAST_IDS, DESK_DRIFT_GEOMETRY,
                                   DESK_GEOMETRY, HTML_BODY, SIGMA0_DEG, SIGMA_GROWTH_DEG_H,
                                   CorpusSpec, FaultProfile,
                                   PuffSource, build_run_granule,
                                   generate_corpus, make_world, puff_field)
from smokecurate.granule import (ForecastGranule, GridGeometry, NotAGranuleError,
                                 TruncatedError, granule_to_bytes,
                                 parse_granule_bytes, read_header_bytes)
from smokecurate.timecal import UTC

from conftest import SMALL_GEOM


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_run_count_one_id_two_days(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 3),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0, 6, 12, 18),
                      horizon_hours=6, geometry=SMALL_GEOM, seed=1)
    manifest = generate_corpus(spec, tmp_path / "c")
    files = [p for p in (tmp_path / "c").rglob("*.gran")]
    assert len(files) == 8
    assert len(manifest.entries) == 8
    assert all(e.outcome == "ok" for e in manifest.entries)


def test_all_missing_profile(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 3),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0, 12),
                      horizon_hours=6, geometry=SMALL_GEOM,
                      fault_profile=FaultProfile(missing_run_rate=1.0), seed=1)
    manifest = generate_corpus(spec, tmp_path / "c")
    assert not list((tmp_path / "c").rglob("*.gran"))
    assert all(e.outcome == "missing" for e in manifest.entries)
    assert len(manifest.entries) == 4


def test_full_range_schedule_order_of_magnitude():
    spec = CorpusSpec(start_date=date(2021, 3, 3), end_date=date(2024, 6, 27))
    runs = spec.scheduled_runs()
    per_id = sum(1 for fid, _ in runs if fid == "BSC00CA12-01")
    days = (date(2024, 6, 27) - date(2021, 3, 3)).days + 1
    assert per_id == days * 4            # one run per init hour per day
    assert 1000 <= days <= 1500          # ~1200 days, ~1000s of files per ID


def test_determinism_byte_identical_trees(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 3),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01"),
                      init_hours=(0, 6), horizon_hours=8, geometry=SMALL_GEOM,
                      fault_profile=FaultProfile(0.2, 0.1, 0.1), seed=42)
    generate_corpus(spec, tmp_path / "a")
    generate_corpus(spec, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_different_seeds_differ(tmp_path):
    kwargs = dict(start_date=date(2022, 3, 2), end_date=date(2022, 3, 2),
                  forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                  horizon_hours=4, geometry=SMALL_GEOM)
    generate_corpus(CorpusSpec(seed=1, **kwargs), tmp_path / "a")
    generate_corpus(CorpusSpec(seed=2, **kwargs), tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def test_nonempty_root_rejected(tmp_path):
    root = tmp_path / "c"
    root.mkdir()
    (root / "junk").write_text("x")
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 2),
                      geometry=SMALL_GEOM, init_hours=(0,),
                      forecast_ids=("BSC00CA12-01",), horizon_hours=2)
    with pytest.raises(ValueError, match="not empty"):
        generate_corpus(spec, root)


def test_puff_no_sources_is_zero():
    t = datetime(2022, 3, 2, tzinfo=UTC)
    field = puff_field([], (0.1, 0.0), t, SMALL_GEOM)
    np.testing.assert_array_equal(field, 0.0)


def test_puff_peak_at_source_with_zero_wind():
    t = datetime(2022, 3, 2, tzinfo=UTC)
    src = PuffSource(lat=41.5, lon=-118.0, strength=50.0, ignition=t)
    field = puff_field([src], (0.0, 0.0), t, SMALL_GEOM)
    r, c = np.unravel_index(np.argmax(field), field.shape)
    lat = SMALL_GEOM.lat0 + r * SMALL_GEOM.dlat
    lon = SMALL_GEOM.lon0 + c * SMALL_GEOM.dlon
    assert (lat, lon) == (41.5, -118.0)
    assert field[r, c] == pytest.approx(50.0)


def test_puff_center_advects_with_wind():
    t0 = datetime(2022, 3, 2, tzinfo=UTC)
    src = PuffSource(lat=41.0, lon=-119.0, strength=10.0, ignition=t0)
    geom = SMALL_GEOM
    field = puff_field([src], (0.1, 0.0), t0 + timedelta(hours=10), geom)
    r, c = np.unravel_index(np.argmax(field), field.shape)
    # center moved 1.0 degree east; nearest grid node to (-118.0) is col 4
    assert geom.lon0 + c * geom.dlon == pytest.approx(-118.0)
    assert geom.lat0 + r * geom.dlat == pytest.approx(41.0)


def test_puff_ignition_in_future_contributes_nothing():
    t0 = datetime(2022, 3, 2, tzinfo=UTC)
    src = PuffSource(lat=41.0, lon=-119.0, strength=10.0,
                     ignition=t0 + timedelta(hours=5))
    field = puff_field([src], (0.0, 0.0), t0, SMALL_GEOM)
    np.testing.assert_array_equal(field, 0.0)


def test_puff_field_equals_the_formula_bit_for_bit():
    """The in-place evaluation gives the bits of the one-expression formula."""
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 4),
                      geometry=DESK_GEOMETRY, seed=11)
    sources, (u, v) = make_world(spec)
    lit = 0
    for geom in (DESK_GEOMETRY, DESK_DRIFT_GEOMETRY):
        lat, lon = geom.latitudes()[:, None], geom.longitudes()[None, :]
        for hour in range(0, 72, 7):
            t = datetime(2022, 3, 2, tzinfo=UTC) + timedelta(hours=hour)
            expect = np.zeros((geom.nrows, geom.ncols))
            for s in sources:
                dt_h = (t - s.ignition).total_seconds() / 3600.0
                if dt_h < 0:
                    continue
                sigma = SIGMA0_DEG + SIGMA_GROWTH_DEG_H * dt_h
                expect += s.strength * np.exp(
                    -((lat - (s.lat + v * dt_h)) ** 2
                      + (lon - (s.lon + u * dt_h)) ** 2) / (2.0 * sigma * sigma))
            assert puff_field(sources, (u, v), t, geom).tobytes() == expect.tobytes()
            lit += bool(expect.any())
    assert lit > 10


def test_overlap_perturbation_bounded(tmp_path):
    """Two fault-free runs at different inits disagree at a shared timestep by
    no more than the lead-time perturbation bound."""
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 2),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0, 6),
                      horizon_hours=12, geometry=SMALL_GEOM, seed=5)
    sources, wind = make_world(spec)
    t0 = datetime(2022, 3, 2, 0, tzinfo=UTC)
    g_old = build_run_granule(spec, "BSC00CA12-01", t0, sources, wind)
    g_new = build_run_granule(spec, "BSC00CA12-01",
                              t0 + timedelta(hours=6), sources, wind)
    shared = t0 + timedelta(hours=8)
    truth = puff_field(sources, wind, shared, SMALL_GEOM)
    old_frame = g_old.pm25[8]     # lead 8
    new_frame = g_new.pm25[2]     # lead 2
    bound_old = 0.02 * 8 * truth + 1e-4
    bound_new = 0.02 * 2 * truth + 1e-4
    assert (np.abs(old_frame - truth) <= bound_old).all()
    assert (np.abs(new_frame - truth) <= bound_new).all()


def test_faults_observable_and_accounted(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 9),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01"),
                      init_hours=(0, 6), horizon_hours=6, geometry=SMALL_GEOM,
                      fault_profile=FaultProfile(0.3, 0.25, 0.25), seed=13)
    manifest = generate_corpus(spec, tmp_path / "c")
    outcomes = {e.outcome for e in manifest.entries}
    assert outcomes == {"ok", "missing", "html", "truncated"}
    for entry in manifest.entries:
        path = tmp_path / "c" / entry.path
        if entry.outcome == "missing":
            assert entry.path == ""
        elif entry.outcome == "ok":
            parse_granule_bytes(path.read_bytes())
        elif entry.outcome == "html":
            with pytest.raises(NotAGranuleError):
                parse_granule_bytes(path.read_bytes())
        elif entry.outcome == "truncated":
            with pytest.raises(TruncatedError):
                parse_granule_bytes(path.read_bytes())


def test_drift_geometry_before_cutoff(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 5),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=4, geometry=DESK_GEOMETRY,
                      drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 4), seed=3)
    generate_corpus(spec, tmp_path / "c")
    for path in (tmp_path / "c").rglob("*.gran"):
        g = parse_granule_bytes(path.read_bytes())
        day = int(path.parent.name[:8])
        if day < 20220304:
            assert g.header.geometry == DESK_DRIFT_GEOMETRY
        else:
            assert g.header.geometry == DESK_GEOMETRY


def test_manifest_csv_written(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 2),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=2, geometry=SMALL_GEOM)
    generate_corpus(spec, tmp_path / "c")
    text = (tmp_path / "c" / "manifest.csv").read_text()
    assert text.splitlines()[0] == "forecast_id,init_utc,outcome,path"
    assert "BSC00CA12-01,2022-03-02T00:00:00Z,ok" in text


def test_bodies_equal_the_writer_and_each_granule_is_validated_once(
        tmp_path, monkeypatch):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 7),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01"),
                      init_hours=(0, 6), horizon_hours=12,
                      geometry=DESK_GEOMETRY, drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 4),
                      fault_profile=FaultProfile(0.1, 0.15, 0.25), seed=19)
    validated = []
    original = ForecastGranule.validate
    monkeypatch.setattr(ForecastGranule, "validate",
                        lambda self: validated.append(self) or original(self))
    manifest = generate_corpus(spec, tmp_path / "c")
    written = [e for e in manifest.entries if e.outcome != "missing"]
    assert len(validated) == sum(e.outcome != "html" for e in written)
    assert {e.outcome for e in written} == {"ok", "html", "truncated"}

    monkeypatch.setattr(ForecastGranule, "validate", original)
    sources, wind = make_world(spec)
    for e in written:
        body = (tmp_path / "c" / e.path).read_bytes()
        if e.outcome == "html":
            assert body == HTML_BODY
            continue
        full = granule_to_bytes(
            build_run_granule(spec, e.forecast_id, e.init, sources, wind))
        if e.outcome == "ok":
            assert body == full
        else:
            assert read_header_bytes(full).header_bytes <= len(body) < len(full)
            assert body == full[:len(body)]


def test_invalid_drift_geometry_rejected_before_the_root_is_made(tmp_path):
    bad = GridGeometry(nrows=20, ncols=36, lat0=32.0, lon0=-160.0,
                       dlat=-0.5, dlon=0.5)
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 4),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=4, geometry=DESK_GEOMETRY,
                      drift_geometry=bad, drift_cutoff=date(2022, 3, 3))
    with pytest.raises(ValueError, match="spacing"):
        spec.validate()
    with pytest.raises(ValueError, match="spacing"):
        generate_corpus(spec, tmp_path / "c")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("drift", [
    # one dlat off the corpus grid's origin: same shape, other coordinates
    GridGeometry(nrows=20, ncols=36, lat0=32.5, lon0=-160.0,
                 dlat=0.5, dlon=0.5),
    # wider than the corpus grid, so not a window of it
    GridGeometry(nrows=20, ncols=44, lat0=32.0, lon0=-160.0,
                 dlat=0.5, dlon=0.5),
], ids=["unaligned", "wider"])
def test_bodies_equal_runs_built_without_shared_fields(tmp_path, drift):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 5),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01"),
                      init_hours=(0, 6), horizon_hours=12,
                      geometry=DESK_GEOMETRY, drift_geometry=drift,
                      drift_cutoff=date(2022, 3, 4),
                      fault_profile=FaultProfile(0.1, 0.1, 0.3), seed=29)
    manifest = generate_corpus(spec, tmp_path / "c")
    sources, wind = make_world(spec)
    outcomes, grids = set(), set()
    for e in manifest.entries:
        outcomes.add(e.outcome)
        if e.outcome in ("missing", "html"):
            continue
        body = (tmp_path / "c" / e.path).read_bytes()
        g = build_run_granule(spec, e.forecast_id, e.init, sources, wind)
        grids.add(g.header.geometry)
        # and the fields are those of the run's own grid
        for lead in range(0, spec.horizon_hours, 5):
            truth = puff_field(sources, wind, e.init + timedelta(hours=lead),
                               g.header.geometry)
            assert (np.abs(g.pm25[lead] - truth)
                    <= 0.02 * lead * truth + 1e-4).all()
        full = granule_to_bytes(g)
        if e.outcome == "ok":
            assert body == full
        else:
            assert read_header_bytes(full).header_bytes <= len(body) < len(full)
            assert body == full[:len(body)]
    assert {"ok", "truncated"} <= outcomes
    assert grids == {drift, DESK_GEOMETRY}


def test_each_true_field_is_computed_once_and_a_horizon_at_most_is_held(
        tmp_path, monkeypatch):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 4),
                      forecast_ids=DEFAULT_FORECAST_IDS,
                      init_hours=(0, 6, 12, 18), horizon_hours=12,
                      geometry=DESK_GEOMETRY, drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 3), seed=31)
    calls, live = [], []
    original = corpusgen.puff_field

    def counted(sources, wind, t, geom):
        field = original(sources, wind, t, geom)
        calls.append((t, geom, weakref.ref(field)))
        live.append(sum(ref() is not None for _, _, ref in calls))
        return field

    monkeypatch.setattr(corpusgen, "puff_field", counted)
    manifest = generate_corpus(spec, tmp_path / "c")
    hours = {e.init + timedelta(hours=lead) for e in manifest.entries
             for lead in range(spec.horizon_hours)}
    assert len(calls) == len(hours)
    assert {t for t, _, _ in calls} == hours
    # the drift runs read a window of the corpus-grid field
    assert {geom for _, geom, _ in calls} == {DESK_GEOMETRY}
    assert max(live) <= spec.horizon_hours
