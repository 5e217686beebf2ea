import dataclasses
import shutil
from datetime import date, datetime, timedelta

import pytest

from smokecurate.corpusgen import CorpusSpec, generate_corpus
from smokecurate.granule import parse_granule_bytes
from smokecurate.indexer import CoverageIndex, build_coverage, scan_cache
from smokecurate.sequencer import (PlannedFrame, explain_pick, plan_sequence,
                                   read_plan_csv, write_gaps_csv,
                                   write_plan_csv)
from smokecurate.timecal import (HOUR, ISO_Z, UTC, hour_range,
                                 julian_to_calendar)

from conftest import SMALL_GEOM, T0, simple_granule_bytes

IDS = ("BSC00CA12-01", "BSC06CA12-01", "BSC12CA12-01", "BSC18CA12-01")


@pytest.fixture(scope="module")
def sched_corpus(tmp_path_factory):
    """Fault-free corpus with the full 84 h horizon so interior timesteps see
    14 overlapping runs per forecast stream."""
    root = tmp_path_factory.mktemp("sched") / "corpus"
    spec = CorpusSpec(start_date=date(2022, 2, 28), end_date=date(2022, 3, 4),
                      forecast_ids=IDS, init_hours=(0, 6, 12, 18),
                      horizon_hours=84, geometry=SMALL_GEOM, seed=19)
    generate_corpus(spec, root)
    return root


def make_plan(root, start, end):
    index = build_coverage(scan_cache(root))
    return plan_sequence(index, start, end)


def test_interior_timestep_has_56_candidates(sched_corpus):
    t = datetime(2022, 3, 4, 1, tzinfo=UTC)
    plan = make_plan(sched_corpus, t, t)
    assert len(plan.index.candidates(t)) == 14 * 4 == 56


def test_pick_is_most_recent_init_native_stream(sched_corpus):
    t = datetime(2022, 3, 4, 1, tzinfo=UTC)
    plan = make_plan(sched_corpus, t, t)
    pick = plan.picks[t]
    assert pick.smoke_init == datetime(2022, 3, 4, 0, tzinfo=UTC)
    assert pick.forecast_id == "BSC00CA12-01"
    assert pick.frame_index == 1


def test_fallback_when_newest_runs_missing(sched_corpus, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(sched_corpus, root)
    for fid in IDS:
        shutil.rmtree(root / fid / "2022030400")
    t = datetime(2022, 3, 4, 1, tzinfo=UTC)
    plan = make_plan(root, t, t)
    pick = plan.picks[t]
    assert pick.smoke_init == datetime(2022, 3, 3, 18, tzinfo=UTC)
    assert pick.forecast_id == "BSC18CA12-01"  # native stream for 18 UTC
    assert pick.frame_index == 7


def test_empty_index_yields_all_gaps():
    plan = plan_sequence(CoverageIndex(), T0, T0 + timedelta(hours=5))
    assert not plan.picks
    assert plan.gaps == hour_range(T0, T0 + timedelta(hours=5))


def test_candidates_with_future_init_are_ignored(tmp_path):
    d = tmp_path / "cache" / "BSC00CA12-01"
    d.mkdir(parents=True)
    (d / "dispersion_20220302.gran").write_bytes(simple_granule_bytes(ntimes=4))
    plan = make_plan(tmp_path / "cache", T0 - timedelta(hours=3),
                     T0 + timedelta(hours=3))
    assert plan.gaps == hour_range(T0 - timedelta(hours=3), T0 - HOUR)
    assert all(plan.picks[t].smoke_init <= t for t in plan.picks)


def test_picked_init_never_decreases(sched_corpus):
    start = datetime(2022, 3, 1, 0, tzinfo=UTC)
    end = datetime(2022, 3, 4, 12, tzinfo=UTC)
    plan = make_plan(sched_corpus, start, end)
    assert not plan.gaps
    inits = [plan.picks[t].smoke_init for t in plan.timesteps()]
    assert all(a <= b for a, b in zip(inits, inits[1:]))


def test_explain_pick_orders_and_marks(sched_corpus):
    t = datetime(2022, 3, 4, 1, tzinfo=UTC)
    plan = make_plan(sched_corpus, t, t)
    ranking = explain_pick(plan, t)
    assert len(ranking) == 56
    assert [r.selected for r in ranking].count(True) == 1
    assert ranking[0].selected  # the newest eligible candidate is first
    keys = [r.candidate.recency_key for r in ranking]
    assert keys == sorted(keys, reverse=True)
    with pytest.raises(ValueError):
        explain_pick(plan, t + timedelta(hours=1))


def test_explain_pick_on_gap_marks_nothing():
    plan = plan_sequence(CoverageIndex(), T0, T0)
    assert explain_pick(plan, T0) == []


def test_matches_brute_force_on_faulty_corpus(tmp_path, faulty_corpus_spec):
    generate_corpus(faulty_corpus_spec, tmp_path / "c")
    records = scan_cache(tmp_path / "c")
    start = datetime(2022, 3, 2, 0, tzinfo=UTC)
    end = datetime(2022, 3, 6, 6, tzinfo=UTC)
    plan = plan_sequence(build_coverage(records), start, end)

    # oracle: full-parse every valid granule, rank every covering frame
    parsed = [(r.path, parse_granule_bytes(r.path.read_bytes()))
              for r in records if r.ok]
    for t in hour_range(start, end):
        best = None
        for path, g in parsed:
            if not g.header.smoke_init <= t:
                continue
            for i, stamp in enumerate(g.tflag):
                if julian_to_calendar(stamp) == t:
                    key = (g.header.smoke_init, g.header.created,
                           g.header.forecast_id)
                    if best is None or key > best[0]:
                        best = (key, path, i)
        if best is None:
            assert t in plan.gaps
        else:
            pick = plan.picks[t]
            assert (pick.path, pick.frame_index) == (best[1], best[2])


def test_plan_csv_round_trip(tmp_path, faulty_corpus_spec):
    generate_corpus(faulty_corpus_spec, tmp_path / "c")
    plan = make_plan(tmp_path / "c", datetime(2022, 3, 2, 0, tzinfo=UTC),
                     datetime(2022, 3, 6, 6, tzinfo=UTC))
    write_plan_csv(plan, tmp_path / "plan.csv", canonical=SMALL_GEOM)
    write_gaps_csv(plan, tmp_path / "gaps.csv")

    lines = (tmp_path / "plan.csv").read_text().splitlines()
    assert lines[0] == ("timestep_utc,forecast_id,path,frame_index,"
                       "smoke_init_utc,resampled_needed")
    # one row per sequenced hour; a gap's row has empty pick columns
    assert len(lines) == 1 + len(plan.timesteps())
    for t, line in zip(plan.timesteps(), lines[1:]):
        assert line.startswith(t.strftime(ISO_Z) + ",")
        assert line.endswith(",,,,," if t in plan.gaps else ",0")  # same grid
    gap_lines = (tmp_path / "gaps.csv").read_text().splitlines()
    assert gap_lines[0] == "timestep_utc"
    assert len(gap_lines) == 1 + len(plan.gaps)

    back = read_plan_csv(tmp_path / "plan.csv")
    assert plan.gaps[-1] == plan.end  # a trailing gap the picks alone lose
    assert (back.start, back.end, back.gaps) == (plan.start, plan.end, plan.gaps)
    assert back.resampled_needed == set()  # every pick is on SMALL_GEOM
    assert set(back.picks) == set(plan.picks)
    for t in plan.picks:
        assert back.picks[t].path == plan.picks[t].path
        assert back.picks[t].frame_index == plan.picks[t].frame_index
        assert back.picks[t].smoke_init == plan.picks[t].smoke_init


def test_plan_read_from_csv_holds_only_csv_columns(tmp_path, sched_corpus):
    t = datetime(2022, 3, 4, 1, tzinfo=UTC)
    plan = make_plan(sched_corpus, t, t + timedelta(hours=2))
    write_plan_csv(plan, tmp_path / "plan.csv", SMALL_GEOM)
    back = read_plan_csv(tmp_path / "plan.csv")
    assert back.index is None
    for s, pick in back.picks.items():
        assert type(pick) is PlannedFrame
        assert dataclasses.astuple(pick) == dataclasses.astuple(plan.picks[s])[:4]
    # a CSV plan cannot tell which candidates there were, so it says so
    # instead of reporting none
    with pytest.raises(ValueError, match="no candidate index"):
        explain_pick(back, t)


@pytest.mark.parametrize("edit, line, message", [
    (lambda rows: rows.insert(3, rows[2]), 4,
     "timestep_utc 2022-03-04T02:00:00Z is listed twice"),
    (lambda rows: rows.__setitem__(1, rows[1].replace("T01:00:00Z,", "T00:30:00Z,", 1)),
     2, "timestep_utc 2022-03-04T00:30:00Z is not an exact hour"),
    (lambda rows: rows.__setitem__(-1, rows[-1].replace("T03:00:00Z,", "T03:00:01Z,", 1)),
     4, "timestep_utc 2022-03-04T03:00:01Z is not an exact hour"),
    (lambda rows: rows.__setitem__(2, rows[2] + ",1"), 3,
     "more cells than the header names"),
], ids=["duplicate-hour", "first-not-an-hour", "last-not-an-hour",
        "extra-cell"])
def test_plan_csv_bad_timestep_names_file_and_line(tmp_path, sched_corpus,
                                                   edit, line, message):
    t = datetime(2022, 3, 4, 1, tzinfo=UTC)
    path = tmp_path / "plan.csv"
    write_plan_csv(make_plan(sched_corpus, t, t + timedelta(hours=2)), path,
                   SMALL_GEOM)
    rows = path.read_text().splitlines()
    edit(rows)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as err:
        read_plan_csv(path)
    assert str(err.value) == f"{path} line {line}: {message}"
