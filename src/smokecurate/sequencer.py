"""Latest-forecast selection: one best frame per hourly timestep, gaps kept
as gaps.

Recency is the descending triple (smoke init, creation stamp, forecast id);
a candidate is only eligible for timesteps at or after its own smoke init.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from .granule import GridGeometry
from .indexer import CandidateFrame, CoverageIndex, PlannedFrame
from .tables import read_table, write_table
from .timecal import format_iso_z, hour_range, is_hour_step, parse_iso_z


@dataclass
class SequencePlan:
    start: datetime
    end: datetime
    picks: dict[datetime, PlannedFrame]
    gaps: list[datetime]
    index: CoverageIndex | None = field(repr=False, default=None)
    # hours a plan CSV marks resampled_needed; None from plan_sequence
    resampled_needed: set[datetime] | None = field(repr=False, default=None)

    def timesteps(self) -> list[datetime]:
        return hour_range(self.start, self.end)


def plan_sequence(index: CoverageIndex, start: datetime,
                  end: datetime) -> SequencePlan:
    """For each timestep pick the newest eligible candidate; no candidate
    means a gap, never an error."""
    picks: dict[datetime, CandidateFrame] = {}
    gaps: list[datetime] = []
    for t in hour_range(start, end):
        pick = None
        for cand in index.candidates(t):  # already sorted newest-first
            if cand.smoke_init <= t:
                pick = cand
                break
        if pick is None:
            gaps.append(t)
        else:
            picks[t] = pick
    return SequencePlan(start, end, picks, gaps, index)


@dataclass(frozen=True)
class RankedCandidate:
    candidate: CandidateFrame
    selected: bool


def explain_pick(plan: SequencePlan, t: datetime) -> list[RankedCandidate]:
    """All candidates for a timestep in recency order, the pick marked."""
    if plan.index is None:
        raise ValueError("plan has no candidate index (it was read from a "
                         "plan CSV); explain picks on a plan from plan_sequence")
    if not plan.start <= t <= plan.end:
        raise ValueError(f"{t} outside plan range {plan.start}..{plan.end}")
    pick = plan.picks.get(t)
    return [RankedCandidate(c, c == pick) for c in plan.index.candidates(t)]


PLAN_COLUMNS = ["timestep_utc", "forecast_id", "path", "frame_index",
                "smoke_init_utc", "resampled_needed"]


def write_plan_csv(plan: SequencePlan, path: Path | str,
                   canonical: GridGeometry) -> None:
    """One row per sequenced hour; a gap's row leaves the pick columns
    empty, so the plan's range and gaps read back with its picks, and a
    pick's resampled_needed is 1 when its grid is not `canonical`."""
    def row(t: datetime) -> list:
        c = plan.picks.get(t)
        if c is None:
            return [format_iso_z(t)] + [""] * (len(PLAN_COLUMNS) - 1)
        return [format_iso_z(t), c.forecast_id, str(c.path), c.frame_index,
                format_iso_z(c.smoke_init), int(c.geometry != canonical)]
    write_table(path, PLAN_COLUMNS, map(row, plan.timesteps()))


def write_gaps_csv(plan: SequencePlan, path: Path | str) -> None:
    write_table(path, ["timestep_utc"], ([format_iso_z(t)] for t in plan.gaps))


def read_plan_csv(path: Path | str) -> SequencePlan:
    """Rebuild a plan from its CSV: it runs from its first to its last row,
    an hour whose pick columns are empty (or that has no row) is a gap,
    picks hold only the CSV's columns, and the plan has no candidate index.
    A timestep that is not an exact hour, or that two rows list, or a pick's
    resampled_needed other than 0 or 1, raises ValueError naming the file
    and the line."""
    seen: set[datetime] = set()
    resampled_needed: set[datetime] = set()

    def plan_row(row: dict[str, str]) -> tuple[datetime, PlannedFrame | None]:
        t = parse_iso_z(row["timestep_utc"])
        if t in seen or not is_hour_step(t):
            raise ValueError(f"timestep_utc {row['timestep_utc']} is " + (
                "listed twice" if t in seen else "not an exact hour"))
        seen.add(t)
        if not any(row[c] for c in PLAN_COLUMNS[1:5]):
            return t, None  # a gap
        if row["resampled_needed"] not in ("0", "1"):
            raise ValueError(f"resampled_needed is "
                             f"{row['resampled_needed']!r}, not 0 or 1")
        if row["resampled_needed"] == "1":
            resampled_needed.add(t)
        return t, PlannedFrame(Path(row["path"]), row["forecast_id"],
                               int(row["frame_index"]),
                               parse_iso_z(row["smoke_init_utc"]))

    rows = dict(read_table(path, PLAN_COLUMNS, plan_row))
    picks = {t: pick for t, pick in rows.items() if pick is not None}
    if not picks:
        raise ValueError(f"plan {path} contains no picks")
    start, end = min(rows), max(rows)
    gaps = [t for t in hour_range(start, end) if t not in picks]
    return SequencePlan(start, end, picks, gaps,
                        resampled_needed=resampled_needed)
