"""End-to-end and per-layer metrics computed from the benchmark's spans.

End-to-end metrics come from untraced operations only; per-layer metrics
from traced cycles, as the median over those cycles of each cycle's total.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass

from tracing import Span, self_seconds

LAYERS = ("fetcher", "indexer", "sequencer", "timecal", "granule", "regrid",
          "archive", "query", "pvanalysis")


@dataclass
class OpResult:
    kind: str
    traced: bool
    ok: bool
    cycle: int
    span: Span | None     # the operation's root span; None if it never started


def _sum(ops: list[OpResult], key: str) -> float:
    return sum(o.span.info.get(key, 0) for o in ops)


def _p10(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[0] if len(xs) > 1 else xs[0]


def end_to_end(main_kind: str, setup: dict, ops: list[OpResult]) -> dict[str, float]:
    """Metrics every workload reports. A value is an hourly level-0 grid
    value for curate operations and an hourly point sample for query and
    analyze operations. Latency is the 10th percentile of the workload's main
    operation: the host's slow phases lengthen the median of a run by up to
    a quarter, its fast end less."""
    done = [o for o in ops if o.ok and not o.traced]
    main = [o for o in done if o.kind == main_kind]
    p10 = _p10([o.span.seconds for o in main])
    values = _sum(done, "values")
    read = _sum(done, "read_bytes")
    if "archive_bytes_per_value" in setup:
        archive_bpv = setup["archive_bytes_per_value"]
    else:
        archive_bpv = statistics.median(o.span.info["stored_bytes"] / o.span.info["values"]
                                        for o in done)
    return {
        "setup_s": setup["setup_s"],
        "op_p10_ms": p10 * 1e3,
        "read_bytes_per_value": read / values,
        "touched_bytes_per_value": (read + _sum(done, "write_bytes")) / values,
        "archive_bytes_per_value": archive_bpv,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def named_report(main_kind: str, e2e: dict, ops: list[OpResult]) -> dict[str, tuple]:
    """The measurements under the names a curate or query user reads, with
    medians over the run: name -> (value, unit)."""
    done = [o for o in ops if o.ok and not o.traced]
    common = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB")}
    if main_kind == "curate":
        values = _sum(done, "values")
        return {
            "curate_p50_s": (statistics.median(o.span.seconds for o in done), "s"),
            "curate_hours_per_s": (_sum(done, "hours") / sum(o.span.seconds for o in done), "h/s"),
            "curate_read_bytes_per_value": (_sum(done, "read_bytes") / values, "B"),
            "curate_write_bytes_per_value": (_sum(done, "write_bytes") / values, "B"),
            "archive_bytes_per_value": (e2e["archive_bytes_per_value"], "B"),
            **common,
        }
    series = [o for o in done if o.kind == "query"]
    analyze = [o for o in done if o.kind == "analyze"]
    ms = [o.span.seconds * 1e3 for o in series]
    out = {
        "series_p50_ms": (statistics.median(ms), "ms"),
        "series_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "series_samples": (len(ms), "count"),
        "query_read_bytes_per_sample": (_sum(series, "read_bytes") / _sum(series, "values"), "B"),
    }
    if analyze:
        out["analyze_days_per_s"] = (_sum(analyze, "days")
                                     / sum(o.span.seconds for o in analyze), "days/s")
    return {**out, **common}


def stage_medians(spans: list[Span], ops: list[OpResult]) -> dict[str, float]:
    """Median seconds per operation of each call the benchmark makes into a
    layer, over untraced operations."""
    roots = {o.span.id for o in ops if o.span is not None and not o.traced}
    per_op: dict[str, dict[int, float]] = {}
    for s in spans:
        if s.parent in roots:
            per_op.setdefault(f"{s.layer}.{s.name}", {}).setdefault(s.op, 0.0)
            per_op[f"{s.layer}.{s.name}"][s.op] += s.seconds
    return {k: statistics.median(v.values()) for k, v in sorted(per_op.items())}


def _cycle_metrics(spans: list[Span]) -> dict[str, float]:
    groups: dict[tuple[str, str], list[Span]] = {}
    for s in spans:
        groups.setdefault((s.layer, s.name), []).append(s)

    def pick(layer, *names):
        return [s for (lay, name), group in groups.items()
                if lay == layer and (not names or name in names) for s in group]

    def secs(layer, *names):
        return sum(s.seconds for s in pick(layer, *names))

    def total(key, layer, *names):
        return sum(s.info.get(key, 0) for s in pick(layer, *names))

    own = self_seconds(spans)
    picks = total("picks", "sequencer", "plan_sequence")
    frames_parsed = total("frames", "granule", "parse")
    m = {
        "fetcher.s": secs("fetcher", "fetch_range"),
        "fetcher.jobs": total("jobs", "fetcher"),
        "fetcher.downloaded": total("downloaded", "fetcher"),
        "fetcher.not_found": total("not_found", "fetcher"),
        "fetcher.rejected": total("rejected", "fetcher"),
        "fetcher.read_bytes": total("read_bytes", "fetcher"),
        "fetcher.write_bytes": total("write_bytes", "fetcher"),
        "indexer.scan_s": secs("indexer", "scan_cache"),
        "indexer.files": total("files", "indexer"),
        "indexer.scan_read_bytes": total("read_bytes", "indexer", "scan_cache"),
        "indexer.coverage_s": secs("indexer", "build_coverage"),
        "indexer.candidate_frames": total("candidate_frames", "indexer"),
        "sequencer.plan_s": secs("sequencer", "plan_sequence"),
        "sequencer.plan_csv_s": secs("sequencer", "write_plan_csv", "read_plan_csv"),
        "sequencer.picks": picks,
        "sequencer.gaps": total("gaps", "sequencer", "plan_sequence"),
        "timecal.decode_calls": len(pick("timecal", "decode")),
        "timecal.decode_s": secs("timecal", "decode"),
        "granule.header_s": secs("granule", "header"),
        "granule.parse_s": secs("granule", "parse"),
        "granule.parse_calls": len(pick("granule", "parse")),
        "granule.payload_bytes_parsed": total("read_bytes", "granule", "parse"),
        "granule.frames_used_ratio": picks / frames_parsed if frames_parsed else 0.0,
        "regrid.calls": len(pick("regrid")),
        "regrid.resampled": total("resampled", "regrid"),
        "regrid.s": secs("regrid"),
        "archive.build_s": secs("archive", "build_archive"),
        "archive.build_self_s": sum(own[s.id] for s in pick("archive", "build_archive")),
        "archive.pyramid_s": secs("archive", "pyramid"),
        "archive.chunks_written": total("chunks_written", "op"),
        "archive.build_read_bytes": total("read_bytes", "archive", "build_archive"),
        "archive.build_write_bytes": total("write_bytes", "archive", "build_archive"),
        "archive.stored_bytes": total("stored_bytes", "op"),
        "archive.open_s": secs("archive", "open"),
        "archive.read_frame_calls": len(pick("archive", "read_frame")),
        "archive.read_bytes": (total("read_bytes", "archive", "open")
                               + total("read_bytes", "query", "sample_series")
                               + total("read_bytes", "pvanalysis", "run_analysis")),
        "query.series_s": secs("query", "sample_series"),
        "query.samples": total("samples", "query"),
        "query.gaps": total("gaps", "query"),
        "pvanalysis.run_s": secs("pvanalysis", "run_analysis"),
        "pvanalysis.csv_read_s": secs("pvanalysis", "read_csv"),
        "pvanalysis.days": total("days", "pvanalysis"),
        "pvanalysis.excluded_days": total("excluded_days", "pvanalysis"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in pick(layer))
    return m


def per_layer(spans: list[Span], setup: dict, ops: list[OpResult],
              missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of the traced cycles, plus the tracing overhead: the
    median traced cycle's time minus the median untraced cycle's."""
    by_op: dict[int, list[Span]] = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
    cycles: dict[tuple[bool, int], list[OpResult]] = {}
    for o in ops:
        if o.span is not None:
            cycles.setdefault((o.traced, o.cycle), []).append(o)
    traced = [c for (t, _), c in cycles.items() if t]
    untraced = [c for (t, _), c in cycles.items() if not t]

    per_cycle = [_cycle_metrics([s for o in c for s in by_op[o.span.op]]) for c in traced]
    m = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}

    def cycle_s(c):
        return sum(o.span.seconds for o in c)

    m["trace.overhead_s"] = (statistics.median(map(cycle_s, traced))
                             - statistics.median(map(cycle_s, untraced)))
    m["trace.missing_targets"] = len(missing)
    for k in ("corpusgen.s", "corpusgen.granules", "corpusgen.bytes_written"):
        m[k] = setup[k]
    return m
