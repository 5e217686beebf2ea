"""Command-line entry point wiring the pipeline stages together:
gen-corpus / fetch -> validate -> sequence -> build-archive -> query / analyze.

Machine-readable outputs are CSV/JSON files. Of these only the archive and
the cached granules are written atomically (a new directory or a temp file,
then rename). Logs go to stderr and are never meant to be parsed.

`--config FILE` holds flat `key = value` lines. A key is an option's long name
without its dashes, and its value becomes that option's default in every
command that has the option; a flag on the command line still wins. A key
that no command's option takes fails before any command runs. A bad option
value exits 2 with a usage error; a command that fails exits 1 with
`Error: <command>: <message>`.
"""

from __future__ import annotations

import sys
from collections import Counter
from datetime import date, datetime
from pathlib import Path

import click

from . import corpusgen, fetcher, indexer, pvanalysis, sequencer
from .archive import CuratedArchive, build_archive
from .query import SamplingMode, sample_series
from .tables import write_table
from .timecal import UTC, format_iso_z, is_hour_step, parse_iso_z

SCALES = {
    "desk": (corpusgen.DESK_GEOMETRY, corpusgen.DESK_DRIFT_GEOMETRY),
    "full": (corpusgen.FULL_GEOMETRY, corpusgen.FULL_DRIFT_GEOMETRY),
}
SERIES_HEADER = ["timestep_utc", "pm25_ugm3"]


def _parse_hour(text: str) -> datetime:
    t = parse_iso_z(text) if text.endswith("Z") else datetime.fromisoformat(text)
    if t.tzinfo is None:
        t = t.replace(tzinfo=UTC)
    t = t.astimezone(UTC)
    if not is_hour_step(t):
        raise ValueError(f"{text} is not an exact UTC hour")
    return t


def _parse_site(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected LAT,LON, got {text!r}")
    return float(parts[0]), float(parts[1])


class Parsed(click.ParamType):
    """Option type backed by a plain parser: its ValueError becomes a usage
    error that names the option (exit 2)."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as e:
            self.fail(str(e), param, ctx)


DAY = Parsed("day", date.fromisoformat)
HOUR = Parsed("hour", _parse_hour)
MODE = Parsed("mode", SamplingMode.parse)
SITE = Parsed("lat,lon", _parse_site)
NAMES = Parsed("list", lambda text: tuple(text.split(",")))
INTS = Parsed("ints", lambda text: tuple(int(x) for x in text.split(",")))


class Pipeline(click.Group):
    """Reports any exception a command raises as `Error: <command>: <message>`
    with exit status 1; click's own exceptions keep their meaning."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as e:
            raise click.ClickException(f"{ctx.invoked_subcommand}: {e}") from e


@click.group(cls=Pipeline)
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Flat key = value file of option defaults.")
@click.option("--seed", type=int, default=None)
@click.pass_context
def main(ctx, config_path, seed):
    """Smoke-forecast curation and PV-attenuation analysis pipeline."""
    ctx.obj = seed
    if config_path is None:
        return
    config = {}
    for line in Path(config_path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    names = {opt.lstrip("-") for command in ctx.command.commands.values()
             for p in command.params for opt in p.opts}
    unknown = sorted(config.keys() - names)
    if unknown:
        raise click.ClickException(f"bad config key {unknown[0]!r}")
    ctx.default_map = {
        name: {p.name: config[opt.lstrip("-")] for p in command.params
               for opt in p.opts if opt.lstrip("-") in config}
        for name, command in ctx.command.commands.items()}


def _histogram(outcomes) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(Counter(outcomes).items()))


def _series_rows(series) -> list[tuple[str, str]]:
    return [(format_iso_z(t), f"{v:.6g}") for t, v in series.entries]


@main.command("gen-corpus")
@click.option("--root", required=True, type=click.Path())
@click.option("--from", "start", required=True, type=DAY, help="YYYY-MM-DD")
@click.option("--to", "end", required=True, type=DAY, help="YYYY-MM-DD")
@click.option("--ids", type=NAMES, default=",".join(corpusgen.DEFAULT_FORECAST_IDS))
@click.option("--init-hours", type=INTS, default="0,6,12,18")
@click.option("--horizon", type=int, default=84)
@click.option("--scale", type=click.Choice(list(SCALES)), default="desk")
@click.option("--missing-rate", type=float, default=0.0)
@click.option("--html-rate", type=float, default=0.0)
@click.option("--truncation-rate", type=float, default=0.0)
@click.option("--drift-cutoff", type=DAY, default=None,
              help="Runs before this date use the drift grid.")
@click.pass_obj
def gen_corpus(seed, root, start, end, ids, init_hours, horizon, scale,
               missing_rate, html_rate, truncation_rate, drift_cutoff):
    """Generate a synthetic forecast corpus with optional fault injection."""
    geometry, drift_geometry = SCALES[scale]
    spec = corpusgen.CorpusSpec(
        start_date=start, end_date=end, forecast_ids=ids, init_hours=init_hours,
        horizon_hours=horizon, geometry=geometry,
        drift_geometry=drift_geometry if drift_cutoff else None,
        drift_cutoff=drift_cutoff,
        fault_profile=corpusgen.FaultProfile(missing_rate, html_rate,
                                             truncation_rate),
        seed=seed or 0)
    manifest = corpusgen.generate_corpus(spec, root)
    click.echo(f"{len(manifest.entries)} scheduled runs: " +
               _histogram(e.outcome for e in manifest.entries))


@main.command()
@click.option("--base", required=True, help="HTTP prefix or local corpus root.")
@click.option("--ids", required=True, type=NAMES)
@click.option("--from", "start", required=True, type=DAY)
@click.option("--to", "end", required=True, type=DAY)
@click.option("--cache", required=True, type=click.Path())
@click.option("--parallel", type=click.IntRange(min=1), default=8)
@click.option("--report", default="fetch_report.csv", type=click.Path(),
              help="Fetch report CSV.")
def fetch(base, ids, start, end, cache, parallel, report):
    """Download and validate granules into the cache layout."""
    rep = fetcher.fetch_range(fetcher.SourceEndpoint(base), list(ids), start,
                              end, cache, parallel=parallel)
    rep.write_csv(report)
    click.echo(_histogram(r.outcome for r in rep.records))


@main.command()
@click.option("--cache", required=True, type=click.Path(exists=True))
@click.option("--scale", type=click.Choice(list(SCALES)), default="desk")
@click.option("--dump-index", default=None, type=click.Path())
def validate(cache, scale, dump_index):
    """Scan the cache and print the geometry consistency report."""
    canonical, drift = SCALES[scale]
    records = indexer.scan_cache(cache, canonical, drift)
    bad = [r for r in records if not r.ok]
    report = indexer.consistency_report(records, canonical)
    click.echo(report.format() or "no parseable granules")
    for r in bad:
        click.echo(f"{r.path}: {r.status}: {r.detail}", err=True)
    if dump_index:
        indexer.build_coverage(records).dump_json(dump_index)
    click.echo(f"{len(records) - len(bad)} ok, {len(bad)} rejected")


@main.command()
@click.option("--cache", required=True, type=click.Path(exists=True))
@click.option("--from", "start", required=True, type=HOUR,
              help="ISO hour, e.g. 2021-03-03T00:00:00Z")
@click.option("--to", "end", required=True, type=HOUR)
@click.option("--out", default="plan.csv", type=click.Path())
@click.option("--gaps", default="gaps.csv", type=click.Path())
@click.option("--scale", type=click.Choice(list(SCALES)), default="desk")
def sequence(cache, start, end, out, gaps, scale):
    """Select the latest forecast frame for every timestep in the range."""
    canonical, drift = SCALES[scale]
    records = indexer.scan_cache(cache, canonical, drift)
    if not any(r.ok for r in records):
        raise click.ClickException("empty cache: no parseable granules to sequence")
    plan = sequencer.plan_sequence(indexer.build_coverage(records), start, end)
    sequencer.write_plan_csv(plan, out, canonical)
    sequencer.write_gaps_csv(plan, gaps)
    click.echo(f"{len(plan.picks)} picks, {len(plan.gaps)} gaps")


@main.command("build-archive")
@click.option("--plan", "plan_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(),
              help="A new directory, or an empty one: an archive is written once.")
@click.option("--levels", type=click.IntRange(min=1), default=3)
@click.option("--scale", type=click.Choice(list(SCALES)), default="desk")
def build_archive_cmd(plan_path, out, levels, scale):
    """Materialize a sequence plan into the curated archive."""
    canonical, _ = SCALES[scale]
    archive = build_archive(sequencer.read_plan_csv(plan_path), canonical, out,
                            levels)
    click.echo(f"archive {archive.start:%Y-%m-%dT%H:%MZ}.."
               f"{archive.end:%Y-%m-%dT%H:%MZ}, {levels} levels, "
               f"{len(archive.gaps)} gaps")


@main.command()
@click.option("--archive", "archive_dir", required=True,
              type=click.Path(exists=True))
@click.option("--lat", type=float, required=True)
@click.option("--lon", type=float, required=True)
@click.option("--from", "start", required=True, type=HOUR)
@click.option("--to", "end", required=True, type=HOUR)
@click.option("--mode", type=MODE, default="bilinear")
@click.option("--csv", "csv_out", default=None, type=click.Path())
def query(archive_dir, lat, lon, start, end, mode, csv_out):
    """Sample a PM2.5 time series at a point."""
    series = sample_series(CuratedArchive.open(archive_dir), start, end,
                           lat, lon, mode)
    rows = _series_rows(series)
    if csv_out:
        write_table(csv_out, SERIES_HEADER, rows)
    else:
        for ts, v in rows:
            click.echo(f"{ts},{v}")
    if series.gaps:
        click.echo(f"{len(series.gaps)} gap hours omitted", err=True)


def _analysis_options(command):
    """The inputs `analyze` and `plot` share."""
    for option in reversed([
            click.option("--archive", "archive_dir", required=True,
                         type=click.Path(exists=True)),
            click.option("--solar", required=True, type=click.Path(exists=True)),
            click.option("--cloud", required=True, type=click.Path(exists=True)),
            click.option("--flags", default=None, type=click.Path(exists=True)),
            click.option("--site", required=True, type=SITE),
            click.option("--mode", type=MODE, default="bilinear")]):
        command = option(command)
    return command


def _run_analysis(archive_dir, solar, cloud, flags, site, mode,
             cloud_max=pvanalysis.DEFAULT_CLOUD_MAX_PCT):
    archive = CuratedArchive.open(archive_dir)
    report = pvanalysis.run_analysis(
        archive, pvanalysis.read_solar_csv(solar),
        pvanalysis.read_cloud_csv(cloud),
        pvanalysis.read_flags_csv(flags) if flags else {}, site, mode, cloud_max)
    return archive, report


@main.command()
@_analysis_options
@click.option("--cloud-max", type=float, default=pvanalysis.DEFAULT_CLOUD_MAX_PCT)
@click.option("--out", default="report.csv", type=click.Path())
def analyze(archive_dir, solar, cloud, flags, site, mode, cloud_max, out):
    """Join PV, cloud and PM2.5 data; fit the attenuation trend."""
    _, report = _run_analysis(archive_dir, solar, cloud, flags, site, mode,
                              cloud_max)
    report.write_csv(out)
    if report.fit:
        f = report.fit
        click.echo(f"slope={f.slope:.6g},intercept={f.intercept:.6g},"
                   f"r2={f.r_squared:.6g},n={f.n_points}")
    else:
        click.echo("no fit (fewer than 2 usable smoky days)")
    for e in report.excluded:
        click.echo(f"excluded {e.day.isoformat()}: {e.reason}", err=True)


@main.command()
@_analysis_options
@click.option("--out-prefix", default="plot")
def plot(archive_dir, solar, cloud, flags, site, mode, out_prefix):
    """Emit series and scatter CSVs for external plotting."""
    archive, report = _run_analysis(archive_dir, solar, cloud, flags, site, mode)
    series = sample_series(archive, archive.start, archive.end, *site, mode)
    write_table(f"{out_prefix}_series.csv", SERIES_HEADER, _series_rows(series))
    write_table(f"{out_prefix}_scatter.csv", ["avg_pm25", "ratio"],
                [(f"{r.avg_pm25:.6g}", f"{r.ratio:.6g}")
                 for r in report.rows if r.ratio is not None])
    click.echo(f"wrote {out_prefix}_series.csv and {out_prefix}_scatter.csv")


if __name__ == "__main__":
    sys.exit(main())
