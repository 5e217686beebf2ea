import hashlib
import json
import math
from datetime import date, datetime, time, timedelta, timezone

import pytest
from click.testing import CliRunner

from smokecurate import corpusgen
from smokecurate.cli import main

from conftest import BAD_GEOMETRY_OFFSET, simple_granule_bytes, with_geometry_field

LOCAL = timezone(timedelta(hours=-6))


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def write_solar_csv(path, days, scales):
    lines = ["timestamp_iso,energy_kwh"]
    for day, scale in zip(days, scales):
        for q in range(4 * 6, 4 * 20):
            hours = q / 4.0
            e = 5.0 * math.sin(math.pi * (hours - 6.0) / 14.0) * 0.25 * scale
            ts = datetime.combine(day, time(0)) + timedelta(hours=hours)
            lines.append(f"{ts.isoformat()},{max(e, 0.0):.6f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def pipeline(tmp_path, runner):
    """gen-corpus -> fetch -> sequence -> build-archive, desk scale."""
    corpus = tmp_path / "corpus"
    cache = tmp_path / "cache"
    run_ok(runner, ["--seed", "5", "gen-corpus", "--root", str(corpus),
                    "--from", "2022-03-02", "--to", "2022-03-04",
                    "--ids", "BSC00CA12-01,BSC12CA12-01",
                    "--init-hours", "0,12", "--horizon", "12"])
    run_ok(runner, ["fetch", "--base", str(corpus),
                    "--ids", "BSC00CA12-01,BSC12CA12-01",
                    "--from", "2022-03-02", "--to", "2022-03-04",
                    "--cache", str(cache),
                    "--report", str(tmp_path / "fetch_report.csv")])
    run_ok(runner, ["sequence", "--cache", str(cache),
                    "--from", "2022-03-02T00:00:00Z",
                    "--to", "2022-03-04T23:00:00Z",
                    "--out", str(tmp_path / "plan.csv"),
                    "--gaps", str(tmp_path / "gaps.csv")])
    run_ok(runner, ["build-archive", "--plan", str(tmp_path / "plan.csv"),
                    "--out", str(tmp_path / "arch"), "--levels", "2"])
    return tmp_path


def test_gen_corpus_reports_outcomes(tmp_path, runner):
    result = run_ok(runner, ["--seed", "3", "gen-corpus",
                             "--root", str(tmp_path / "c"),
                             "--from", "2022-03-02", "--to", "2022-03-02",
                             "--ids", "BSC00CA12-01", "--init-hours", "0",
                             "--horizon", "4", "--missing-rate", "1.0"])
    assert "1 scheduled runs" in result.output
    assert "missing=1" in result.output


def test_gen_corpus_rejects_nonempty_root(tmp_path, runner):
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "junk").write_text("x")
    result = runner.invoke(main, ["gen-corpus", "--root", str(tmp_path / "c"),
                                  "--from", "2022-03-02", "--to", "2022-03-02"])
    assert result.exit_code != 0
    assert "not empty" in result.output


def test_fetch_requires_endpoint_args(tmp_path, runner):
    result = runner.invoke(main, ["fetch", "--ids", "BSC00CA12-01"])
    assert result.exit_code != 0
    assert "--base" in result.output


def test_fetch_reads_config_fallback(tmp_path, runner):
    corpus = tmp_path / "corpus"
    run_ok(runner, ["gen-corpus", "--root", str(corpus),
                    "--from", "2022-03-02", "--to", "2022-03-02",
                    "--ids", "BSC00CA12-01", "--init-hours", "0",
                    "--horizon", "4"])
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"base = {corpus}\n"
                   "ids = BSC00CA12-01   # single stream\n"
                   "from = 2022-03-02\n"
                   "to = 2022-03-02\n"
                   f"cache = {tmp_path / 'cache'}\n")
    result = run_ok(runner, ["--config", str(cfg), "fetch",
                             "--report", str(tmp_path / "r.csv")])
    assert "downloaded=1" in result.output
    assert (tmp_path / "cache" / "BSC00CA12-01" /
            "dispersion_20220302.gran").is_file()


def test_full_pipeline_artifacts(pipeline):
    plan_lines = (pipeline / "plan.csv").read_text().splitlines()
    assert plan_lines[0].startswith("timestep_utc,")
    assert len(plan_lines) == 1 + 72  # fully covered range, no gaps
    assert (pipeline / "gaps.csv").read_text().splitlines() == ["timestep_utc"]
    manifest = json.loads((pipeline / "arch" / "manifest.json").read_text())
    assert manifest["levels"] == 2
    assert manifest["gaps"] == []
    assert sorted(p.name for p in (pipeline / "arch" / "L0").glob("*.csv")) \
        == ["20220302.csv", "20220303.csv", "20220304.csv"]
    report = (pipeline / "fetch_report.csv").read_text().splitlines()
    assert len(report) == 1 + 2 * 3


def test_validate_counts(pipeline, runner):
    bad = pipeline / "cache" / "BSC00CA12-01" / "dispersion_20220305.gran"
    bad.write_bytes(with_geometry_field(simple_granule_bytes(), "lat0", math.nan))
    result = run_ok(runner, ["validate", "--cache", str(pipeline / "cache")])
    assert "6 ok, 1 rejected" in result.output
    assert "20x40" in result.output
    assert result.stderr == (f"{bad}: invalid_header: bad geometry: grid origin "
                             f"and spacing must be finite (at byte "
                             f"{BAD_GEOMETRY_OFFSET})\n")


def test_validate_dump_index(pipeline, runner):
    out = pipeline / "index.json"
    run_ok(runner, ["validate", "--cache", str(pipeline / "cache"),
                    "--dump-index", str(out)])
    index = json.loads(out.read_text())
    assert "2022-03-02T00:00:00Z" in index


def test_sequence_empty_cache_fails(tmp_path, runner):
    cache = tmp_path / "cache" / "BSC00CA12-01"
    cache.mkdir(parents=True)
    (cache / "dispersion_20220302.gran").write_bytes(b"<html></html>")
    result = runner.invoke(main, ["sequence", "--cache", str(tmp_path / "cache"),
                                  "--from", "2022-03-02T00:00:00Z",
                                  "--to", "2022-03-02T05:00:00Z"])
    assert result.exit_code != 0
    assert "empty cache" in result.output


def test_query_csv_output(pipeline, runner):
    out = pipeline / "series.csv"
    run_ok(runner, ["query", "--archive", str(pipeline / "arch"),
                    "--lat", "36.0", "--lon", "-145.0",
                    "--from", "2022-03-02T00:00:00Z",
                    "--to", "2022-03-02T23:00:00Z",
                    "--csv", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "timestep_utc,pm25_ugm3"
    assert len(lines) == 25
    assert lines[1].startswith("2022-03-02T00:00:00Z,")


def test_query_out_of_extent_fails(pipeline, runner):
    result = runner.invoke(main, ["query", "--archive", str(pipeline / "arch"),
                                  "--lat", "10.0", "--lon", "0.0",
                                  "--from", "2022-03-02T00:00:00Z",
                                  "--to", "2022-03-02T01:00:00Z"])
    assert result.exit_code != 0
    assert "outside archive extent" in result.output


def test_analyze_both_sampling_modes(pipeline, runner):
    days = [date(2022, 3, 2), date(2022, 3, 3), date(2022, 3, 4)]
    write_solar_csv(pipeline / "solar.csv", days, [1.0, 0.9, 0.8])
    (pipeline / "cloud.csv").write_text(
        "date,avg_cloud_pct\n" +
        "".join(f"{d.isoformat()},5.0\n" for d in days))
    (pipeline / "flags.csv").write_text(
        "date,smoky\n2022-03-02,0\n2022-03-03,1\n2022-03-04,1\n")
    outputs = {}
    for mode in ("sw", "bilinear"):
        out = pipeline / f"report_{mode}.csv"
        result = run_ok(runner, [
            "analyze", "--archive", str(pipeline / "arch"),
            "--solar", str(pipeline / "solar.csv"),
            "--cloud", str(pipeline / "cloud.csv"),
            "--flags", str(pipeline / "flags.csv"),
            "--site", "36.1,-145.2", "--mode", mode, "--out", str(out)])
        assert result.output.startswith(("slope=", "no fit"))
        lines = out.read_text().splitlines()
        assert lines[0] == "date,avg_pm25,avg_output,ratio,clear_sky,used_in_fit"
        assert len(lines) >= 4
        outputs[mode] = lines
    # off-node site: the two conventions sample different PM2.5 values
    assert outputs["sw"] != outputs["bilinear"]


def test_plot_outputs(pipeline, runner):
    days = [date(2022, 3, 2), date(2022, 3, 3)]
    write_solar_csv(pipeline / "solar.csv", days, [1.0, 0.85])
    (pipeline / "cloud.csv").write_text(
        "date,avg_cloud_pct\n2022-03-02,5.0\n2022-03-03,5.0\n")
    (pipeline / "flags.csv").write_text("date,smoky\n2022-03-03,1\n")
    prefix = pipeline / "plots" / "run1"
    prefix.parent.mkdir()
    run_ok(runner, ["plot", "--archive", str(pipeline / "arch"),
                    "--solar", str(pipeline / "solar.csv"),
                    "--cloud", str(pipeline / "cloud.csv"),
                    "--flags", str(pipeline / "flags.csv"),
                    "--site", "36.0,-145.0", "--out-prefix", str(prefix)])
    series = (pipeline / "plots" / "run1_series.csv").read_text().splitlines()
    assert series[0] == "timestep_utc,pm25_ugm3"
    assert len(series) == 1 + 72
    scatter = (pipeline / "plots" / "run1_scatter.csv").read_text().splitlines()
    assert scatter[0] == "avg_pm25,ratio"


@pytest.mark.parametrize("text, message", [
    ("this is not a key value pair\n", "bad config line"),
    # `levels` is build-archive's option; a near miss is not dropped
    ("cache = c\nlevel = 1\n", "bad config key 'level'"),
    # a group option is not a command default the file can set
    ("seed = 3\n", "bad config key 'seed'"),
], ids=["line", "unknown-key", "group-option"])
def test_bad_config_line_rejected(tmp_path, runner, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    result = runner.invoke(main, ["--config", str(cfg), "fetch"])
    assert result.exit_code == 1  # before fetch could fail on its options
    assert message in result.output


def write_analysis_inputs(path):
    """Solar, cloud and flags CSVs over the pipeline's three days."""
    days = [date(2022, 3, 2), date(2022, 3, 3), date(2022, 3, 4)]
    write_solar_csv(path / "solar.csv", days, [1.0, 0.9, 0.8])
    (path / "cloud.csv").write_text(
        "date,avg_cloud_pct\n" +
        "".join(f"{d.isoformat()},5.0\n" for d in days))
    (path / "flags.csv").write_text(
        "date,smoky\n2022-03-02,0\n2022-03-03,1\n2022-03-04,1\n")
    return ["--archive", str(path / "arch"), "--solar", str(path / "solar.csv"),
            "--cloud", str(path / "cloud.csv"), "--flags", str(path / "flags.csv")]


@pytest.mark.parametrize("args, exit_code, message", [
    (["plot", "--site", "10,0"], 1, "Error: plot: (10.0, 0.0) outside archive extent"),
    (["plot", "--site", "36.0,-145.0", "--mode", "bogus"], 2,
     "Error: Invalid value for '--mode': unknown sampling mode 'bogus'"),
    (["analyze", "--site", "36.0"], 2, "Error: Invalid value for '--site'"),
    (["analyze", "--site", "10,0"], 1,
     "Error: analyze: (10.0, 0.0) outside archive extent"),
    (["analyze", "--site", "36.0,-145.0", "--solar", "{dir}/cloud.csv"], 1,
     "Error: analyze: {dir}/cloud.csv: missing column timestamp_iso"),
], ids=["plot-site", "plot-mode", "analyze-site", "analyze-site-extent",
        "analyze-solar-header"])
def test_bad_analysis_input_is_one_error_line(pipeline, runner, args,
                                              exit_code, message):
    inputs = write_analysis_inputs(pipeline)
    args = [a.format(dir=pipeline) for a in args]
    message = message.format(dir=pipeline)
    result = runner.invoke(main, args[:1] + inputs + args[1:],
                           catch_exceptions=False)
    assert result.exit_code == exit_code
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(message), result.output
    assert "Traceback" not in result.output


def test_analyze_names_each_excluded_day(pipeline, runner):
    inputs = write_analysis_inputs(pipeline)
    shard = pipeline / "arch" / "L0" / "20220303.bin"
    # keep the morning: the 16-22 UTC peak window of 2022-03-03 is cut off
    shard.write_bytes(shard.read_bytes()[:shard.stat().st_size // 2])
    result = run_ok(runner, ["analyze", *inputs, "--site", "36.0,-145.0",
                             "--out", str(pipeline / "report.csv")])
    assert result.stdout.startswith(("slope=", "no fit"))
    [line] = result.stderr.splitlines()
    assert line.startswith("excluded 2022-03-03: pm25_unavailable: ")
    assert str(shard) in line


@pytest.mark.parametrize("file, line, column, value, command, message", [
    ("plan.csv", 0, 3, "frame", "build-archive",
     "{dir}/plan.csv: missing column frame_index"),
    ("plan.csv", 1, 3, "x", "build-archive",
     "{dir}/plan.csv line 2: invalid literal for int() with base 10: 'x'"),
    ("plan.csv", 1, 0, "2022-03-02 00:00", "build-archive",
     "{dir}/plan.csv line 2: time data '2022-03-02 00:00' does not match"),
    ("solar.csv", 1, 1, "abc", "analyze",
     "{dir}/solar.csv line 2: could not convert string to float: 'abc'"),
    ("cloud.csv", 1, 1, "", "analyze",
     "{dir}/cloud.csv line 2: could not convert string to float: ''"),
    ("flags.csv", 2, 1, None, "analyze",
     "{dir}/flags.csv line 3: fewer cells than the header names"),
    ("plan.csv", 1, 5, "yes", "build-archive",
     "{dir}/plan.csv line 2: resampled_needed is 'yes', not 0 or 1"),
    ("flags.csv", 2, 1, "True", "analyze",
     "{dir}/flags.csv line 3: smoky is 'True', not 0, 1, false or true"),
    ("flags.csv", 2, 1, "yes", "analyze",
     "{dir}/flags.csv line 3: smoky is 'yes', not 0, 1, false or true"),
    ("cloud.csv", 1, 1, "nan", "analyze",
     "{dir}/cloud.csv line 2: avg_cloud_pct nan is not within 0..100"),
    ("cloud.csv", 1, 1, "-5", "analyze",
     "{dir}/cloud.csv line 2: avg_cloud_pct -5.0 is not within 0..100"),
    ("cloud.csv", 1, 1, "250", "analyze",
     "{dir}/cloud.csv line 2: avg_cloud_pct 250.0 is not within 0..100"),
], ids=["plan-renamed-column", "plan-frame-index", "plan-timestep",
        "solar-energy", "cloud-empty", "flags-short-row",
        "plan-resampled-needed", "flags-capitalized", "flags-yes",
        "cloud-nan", "cloud-negative", "cloud-above-100"])
def test_bad_csv_cell_names_file_and_line(pipeline, runner, file, line, column,
                                          value, command, message):
    inputs = write_analysis_inputs(pipeline)
    path = pipeline / file
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[column:column + 1] = [] if value is None else [value]  # None: cut
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    args = {"build-archive": ["--plan", str(pipeline / "plan.csv"),
                              "--out", str(pipeline / "arch2")],
            "analyze": inputs + ["--site", "36.0,-145.0"]}[command]
    result = runner.invoke(main, [command] + args, catch_exceptions=False)
    assert result.exit_code == 1
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert errors[0].startswith(f"Error: {command}: " +
                                message.format(dir=pipeline)), errors[0]


def test_build_archive_into_an_existing_archive_is_one_error_line(pipeline,
                                                                   runner):
    out = pipeline / "arch"
    manifest = (out / "manifest.json").read_bytes()
    result = runner.invoke(main, ["build-archive", "--plan",
                                  str(pipeline / "plan.csv"), "--out", str(out)],
                           catch_exceptions=False)
    assert result.exit_code == 1
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert errors == [f"Error: build-archive: {out} exists and is not an "
                      f"empty directory: an archive is written once; build "
                      f"into a new directory"], result.output
    assert (out / "manifest.json").read_bytes() == manifest


def test_build_archive_on_another_grid_than_the_plan_is_one_error_line(
        pipeline, runner):
    """A plan sequenced at desk scale and built at full scale would resample
    every hour the plan says needs none, into a full grid that holds values
    only in the desk grid's corner and zero, which reads as clean air,
    everywhere else. The build refuses it and publishes nothing."""
    out = pipeline / "arch_full"
    result = runner.invoke(main, ["build-archive", "--plan",
                                  str(pipeline / "plan.csv"), "--out",
                                  str(out), "--scale", "full"],
                           catch_exceptions=False)
    assert result.exit_code == 1
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert errors[0].startswith(
        "Error: build-archive: timestep 2022-03-02T00:00:00Z: plan says "
        f"resampled_needed 0, but granule {pipeline / 'cache'}"), errors[0]
    assert errors[0].endswith(
        f"is on grid {corpusgen.DESK_GEOMETRY} and the canonical grid is "
        f"{corpusgen.FULL_GEOMETRY}"), errors[0]
    assert not out.exists()
    assert not (pipeline / ".arch_full.building").exists()


def test_build_archive_into_the_working_directory_is_one_error_line(
        pipeline, runner, monkeypatch):
    (pipeline / "here").mkdir()
    monkeypatch.chdir(pipeline / "here")
    result = runner.invoke(main, ["build-archive", "--plan",
                                  str(pipeline / "plan.csv"), "--out", "."],
                           catch_exceptions=False)
    assert result.exit_code == 1
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert errors == ["Error: build-archive: . does not end in a directory "
                      "name: build into a named new directory"], result.output
    assert list((pipeline / "here").iterdir()) == []


def test_validate_reads_no_quarantined_body(tmp_path, runner):
    ids = ["--ids", "BSC00CA12-01,BSC12CA12-01"]
    days = ["--from", "2022-03-02", "--to", "2022-03-05"]
    run_ok(runner, ["--seed", "31", "gen-corpus", "--root", str(tmp_path / "corpus"),
                    *ids, *days, "--init-hours", "0,12", "--horizon", "12",
                    "--html-rate", "0.3", "--truncation-rate", "0.3"])
    run_ok(runner, ["fetch", "--base", str(tmp_path / "corpus"), *ids, *days,
                    "--cache", str(tmp_path / "cache"),
                    "--report", str(tmp_path / "cache" / "fetch_report.csv")])
    assert list((tmp_path / "cache" / "rejects").rglob("*.bin"))
    result = run_ok(runner, ["validate", "--cache", str(tmp_path / "cache")])
    assert "rejects" not in result.stderr
    assert result.output.endswith(" ok, 0 rejected\n")


@pytest.mark.parametrize("args, option", [
    (["sequence", "--cache", "{tmp}", "--from", "2022-03-02T00:00:00Z",
      "--to", "garbage", "--out", "{tmp}/c"], "--to"),
    (["gen-corpus", "--root", "{tmp}/c", "--from", "2022-13-02",
      "--to", "2022-03-02"], "--from"),
    (["query", "--archive", "{tmp}", "--lat", "36.0", "--lon", "-145.0",
      "--from", "2022-03-02T00:30:00Z", "--to", "2022-03-02T05:00:00Z",
      "--csv", "{tmp}/c"], "--from"),
    (["build-archive", "--plan", "{tmp}", "--out", "{tmp}/c", "--levels", "0"],
     "--levels"),
    (["fetch", "--base", "{tmp}", "--ids", "BSC00CA12-01", "--from",
      "2022-03-02", "--to", "2022-03-02", "--cache", "{tmp}/c",
      "--report", "{tmp}/c/fetch_report.csv", "--parallel", "0"],
     "--parallel"),
], ids=["sequence-to", "gen-corpus-from", "query-from-not-an-hour",
        "build-archive-levels-0", "fetch-parallel-0"])
def test_bad_option_value_is_a_usage_error(tmp_path, runner, args, option):
    args = [a.format(tmp=tmp_path) for a in args]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"Error: Invalid value for '{option}': ")
    assert not (tmp_path / "c").exists()


def test_config_sets_defaults_in_every_command(pipeline, runner):
    cfg = pipeline / "run.cfg"
    cfg.write_text(f"cache = {pipeline / 'cache'}\n"
                   "from = 2022-03-02T00:00:00Z   # sequence and query\n"
                   "to = 2022-03-02T05:00:00Z\n"
                   f"plan = {pipeline / 'plan6.csv'}\n"
                   f"archive = {pipeline / 'arch'}\n"
                   "lat = 36.0\nlon = -145.0\nmode = sw\nlevels = 1\n")
    config = ["--config", str(cfg)]
    result = run_ok(runner, config + ["validate"])
    assert "6 ok, 0 rejected" in result.output
    result = run_ok(runner, config + ["sequence", "--out", str(pipeline / "plan6.csv"),
                                      "--gaps", str(pipeline / "gaps6.csv")])
    assert result.output == "6 picks, 0 gaps\n"
    run_ok(runner, config + ["build-archive", "--out", str(pipeline / "arch6")])
    manifest = json.loads((pipeline / "arch6" / "manifest.json").read_text())
    assert manifest["levels"] == 1
    assert manifest["end"] == "2022-03-02T05:00:00Z"
    by_config = run_ok(runner, config + ["query"]).output
    by_flags = run_ok(runner, [
        "query", "--archive", str(pipeline / "arch"), "--lat", "36.0",
        "--lon", "-145.0", "--from", "2022-03-02T00:00:00Z",
        "--to", "2022-03-02T05:00:00Z", "--mode", "sw"]).output
    assert by_config == by_flags
    assert len(by_config.splitlines()) == 6


def test_flag_overrides_its_config_key(pipeline, runner):
    cfg = pipeline / "run.cfg"
    cfg.write_text(f"plan = {pipeline / 'plan.csv'}\nlevels = 1\n"
                   f"archive = {pipeline / 'arch'}\nlat = 36.0\nlon = -145.0\n"
                   "from = 2022-03-02T00:00:00Z\nto = 2022-03-02T05:00:00Z\n")
    config = ["--config", str(cfg)]
    run_ok(runner, config + ["build-archive", "--out", str(pipeline / "a2"),
                             "--levels", "2"])
    manifest = json.loads((pipeline / "a2" / "manifest.json").read_text())
    assert manifest["levels"] == 2
    result = run_ok(runner, config + ["query", "--to", "2022-03-02T01:00:00Z"])
    assert [l.split(",")[0] for l in result.output.splitlines()] == \
        ["2022-03-02T00:00:00Z", "2022-03-02T01:00:00Z"]


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_has_help(runner, command):
    result = runner.invoke(main, [command, "--help"], catch_exceptions=False)
    assert result.exit_code == 0
    assert result.output.startswith("Usage: ")


def test_plot_shares_query_and_analyze_outputs(pipeline, runner):
    inputs = write_analysis_inputs(pipeline)
    site = ["--site", "36.1,-145.2", "--mode", "sw"]
    run_ok(runner, ["plot"] + inputs + site +
           ["--out-prefix", str(pipeline / "p")])
    run_ok(runner, ["analyze"] + inputs + site +
           ["--out", str(pipeline / "report.csv")])
    run_ok(runner, ["query", "--archive", str(pipeline / "arch"),
                    "--lat", "36.1", "--lon", "-145.2", "--mode", "sw",
                    "--from", "2022-03-02T00:00:00Z",
                    "--to", "2022-03-04T23:00:00Z",
                    "--csv", str(pipeline / "q.csv")])
    assert (pipeline / "p_series.csv").read_bytes() == \
        (pipeline / "q.csv").read_bytes()
    report = [r.split(",") for r in
              (pipeline / "report.csv").read_text().splitlines()[1:]
              if not r.startswith("#fit")]
    with_ratio = [f"{avg_pm25},{ratio}"
                  for _, avg_pm25, _, ratio, *_ in report if ratio]
    scatter = (pipeline / "p_scatter.csv").read_text().splitlines()
    assert scatter[1:] == with_ratio
    assert len(with_ratio) == 2


# sha256 of each file the pipeline below writes, taken with the run's
# temporary directory spelled "<tmp>"
PINNED_OUTPUTS = {
    "arch/L0/20220303.bin":
        "a0a47fa3826778b327a6672685cd349b0c49ef813d5dbfaa9b7c26f8f274c093",
    "arch/L0/20220303.csv":
        "9e3932cc7103cc48aad4d39cc5a2d6c22d495c45c0268321428d8e3823592d41",
    "arch/L0/20220304.bin":
        "dc96b3237d19ccb42c3cd84a6497d0c5399b37703482854406552dff30bee7d3",
    "arch/L0/20220304.csv":
        "6fd726014e503e1c3994a07abe3c0bf27c0d9e4bd3054ff658820ca68d8bfb8f",
    "arch/L0/20220305.bin":
        "3dc9df0905fb30974551ae9c5e09478574df6ced2e59daf0860ae8171bd46453",
    "arch/L0/20220305.csv":
        "ea2f0f594ffa4adbd929b9230d75d074353f8189d5d30d43c312d59bbb343d33",
    "arch/manifest.json":
        "0cf4ac2a0524f45458ee978709eb9562fa890822266cbf4fb3d03a6fe4b516fc",
    "arch/originals/20220303.bin":
        "7fcff0a70aa09943ef940349866196b65ccca6f68d38d64613225bb86ac17c54",
    "cache/BSC00CA12-01/dispersion_20220303.gran":
        "a2dd77b3f34e2b2486ba927301c9bc807eab525243989e0956b20feee1fd1ea8",
    "cache/BSC00CA12-01/dispersion_20220304.gran":
        "c1e40e5f1d9c8b8dc043b468db625103f1498b31ec829cafca1706a252f15ff8",
    "cache/BSC12CA12-01/dispersion_20220304.gran":
        "a6b4fdf55bc8d29124a90ee99d0ec3f48f1d2cb58a04ddc13ab49bc4a36ec974",
    "cache/BSC12CA12-01/dispersion_20220305.gran":
        "1ebd9e8b6b425c4c0ba8b87c7c85f0a22ceb37b8f514f85d49240d757633e55b",
    "cache/rejects/BSC00CA12-01/dispersion_20220302.bin":
        "f4d0ec033f561490e15449e1137bbcbad0a1c7b2b1e072f815acef1c5f5c4cb0",
    "cache/rejects/BSC12CA12-01/dispersion_20220302.bin":
        "eee0df270f0942e56763767017020de1ab947bcdc864c770044e6f3770dd3d99",
    "cache/rejects/BSC12CA12-01/dispersion_20220303.bin":
        "eee0df270f0942e56763767017020de1ab947bcdc864c770044e6f3770dd3d99",
    "corpus/BSC00CA12-01/2022030200/dispersion.gran":
        "f4d0ec033f561490e15449e1137bbcbad0a1c7b2b1e072f815acef1c5f5c4cb0",
    "corpus/BSC00CA12-01/2022030212/dispersion.gran":
        "3113c993f4e1b7f978e3020c6913ac619309429a84818f51cb036bae82186ed0",
    "corpus/BSC00CA12-01/2022030300/dispersion.gran":
        "a2dd77b3f34e2b2486ba927301c9bc807eab525243989e0956b20feee1fd1ea8",
    "corpus/BSC00CA12-01/2022030312/dispersion.gran":
        "15dac1bbc5bbd3639dd568d5f9b23889015b1ddbf6d5d02421f9a8086595daf8",
    "corpus/BSC00CA12-01/2022030400/dispersion.gran":
        "c1e40e5f1d9c8b8dc043b468db625103f1498b31ec829cafca1706a252f15ff8",
    "corpus/BSC00CA12-01/2022030412/dispersion.gran":
        "cf01781ebd374fffdb77b5a71e04dc92ee4d352edc654d5b54d65ce27b8df479",
    "corpus/BSC00CA12-01/2022030512/dispersion.gran":
        "e2e0e4fe5c9a04f066fbe25f1c19ee048e61f88f65e9dff60595913316b0e5db",
    "corpus/BSC12CA12-01/2022030200/dispersion.gran":
        "e2385af46088a72fbc311a5007bf7500632c9a4ee699293822f0e81759f0d5ab",
    "corpus/BSC12CA12-01/2022030212/dispersion.gran":
        "eee0df270f0942e56763767017020de1ab947bcdc864c770044e6f3770dd3d99",
    "corpus/BSC12CA12-01/2022030300/dispersion.gran":
        "eee0df270f0942e56763767017020de1ab947bcdc864c770044e6f3770dd3d99",
    "corpus/BSC12CA12-01/2022030312/dispersion.gran":
        "eee0df270f0942e56763767017020de1ab947bcdc864c770044e6f3770dd3d99",
    "corpus/BSC12CA12-01/2022030400/dispersion.gran":
        "67ddc9582ac1a9ce02c98e7ded49b8445e43bfb21cca2998e91fec0f0fa2d863",
    "corpus/BSC12CA12-01/2022030412/dispersion.gran":
        "a6b4fdf55bc8d29124a90ee99d0ec3f48f1d2cb58a04ddc13ab49bc4a36ec974",
    "corpus/BSC12CA12-01/2022030500/dispersion.gran":
        "9cdcae945307b50f1f09988402773ecbfc3119c05996bcf53c87ff23c00f9bf5",
    "corpus/BSC12CA12-01/2022030512/dispersion.gran":
        "1ebd9e8b6b425c4c0ba8b87c7c85f0a22ceb37b8f514f85d49240d757633e55b",
    "corpus/manifest.csv":
        "49336bde261c847ae59aab76ea434be3bd254fa2a9ce723641e94d088836b6ca",
    "fetch_report.csv":
        "d0a537f29620a3ef1d8c7b63d0e01d2062e95bfc403fa1007f1fe6921d6e4a91",
    "gaps.csv":
        "7d0b723f6c69d93fd00e52f8d7afe15a44ca86fea3057ce857302577c5dc4631",
    "index.json":
        "6a942fc536d257907c6fdc48730ed8448b85022f5b0509f18986597cbc0cdb0c",
    "plan.csv":
        "cd8a221960df54110bea6b3998423feb3211228572a9f4cf913bf9d68d85011e",
    "plot_scatter.csv":
        "57930e6a5867aa4aaf237421b9b81739a5057ef6c6cbf4c091f9014a9c081f16",
    "plot_series.csv":
        "09d6ce96c0ffd807914ebf45216d957c7527f91a619c1cb1c8019e0513650cb4",
    "report.csv":
        "30b798dfc0fe7c69fc021ccb9717cfd6a1e0aaa2a6f9f81527fae54ef8a239a6",
    "series.csv":
        "09d6ce96c0ffd807914ebf45216d957c7527f91a619c1cb1c8019e0513650cb4",
}


def test_every_written_table_is_pinned(tmp_path, runner):
    """gen-corpus -> fetch -> validate -> sequence -> build-archive -> query
    -> analyze -> plot over a faulty, drifting desk corpus; every CSV and
    JSON written, and every granule and shard (the corpus, the cache and its
    rejects, the archive's `L0/` and `originals/`), is byte-pinned."""
    ids = ["--ids", "BSC00CA12-01,BSC12CA12-01"]
    days = ["--from", "2022-03-02", "--to", "2022-03-05"]
    hours = ["--from", "2022-03-02T00:00:00Z", "--to", "2022-03-05T23:00:00Z"]
    run_ok(runner, ["--seed", "29", "gen-corpus", "--root", str(tmp_path / "corpus"),
                    *ids, *days, "--init-hours", "0,12", "--horizon", "36",
                    "--missing-rate", "0.1", "--html-rate", "0.1",
                    "--truncation-rate", "0.2", "--drift-cutoff", "2022-03-04"])
    run_ok(runner, ["fetch", "--base", str(tmp_path / "corpus"), *ids, *days,
                    "--cache", str(tmp_path / "cache"),
                    "--report", str(tmp_path / "fetch_report.csv")])
    run_ok(runner, ["validate", "--cache", str(tmp_path / "cache"),
                    "--dump-index", str(tmp_path / "index.json")])
    run_ok(runner, ["sequence", "--cache", str(tmp_path / "cache"), *hours,
                    "--out", str(tmp_path / "plan.csv"),
                    "--gaps", str(tmp_path / "gaps.csv")])
    run_ok(runner, ["build-archive", "--plan", str(tmp_path / "plan.csv"),
                    "--out", str(tmp_path / "arch"), "--levels", "2"])
    run_ok(runner, ["query", "--archive", str(tmp_path / "arch"),
                    "--lat", "36.1", "--lon", "-145.2",
                    "--from", "2022-03-03T00:00:00Z", "--to", "2022-03-05T23:00:00Z",
                    "--csv", str(tmp_path / "series.csv")])
    days = [date(2022, 3, 3), date(2022, 3, 4), date(2022, 3, 5)]
    write_solar_csv(tmp_path / "solar.csv", days, [1.0, 0.9, 0.8])
    (tmp_path / "cloud.csv").write_text(
        "date,avg_cloud_pct\n" + "".join(f"{d},5.0\n" for d in days))
    (tmp_path / "flags.csv").write_text(
        "date,smoky\n2022-03-03,0\n2022-03-04,1\n2022-03-05,1\n")
    inputs = ["--archive", str(tmp_path / "arch"),
              "--solar", str(tmp_path / "solar.csv"),
              "--cloud", str(tmp_path / "cloud.csv"),
              "--flags", str(tmp_path / "flags.csv"), "--site", "36.1,-145.2"]
    run_ok(runner, ["analyze", *inputs,
                    "--out", str(tmp_path / "report.csv")])
    run_ok(runner, ["plot", *inputs,
                    "--out-prefix", str(tmp_path / "plot")])
    written = sorted(p for p in tmp_path.rglob("*")
                     if p.suffix in (".csv", ".json", ".gran", ".bin")
                     and p.name not in ("solar.csv", "cloud.csv", "flags.csv"))
    digests = {
        str(p.relative_to(tmp_path)): hashlib.sha256(
            p.read_bytes().replace(str(tmp_path).encode(), b"<tmp>")).hexdigest()
        for p in written}
    assert digests == PINNED_OUTPUTS


def test_leading_gap_hours_reach_the_archive(tmp_path, runner):
    """Gap hours at the start of the sequenced range survive plan.csv, so
    the archive covers them and a query over them omits them."""
    run_ok(runner, ["gen-corpus", "--root", str(tmp_path / "corpus"),
                    "--ids", "BSC00CA12-01", "--from", "2022-03-03",
                    "--to", "2022-03-03", "--init-hours", "0", "--horizon", "24"])
    hours = ["--from", "2022-03-02T00:00:00Z", "--to", "2022-03-03T23:00:00Z"]
    run_ok(runner, ["sequence", "--cache", str(tmp_path / "corpus"), *hours,
                    "--out", str(tmp_path / "plan.csv"),
                    "--gaps", str(tmp_path / "gaps.csv")])
    run_ok(runner, ["build-archive", "--plan", str(tmp_path / "plan.csv"),
                    "--out", str(tmp_path / "arch"), "--levels", "1"])
    result = run_ok(runner, ["query", "--archive", str(tmp_path / "arch"),
                             "--lat", "36.1", "--lon", "-145.2", *hours])
    assert result.stderr == "24 gap hours omitted\n"
    assert len(result.stdout.splitlines()) == 24
    manifest = json.loads((tmp_path / "arch" / "manifest.json").read_text())
    assert manifest["start"] == "2022-03-02T00:00:00Z"
    assert manifest["gaps"] == [f"2022-03-02T{h:02}:00:00Z" for h in range(24)]
