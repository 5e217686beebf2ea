import json
import math
from datetime import date, datetime, time, timedelta, timezone

import pytest
from click.testing import CliRunner

from smokecurate.cli import main

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
    assert (pipeline / "arch" / "provenance.csv").is_file()
    report = (pipeline / "fetch_report.csv").read_text().splitlines()
    assert len(report) == 1 + 2 * 3


def test_validate_counts(pipeline, runner):
    result = run_ok(runner, ["validate", "--cache", str(pipeline / "cache")])
    assert "6 ok, 0 rejected" in result.output
    assert "20x40" in result.output


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


def test_bad_config_line_rejected(tmp_path, runner):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    result = runner.invoke(main, ["--config", str(cfg), "fetch"])
    assert result.exit_code != 0
    assert "bad config line" in result.output


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
], ids=["plot-site", "plot-mode", "analyze-site"])
def test_bad_analysis_input_is_one_error_line(pipeline, runner, args,
                                              exit_code, message):
    inputs = write_analysis_inputs(pipeline)
    result = runner.invoke(main, args[:1] + inputs + args[1:],
                           catch_exceptions=False)
    assert result.exit_code == exit_code
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(message), result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, option", [
    (["sequence", "--cache", "{tmp}", "--from", "2022-03-02T00:00:00Z",
      "--to", "garbage", "--out", "{tmp}/c"], "--to"),
    (["gen-corpus", "--root", "{tmp}/c", "--from", "2022-13-02",
      "--to", "2022-03-02"], "--from"),
], ids=["sequence-to", "gen-corpus-from"])
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
