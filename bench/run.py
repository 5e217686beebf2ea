"""smokecurate benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {desk-curate,full-curate,query} \
        --seed N --seconds S --trace {0,1}

Set-up (corpus generation, and for `query` a curation) runs in a child
process; this process then runs the workload's operations, one at a time,
until their timed total reaches S seconds, checking each operation's outputs
after its timed region. With --trace 0 the result carries the end-to-end
metrics; with --trace 1 it alternates untraced and traced cycles and carries
the per-layer metrics. The last line of stdout is the JSON result; the lines
before it are a human-readable report. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from contextlib import nullcontext
from datetime import datetime
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = {"desk-curate": 5, "full-curate": 1, "query": 1}
SETUP_TIMEOUT_S = 150
# A run's latency is a percentile over its operations; a full-grid curate
# takes about 6 s, so a run takes at least three even past --seconds.
MIN_OPS = 3


def _remove_stale_work() -> None:
    """Delete work directories left by runs whose process is gone."""
    if not WORK_ROOT.is_dir():
        return
    for d in WORK_ROOT.iterdir():
        pid = d.name.rsplit("-", 1)[-1]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except PermissionError:
            pass


def _setup(workload: str, seed: int, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), "--workload", workload,
         "--seed", str(seed), "--work", str(work),
         "--repeats", str(SETUP_REPEATS[workload])],
        stdout=subprocess.PIPE, check=True, timeout=SETUP_TIMEOUT_S)
    return json.loads(proc.stdout)


def _measure(bench, tracer, seconds: float, trace: bool):
    """Run operations until their timed total reaches `seconds` and at least
    MIN_OPS have run; in a traced run, alternate untraced and traced cycles,
    at least one of each."""
    from metrics import OpResult
    from tracing import WRAP_TARGETS

    # the first strptime imports a module; keep that read out of the byte counts
    datetime.strptime("2000", "%Y")
    ops: list[OpResult] = []
    checks: dict[str, list[int]] = {}
    measured, cycle = 0.0, 0
    while measured < seconds or len(ops) < MIN_OPS or (trace and cycle < 2):
        traced = trace and cycle % 2 == 1
        for _ in range(bench.cycle_ops):
            i = len(ops)
            kind, params = bench.plan(i)
            tracer.begin_op()
            span, ok = None, False
            try:
                with tracer.wrapped(WRAP_TARGETS) if traced else nullcontext():
                    with tracer.span("op", kind) as span:
                        out = bench.run(params, tracer, span)
                bench.account(out, span)
                results = bench.check(i, out)
                for name, passed in results.items():
                    checks.setdefault(name, [0, 0])[0 if passed else 1] += 1
                ok = all(results.values())
            except Exception:
                traceback.print_exc()
            finally:
                bench.cleanup()
            ops.append(OpResult(kind, traced, ok, cycle, span))
            if span is not None:
                measured += span.seconds
        cycle += 1
    return ops, checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["desk-curate", "full-curate", "query"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "smokecurate" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"benchmark: needs {ROOT / 'src' / 'smokecurate'} and {spec_path}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from metrics import end_to_end, named_report, per_layer, stage_medians
    from tracing import IOProbe, Tracer
    from workloads import INPUTS, CurateBench, QueryBench

    spec = json.loads(spec_path.read_text())
    _remove_stale_work()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        setup = _setup(args.workload, args.seed, work)
        inputs = INPUTS[args.workload]
        bench = (QueryBench(inputs, setup, args.seed) if args.workload == "query"
                 else CurateBench(inputs, setup, work))
        tracer = Tracer(IOProbe())
        ops, checks = _measure(bench, tracer, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o.ok for o in ops)
    good = [o for o in ops if o.ok and not o.traced]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{failed} failed, {sum(o.span.seconds for o in ops if o.span):.3f} s timed")
    for name, (passed, bad) in sorted(checks.items()):
        print(f"check {name}: {'PASS' if not bad else 'FAIL'} ({passed}/{passed + bad})")
    if len(ops) <= 10:
        print("operation seconds: " + " ".join(f"{o.span.seconds:.3f}" for o in ops if o.span))
    for digest in sorted(getattr(bench, "digests", ())):
        print(f"archive digest (level-0 frames + provenance): {digest}")
    for stage, s in stage_medians(tracer.spans, ops).items():
        print(f"stage {stage}: {s:.6f} s median per operation")

    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_csv(TRACE_DIR / f"spans-{args.workload}-{args.seed}.csv")
        if tracer.missing:
            print("wrap targets missing: " + ", ".join(tracer.missing))
        values = per_layer(tracer.spans, setup, ops, tracer.missing)
        wanted = spec["per_layer"]
    else:
        if not good:
            print("benchmark: no operation succeeded", file=sys.stderr)
            return 1
        values = end_to_end(bench.main_kind, setup, ops)
        for name, (v, unit) in named_report(bench.main_kind, values, ops).items():
            print(f"{name} {v:.6g} {unit}")
        wanted = spec["end_to_end"]

    correct = failed == 0 and all(bad == 0 for _, bad in checks.values())
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
