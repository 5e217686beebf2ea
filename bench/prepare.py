"""Set-up for one benchmark run: generate the seed's corpus and, for the query
workload, curate it and write the analysis inputs.

Runs in its own process, started by run.py, so that the peak RSS of the
measured process excludes set-up. Prints one JSON object on stdout.

    python3 bench/prepare.py --workload NAME --seed N --work DIR --repeats K
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracing import IOProbe, Tracer  # noqa: E402
from workloads import (INPUTS, curate, generate,  # noqa: E402
                       make_analysis_inputs, stored_files)


def _flush(root: Path) -> None:
    """fsync every file under root, so that its write-back does not overlap
    the timed operations that read it."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args()
    inputs = INPUTS[args.workload]
    probe = IOProbe()
    corpus, setup_dir = args.work / "corpus", args.work / "setup"

    setup_s, gen_s, gen_written = [], [], []
    for _ in range(args.repeats):
        shutil.rmtree(corpus, ignore_errors=True)
        shutil.rmtree(setup_dir, ignore_errors=True)
        written0 = probe.read()[1]
        t0 = time.perf_counter()
        expected = generate(inputs, args.seed, corpus)
        gen_s.append(time.perf_counter() - t0)
        gen_written.append(probe.read()[1] - written0)
        if args.workload == "query":
            setup_dir.mkdir()
            curated = curate(inputs, corpus, setup_dir, Tracer(probe))
        setup_s.append(time.perf_counter() - t0)

    result = {
        "setup_s": statistics.median(setup_s),
        "corpusgen.s": statistics.median(gen_s),
        "corpusgen.granules": sum(1 for _ in corpus.rglob("*.gran")),
        "corpusgen.bytes_written": gen_written[-1],
        "corpus": str(corpus),
        "expected": expected,
    }
    if args.workload == "query":
        archive = curated.archive
        _, stored = stored_files(setup_dir / "archive")
        hours = int((archive.end - archive.start).total_seconds() // 3600) + 1
        result.update(
            archive=str(setup_dir / "archive"),
            archive_start=archive.start.isoformat(),
            archive_hours=hours,
            archive_bytes_per_value=stored / ((hours - len(archive.gaps))
                                             * inputs.cells),
            analysis=make_analysis_inputs(archive, setup_dir))
        # the query workload reads only the archive
        shutil.rmtree(corpus)
        shutil.rmtree(setup_dir / "cache")
        _flush(setup_dir / "archive")
    else:
        _flush(corpus)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
