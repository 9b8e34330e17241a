"""Benchmark of fkin's solution tables.

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 20 --trace 0

Times a seeded list of tables (see ``workloads.py``) through the functions
`fkin run` uses, ``fkin.cli.parse_config``, ``execute`` and ``render_csv``
(grid tables through ``fkin.solve_multiterm_grid``), for whole passes over
the list until ``--seconds`` have gone by.  Then it checks every table
against references computed apart from the program (``checks.py``) and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics: the end-to-end ones with ``--trace 0``, the
per-layer ones from a traced run with ``--trace 1``.

Everything runs in this one process with ``FKIN_THREADS=1``: the program's
thread fan-out races on mpmath's global precision and gives different bytes
from run to run.  The set-up probes are separate fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 3
# table_p90_ms needs ten timed tables beyond it
MIN_TIMED_TABLES = 100
# the modules whose cumulative import time the traced run reports
MODULES = ("specfun", "fracops", "kinetics", "oracles", "diffusion",
           "verification", "cli")


def _parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["FKIN_THREADS"] = "1"
    return env


def measure_setup(workload, seed):
    """Seconds from starting a fresh process to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, env=_probe_env(), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def measure_import_times(workload, seed):
    """Cumulative import seconds of each fkin module, as
    ``python -X importtime`` reports them for a fresh set-up."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(BENCH_DIR / "probe.py"),
         workload, str(seed)],
        capture_output=True, env=_probe_env(), text=True, timeout=120,
        check=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*fkin\.(\w+)\s*$",
                     line)
        if m and m.group(2) in MODULES:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return {f"{name}.import_s": (found[name], "s") for name in MODULES}


def run_table(prep):
    """One table end to end; CSV text, or ``(ts, values)`` for a grid."""
    import fkin
    import fkin.cli

    table = prep.table
    if table.grid_t_end is not None:
        import workloads

        controls = fkin.ConvolutionControls(
            points_per_unit=workloads.GRID_POINTS_PER_UNIT)
        return fkin.solve_multiterm_grid(prep.parsed.problem,
                                         table.grid_t_end, controls=controls)
    config = fkin.cli.parse_config(table.config)
    header, rows = fkin.cli.execute(config)
    return fkin.cli.render_csv(header, rows)


def _fingerprint(outcomes):
    """Per table, a digest of the output bytes or the error text."""
    keys = []
    for output, error in outcomes:
        if output is None:
            keys.append(error)
            continue
        data = (output.encode() if isinstance(output, str)
                else output[0].tobytes() + output[1].tobytes())
        keys.append(hashlib.sha256(data).hexdigest())
    return keys


def run_pass(prepared, tracer=None):
    """One pass over the table list: wall seconds, per-table seconds, and
    per-table ``(output, error)``."""
    from fkin import FkinError

    latencies, outcomes = [], []
    start = time.perf_counter()
    for prep in prepared:
        if tracer is not None:
            tracer.table = prep.table.id
        t0 = time.perf_counter()
        try:
            outcome = (run_table(prep), None)
        except FkinError as exc:
            cause = exc.__cause__ if exc.__cause__ is not None else exc
            outcome = (None, f"{type(cause).__name__}: {cause}")
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return time.perf_counter() - start, latencies, outcomes


class Bench:
    """Timed passes over one table list, with the first pass's outputs
    kept for the checks and every later pass compared with it."""

    def __init__(self, prepared):
        self.prepared = prepared
        _, _, self.reference = run_pass(prepared)     # warm-up, untimed
        self.fingerprint = _fingerprint(self.reference)
        self.identical = True
        self.passes = []        # (wall seconds, latencies, traced)

    def run(self, seconds, min_tables=0, tracer=None, marks=None):
        start = time.perf_counter()
        timed = 0
        while (not timed or time.perf_counter() - start < seconds
               or timed < min_tables):
            if marks is not None:
                marks.append((len(tracer.spans), tracer.counts.copy()))
            wall, latencies, outcomes = run_pass(self.prepared, tracer)
            self.passes.append((wall, latencies, tracer is not None))
            self.identical &= _fingerprint(outcomes) == self.fingerprint
            timed += len(latencies)
        if marks is not None:
            marks.append((len(tracer.spans), tracer.counts.copy()))

    def busy_s(self, traced):
        return statistics.fmean(w for w, _, t in self.passes if t == traced)

    def failures(self):
        return [(prep.table, err) for prep, (_, err)
                in zip(self.prepared, self.reference) if err is not None]


def check_tables(bench):
    """Check every table that did not raise; returns the worst error over
    tolerance per regime and reference, and ``(table, detail)`` of each
    table whose check failed."""
    import checks

    worst, bad = {}, []
    for prep, (output, err) in zip(bench.prepared, bench.reference):
        if err is not None:
            continue
        parsed_output = (checks.read_csv(output) if isinstance(output, str)
                         else output)
        verdict = checks.check(prep.table, prep.parsed, parsed_output)
        if not verdict.ok:
            bad.append((prep.table, verdict.detail()))
        for name, (error, tol) in verdict.worst.items():
            key = f"{prep.table.regime}/{name}"
            worst[key] = max(worst.get(key, 0.0), error / tol)
    return worst, bad


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def regime_summary(bench):
    """Lines giving each regime's tables, share of busy time and median."""
    by_regime = {}
    for _, latencies, traced in bench.passes:
        if traced:
            continue
        for prep, seconds in zip(bench.prepared, latencies):
            by_regime.setdefault(prep.table.regime, []).append(seconds)
    total = sum(sum(v) for v in by_regime.values())
    count = len(bench.prepared)
    lines = []
    for regime, values in sorted(by_regime.items()):
        n = sum(p.table.regime == regime for p in bench.prepared)
        lines.append(f"regime {regime}: {n}/{count} tables, "
                     f"{sum(values) / total:.1%} of busy_s, "
                     f"median {statistics.median(values) * 1e3:.2f} ms")
    return lines


def timed_metrics(bench, args):
    """The end-to-end metrics: untraced passes for ``--seconds``."""
    setup_s = statistics.median(measure_setup(args.workload, args.seed)
                                for _ in range(SETUP_PROBES))
    bench.run(args.seconds, MIN_TIMED_TABLES)
    latencies = [s for _, lat, _ in bench.passes for s in lat]
    return {
        "setup_s": (setup_s, "s"),
        "busy_s": (bench.busy_s(False), "s"),
        "table_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "table_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        # read before the checks load their reference libraries
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, True


def traced_metrics(bench, args):
    """The per-layer metrics: half of ``--seconds`` untraced, then half
    traced; the difference of the two busy times is the tracing overhead.
    The spans are written to ``bench/out``."""
    from tracing import Tracer, layer_metrics

    metrics = measure_import_times(args.workload, args.seed)
    bench.run(args.seconds / 2.0)
    tracer, marks = Tracer(), []
    tracer.install()
    try:
        bench.run(args.seconds / 2.0, tracer=tracer, marks=marks)
    finally:
        tracer.uninstall()
    traced_busy = bench.busy_s(True)
    layers, repeat = layer_metrics(tracer, marks, traced_busy)
    metrics.update(layers)
    metrics["trace.overhead_s"] = (traced_busy - bench.busy_s(False), "s")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    return metrics, repeat


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "fkin" / "__init__.py").is_file():
        print(f"no fkin sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["FKIN_THREADS"] = "1"
    from probe import setup

    bench = Bench(setup(args.workload, args.seed))
    metrics, repeat = (traced_metrics if args.trace else timed_metrics)(
        bench, args)

    # A table fails when it raises or when its check fails.  Only the kept
    # fault (NonConvergence on the closed-forms tail tables) leaves the
    # run correct; a wrong number anywhere makes it incorrect.
    worst, bad = check_tables(bench)
    raised = bench.failures()
    kept_fault = all(t.regime == "tail" and err.startswith("NonConvergence")
                     for t, err in raised)
    correct = not bad and kept_fault and bench.identical and repeat
    n_failed = len({t.id for t, _ in raised + bad})
    n_passes = len(bench.passes)
    n_tables = len(bench.prepared)

    for line in regime_summary(bench):
        print(line)
    print(f"passes: {n_passes} of {n_tables} tables; outputs identical "
          f"across passes: {bench.identical}")
    for key, ratio in sorted(worst.items()):
        print(f"check {key}: worst error {ratio:.2e} of tolerance")
    for table, detail in bad:
        print(f"FAILED CHECK {table.id} ({table.regime}): {detail}")
    for table, err in raised:
        print(f"raised {table.id} ({table.regime}): {err[:100]}")
    if not repeat:
        print("traced counts differ between passes")
    print(json.dumps({
        "correct": correct,
        "attempted": n_passes * n_tables,
        "failed": n_passes * n_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
