"""orientkit benchmark: seeded CLI workloads, end to end or traced per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-small --seed 0 --seconds 18 --trace 0

Each command of the workload goes through ``orientkit.cli.dispatch`` in
this process, one after another (a closed loop with one client).  Passes
over the workload's commands repeat until about ``--seconds`` of command
time is measured; every answer is checked.  With ``--trace 1`` each command
is also replayed as the library calls the CLI makes, timed per module.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOAD_NAMES = ("solve-small", "orient-large", "generate-verify")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# Passes per run at --seconds 24, about 24 s of commands on the reference
# machine (README.md).  The count depends on --seconds alone, so every run
# of a workload ranks the same samples and a percentile always falls on the
# same command; a faster program finishes sooner rather than doing more.
# Each count puts the tail sample inside one command's cluster of samples.
PASSES_AT_24_S = {"solve-small": 15, "orient-large": 3, "generate-verify": 7}

CLI_COMMANDS = ("solve", "orient", "verify", "recognize", "generate",
                "kernelize")
LAYER_SPANS = {
    "exact": ("search", "clique_number"),
    "recognize": ("chordal_peo", "split_partition", "quasi_threshold_cotree",
                  "cograph_cotree", "block_cut_tree", "outerplanar_strip",
                  "other"),
    "construct": ("split_orient", "quasi_threshold_orient",
                  "uniform_block_orient", "two_cut_block_orient",
                  "outerplanar_strip_orient", "cograph"),
    "graph": ("read", "write"),
    "orientation": ("is_proper", "read", "write"),
    "instances": ("random_class_instance", "reduce_vertex_cover",
                  "build_vc_certificate", "split_kernel", "tight", "gadget"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=18)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import orientkit from this checkout's src/."""
    if not (SRC / "orientkit" / "cli.py").is_file():
        raise SystemExit(f"error: no orientkit sources under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import orientkit.cli
    if SRC not in Path(orientkit.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported orientkit from "
                         f"{orientkit.cli.__file__}, not from {SRC}")


def import_seconds():
    """Seconds to import the CLI in a fresh interpreter, as a user pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import orientkit.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


class Runner:
    """Runs passes over one workload's commands and checks every answer."""

    def __init__(self, ops, expected, tracer=None):
        from check import check, parse_report
        from orientkit.cli import dispatch
        self.ops = ops
        self.expected = expected
        self.tracer = tracer
        self._check, self._parse, self._dispatch = check, parse_report, dispatch
        self.times = []          # seconds per command, in run order
        self.by_cmd = {}         # CLI seconds per subcommand
        self.self_s = 0.0        # CLI time not covered by replayed library calls
        self.replay_s = 0.0      # replay time outside spans (tracing overhead)
        self.attempted = self.failed = self.decided = 0
        self.failures = []
        self.nodes = {}          # op name -> exact search nodes, first pass

    def run_command(self, op):
        if op.out:
            for path in (op.out, op.out + ".roles"):
                if os.path.exists(path):
                    os.remove(path)
        gc.collect()
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                code = self._dispatch(op.argv)
        except Exception as exc:  # a crash is a wrong answer, not the end
            code = f"exception {exc!r}"
        elapsed = perf_counter() - start
        return code, self._parse(buf.getvalue()), elapsed

    def run_pass(self, order, index):
        measured = 0.0
        for i in order:
            op = self.ops[i]
            code, report, elapsed = self.run_command(op)
            measured += elapsed
            self.times.append(elapsed)
            self.by_cmd[op.cmd] = self.by_cmd.get(op.cmd, 0.0) + elapsed
            ok, decided, why = self._check(op, code, report,
                                           self.expected.get(op.name))
            if ok and self.tracer is not None:
                spent, why = self.traced_replay(op, report, index, elapsed)
                measured += spent
                ok = not why
            self.attempted += 1
            self.decided += decided
            if not ok:
                self.failed += 1
                self.failures.append(f"{op.name}: {why}")
        return measured

    def traced_replay(self, op, report, index, cli_s):
        """Replays op with spans; returns (seconds, mismatch or '')."""
        from check import sha256_file
        from replay import replay
        tr = self.tracer
        tr.op = (index, op.name)
        tr.probe_memory = index == 0
        out = op.out + ".replay" if op.out else None
        untraced = tr.untraced_s
        first = len(tr.spans)
        start = perf_counter()
        try:
            fields = replay(op, tr, out)
        except Exception as exc:  # report the op as failed and keep going
            return perf_counter() - start, f"replay raised {exc!r}"
        elapsed = perf_counter() - start
        covered = sum(t1 - t0 for _, _, t0, t1 in tr.spans[first:])
        self.self_s += cli_s - covered
        self.replay_s += elapsed - covered - (tr.untraced_s - untraced)
        nodes = fields.pop("nodes", None)
        if self.nodes.setdefault(op.name, nodes) != nodes:
            first = self.nodes[op.name]
            return elapsed, f"search nodes {nodes} differ from {first}"
        for key, value in fields.items():
            if report.get(key) != value:
                return elapsed, f"replay {key}={value}, CLI {report.get(key)}"
        if op.cmd == "generate" and sha256_file(out) != sha256_file(op.out):
            return elapsed, "replayed generator output differs from the CLI's"
        return elapsed, ""


def tail(times):
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - 11, 0)
    return ordered[i], 100.0 * (i + 1) / n, n


def end_to_end(runner, setup_s):
    n = runner.attempted
    value, pct, samples = tail(runner.times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    notes = [f"latency_tail_ms is p{pct:.2f} over {samples} commands",
             f"failed_ratio = {runner.failed / n:.6g} ratio"]
    return {
        "ops_per_s": (n / sum(runner.times), "1/s"),
        "latency_p50_ms": (statistics.median(runner.times) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "decided_ratio": (runner.decided / n, "ratio"),
        "correct_ratio": ((n - runner.failed) / n, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }, notes


def per_layer(runner, tracer, passes):
    """Per-module metrics: busy seconds per pass (set-up calls counted once),
    counts per pass, ratios and allocation peaks."""
    setup = tracer.busy({"setup"})
    run = tracer.busy(None)
    metrics = {}
    for layer, names in LAYER_SPANS.items():
        for name in names:
            key = f"{layer}.{name}"
            once = setup.get(key, 0.0)
            metrics[f"{key}_s"] = (once + (run.get(key, 0.0) - once) / passes,
                                   "s")
    counts = tracer.counts
    for key in ("exact.nodes", "exact.floor_nodes", "exact.budget_exceeded"):
        metrics[key] = (counts[key] / passes, "count")
    search_s = run.get("exact.search", 0.0)
    metrics["exact.nodes_per_s"] = (counts["exact.nodes"] / search_s
                                    if search_s else 0.0, "1/s")
    calls = counts["recognize.calls"]
    metrics["recognize.match_ratio"] = (counts["recognize.matched"] / calls
                                        if calls else 0.0, "ratio")
    for layer, peak in tracer.alloc_peak_mb.items():
        metrics[f"{layer}.alloc_peak_mb"] = (peak, "MB")
    metrics["graph.bytes"] = (counts["graph.bytes"] / passes, "bytes")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_s"] = (runner.by_cmd.get(cmd, 0.0) / passes, "s")
    metrics["cli.self_s"] = (runner.self_s / passes, "s")
    metrics["trace.overhead_s"] = (runner.replay_s / passes, "s")
    return metrics, [f"per-layer seconds are per pass over {passes} passes"]


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("ORIENTKIT_SEED", None)  # it would override generator seeds
    load_library()
    from replay import Tracer
    from workloads import WORKLOADS, plain_call

    expected = json.loads(EXPECTED.read_text())[args.workload]
    tracer = Tracer() if args.trace else None
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        last = repeat == SETUP_REPEATS - 1
        call = tracer.call if tracer is not None and last else plain_call
        import_s = import_seconds()
        start = perf_counter()
        ops = WORKLOADS[args.workload](args.seed, str(workdir), call)
        setup_times.append(import_s + perf_counter() - start)
    setup_s = statistics.median(setup_times)
    gc.freeze()  # set-up objects stay out of the collections between commands

    runner = Runner(ops, expected, tracer)
    order_rng = random.Random(args.seed)
    order = list(range(len(ops)))
    # a traced pass runs every command twice, so it makes half the passes
    share = args.seconds / 24 / (2 if tracer else 1)
    target = max(1, round(PASSES_AT_24_S[args.workload] * share))
    passes = measured = 0
    try:
        # the time cap keeps a much slower program within the run's limits
        while passes < target and measured < 3 * args.seconds:
            order_rng.shuffle(order)
            measured += runner.run_pass(order, passes)
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if passes < target:
        print(f"note: stopped after {passes} of {target} passes at the time cap")

    if tracer is None:
        metrics, notes = end_to_end(runner, setup_s)
    else:
        metrics, notes = per_layer(runner, tracer, passes)
    correct = runner.failed == 0
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"commands={runner.attempted} failed={runner.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
