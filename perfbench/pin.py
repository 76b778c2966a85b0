"""Freeze the expected answers of every workload into expected.json.

    python3 perfbench/pin.py

Runs each command once through the CLI, with no node budget for solves
(the hardest split graphs take several seconds each), and stores the
report fields that ``check.pinned_fields`` keeps.  The pinned fields do not
depend on the workload seed: solve and recognize answers are invariant
under the relabelling the seed applies, and the other inputs are fixed.
"""

import io
import json
import shutil
import sys
from contextlib import redirect_stdout

from run import BENCH_DIR, EXPECTED, WORKLOAD_NAMES, load_library


def main():
    load_library()
    from check import parse_report, pinned_fields
    from orientkit.cli import dispatch
    from workloads import WORKLOADS

    pinned = {}
    for workload in WORKLOAD_NAMES:
        workdir = BENCH_DIR / "_work" / f"pin-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        answers = pinned[workload] = {}
        for op in WORKLOADS[workload](0, str(workdir)):
            argv = list(op.argv)
            if "--budget" in argv:
                del argv[argv.index("--budget"):argv.index("--budget") + 2]
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = dispatch(argv)
            if code != 0:
                raise SystemExit(f"{workload}/{op.name} exited {code}")
            answers[op.name] = pinned_fields(op, parse_report(buf.getvalue()))
            print(workload, op.name, answers[op.name], file=sys.stderr)
        shutil.rmtree(workdir)
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
