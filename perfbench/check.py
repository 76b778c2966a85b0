"""Answer checks: pinned answers and witness recounts done without the solver."""

from __future__ import annotations

import hashlib
import os

from orientkit.orientation import is_proper, read_orientation

# report keys that vary with file paths, labelling or time, never pinned
UNPINNED = {"command", "input_sha256", "orientation_sha256", "elapsed",
            "exit", "witness", "orientation", "graph", "roles"}


def parse_report(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pinned_fields(op, report):
    """The report fields pin.py freezes for this command."""
    fields = {key: value for key, value in report.items() if key not in UNPINNED}
    if op.cmd == "generate":
        fields["sha256"] = sha256_file(op.out)
    return fields


def _recount(op, path):
    """Indegrees of the orientation in path, rebuilt arc by arc, or None when
    the cached indegrees disagree or the orientation is not proper."""
    d = read_orientation(path, op.graph)
    indegree = d.recompute_indegree()
    if indegree != list(d.indegree) or not is_proper(d):
        return None
    return indegree


def check(op, code, report, expect):
    """(ok, decided, reason) for one command's exit code and report."""
    if (code == 3 and op.cmd == "solve"
            and report.get("budget_exceeded") == "true"):
        if os.path.exists(op.out):
            return False, False, "witness written for an undecided solve"
        return True, False, ""
    if code != 0:
        return False, True, f"exit code {code}: {report.get('error', '')}"
    if expect is None:
        return False, True, "no pinned answer"
    got = pinned_fields(op, report)
    for key, want in expect.items():
        if got.get(key) != want:
            return False, True, f"{key}={got.get(key)} expected {want}"
    if op.cmd == "solve":
        has_witness = "value" in report or report.get("answer") == "yes"
        if not has_witness:
            if os.path.exists(op.out):
                return False, True, "witness written for a No answer"
            return True, True, ""
        bound = int(report["value"] if "value" in report else report["k"])
        indegree = _recount(op, op.out)
        if indegree is None or max(indegree, default=0) > bound:
            return False, True, "witness fails the indegree recount"
        if "value" in report and max(indegree, default=0) != bound:
            return False, True, "witness max indegree differs from the value"
    elif op.cmd == "orient":
        indegree = _recount(op, op.out)
        if indegree is None or report.get("proper") != "true":
            return False, True, "orientation fails the indegree recount"
        top = max(indegree, default=0)
        if top != int(report["max_indegree"]) or top > int(report["bound"]):
            return False, True, "recounted max indegree disagrees with the report"
    elif op.cmd == "kernelize":
        with open(op.out, encoding="utf-8") as fh:
            header = fh.readline().split()
        if header != [report["kernel_n"], report["kernel_m"]]:
            return False, True, "kernel file header disagrees with the report"
    return True, True, ""
