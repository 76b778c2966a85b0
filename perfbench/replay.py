"""Traced replay: each command as the public library calls the CLI makes.

The traced run times every library call from here, so the per-module
numbers need no instrumentation inside ``orientkit``.  A replay returns
the report fields the CLI would print, which the run compares with the
real command's answer.
"""

from __future__ import annotations

import io
import os
import tracemalloc
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from time import perf_counter

from orientkit import cli, construct, instances, recognize
from orientkit.errors import BudgetExceeded
from orientkit.exact import clique_number, decide_k_orientation
from orientkit.graph import read_graph, write_graph
from orientkit.orientation import (is_proper, max_indegree, read_orientation,
                                   write_orientation)

MEMORY_LAYERS = ("recognize", "construct")


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans = []             # (op, span name, start, end)
        self.counts = Counter()     # layer counters, summed over the run
        self.alloc_peak_mb = dict.fromkeys(MEMORY_LAYERS, 0.0)
        self.probe_memory = False   # re-run memory-layer calls under tracemalloc
        self.untraced_s = 0.0       # replay time spent outside spans on purpose
        self.op = "setup"

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans.append((self.op, name, start, perf_counter()))
        layer = name.partition(".")[0]
        if self.probe_memory and layer in MEMORY_LAYERS:
            self._probe(layer, fn, args, kwargs)
        return result

    def _probe(self, layer, fn, args, kwargs):
        start = perf_counter()
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
            self.untraced_s += perf_counter() - start
        self.alloc_peak_mb[layer] = max(self.alloc_peak_mb[layer], peak)

    def busy(self, ops=None):
        """Seconds per span name, over the spans of the given ops."""
        total = defaultdict(float)
        for op, name, start, end in self.spans:
            if ops is None or op in ops:
                total[name] += end - start
        return total


def _read_graph(tr, path):
    g = tr.call("graph.read", read_graph, path)
    tr.counts["graph.bytes"] += os.path.getsize(path)
    return g


def _write_graph(tr, g, path):
    tr.call("graph.write", write_graph, g, path)
    tr.counts["graph.bytes"] += os.path.getsize(path)


def _matched(tr, matched):
    tr.counts["recognize.calls"] += 1
    tr.counts["recognize.matched"] += bool(matched)
    return matched


def replay_solve(op, tr, out):
    args = op.argv
    g = _read_graph(tr, args[1])
    budget = int(args[args.index("--budget") + 1])
    box = [budget, budget]  # the node allowance decide_k_orientation counts down
    fields = {}
    witness = None

    def search(k):
        return tr.call("exact.search", decide_k_orientation, g, k, None,
                       _budget=box)

    try:
        if "--opt" in args:
            # the climb of proper_orientation_number, nodes read after each k
            floor = max(tr.call("exact.clique_number", clique_number, g) - 1, 0)
            for k in range(floor, g.max_degree() + 1):
                try:
                    witness = search(k)
                finally:
                    if k == floor:
                        tr.counts["exact.floor_nodes"] += budget - box[0]
                if witness is not None:
                    fields["value"] = str(k)
                    break
        else:
            k = int(args[args.index("--k") + 1])
            witness = search(k)
            fields.update(k=str(k), answer="yes" if witness else "no")
    except BudgetExceeded:
        tr.counts["exact.budget_exceeded"] += 1
        fields = {"budget_exceeded": "true"}
    tr.counts["exact.nodes"] += budget - box[0]
    if witness is not None:
        tr.call("orientation.write", write_orientation, witness, out)
    return dict(fields, nodes=budget - box[0])


def _cograph_by_cli(op, tr, g, out):
    """The cograph constructor is private to the CLI, so run the
    class-restricted command; returns its orientation and elapsed time."""
    start = perf_counter()
    with redirect_stdout(io.StringIO()):
        cli.dispatch(["orient", op.argv[1], "--class", "cograph", "--out", out])
    elapsed = perf_counter() - start
    read_back = perf_counter()
    d = read_orientation(out, g)
    tr.untraced_s += perf_counter() - read_back
    return d, elapsed


def _try_class(op, tr, g, cls, out):
    """(orientation, bound) as cli orient computes them, or None."""
    if cls == "quasi-threshold":
        cot = _matched(tr, tr.call("recognize.quasi_threshold_cotree",
                                   recognize.quasi_threshold_cotree, g))
        if cot is None:
            return None
        d = tr.call("construct.quasi_threshold_orient",
                    construct.quasi_threshold_orient, cot)
        return d, max_indegree(d)
    if cls == "split":
        part = _matched(tr, tr.call("recognize.split_partition",
                                    recognize.split_partition, g))
        if part is None:
            return None
        d = tr.call("construct.split_orient", construct.split_orient, g, part)
        return d, max(2 * len(part.clique) - 2, 0)
    if cls in ("two-cut-block", "uniform-block"):
        bct = tr.call("recognize.block_cut_tree", recognize.block_cut_tree, g)
        k = len(bct.blocks[0]) if bct.blocks else 0
        member = (bct.blocks and g.is_connected() and k >= 3
                  and recognize.is_k_uniform(bct, k)
                  and (cls == "uniform-block"
                       or recognize.max_cut_vertices_per_block(bct) <= 2))
        if not _matched(tr, member):
            return None
        if cls == "two-cut-block":
            return tr.call("construct.two_cut_block_orient",
                           construct.two_cut_block_orient, g, bct, k), k + 1
        return tr.call("construct.uniform_block_orient",
                       construct.uniform_block_orient, g, bct, k), 3 * k - 2
    if cls == "outerplanar-strip":
        strip = _matched(tr, tr.call("recognize.outerplanar_strip",
                                     recognize.outerplanar_strip, g))
        if strip is None:
            return None
        return tr.call("construct.outerplanar_strip_orient",
                       construct.outerplanar_strip_orient, g, strip), 13
    if cls == "cograph":
        check = tr.call("recognize.cograph_cotree", recognize.cograph_cotree, g)
        if _matched(tr, check.cotree) is None:
            return None
        d, elapsed = _cograph_by_cli(op, tr, g, out)
        return d, construct.cograph_bounds(check.cotree)[1], elapsed
    raise ValueError(f"no replay for class {cls}")


def _charge_cograph(tr, elapsed):
    """construct.cograph: the class-restricted command's time less the
    library calls it repeats, which the replay timed for this op."""
    repeated = sum(end - start for op, name, start, end in tr.spans
                   if op == tr.op and name in _COGRAPH_REPEATS)
    start = tr.spans[-1][3]
    tr.spans.append((tr.op, "construct.cograph", start,
                     start + elapsed - repeated))
    tr.untraced_s += repeated


_COGRAPH_REPEATS = ("graph.read", "recognize.cograph_cotree",
                    "orientation.is_proper", "orientation.write")

CLASS_ORDER = ("quasi-threshold", "split", "two-cut-block", "uniform-block",
               "outerplanar-strip", "cograph")


def replay_orient(op, tr, out):
    g = _read_graph(tr, op.argv[1])
    for cls in CLASS_ORDER:
        got = _try_class(op, tr, g, cls, out)
        if got is None:
            continue
        d, bound = got[:2]
        proper = tr.call("orientation.is_proper", is_proper, d)
        tr.call("orientation.write", write_orientation, d, out)
        if cls == "cograph":
            _charge_cograph(tr, got[2])
        return {"class": cls, "bound": str(bound),
                "max_indegree": str(max_indegree(d)),
                "proper": str(proper).lower()}
    raise ValueError("no replayed class matched")


def replay_generate(op, tr, out):
    p = op.params
    if p.get("reduce"):
        args = op.argv
        cubic = _read_graph(tr, args[args.index("--reduce-vc") + 1])
        k = int(args[args.index("--k") + 1])
        red = tr.call("instances.reduce_vertex_cover",
                      instances.reduce_vertex_cover, cubic, k)
        g, extra = red.graph, {"kind": "reduce-vc", "k_prime": str(red.k_prime)}
    elif "kind" in p:
        g = tr.call("instances.random_class_instance",
                    instances.random_class_instance, p["kind"], p["size"],
                    int(op.argv[op.argv.index("--seed") + 1]))
        extra = {"kind": f"random-{p['kind']}"}
    elif "tight" in p:
        maker = {"split": instances.split_tight_example,
                 "block": instances.block_tight_example}[p["tight"]]
        g = tr.call("instances.tight", maker, p["param"])
        extra = {"kind": f"tight-{p['tight']}"}
    else:
        if p["gadget"] == "S":
            g, meta = tr.call("instances.gadget", instances.ladder_gadget, p["k"])
        elif p["gadget"] == "F":
            g, meta = tr.call("instances.gadget", instances.head_gadget,
                              p["i"], p["k"])
        else:
            g, meta = tr.call("instances.gadget",
                              instances.double_clique_gadget, p["k"])
        extra = {"kind": f"gadget-{meta.kind}"}
    _write_graph(tr, g, out)
    return dict(extra, n=str(g.n), m=str(g.m))


def replay_recognize(op, tr, out):
    g = _read_graph(tr, op.argv[1])
    peo = _matched(tr, tr.call("recognize.chordal_peo",
                               recognize.chordal_peo, g).peo)
    fields = {"chordal": str(peo is not None).lower()}
    if peo is not None:
        fields["omega"] = str(tr.call("recognize.other",
                                      recognize.clique_number_chordal, g, peo))
    part = _matched(tr, tr.call("recognize.split_partition",
                                recognize.split_partition, g))
    fields["split"] = str(part is not None).lower()
    qt = _matched(tr, tr.call("recognize.quasi_threshold_cotree",
                              recognize.quasi_threshold_cotree, g))
    fields["quasi_threshold"] = str(qt is not None).lower()
    bct = tr.call("recognize.block_cut_tree", recognize.block_cut_tree, g)
    blockish = _matched(tr, all(g.is_clique(blk) for blk in bct.blocks))
    fields["block_graph"] = str(blockish).lower()
    if blockish and bct.blocks:
        sizes = {len(blk) for blk in bct.blocks}
        fields["k_uniform"] = str(sizes.pop()) if len(sizes) == 1 else "none"
        fields["max_cuts_per_block"] = str(tr.call(
            "recognize.other", recognize.max_cut_vertices_per_block, bct))
    strip = _matched(tr, tr.call("recognize.outerplanar_strip",
                                 recognize.outerplanar_strip, g))
    fields["outerplane_strip"] = str(strip is not None).lower()
    cog = _matched(tr, tr.call("recognize.cograph_cotree",
                               recognize.cograph_cotree, g).cotree)
    fields["cograph"] = str(cog is not None).lower()
    claw_free = _matched(tr, tr.call("recognize.other",
                                     recognize.is_claw_free, g))
    fields["claw_free"] = str(claw_free).lower()
    return fields


def replay_kernelize(op, tr, out):
    args = op.argv
    g = _read_graph(tr, args[1])
    kernel, k = tr.call("instances.split_kernel", instances.split_kernel, g,
                        int(args[args.index("--k") + 1]))
    _write_graph(tr, kernel, out)
    return {"k": str(k), "kernel_n": str(kernel.n), "kernel_m": str(kernel.m),
            "changed": str(kernel != g).lower()}


def replay_verify(op, tr, out):
    g = _read_graph(tr, op.argv[1])
    d = tr.call("orientation.read", read_orientation, op.argv[2], g)
    proper = tr.call("orientation.is_proper", is_proper, d)
    return {"proper": str(proper).lower(), "max_indegree": str(max_indegree(d))}


REPLAY = {"solve": replay_solve, "orient": replay_orient,
          "generate": replay_generate, "recognize": replay_recognize,
          "kernelize": replay_kernelize, "verify": replay_verify}


def replay(op, tr, out):
    """Replay op, writing any output to out; returns the report fields."""
    return REPLAY[op.cmd](op, tr, out)
