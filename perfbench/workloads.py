"""Corpora and commands of the three benchmark workloads.

Each builder writes its input files into a work directory and returns the
list of ``Op`` records the benchmark runs, one CLI command each.  Inputs
depend only on the workload seed.  ``call`` wraps every library call made
while building, so the traced run can time the instances layer in set-up.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

from orientkit.graph import Graph, write_graph
from orientkit.instances import (build_vc_certificate, random_class_instance,
                                 reduce_vertex_cover, split_tight_example)
from orientkit.orientation import Orientation, write_orientation

# Node budget given to every solve: large enough that most criterion-3 and
# criterion-8 instances are decided, small enough that the seven hard split
# graphs (0.5-3.3 M nodes unbudgeted) stop at a fixed, repeatable cost.
SOLVE_BUDGET = 20_000

# generator seed of the fixed orient-large and generate-verify graphs
GENERATOR_SEED = 1
SIZES = (200, 800)
CLASSES = ("split", "quasi-threshold", "cograph", "uniform-block",
           "two-cut-block", "strip")


@dataclass
class Op:
    """One CLI command of a workload and what its answer is checked against."""

    name: str
    argv: list
    graph: Graph | None = None   # the input graph, for witness recounts
    out: str | None = None       # file the command writes, removed before each run
    params: dict = field(default_factory=dict)  # replay arguments

    @property
    def cmd(self):
        return self.argv[0]


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def relabel(g: Graph, rng: random.Random):
    """An isomorphic copy of g under a seeded vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), perm


def threshold_graph(n: int) -> Graph:
    """Deep threshold graph: vertices alternately isolated and dominating."""
    return Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


def cubic_graph(n: int, seed: int) -> Graph:
    """Seeded connected cubic graph: an n-cycle plus a random perfect matching."""
    rng = random.Random(seed)
    cycle = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i)
             for i in range(n)}
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [tuple(sorted(perm[i:i + 2])) for i in range(0, n, 2)]
        if not cycle.intersection(pairs):
            return Graph(n, sorted(cycle) + pairs)


def petersen_graph() -> Graph:
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)])


def minimum_vertex_cover(g: Graph):
    """Smallest vertex cover by exhaustive search (inputs have <= 16 vertices)."""
    for size in range(g.n + 1):
        for cover in itertools.combinations(range(g.n), size):
            chosen = set(cover)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return cover
    raise AssertionError("the full vertex set is a cover")


def _criterion3_split_graphs(call):
    for seed in range(200):
        n = 6 + (seed * 7) % 35
        if n <= 14:
            yield f"split-s{seed}", call("instances.random_class_instance",
                                         random_class_instance, "split", n, seed)


def _criterion8_cobipartite_graphs():
    rng = random.Random(808)
    for seed in range(50):
        k = 2 + seed % 3
        a, b = rng.randint(1, k + 3), rng.randint(1, k + 3)
        cross = [(u, a + v) for u in range(a) for v in range(b)
                 if rng.random() < 0.5]
        g = Graph(a + b, [(u, v) for u in range(a) for v in range(u + 1, a)]
                  + [(a + u, a + v) for u in range(b) for v in range(u + 1, b)]
                  + cross)
        yield f"cobip-s{seed}", g, k


def _write(g, workdir, name):
    path = os.path.join(workdir, name + ".graph")
    write_graph(g, path)
    return path


def build_solve_small(seed, workdir, call=plain_call):
    """solve --opt on criterion-3 split graphs, solve --k on criterion-8 ones.

    The seed relabels every graph; values and yes/no answers do not depend
    on the labelling, so the pinned answers hold for every seed.
    """
    rng = random.Random(seed)
    jobs = [(name, g, ["--opt"]) for name, g in _criterion3_split_graphs(call)]
    jobs += [(name, g, ["--k", str(k)])
             for name, g, k in _criterion8_cobipartite_graphs()]
    ops = []
    for name, g, mode in jobs:
        g, _ = relabel(g, rng)
        path = _write(g, workdir, name)
        witness = os.path.join(workdir, name + ".witness")
        argv = (["solve", path] + mode + ["--budget", str(SOLVE_BUDGET),
                                          "--witness-out", witness])
        ops.append(Op(name, argv, graph=g, out=witness))
    return ops


def build_orient_large(seed, workdir, call=plain_call):
    """orient --class auto on every random class at two sizes, plus a deep
    threshold graph.

    The graphs are fixed: relabelling changes uniform_block_orient's time
    by up to 35x and strip constructors' max indegree, so the seed only
    orders the commands.
    """
    graphs = [(f"{kind}-{size}",
               call("instances.random_class_instance", random_class_instance,
                    kind, size, GENERATOR_SEED))
              for kind in CLASSES for size in SIZES]
    graphs.append(("threshold-250", threshold_graph(250)))
    ops = []
    for name, g in graphs:
        path = _write(g, workdir, name)
        out = os.path.join(workdir, name + ".orient")
        ops.append(Op(name, ["orient", path, "--class", "auto", "--out", out],
                      graph=g, out=out))
    return ops


def _cubic_inputs():
    return [("petersen", petersen_graph()), ("cubic12", cubic_graph(12, 12)),
            ("cubic10", cubic_graph(10, 10))]


def build_generate_verify(seed, workdir, call=plain_call):
    """Generators, recognition, a kernel and certificate verification.

    Generator parameters are fixed, so generated files have pinned hashes;
    the seed relabels the graphs that recognize, kernelize and verify read.
    """
    rng = random.Random(seed)
    ops = []

    def generate(name, args, **params):
        out = os.path.join(workdir, name + ".graph")
        ops.append(Op(name, ["generate"] + args + ["--out", out], out=out,
                      params=params))

    for kind in CLASSES:
        for size in SIZES:
            generate(f"gen-{kind}-{size}",
                     ["--random", kind, "--size", str(size),
                      "--seed", str(GENERATOR_SEED)],
                     kind=kind, size=size)
    for kind, param in (("split", 4), ("block", 4)):
        generate(f"gen-tight-{kind}-{param}",
                 ["--tight", kind, "--param", str(param)],
                 tight=kind, param=param)
    generate("gen-gadget-S-4", ["--gadget", "S", "--k", "4"], gadget="S", k=4)
    generate("gen-gadget-F-3-4", ["--gadget", "F", "--i", "3", "--k", "4"],
             gadget="F", i=3, k=4)
    generate("gen-gadget-Z-5", ["--gadget", "Z", "--k", "5"], gadget="Z", k=5)

    for name, cubic in _cubic_inputs():
        cubic_path = _write(cubic, workdir, name)
        cover = minimum_vertex_cover(cubic)
        k = len(cover)
        generate(f"gen-reduce-{name}",
                 ["--reduce-vc", cubic_path, "--k", str(k)], reduce=True)
        red = call("instances.reduce_vertex_cover", reduce_vertex_cover,
                   cubic, k)
        cert = call("instances.build_vc_certificate", build_vc_certificate,
                    red, cover)
        g, perm = relabel(red.graph, rng)
        d = Orientation.from_arcs(g, [(perm[t], perm[h]) for t, h in cert.arcs()])
        graph_path = _write(g, workdir, f"vc-{name}")
        cert_path = os.path.join(workdir, f"vc-{name}.orient")
        write_orientation(d, cert_path)
        ops.append(Op(f"verify-{name}", ["verify", graph_path, cert_path],
                      graph=g))

    for kind in CLASSES:
        g, _ = relabel(call("instances.random_class_instance",
                            random_class_instance, kind, SIZES[0],
                            GENERATOR_SEED), rng)
        ops.append(Op(f"recognize-{kind}-{SIZES[0]}",
                      ["recognize", _write(g, workdir, f"rec-{kind}")],
                      graph=g))

    kernel_inputs = [(f"split-{size}", call(
        "instances.random_class_instance", random_class_instance, "split",
        size, GENERATOR_SEED)) for size in SIZES]
    kernel_inputs.append(("tight-split-4", call(
        "instances.tight", split_tight_example, 4)))
    for name, g in kernel_inputs:
        g, _ = relabel(g, rng)
        out = os.path.join(workdir, f"kernel-{name}.graph")
        ops.append(Op(f"kernelize-{name}",
                      ["kernelize", _write(g, workdir, f"ker-{name}"),
                       "--k", "3", "--kind", "split", "--out", out],
                      graph=g, out=out))
    return ops


WORKLOADS = {
    "solve-small": build_solve_small,
    "orient-large": build_orient_large,
    "generate-verify": build_generate_verify,
}
