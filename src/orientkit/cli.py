"""Command line interface.

Subcommands: solve, orient, verify, recognize, generate, kernelize, reduce.
Reports go to standard output as key=value lines; graphs and orientations
go only to files.  Exit codes: 0 success, 2 precondition or recognition
failure, 3 search budget exceeded.  Reports are byte-identical across runs
for identical inputs and flags, except the elapsed= line.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from functools import partial

from . import construct, instances, recognize
from .errors import BudgetExceeded, OrientkitError
from .exact import decide_k_orientation, proper_orientation_number
from .graph import read_graph, write_graph
from .orientation import (CompensationSpec, is_compensated_proper, is_proper,
                          max_indegree, read_orientation, write_orientation)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:12]


class Report:
    def __init__(self, argv):
        self.lines = [("command", " ".join(argv))]
        self.t0 = time.perf_counter()

    def add(self, key, value):
        self.lines.append((key, value))

    def emit(self, exit_code):
        self.lines.append(("elapsed", f"{time.perf_counter() - self.t0:.3f}s"))
        self.lines.append(("exit", exit_code))
        for key, value in self.lines:
            print(f"{key}={value}")
        return exit_code


def _build_parser():
    """The argument parser.  Dispatch shares the one built at import:
    building it costs about as much as a small solve."""
    top = argparse.ArgumentParser(
        prog="orientkit",
        description="proper orientations: exact solving, class constructors, "
                    "verification, and instance generation")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="exact decision or optimization")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int, help="decide feasibility at this bound")
    mode.add_argument("--opt", action="store_true", help="compute the optimum")
    p.add_argument("--budget", type=int, help="search node budget")
    p.add_argument("--witness-out", help="write the witness orientation here")

    p = sub.add_parser("orient", help="class-specific constructor")
    p.add_argument("graph")
    p.add_argument("--class", dest="cls", default="auto",
                   choices=["auto"] + [c.name for c in construct.ORIENT_CLASSES])
    p.add_argument("--c", type=int, help="degree threshold for low-degree")
    p.add_argument("--out", help="write the orientation here")

    p = sub.add_parser("verify", help="check a stored orientation")
    p.add_argument("graph")
    p.add_argument("orientation")
    p.add_argument("--compensate", nargs=3, type=int,
                   metavar=("U", "C", "D"),
                   help="also run the compensated properness check")

    p = sub.add_parser("recognize", help="class membership report")
    p.add_argument("graph")

    p = sub.add_parser("generate", help="gadgets, tight examples, random")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--gadget", choices=["S", "F", "Z"])
    kind.add_argument("--tight", choices=["split", "block"])
    kind.add_argument("--random", choices=list(instances.RANDOM_CLASSES))
    kind.add_argument("--reduce-vc", dest="reduce_vc",
                      help="cubic graph file to reduce")
    p.add_argument("--k", type=int, help="gadget/reduction parameter")
    p.add_argument("--i", type=int, help="forbidden indegree for gadget F")
    p.add_argument("--param", type=int, help="parameter for --tight")
    p.add_argument("--size", type=int, help="size for --random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--roles-out", help="role sidecar (default OUT.roles)")

    p = sub.add_parser("kernelize", help="parameter-preserving shrink")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["split", "cobipartite"], required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reduce", help="vertex cover reduction")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roles-out")
    return top


_PARSER = _build_parser()


def _cmd_solve(args, report):
    g = read_graph(args.graph)
    report.add("input_sha256", _hash_file(args.graph))
    if args.opt:
        value, witness = proper_orientation_number(g, args.budget)
        report.add("value", value)
    else:
        witness = decide_k_orientation(g, args.k, args.budget)
        report.add("k", args.k)
        report.add("answer", "yes" if witness is not None else "no")
    if args.witness_out and witness is not None:
        write_orientation(witness, args.witness_out)
        report.add("witness", args.witness_out)
    return EXIT_OK


def _cmd_orient(args, report):
    g = read_graph(args.graph)
    report.add("input_sha256", _hash_file(args.graph))
    for cls in construct.ORIENT_CLASSES:
        if args.cls not in ("auto", cls.name):
            continue
        certificate = cls.recognize(g, args.c)
        if certificate is None:
            continue
        d = cls.orient(g, certificate)
        report.add("class", cls.name)
        report.add("bound", cls.bound(certificate, d))
        report.add("max_indegree", max_indegree(d))
        report.add("proper", str(is_proper(d)).lower())
        if args.out:
            write_orientation(d, args.out)
            report.add("orientation", args.out)
        return EXIT_OK
    report.add("error", "no constructor class matched the input")
    return EXIT_PRECONDITION


def _cmd_verify(args, report):
    g = read_graph(args.graph)
    d = read_orientation(args.orientation, g)
    report.add("input_sha256", _hash_file(args.graph))
    report.add("orientation_sha256", _hash_file(args.orientation))
    report.add("proper", str(is_proper(d)).lower())
    report.add("max_indegree", max_indegree(d))
    if args.compensate:
        u, c, dd = args.compensate
        ok = is_compensated_proper(d, CompensationSpec(u, c, dd))
        report.add("compensated", str(ok).lower())
    return EXIT_OK


def _cmd_recognize(args, report):
    g = read_graph(args.graph)
    report.add("input_sha256", _hash_file(args.graph))
    check = recognize.chordal_peo(g)
    report.add("chordal", str(check.peo is not None).lower())
    if check.peo is not None:
        report.add("omega", check.omega)
    part = recognize.split_partition(g)
    report.add("split", str(part is not None).lower())
    qt = recognize.quasi_threshold_cotree(g)
    report.add("quasi_threshold", str(qt is not None).lower())
    bct = recognize.block_cut_tree(g)
    blockish = recognize.is_block_graph(bct)
    report.add("block_graph", str(blockish).lower())
    if blockish and bct.blocks:
        sizes = {len(blk) for blk in bct.blocks}
        uniform = sizes.pop() if len(sizes) == 1 else None
        report.add("k_uniform", uniform if uniform is not None else "none")
        report.add("max_cuts_per_block",
                   recognize.max_cut_vertices_per_block(bct))
    strip = recognize.outerplanar_strip(g)
    report.add("outerplane_strip", str(strip is not None).lower())
    cog = recognize.cograph_cotree(g)
    report.add("cograph", str(cog.cotree is not None).lower())
    report.add("claw_free", str(recognize.is_claw_free(g)).lower())
    return EXIT_OK


def _write_roles(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value}\n")


def _cmd_generate(args, report):
    roles_out = args.roles_out or args.out + ".roles"
    if args.gadget:
        if args.gadget == "S":
            if args.k is None:
                raise OrientkitError("--gadget S needs --k")
            g, meta = instances.ladder_gadget(args.k)
        elif args.gadget == "F":
            if args.k is None or args.i is None:
                raise OrientkitError("--gadget F needs --i and --k")
            g, meta = instances.head_gadget(args.i, args.k)
        else:
            if args.k is None:
                raise OrientkitError("--gadget Z needs --k (clique size)")
            g, meta = instances.double_clique_gadget(args.k)
        roles = [("kind", meta.kind)]
        roles += [(key, value) for key, value in sorted(meta.params.items())]
        if meta.spine:
            roles.append(("spine", ",".join(map(str, meta.spine))))
        if meta.head is not None:
            roles.append(("head", meta.head))
        if meta.shared is not None:
            roles.append(("shared", meta.shared))
        report.add("kind", f"gadget-{meta.kind}")
    elif args.tight:
        if args.param is None:
            raise OrientkitError("--tight needs --param")
        if args.tight == "split":
            g = instances.split_tight_example(args.param)
        else:
            g = instances.block_tight_example(args.param)
        roles = [("kind", f"tight-{args.tight}"), ("param", args.param)]
        report.add("kind", f"tight-{args.tight}")
    elif args.random:
        if args.size is None:
            raise OrientkitError("--random needs --size")
        k = args.k if args.k is not None else 3
        g = instances.random_class_instance(args.random, args.size,
                                            args.seed, k)
        roles = [("kind", f"random-{args.random}"), ("size", args.size),
                 ("seed", args.seed)]
        report.add("kind", f"random-{args.random}")
        report.add("seed", args.seed)
    else:
        return _cmd_reduce_common(args.reduce_vc, args.k, args.out,
                                  roles_out, report)
    write_graph(g, args.out)
    _write_roles(roles_out, roles)
    report.add("n", g.n)
    report.add("m", g.m)
    report.add("graph", args.out)
    report.add("roles", roles_out)
    return EXIT_OK


def _cmd_reduce_common(graph_path, k, out, roles_out, report):
    if k is None:
        raise OrientkitError("reduction needs --k")
    g = read_graph(graph_path)
    red = instances.reduce_vertex_cover(g, k)
    write_graph(red.graph, out)
    roles = [("kind", "reduce-vc"), ("k", k), ("k_prime", red.k_prime),
             ("clique", ",".join(map(str, red.clique_vertices))),
             ("independent", ",".join(map(str, red.independent_vertices)))]
    for ev, (u, v) in sorted(red.iset_edge.items()):
        roles.append((f"edge_vertex_{ev}", f"{u},{v}"))
    _write_roles(roles_out, roles)
    report.add("kind", "reduce-vc")
    report.add("k_prime", red.k_prime)
    report.add("n", red.graph.n)
    report.add("m", red.graph.m)
    report.add("graph", out)
    report.add("roles", roles_out)
    return EXIT_OK


def _cmd_kernelize(args, report):
    g = read_graph(args.graph)
    report.add("input_sha256", _hash_file(args.graph))
    if args.kind == "split":
        kernel, k = instances.split_kernel(g, args.k)
    else:
        kernel, k = instances.cobipartite_kernel(g, args.k)
    write_graph(kernel, args.out)
    report.add("k", k)
    report.add("kernel_n", kernel.n)
    report.add("kernel_m", kernel.m)
    report.add("changed", str(kernel != g).lower())
    report.add("graph", args.out)
    return EXIT_OK


def _cmd_reduce(args, report):
    report.add("input_sha256", _hash_file(args.graph))
    roles_out = args.roles_out or args.out + ".roles"
    return _cmd_reduce_common(args.graph, args.k, args.out, roles_out, report)


def dispatch(argv) -> int:
    args = _PARSER.parse_args(argv)
    report = Report(["orientkit"] + list(argv))
    handler = {"solve": _cmd_solve, "orient": _cmd_orient,
               "verify": _cmd_verify, "recognize": _cmd_recognize,
               "generate": _cmd_generate, "kernelize": _cmd_kernelize,
               "reduce": _cmd_reduce}[args.cmd]
    try:
        code = handler(args, report)
    except BudgetExceeded as exc:
        report.add("budget_exceeded", "true")
        report.add("error", str(exc))
        code = EXIT_BUDGET
    except (OrientkitError, ValueError, OSError) as exc:
        report.add("error", str(exc))
        code = EXIT_PRECONDITION
    except (MemoryError, RecursionError) as exc:
        # a MemoryError's own message is often empty: name what ran out
        report.add("error", str(exc) if isinstance(exc, RecursionError)
                   else "out of memory")
        code = EXIT_PRECONDITION
    return report.emit(code)


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
