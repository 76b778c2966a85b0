"""Walkthrough: exact decision, optimization, and exhaustive enumeration.

Run with:  python3 demos/02_exact_solver.py
"""

from orientkit import (Graph, decide_k_orientation, disjoint_union,
                       enumerate_proper_k_orientations, fpt_chordal,
                       proper_orientation_number)

print("== decision ==")
k3 = Graph.complete(3)
print("K_3 admits a proper 1-orientation?",
      decide_k_orientation(k3, 1) is not None)
d = decide_k_orientation(k3, 2)
print("K_3 at bound 2: indegrees", d.indegree)

print()
print("== optimization climbs from the clique floor ==")
for name, g in [("K_4", Graph.complete(4)),
                ("star with 3 leaves", Graph.star(3)),
                ("C_5", Graph.cycle_graph(5))]:
    value, witness = proper_orientation_number(g)
    print(f"{name}: orientation number {value}, witness {witness.indegree}")

print()
print("== enumeration ==")
print("proper 2-orientations of K_3 (all transitive):",
      sum(1 for _ in enumerate_proper_k_orientations(k3, 2)))

print()
print("== disjoint unions ==")
g1, g2 = Graph.complete(3), Graph.star(3)
v1 = proper_orientation_number(g1)[0]
v2 = proper_orientation_number(g2)[0]
vu = proper_orientation_number(disjoint_union(g1, g2))[0]
print(f"components: {v1} and {v2}; union solves to {vu};",
      "rule gives", max(v1, v2))

print()
print("== chordal shortcut ==")
print("K_6 at bound 3 is rejected without search (clique ceiling):",
      fpt_chordal(Graph.complete(6), 3, node_budget=0) is None)
