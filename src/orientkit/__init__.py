"""orientkit: proper orientations of graphs.

A proper orientation assigns a direction to every edge so that adjacent
vertices receive distinct indegrees; the orientation number of a graph is
the least achievable maximum indegree.  The package bundles an exact
branch-and-bound solver, polynomial constructors for several graph
classes, recognizers for those classes, and generators for gadgets,
reductions, kernels, and tight examples.
"""

from .graph import (Graph, disjoint_union, format_graph, generic_bounds,
                    join, parse_graph, read_graph, write_graph)
from .orientation import (CompensationSpec, Orientation, PartialOrientation,
                          format_orientation, is_compensated_proper,
                          is_proper, max_indegree, parse_orientation,
                          read_orientation, write_orientation)
from .exact import (clique_number, decide_k_orientation,
                    enumerate_proper_k_orientations, fpt_chordal,
                    proper_orientation_number)
from .recognize import (BlockCutTree, ChordalCheck, CographCheck, CotreeJoin,
                        CotreeLeaf, CotreeUnion, SplitPartition,
                        StripDecomposition, block_cut_tree, chordal_peo,
                        clique_number_chordal, cograph_cotree,
                        cotree_postorder, evaluate_cotree, is_block_graph,
                        is_claw_free, is_k_uniform, max_cut_vertices_per_block,
                        outerplanar_strip, quasi_threshold_cotree,
                        split_partition, twin_partition)
from .construct import (ORIENT_CLASSES, OrientClass, PathBlockSequence,
                        claw_free_chordal_bound, cograph_bounds,
                        cograph_join_orient, cograph_orient,
                        cograph_upper_bound, extend_partial, extend_to_path,
                        low_degree_orient, outerplanar_strip_orient,
                        path_block_compensated, path_block_sequence,
                        quasi_threshold_orient, split_orient,
                        two_cut_block_orient, uniform_block_orient)
from .instances import (GadgetMeta, ReductionOutput, block_tight_example,
                        build_vc_certificate, cobipartite_kernel,
                        double_clique_gadget, head_gadget, ladder_gadget,
                        random_class_instance, reduce_vertex_cover,
                        split_kernel, split_tight_example)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
