"""Initial-degree tables for every named configuration family.

Walks the generators, computes alpha(kZ) for small k with certified
searches, and prints the step pattern next to each family. Slow growth is
the interesting regime: steps of 1 force collinearity, and long runs of
steps of 2 point at conics.
"""

from fatpoints.configs import (
    collinear,
    dual_hesse,
    general,
    on_conic,
    rational_nodal_nodes,
    star,
    star_minus_one,
    two_nodal_union,
    type9,
)
from fatpoints.linsys import alpha_sequence


def show(name, points, k_max=5):
    rep = alpha_sequence(points, k_max, certify_existence=True)
    steps = ",".join(str(d) for d in rep.diffs)
    print(f"{name:34s} r={len(points):2d}  alphas={list(rep.alphas)}  steps={steps}")


def main():
    show("collinear(5)", collinear(5))
    show("on_conic(6)", on_conic(6))
    show("general(3, seed=11)", general(3, seed=11, height=12), k_max=8)
    show("general(6, seed=42)", general(6, seed=42))
    show("star(3)", star(3, seed=1)[0])
    show("star(4)", star(4, seed=1)[0])
    show("star(5)", star(5, seed=1)[0])
    show("star_minus_one(4)", star_minus_one(4, seed=1), k_max=2)
    show("star_minus_one(5)", star_minus_one(5, seed=1), k_max=2)
    show("type9()", type9())
    show("dual_hesse(31)", dual_hesse(31), k_max=3)
    show("nagata16 = general(16, seed=7)", general(16, seed=7), k_max=4)

    curve, nodes = rational_nodal_nodes(5, 37, 986)
    show("nodes of a 6-nodal quintic / F_37", nodes, k_max=2)
    union = two_nodal_union(2, 2, 31, 1)
    show("two transversal conics / F_31", union, k_max=2)


if __name__ == "__main__":
    main()
