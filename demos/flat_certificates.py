"""Certifying lattice flats inside a product of slope graphs.

A rank-n flat is an isometric copy of Z^n: each coordinate runs along a
verified geodesic line in its own slope graph, and the product metric
must agree with the lattice metric on every pair of points in a window.
The demo certifies windows for n = 1, 2, 3, shows the factor subgraphs
are totally geodesic while the diagonal is not, and ends with the piece
arithmetic bounding the rank on a closed genus-7 surface.
"""

from fareyflats.flats import (
    SurfaceDesc,
    certify_flat,
    decompose_template,
    default_embedding,
    flat_to_dot,
    max_handles,
    subproduct_total_geodesy,
)


def main() -> None:
    print("window certificates for the default geodesic lines:")
    for n in (1, 2, 3):
        report = certify_flat(default_embedding(n), window=5)
        print(f"   rank {n}: window [-5,5]^{n},"
              f" {report['pairs_checked']} point pairs,"
              f" passed={report['passed']}")
    print()

    factor = subproduct_total_geodesy(2, 1, radius=3)
    diagonal = subproduct_total_geodesy(2, 1, radius=3, subgraph="diagonal")
    print("total geodesy inside the rank-2 product ball (radius 3):")
    print(f"   one free factor:  totally geodesic = "
          f"{factor['totally_geodesic']}"
          f" ({factor['triples_checked']} triples)")
    witness = diagonal["witness"]
    print(f"   the diagonal:     totally geodesic = "
          f"{diagonal['totally_geodesic']}"
          f" (escape via {tuple(witness['via'])})")
    print()

    surface = SurfaceDesc(genus=7, boundary=0)
    template = decompose_template(surface)
    kinds = [k.value for k in template.piece_kinds()]
    print(f"closed genus-7 surface: complexity {surface.complexity},")
    print(f"   max independent handles {max_handles(surface)},")
    print(f"   cut along {surface.complexity - max_handles(surface)} curves"
          f" into {kinds.count('one_holed_torus')} tori and"
          f" {kinds.count('four_holed_sphere')} spheres"
          f" (pants left over: {template.has_pants})")
    print()

    dot = flat_to_dot(default_embedding(2), window=1)
    print("dot rendering of the rank-2 window [-1,1]^2:")
    print(dot)


if __name__ == "__main__":
    main()
