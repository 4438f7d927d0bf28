"""A guided tour of circumballs and protection on four points.

The configuration (0,0), (1,0), (0,1), (2,2) triangulates into two
triangles whose circumballs are comfortably empty; the tour prints the
balls, the protection margin of each top simplex, and then contrasts
the picture with the exactly cocircular unit square, where no positive
margin exists and the engine reports a degeneracy group instead.
"""

import numpy as np

from delgen.delaunay import delaunay_bruteforce, delaunay_lifted


def show(result, title):
    print(f"\n{title}")
    print(f"  generic: {result.generic}   tolerance: {result.tolerance:.3e}")
    for k in sorted(range(len(result.tops)), key=lambda k: result.tops[k].tolist()):
        centre = result.centres[k]
        print(f"  simplex {tuple(result.tops[k].tolist())}: centre ({centre[0]:+.4f},"
              f" {centre[1]:+.4f})  radius {result.radii[k]:.4f}"
              f"  protection {result.protections[k]:+.4f}")
    if result.degeneracy_groups:
        print(f"  degeneracy groups: {list(result.degeneracy_groups)}")


def main():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    lifted = delaunay_lifted(pts)
    brute = delaunay_bruteforce(pts)
    show(lifted, "Four generic points, lifted route")
    print(f"  brute force route agrees: {lifted.complex == brute.complex}")
    print(f"  by hand, the (0,1,2) margin is sqrt(4.5) - sqrt(0.5)"
          f" = {np.sqrt(4.5) - np.sqrt(0.5):.6f}")
    print(f"  worst protection over both triangles: {lifted.protection():.6f}")

    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    show(delaunay_lifted(square), "Exactly cocircular unit square")
    print("  every diagonal choice leaves the fourth vertex on the sphere,")
    print("  so the margin is zero and both diagonals are kept in the group.")


if __name__ == "__main__":
    main()
