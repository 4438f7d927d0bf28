"""How far beyond the guaranteed budget does a Delaunay star survive?

A jittered grid is analysed for its sampling and protection parameters,
which fix the perturbation budget rho = u m delta / 18 under which the
star of the deep interior is guaranteed to be preserved. Adversarial
perturbations (each point moved straight at the nearest foreign sphere)
are then applied at growing multiples of that budget until the star
finally flips, exposing how conservative the guarantee is on this input.
"""

from delgen.datasets import grid_points
from delgen.genericity import analyze_genericity
from delgen.perturb import (make_point_perturbation, measured_secure_params,
                            point_stability_trial)


def main():
    pts = grid_points(9, 2, jitter=0.2, seed=3)
    # One analysis: every later stage reads its hull, complex and budgets.
    analysis = analyze_genericity(pts)
    sampling = analysis.sampling
    params = measured_secure_params(analysis)
    budget = params.budget().rho_point

    print("Jittered 9 x 9 grid, deep interior region",
          list(analysis.classification.region))
    print(f"  sampling radius eps = {sampling.epsilon:.4f}   "
          f"sparsity = {sampling.sparsity:.4f}   mu0 = {sampling.mu0:.4f}")
    print(f"  protection delta = {params.delta:.6f}   nu = {params.nu_tilde:.6f}   "
          f"upsilon0 = {params.upsilon0:.6f}")
    print(f"  guaranteed point budget rho = {budget:.3e}\n")

    cap = 0.45 * sampling.sparsity
    multiples = [m for m in (0.25, 1.0, 10.0, 100.0, 1000.0) if m * budget < cap]
    multiples.append(cap / budget)
    print(f"  {'rho / budget':>12}  {'rho':>10}  star preserved")
    for mult in multiples:
        pert = make_point_perturbation(pts, mult * budget, seed=0,
                                       model="adversarial", base=analysis.base)
        verdict = point_stability_trial(analysis, pert)
        note = "" if verdict.passed else f"   ({len(verdict.counterexamples)} simplices differ)"
        print(f"  {mult:>12.2f}  {mult * budget:>10.3e}  {str(verdict.passed):<5}{note}")
    print("\n  the guarantee holds with room to spare; the flip only appears")
    print("  once the motion is a sizeable fraction of the interpoint gap.")


if __name__ == "__main__":
    main()
