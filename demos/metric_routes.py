"""Two independent routes to the Delaunay star of a perturbed metric.

A smooth displacement field phi = id + disp with certified Lipschitz
bound turns the Euclidean distance into the pullback metric
d(x, y) = |phi(x) - phi(y)|. The star of the deep interior can then be
computed two ways: exactly, as the pulled back Delaunay complex of the
image points, or generically, by hunting equidistant witness points with
Newton iterations. The demo runs both on the same field and shows that
they agree simplex for simplex, ball for ball.
"""

from delgen.datasets import grid_points
from delgen.genericity import analyze_genericity
from delgen.metric import Box, DisplacementField, MetricModel, metric_delaunay
from delgen.perturb import measured_secure_params, protection_decay_trial


def main():
    pts = grid_points(9, 2, jitter=0.2, seed=3)
    # One analysis: every later stage reads its hull, complex and budgets.
    analysis = analyze_genericity(pts)
    region = analysis.classification.region
    params = measured_secure_params(analysis)
    amplitude = params.budget().rho_metric / 2.0
    field = DisplacementField(2, amplitude, seed=7)
    model = MetricModel.pullback(field, Box.around(pts, 3.0 * params.eps))

    print(f"Displacement field: amplitude {amplitude:.3e}, "
          f"Lipschitz < {field.lipschitz:.2e}")
    print(f"  metric deviation bound 2a = {model.rho_bound:.3e}"
          f"  vs budget {params.budget().rho_metric:.3e}\n")

    kw = dict(eps=params.eps, upsilon0=params.upsilon0, mu0=params.mu0)
    exact = metric_delaunay(pts, model, region, path="pullback", **kw)
    newton = metric_delaunay(pts, model, region, path="newton", **kw)
    print(f"  pullback route: {len(exact.complex.simplices(2))} top simplices, "
          f"certified {exact.certified}")
    print(f"  newton route:   {len(newton.complex.simplices(2))} top simplices, "
          f"certified {newton.certified}")
    print(f"  complexes equal: {exact.complex == newton.complex}")

    worst = max(abs(exact.balls[s].radius - newton.balls[s].radius)
                for s in exact.balls if s in newton.balls)
    print(f"  worst ball radius disagreement: {worst:.3e}\n")

    verdict = protection_decay_trial(analysis, field=field)
    print(f"  protection decay trial: passed {verdict.passed}, "
          f"decay bound {verdict.measured['decay']:.3e}, "
          f"worst residual {verdict.measured['worst_residual']:+.3e}")


if __name__ == "__main__":
    main()
