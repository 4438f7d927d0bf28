"""Command line front end tying the library into reproducible experiments.

Verbs: ``gen`` (datasets), ``analyze`` (sampling + protection + certificates),
``budget`` (perturbation budgets), ``stability`` (trial batches), ``relax``
(relaxed star equality), ``metric`` (metric star equality, dual route), and
``compare`` (star isomorphism of two stored complexes).

Exit codes: 0 success, 2 I/O or usage, 3 parse failure, 4 precondition
failure, 5 a completed check failed (non-generic data, star mismatch, route
disagreement, undecided certification).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .complexes import star_isomorphic
from .datasets import delta_search, grid_points, uniform_points
from .errors import (CheckFailedError, DelgenError, NonGenericError, ParseError,
                     PreconditionError)
from .fileio import (complex_from_json, dataset_digest, envelope_csv,
                     envelope_json, format_points, read_points,
                     report_envelope, write_points)
from .genericity import analyze_genericity, lemma_audit, thickness_certificate
from .metric import DisplacementField
from .perturb import (measured_secure_params, metric_stability_trial,
                      relaxation_trial, trial_batch)


def _add_io_flags(p: argparse.ArgumentParser, *, formats=("json", "csv")) -> None:
    p.add_argument("--in", dest="infile", help="input point file")
    p.add_argument("--out", dest="outfile", help="output path (default stdout)")
    p.add_argument("--format", choices=formats, default="json")


def _add_region_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pj", default="auto",
                   help="region vertices: 'auto' (all deep interior) or comma ids")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="delgen",
        description="Protection, thickness and perturbation stability toolkit "
                    "for Delaunay complexes.",
    )
    top.add_argument("--version", action="version", version=f"delgen {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point dataset")
    p.add_argument("--kind", choices=("grid", "uniform", "delta-search"),
                   default="grid")
    p.add_argument("--side", type=int, default=9, help="grid side length")
    p.add_argument("--n", type=int, default=40, help="point count (uniform)")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--jitter", type=float, default=0.0, help="jitter radius in grid units")
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=20, help="candidates for delta-search")
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("analyze", help="sampling, protection, and certificates")
    _add_io_flags(p)
    _add_region_flag(p)

    p = sub.add_parser("budget", help="perturbation budgets from measured parameters")
    _add_io_flags(p)
    _add_region_flag(p)

    p = sub.add_parser("stability", help="batched perturbation trials")
    _add_io_flags(p, formats=("json", "csv", "jsonl"))
    _add_region_flag(p)
    p.add_argument("--budget-fraction", dest="fractions", type=float,
                   action="append", help="repeatable; default 1.0")
    p.add_argument("--seeds-count", dest="seeds", type=int, default=5)
    p.add_argument("--models", default="uniform,radial,adversarial",
                   help="comma list from uniform,radial,adversarial,relaxation,metric")
    p.add_argument("--seed", type=int, default=0, help="root seed for trial derivation")
    p.add_argument("--force", action="store_true",
                   help="run trials even when the audit gate fails")

    p = sub.add_parser("relax", help="relaxed star equality at a given slack")
    _add_io_flags(p)
    _add_region_flag(p)
    p.add_argument("--budget-fraction", dest="fraction", type=float, default=1.0)
    p.add_argument("--rho", type=float, help="absolute slack, overrides the fraction")

    p = sub.add_parser("metric", help="metric star equality, dual route")
    _add_io_flags(p)
    _add_region_flag(p)
    p.add_argument("--budget-fraction", dest="fraction", type=float, default=1.0)
    p.add_argument("--mode", choices=("thm", "cor"), default="thm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float,
                   help="absolute field amplitude, overrides the fraction")

    p = sub.add_parser("compare", help="star isomorphism of two complex files")
    p.add_argument("left", help="complex JSON file")
    p.add_argument("right", help="complex JSON file")
    p.add_argument("--mapping", help="JSON file mapping left ids to right ids")
    p.add_argument("--q", help="comma ids of the star centre (default: all left vertices)")
    p.add_argument("--out", dest="outfile")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return top


# -- helpers ---------------------------------------------------------------


def _emit(args, text: str) -> None:
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_envelope(args, config: dict, digest, timings: dict, results: dict) -> None:
    env = report_envelope(__version__, config, digest, timings, results)
    if args.format == "csv":
        _emit(args, envelope_csv(env))
    else:
        _emit(args, envelope_json(env))


def _require_infile(args) -> str:
    if not args.infile:
        raise PreconditionError("--in is required for this command")
    return args.infile


def _parse_region(pj: str):
    if pj == "auto":
        return pj
    try:
        ids = sorted({int(tok) for tok in pj.split(",") if tok.strip()})
    except ValueError:
        raise ParseError(f"bad --pj value {pj!r}") from None
    if not ids:
        raise PreconditionError("--pj selected no vertices")
    return ids


def _analysis(args):
    """Read ``--in`` and analyse it once; returns ``(digest, analysis)``."""
    pts = read_points(_require_infile(args))
    region = _parse_region(args.pj)
    return dataset_digest(pts), analyze_genericity(pts, region)


def _timings(t0: float, analysis) -> dict:
    return {"total_s": time.perf_counter() - t0, **analysis.stages}


def _sampling_dict(s) -> dict:
    return {"epsilon": s.epsilon, "sparsity": s.sparsity, "mu0": s.mu0}


def _params_dict(p) -> dict:
    return {"upsilon0": p.upsilon0, "mu0": p.mu0, "delta": p.delta,
            "eps": p.eps, "nu_tilde": p.nu_tilde}


def _budget_dict(b) -> dict:
    return {"rho_cc": b.rho_cc, "rho_point": b.rho_point,
            "rho_metric_protect": b.rho_metric_protect,
            "rho_metric": b.rho_metric, "rho_generic": b.rho_generic}


# -- commands --------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "grid":
        pts = grid_points(args.side, args.dim, args.jitter, args.seed, args.spacing)
        label = (f"grid side={args.side} dim={args.dim} jitter={args.jitter:g} "
                 f"seed={args.seed}")
    elif args.kind == "uniform":
        pts = uniform_points(args.n, args.dim, args.seed)
        label = f"uniform n={args.n} dim={args.dim} seed={args.seed}"
    else:
        found = delta_search(args.side, args.dim, args.jitter or 0.2, args.k,
                             args.seed)
        pts = found.points
        label = (f"delta-search side={args.side} dim={args.dim} k={args.k} "
                 f"seed={args.seed} delta={found.delta:.6g}")
    if args.outfile:
        write_points(args.outfile, pts, header=label)
    else:
        sys.stdout.write(format_points(pts, header=label))
    return 0


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    digest, analysis = _analysis(args)
    config = {"command": "analyze", "in": args.infile, "pj": args.pj,
              "format": args.format}
    if not analysis.deep_ids:
        base = analysis.base
        global_delta = base.protection()
        results = {
            "sampling": _sampling_dict(analysis.sampling),
            "protection": {"delta_global": global_delta,
                           "generic": bool(global_delta > base.tolerance)},
            "generic": False,
            "reason": "deep interior region is empty",
        }
        _emit_envelope(args, config, digest, _timings(t0, analysis), results)
        return 4
    audit = lemma_audit(analysis)
    results = {
        "sampling": _sampling_dict(analysis.sampling),
        "region": list(analysis.classification.region),
        "deep_interior": list(analysis.deep_ids),
        "protection": {
            "delta_global": analysis.protection.delta_global,
            "nu_tilde": analysis.protection.nu_tilde,
            "generic": analysis.protection.generic,
        },
        "audit": audit.to_json(),
        "generic": analysis.protection.generic,
    }
    code = 0
    if not analysis.protection.generic:
        results["reason"] = "audited protection within tolerance of zero"
        code = 5
    else:
        cert = thickness_certificate(analysis)
        results["thickness_certificate"] = {
            "upsilon0": cert.upsilon0,
            "min_thickness": cert.min_thickness,
            "margin": cert.margin,
            "valid": cert.valid,
        }
        params = measured_secure_params(analysis)
        results["secure_params"] = _params_dict(params)
        results["budgets"] = _budget_dict(params.budget())
        failed = [name for name, (_, bad) in audit.checks.items() if bad]
        if not cert.valid or failed:
            results["reason"] = f"failed checks: {['thickness'] if not cert.valid else failed}"
            code = 5
    _emit_envelope(args, config, digest, _timings(t0, analysis), results)
    return code


def cmd_budget(args) -> int:
    t0 = time.perf_counter()
    digest, analysis = _analysis(args)
    params = measured_secure_params(analysis)
    results = {"secure_params": _params_dict(params),
               "budgets": _budget_dict(params.budget())}
    config = {"command": "budget", "in": args.infile, "pj": args.pj,
              "format": args.format}
    _emit_envelope(args, config, digest, _timings(t0, analysis), results)
    return 0


def _gate(analysis, force: bool) -> None:
    if analysis.protection.generic:
        return
    if force and analysis.protection.delta_global > 0:
        return
    raise NonGenericError(
        f"audit gate failed, delta = {analysis.protection.delta_global:.3e}"
        + ("" if force else " (use --force to run anyway)")
    )


def cmd_stability(args) -> int:
    t0 = time.perf_counter()
    digest, analysis = _analysis(args)
    _gate(analysis, args.force)
    fractions = args.fractions or [1.0]
    models = [tok.strip() for tok in args.models.split(",") if tok.strip()]
    verdicts = trial_batch(analysis, fractions, args.seeds, models, root_seed=args.seed)
    summary: dict[str, dict] = {}
    for v in verdicts:
        label = v.name if v.model is None else f"{v.name}[{v.model}]"
        bucket = summary.setdefault(label, {})
        key = f"{v.budget_used:.9g}"
        cell = bucket.setdefault(key, {"pass": 0, "total": 0})
        cell["total"] += 1
        cell["pass"] += int(v.passed)
    config = {"command": "stability", "in": args.infile, "pj": args.pj,
              "format": args.format, "budget_fractions": fractions,
              "seeds_count": args.seeds, "models": models, "seed": args.seed,
              "force": args.force}
    gated = [v for v in verdicts if v.in_budget]
    code = 0 if all(v.passed and v.certified for v in gated) else 5
    if args.format == "jsonl":
        lines = "".join(json.dumps(v.to_json(), sort_keys=True) + "\n"
                        for v in verdicts)
        _emit(args, lines)
        return code
    results = {"summary": summary, "verdicts": [v.to_json() for v in verdicts]}
    _emit_envelope(args, config, digest, _timings(t0, analysis), results)
    return code


def cmd_relax(args) -> int:
    t0 = time.perf_counter()
    digest, analysis = _analysis(args)
    params = measured_secure_params(analysis)
    rho = args.rho if args.rho is not None else args.fraction * params.budget().rho_point
    verdict = relaxation_trial(analysis, rho)
    config = {"command": "relax", "in": args.infile, "pj": args.pj,
              "format": args.format, "rho": rho}
    _emit_envelope(args, config, digest, _timings(t0, analysis),
                   {"verdict": verdict.to_json()})
    return 0 if verdict.passed and verdict.certified else 5


def cmd_metric(args) -> int:
    t0 = time.perf_counter()
    digest, analysis = _analysis(args)
    budget = measured_secure_params(analysis).budget()
    cap = budget.rho_metric if args.mode == "thm" else budget.rho_generic
    amplitude = (args.amplitude if args.amplitude is not None
                 else args.fraction * cap / 2.0)
    field = DisplacementField(analysis.points.dim, amplitude, args.seed)
    verdict = metric_stability_trial(analysis, field, budget_mode=args.mode)
    config = {"command": "metric", "in": args.infile, "pj": args.pj,
              "format": args.format, "mode": args.mode, "seed": args.seed,
              "amplitude": amplitude}
    _emit_envelope(args, config, digest, _timings(t0, analysis),
                   {"verdict": verdict.to_json()})
    return 0 if verdict.passed and verdict.certified else 5


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    with open(args.left, "r", encoding="utf-8") as fh:
        try:
            left_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.left}: {exc}") from None
    with open(args.right, "r", encoding="utf-8") as fh:
        try:
            right_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.right}: {exc}") from None
    left = complex_from_json(left_doc)
    right = complex_from_json(right_doc)
    if args.mapping:
        with open(args.mapping, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{args.mapping}: {exc}") from None
        try:
            mapping = {int(k): int(v) for k, v in raw.items()}
        except (AttributeError, TypeError, ValueError):
            raise ParseError(f"{args.mapping}: mapping must be a JSON object "
                             "of integer ids") from None
    else:
        mapping = {v: v for v in left.vertex_ids()}
    if args.q:
        try:
            q = sorted({int(tok) for tok in args.q.split(",") if tok.strip()})
        except ValueError:
            raise ParseError(f"bad --q value {args.q!r}") from None
    else:
        q = sorted(left.vertex_ids())
    report = star_isomorphic(left, right, q, mapping)
    results = {
        "isomorphic": report.isomorphic,
        "missing": [list(s) for s in report.missing],
        "extra": [list(s) for s in report.extra],
    }
    config = {"command": "compare", "left": args.left, "right": args.right,
              "mapping": args.mapping, "q": q, "format": args.format}
    _emit_envelope(args, config, None, {"total_s": time.perf_counter() - t0},
                   results)
    return 0 if report.isomorphic else 5


_DISPATCH = {
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "budget": cmd_budget,
    "stability": cmd_stability,
    "relax": cmd_relax,
    "metric": cmd_metric,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"delgen: parse error: {exc}", file=sys.stderr)
        return 3
    except CheckFailedError as exc:
        print(f"delgen: check failed: {exc}", file=sys.stderr)
        return 5
    except PreconditionError as exc:
        print(f"delgen: precondition: {exc}", file=sys.stderr)
        return 4
    except DelgenError as exc:
        print(f"delgen: error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"delgen: i/o error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
