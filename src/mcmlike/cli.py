"""Command-line front end: every capability as a subcommand over model files.

Exit codes encode verdicts for scripting: 0 = positive verdict, 1 =
negative verdict, 2 = operational error (bad file, bad flags, I/O).  All
reports are deterministic given the flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Tuple

from .arith import (
    InvalidPoleDataKey,
    PoleData,
    check_condition,
    leading_eigenvalue,
    leading_eigenvalue_exact,
    power_iteration_eigenvalue,
    transition_matrix,
)
from .dynamics import ComplexPoly, MapLike, NonConvergence, orbit_points
from .model import (
    HpcfpModel,
    MultiplierNotZero,
    NotHpcfp,
    classify_polynomial,
    normalize_type,
    riemann_hurwitz_check,
    types_equal,
)
from .model_io import ModelFile, load_model
from .render import (
    RenderSpec,
    check_ray,
    check_symmetry_order,
    classify_grid,
    grid_to_text,
    radial_profile,
    rotational_symmetry_score,
    write_ppm,
)

# verify, skew and surgery are imported by the commands that use them, so
# that check, eig, classify and typecmp start without them.


def __getattr__(name: str):
    # The benchmark's tracer test reads cli.census_at_depth.
    if name == "census_at_depth":
        from .skew import census_at_depth

        return census_at_depth
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    """Operational error: reported on stderr, exit code 2."""


def _complex_arg(tok: str) -> complex:
    try:
        return complex(tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {tok!r}") from exc


def _cfmt(z: complex) -> str:
    re_part = z.real + 0.0  # normalize -0.0
    im_part = z.imag + 0.0
    return f"{re_part:.6g}{im_part:+.6g}i"


def _load(path: str) -> ModelFile:
    try:
        return load_model(path)
    except FileNotFoundError as exc:
        raise CliError(f"no such file: {path}") from exc


def _model(mf: ModelFile) -> HpcfpModel:
    """The file's abstract model, or its polynomial classified with the
    file's ``maxIter``."""
    if mf.abstract is not None:
        return mf.abstract
    return classify_polynomial(mf.polynomial, max_iter=mf.verify_params().max_iter)


def _resolve(mf: ModelFile) -> Tuple[HpcfpModel, PoleData]:
    """Model + pole data for condition-style commands.

    A classified polynomial must be postcritically finite: an escaping
    critical orbit raises NotHpcfp naming the first such critical point.
    """
    model = _model(mf)
    escaping = [a.point for a in model.criticals if a.cycle is None]
    if escaping:
        raise NotHpcfp(f"critical orbit from {escaping[0]} escapes; not postcritically finite")
    pd = mf.pole_data
    if pd is None:
        raise CliError("model file has no pole_data")
    if mf.abstract is None:  # load_model validated an abstract file's pole data
        pd.validate(model)
    return model, pd


def cmd_check(args) -> int:
    mf = _load(args.model)
    model, pd = _resolve(mf)
    report = check_condition(model, pd)
    for cc in report.per_cycle:
        verdict = "OK" if cc.holds else "FAIL"
        print(f"cycle {cc.cycle}: {cc.product.numerator}/{cc.product.denominator} < 1 {verdict}")
    print(f"condition: {'holds' if report.overall else 'fails'}")
    return 0 if report.overall else 1


def cmd_eig(args) -> int:
    mf = _load(args.model)
    model, pd = _resolve(mf)
    tm = transition_matrix(model, pd, args.cycle)
    prod, period = leading_eigenvalue_exact(tm)
    lam = leading_eigenvalue(tm)
    pit = power_iteration_eigenvalue(tm)
    diff = abs(lam - pit)
    print(f"cycle {args.cycle}: product {prod.numerator}/{prod.denominator} period {period}")
    print(f"lambda {lam:.12f}")
    print(f"power-iteration {pit:.12f} diff {diff:.3e}")
    return 0 if prod < 1 else 1


def cmd_classify(args) -> int:
    if args.poly is not None and args.model is not None:
        raise CliError("give either --poly or a model file, not both")
    if args.poly is not None:
        toks = [t for t in args.poly.split(",") if t.strip()]
        if len(toks) < 2:
            raise CliError("--poly needs at least two coefficients (ascending)")
        try:
            coeffs = [complex(t.strip()) for t in toks]
        except ValueError as exc:
            raise CliError(f"bad coefficient in --poly: {exc}") from exc
        poly = ComplexPoly(coeffs)
        if poly.degree < 2:
            raise CliError("polynomial degree must be >= 2")
        mf = ModelFile(polynomial=poly)
    elif args.model is not None:
        mf = _load(args.model)
    else:
        raise CliError("give --poly or a model file")

    try:
        model = _model(mf)
    except (NotHpcfp, MultiplierNotZero) as exc:
        print(f"not classifiable: {exc}")
        return 1

    n_cycles = len(model.cycles)
    if n_cycles == 1:
        c = model.cycles[0]
        print(f"N=1 p={c.period} degrees {','.join(str(d) for d in c.degrees)}")
    else:
        print(f"N={n_cycles}")
        for c in model.cycles:
            print(f"cycle {c.index}: p={c.period} degrees {','.join(str(d) for d in c.degrees)}")
    for a in model.criticals:
        if a.cycle is None:
            print(f"critical {_cfmt(a.point)} mult {a.multiplicity} -> escapes")
        else:
            tail = f" preperiod {a.preperiod}" if a.preperiod else ""
            print(f"critical {_cfmt(a.point)} mult {a.multiplicity} -> cycle {a.cycle} phase {a.phase}{tail}")
    print(f"rh check: {'OK' if riemann_hurwitz_check(model) else 'FAIL'}")
    return 0 if model.is_hpcfp else 1


def cmd_plan(args) -> int:
    from .surgery import (
        ClosureError,
        ConditionFails,
        EmptyPoleSet,
        NoSlack,
        compute_alpha_beta,
        plan_levels,
        r_threshold,
    )

    mf = _load(args.model)
    model, pd = _resolve(mf)
    try:
        sc = compute_alpha_beta(model, pd, args.cycle, seed=args.seed)
    except ConditionFails as exc:
        print(f"condition fails: {exc}")
        return 1
    except (EmptyPoleSet, ClosureError) as exc:  # not verdicts: exit 2
        raise CliError(str(exc)) from exc
    try:
        rstar = r_threshold(sc, args.groetzsch_c)
    except NoSlack as exc:
        print(f"no slack: {exc}")
        return 1
    r = args.r if args.r is not None else rstar / 2
    if args.r is None and r == 0:
        raise CliError(f"default r = r*/2 underflows to 0 (r* = {rstar:.15g})")
    plan = plan_levels(sc, r, args.groetzsch_c, strict=False)
    print(f"cycle {args.cycle}: period {sc.period} pole phases {','.join(str(j) for j in sc.phases)}")
    print(f"M {sc.M:.15g}")
    print(f"r {r:.15g} groetzsch_c {args.groetzsch_c:.15g} r* {rstar:.15g}")
    for j in sc.phases:
        lout, lin, linf = plan.levels[j]
        print(
            f"phase {j}: alpha {sc.alpha[j]:.15g} beta {sc.beta[j]:.15g} "
            f"delta {plan.delta[j]:.15g}"
        )
        print(f"phase {j}: Lout {lout:.15g} Lin {lin:.15g} Linf {linf:.15g}")
    print(f"levels ordered: {'OK' if plan.point_i else 'FAIL'}")
    print(f"modulus identity: {'OK' if plan.point_ii else 'FAIL'}")
    print(f"non-recurrence: {'OK' if plan.point_iii else 'FAIL'}")
    ok = plan.point_i and plan.point_ii and plan.point_iii
    print(f"plan: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .verify import verify_family

    mf = _load(args.model)
    if mf.family is None:
        raise CliError("verify needs a model file with a family")
    model, pd = _resolve(mf)
    f = mf.build_map(lambda_override=args.lam)
    verdict = verify_family(f, model, pd, mf.verify_params())
    print(f"degree: {'OK' if verdict.degree_ok else 'FAIL'}")
    if verdict.census is not None:
        print(
            f"census: OK (free {len(verdict.census.free_criticals)}, nu {verdict.census.nu}, "
            f"map degree {verdict.census.map_degree})"
        )
    else:
        print("census: FAIL (unavailable)")
    if verdict.orbit_report is not None:
        good = sum(1 for e in verdict.orbit_report.entries if e.consistent)
        print(
            f"orbits: {'OK' if verdict.critical_orbits_ok else 'FAIL'} "
            f"({good}/{len(verdict.orbit_report.entries)} consistent)"
        )
    else:
        print("orbits: FAIL (unavailable)")
    print(f"untouched cycles: {'OK' if verdict.untouched_cycles_ok else 'FAIL'}")
    for cc in verdict.condition_report.per_cycle:
        print(f"condition cycle {cc.cycle}: {cc.product.numerator}/{cc.product.denominator}")
    print(f"condition: {'holds' if verdict.condition_holds else 'fails'}")
    for line in verdict.details:
        print(f"detail: {line}")
    if verdict.note:
        print(f"note: {verdict.note}")
    ok = verdict.passed and verdict.condition_holds
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_skew(args) -> int:
    from .skew import census_at_depth, unburied_oracle

    if args.n < 1 or args.d < 1:
        raise CliError("--n and --d must be >= 1")
    if not (2 <= args.depth <= 20):
        raise CliError("--depth must be in [2, 20]")
    horizon = args.horizon if args.horizon is not None else args.depth - 1
    if not (0 <= horizon <= args.depth - 1):
        raise CliError("--horizon must be in [0, depth-1]")
    census = census_at_depth(args.depth, horizon)
    print(f"skew n={args.n} d={args.d} depth {args.depth} horizon {horizon}")
    print(f"unburied {census.unburied}")
    print(f"buried_preperiodic {census.buried_preperiodic}")
    print(f"undetermined {census.undetermined}")
    print(f"total {census.total}")
    oracle = unburied_oracle(args.depth, horizon).bit_count()
    agree = oracle == census.unburied
    print(f"oracle: {'OK' if agree else 'FAIL'} ({oracle} unburied)")
    return 0 if agree else 1


def _render_attractors(mf: ModelFile, fmap: MapLike) -> Tuple[Optional[list], Optional[str]]:
    """(attractors, note) to seed a render of ``fmap`` with.

    A polynomial contributes every bounded cycle of its model.  A family
    contributes the untouched cycles that persist under the perturbation,
    by the test ``verify`` applies, each as the orbit of the point Newton
    found.  An unclassifiable polynomial gives no attractors and a note.
    Pole data, when present, must fit the classified model, as in ``check``.
    """
    from .verify import untouched_cycle_checks

    try:
        model = _model(mf)
    except (NotHpcfp, MultiplierNotZero) as exc:
        return None, f"no attractors: {exc}"
    if mf.pole_data is not None:
        mf.pole_data.validate(model)
    if mf.family is None:
        return [(c.points, c.period) for c in model.cycles], None
    checks = untouched_cycle_checks(fmap, model, mf.pole_data)
    return [(orbit_points(fmap, c.found, c.period), c.period) for c in checks if c.persisted], None


def cmd_render(args) -> int:
    mf = _load(args.model)
    if mf.polynomial is None:
        raise CliError("render needs a model file with a polynomial")
    fmap = mf.build_map(lambda_override=args.lam)
    attractors, note = _render_attractors(mf, fmap)
    spec = RenderSpec(
        map=fmap,
        width=args.width,
        height=args.height,
        center=args.center,
        half_width=args.half_width,
        max_iter=args.max_iter,
        escape_radius=args.escape_radius,
        attractors=attractors,
    )
    if args.diagnostics:
        check_symmetry_order(args.symmetry_order)
        check_ray(args.ray_angle, args.ray_rmin, args.ray_rmax, args.ray_samples)
    grid = classify_grid(spec)
    write_ppm(grid, args.out)
    print(f"wrote {args.out} ({os.path.getsize(args.out)} bytes)")
    if note:
        print(note)
    if args.text:
        with open(args.text, "w", encoding="utf-8") as fh:
            fh.write(grid_to_text(grid))
        print(f"wrote {args.text}")
    if args.diagnostics:
        score = rotational_symmetry_score(grid, args.symmetry_order)
        print(f"symmetry order {args.symmetry_order}: {score:.6f}")
        prof = radial_profile(spec, args.ray_angle, args.ray_rmin, args.ray_rmax, args.ray_samples)
        print(f"ray angle {args.ray_angle:g}: alternations {prof.alternations}")
    return 0


def cmd_typecmp(args) -> int:
    mfa = _load(args.model_a)
    mfb = _load(args.model_b)
    if mfa.polynomial is None or mfb.polynomial is None:
        raise CliError("typecmp needs polynomial models")
    ta = normalize_type(mfa.polynomial, pole_data=mfa.pole_data, model=_model(mfa))
    tb = normalize_type(mfb.polynomial, pole_data=mfb.pole_data, model=_model(mfb))
    equal = types_equal(ta, tb)
    print("types equal" if equal else "types differ")
    return 0 if equal else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mcmlike", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="exact condition check per cycle")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eig", help="transition-matrix leading eigenvalue")
    p.add_argument("model")
    p.add_argument("--cycle", type=int, default=1)
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("classify", help="classify a polynomial's bounded cycles")
    p.add_argument("model", nargs="?")
    p.add_argument("--poly", help="comma-separated coefficients, ascending (complex literals)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("plan", help="surgery constants and equipotential levels")
    p.add_argument("model")
    p.add_argument("--cycle", type=int, default=1)
    p.add_argument("--r", type=float, default=None, help="base level in (0,1); default r*/2")
    p.add_argument("--groetzsch-c", type=float, default=1.0, dest="groetzsch_c",
                   help="free constant C of the cross-domain modulus bound (not derived); r* depends on it")
    p.add_argument("--seed", type=float, default=1.0, help="alpha seed at the first pole phase")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="numerical checks for a rational family member")
    p.add_argument("model")
    p.add_argument("--lambda", dest="lam", type=_complex_arg, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("skew", help="symbolic census of the model skew product")
    p.add_argument("--n", type=int, default=2, help="printed label only; no count depends on it")
    p.add_argument("--d", type=int, default=2, help="printed label only; no count depends on it")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("render", help="render an orbit-classification image")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--center", type=_complex_arg, default=0j)
    p.add_argument("--half-width", type=float, default=1.5, dest="half_width")
    p.add_argument("--max-iter", type=int, default=512, dest="max_iter")
    p.add_argument("--escape-radius", type=float, default=None, dest="escape_radius")
    p.add_argument("--lambda", dest="lam", type=_complex_arg, default=None)
    p.add_argument("--text", default=None, help="also write a text class matrix here")
    p.add_argument("--diagnostics", action="store_true")
    p.add_argument("--symmetry-order", type=int, default=2, dest="symmetry_order")
    p.add_argument("--ray-angle", type=float, default=0.1, dest="ray_angle")
    p.add_argument("--ray-rmin", type=float, default=1e-3, dest="ray_rmin")
    p.add_argument("--ray-rmax", type=float, default=1.6, dest="ray_rmax")
    p.add_argument("--ray-samples", type=int, default=4096, dest="ray_samples")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("typecmp", help="compare normalized types of two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.set_defaults(func=cmd_typecmp)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ParseError and SchemaError are ValueErrors; NonConvergence is a solver
    # failure, not a verdict.
    except (CliError, InvalidPoleDataKey, NotHpcfp, MultiplierNotZero, NonConvergence,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
