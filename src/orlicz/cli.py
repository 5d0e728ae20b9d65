"""Scenario-driven command line: load a scenario, run one computation or the
full verification suite, and emit a deterministic report.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
scenario error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from . import adjoint as adjoint_mod
from . import compop, lp, norms
from .extreal import encode_json
from .measure import SimpleFunction, radon_nikodym
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    parse_young_spec,
    read_document,
    serialize_scenario,
)
from .suite import verify_suite
from .tails import UnresolvedTail
from .verdicts import PreconditionError
from .young import conjugate as young_conjugate

SEED_ENV = "ORLICZ_SEED"


def _emit(report: dict, fmt: str) -> None:
    report = dict(report)
    report["version"] = __version__
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    enc = encode_json(report)
    if fmt == "structured":
        json.dump(enc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    def walk(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}{i}.", v)
        else:
            print(f"{prefix[:-1]}: {value}")
    walk("", enc)


def _scenario_from_args(args) -> Scenario:
    """The scenario named by --scenario, which every command reading one requires."""
    if args.depth is None:
        return load_scenario(args.scenario)
    # Truncation-depth override: patch the document and re-validate.
    doc = read_document(args.scenario)
    space = doc.get("space")
    if not isinstance(space, dict) or space.get("kind") != "countable":
        raise ScenarioError("--depth only applies to countable spaces")
    space["depth"] = args.depth
    return parse_scenario(doc)


def _probe_range_from_args(args) -> Optional[tuple]:
    spec = getattr(args, "range", None)
    if spec is None:
        return None
    try:
        lo, hi = (float(t) for t in spec.split(":"))
    except ValueError as exc:
        raise ScenarioError(f"bad probe range {spec!r} (expected lo:hi)") from exc
    return (lo, hi)


def _young_from_args(args, sc: Scenario):
    spec = args.young
    if spec:
        if sc.youngs.get(spec) is not None:
            return sc.young(spec)
        return parse_young_spec(spec)
    if sc.youngs:
        return next(iter(sc.youngs.values()))
    raise ScenarioError("no Young function given (use --young or a scenario)")


def _base_report(args, command: str, sc: Optional[Scenario]) -> dict:
    params = {
        "tol": args.tol,
        "seed": args.seed,
        "format": args.format,
    }
    if getattr(args, "depth", None) is not None:
        params["depth"] = args.depth
    if getattr(args, "range", None) is not None:
        params["probe_range"] = args.range
    report = {"command": command, "params": params}
    if sc is not None:
        report["scenario"] = serialize_scenario(sc)
    return report


def cmd_norm(args) -> int:
    sc = _scenario_from_args(args)
    phi = _young_from_args(args, sc)
    f = sc.function(args.function)
    report = _base_report(args, "norm", sc)
    lux = norms.luxemburg_norm(phi, f, rel_tol=args.tol)
    report["young"] = phi.descriptor()
    report["luxemburg"] = lux.to_dict()
    try:
        report["orlicz"] = norms.orlicz_norm(phi, f).to_dict()
    except ValueError as exc:
        report["orlicz"] = {"error": str(exc)}
    try:
        report["modular"] = norms.modular(phi, f)
    except Exception as exc:
        report["modular"] = {"error": str(exc)}
    _emit(report, args.format)
    return 0


def cmd_conjugate(args) -> int:
    phi = parse_young_spec(args.young)
    psi = young_conjugate(phi)
    report = _base_report(args, "conjugate", None)
    report["young"] = phi.descriptor()
    report["conjugate"] = psi.descriptor()
    report["biconjugate"] = young_conjugate(psi).descriptor()
    _emit(report, args.format)
    return 0


def cmd_hderiv(args) -> int:
    sc = _scenario_from_args(args)
    tr = sc.map(args.map)
    h = radon_nikodym(tr)
    report = _base_report(args, "hderiv", sc)
    report["h"] = h.to_dict()
    report["bijective"] = tr.is_bijective
    _emit(report, args.format)
    return 0


def cmd_density(args) -> int:
    sc = _scenario_from_args(args)
    phi = _young_from_args(args, sc)
    tr = sc.map(args.map)
    dv = compop.density_verdict(phi, tr)
    report = _base_report(args, "density", sc)
    report["young"] = phi.descriptor()
    report["verdict"] = dv.to_dict()
    _emit(report, args.format)
    return 0


def cmd_domain(args) -> int:
    sc = _scenario_from_args(args)
    phi = _young_from_args(args, sc)
    tr = sc.map(args.map)
    f = sc.function(args.function)
    report = _base_report(args, "domain", sc)
    report["young"] = phi.descriptor()
    report["member"] = compop.domain_membership(phi, tr, f)
    _emit(report, args.format)
    return 0


def cmd_approximate(args) -> int:
    sc = _scenario_from_args(args)
    phi = _young_from_args(args, sc)
    tr = sc.map(args.map)
    f = sc.function(args.function)
    report = _base_report(args, "approximate", sc)
    entries = []
    n = 2
    while n <= args.max_index:
        _, diag = compop.truncation_approximants(phi, tr, f, n)
        entries.append({"n": n, **diag.to_dict()})
        n *= 2
    report["approximants"] = entries
    _emit(report, args.format)
    return 0


def cmd_bounded(args) -> int:
    sc = _scenario_from_args(args)
    phi = _young_from_args(args, sc)
    tr = sc.map(args.map)
    bd = compop.boundedness_verdict(phi, tr)
    report = _base_report(args, "bounded", sc)
    report["young"] = phi.descriptor()
    report["verdict"] = bd.to_dict()
    _emit(report, args.format)
    return 0


def cmd_lp_check(args) -> int:
    sc = _scenario_from_args(args)
    tr = sc.map(args.map)
    u = sc.function(args.weight) if args.weight else SimpleFunction.constant(sc.space, 1.0)
    spec = lp.WeightedCompositionSpec(u, tr, args.p, args.q)
    report = _base_report(args, "lp-check", sc)
    report["p"], report["q"] = args.p, args.q
    report["density"] = lp.lp_density_verdict(tr, args.p).to_dict()
    report["weighted_index"] = lp.weighted_comp_index(spec).to_dict()
    report["weighted_density"] = lp.weighted_density_verdict(spec).to_dict()
    if args.function:
        f = sc.function(args.function)
        report["multiplication_equivalence"] = lp.multiplication_equivalence_check(
            f, tr, args.p
        ).to_dict()
        report["weighted_norm_identity"] = lp.weighted_norm_identity_check(spec, f)
    _emit(report, args.format)
    return 0


def cmd_adjoint_check(args) -> int:
    sc = _scenario_from_args(args)
    phi = _young_from_args(args, sc)
    tr = sc.map(args.map)
    f = sc.function(args.function)
    g = sc.function(args.dual_function)
    probe_range = _probe_range_from_args(args)
    rep = adjoint_mod.duality_pairing_check(phi, tr, f, g, tol=args.tol, probe_range=probe_range)
    report = _base_report(args, "adjoint-check", sc)
    report["young"] = phi.descriptor()
    report["report"] = rep.to_dict()
    if tr.is_bijective:
        try:
            j, verdict, checks = adjoint_mod.adjoint_density_index(
                phi, tr, samples=[g], probe_range=probe_range
            )
            report["density_index"] = j.to_dict()
            report["density_verdict"] = verdict.to_dict()
            report["containment_checks"] = list(checks)
        except PreconditionError as exc:
            report["density_index"] = {"skipped": str(exc)}
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    scenarios = []
    for path in args.scenarios or []:
        scenarios.append(load_scenario(path))
    rep = verify_suite(seed=args.seed, count=args.count, scenarios=scenarios)
    report = _base_report(args, "verify", None)
    report["suite"] = rep.to_dict()
    _emit(report, args.format)
    return 0 if rep.ok else 1


def _global_flags(suppress: bool) -> argparse.ArgumentParser:
    """The flags every command accepts, before or after the subcommand.

    Subparsers get them with ``suppress`` set, so a flag left out after the
    subcommand does not overwrite the value given (or defaulted) before it.
    """
    def default(value):
        return argparse.SUPPRESS if suppress else value

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--tol", type=float, default=default(1e-12),
                       help="solver tolerance (default 1e-12)")
    flags.add_argument("--depth", type=int, default=default(None), help="truncation depth override")
    flags.add_argument(
        "--seed", type=int, default=default(int(os.environ.get(SEED_ENV, "42"))),
        help=f"random seed (default 42; env {SEED_ENV} overrides)",
    )
    flags.add_argument(
        "--range", type=str, default=default(None), help="probe interval lo:hi (default 1e-6:1e6)"
    )
    flags.add_argument(
        "--format", choices=("text", "structured"), default=default("text"),
        help="report format (default text)",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description=(
            "Orlicz-space numerics on discrete measure spaces: norms, "
            "composition-operator domains, adjoints, and a property-based "
            "verification suite."
        ),
        parents=[_global_flags(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _global_flags(suppress=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, parents=[flags])

    p = command("norm", "Luxemburg and Orlicz norms of a scenario function")
    p.add_argument("function")
    p.add_argument("--scenario", required=True)
    p.add_argument("--young", default=None, help="name in the scenario or inline family:args")
    p.set_defaults(fn=cmd_norm)

    p = command("conjugate", "analytic complementary function")
    p.add_argument("--young", required=True)
    p.set_defaults(fn=cmd_conjugate)

    p = command("hderiv", "Radon-Nikodym derivative of a map")
    p.add_argument("map")
    p.add_argument("--scenario", required=True)
    p.set_defaults(fn=cmd_hderiv)

    p = command("density", "dense-definedness trichotomy for a map")
    p.add_argument("map")
    p.add_argument("--scenario", required=True)
    p.add_argument("--young", default=None)
    p.set_defaults(fn=cmd_density)

    p = command("domain", "operator-domain membership of a function")
    p.add_argument("function")
    p.add_argument("--scenario", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--young", default=None)
    p.set_defaults(fn=cmd_domain)

    p = command("approximate", "truncation approximants and diagnostics")
    p.add_argument("function")
    p.add_argument("--scenario", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--young", default=None)
    p.add_argument("--max-index", type=int, default=64)
    p.set_defaults(fn=cmd_approximate)

    p = command("bounded", "boundedness versus everywhere-definedness")
    p.add_argument("map")
    p.add_argument("--scenario", required=True)
    p.add_argument("--young", default=None)
    p.set_defaults(fn=cmd_bounded)

    p = command("lp-check", "p-th power specialization checks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--weight", default=None, help="scenario function used as the weight u")
    p.add_argument("--function", default=None)
    p.set_defaults(fn=cmd_lp_check)

    p = command("adjoint-check", "adjoint formula and duality pairing")
    p.add_argument("--scenario", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--young", default=None)
    p.add_argument("--function", required=True, help="element paired through the operator")
    p.add_argument("--dual-function", required=True, help="dual-side element")
    p.set_defaults(fn=cmd_adjoint_check)

    p = command("verify", "run the full verification suite")
    p.add_argument("--count", type=int, default=200, help="random instances (default 200)")
    p.add_argument("--scenarios", nargs="*", default=None, help="extra scenario files")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except UnresolvedTail as exc:
        print(f"inconclusive: {exc.reason} (certified bounds [{exc.lower}, {exc.upper}])",
              file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
