"""Command line driver: build groups, check structure, decide isoclinism.

Everything prints one JSON document on stdout (or a table rendered from the
same dict under --pretty).  Exit codes: 0 all checks pass, 1 a check failed
or a decision was refuted, 2 unusable arguments, 3 a size cap was hit,
4 a search ran out of budget without an answer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import report as rp
from . import structure as st
from .constructions import build_group, parse_group_spec
from .engine import CapExceeded, FiniteGroup, GroupError
from .fields import FieldError, FieldSpec, find_irreducible, structure_constants
from .isoclinism import (SearchConfig, are_isoclinic,
                         conjugate_type_isoclinism_consistency,
                         verify_isoclinism_witness)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INCONCLUSIVE = 4

SUITES = ("a2", "structural", "presentation")


def _add_pretty(sp: argparse.ArgumentParser):
    sp.add_argument("--pretty", action="store_true",
                    help="render the report as a table instead of raw JSON")


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--cache-dir", default=None,
                    help="directory for cached results (default: $PGF_CACHE_DIR, else no cache)")
    sp.add_argument("--force", action="store_true", help="recompute cached results")
    _add_pretty(sp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgf", description="finite p-group laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    # no command draws random numbers, so none takes a seed; invariants and
    # verify cache their reports and take --cache-dir and --force
    p = sub.add_parser("invariants", help="order, class, conjugate type of a group")
    p.add_argument("spec", help="group spec, e.g. hmod:p=3,m=1")
    _add_common(p)

    p = sub.add_parser("verify", help="run a structure check suite")
    p.add_argument("spec")
    p.add_argument("suite", choices=SUITES + ("all",))
    _add_common(p)

    # an isoclinism decision is never cached, so it takes no --cache-dir;
    # its --force lifts the search cap
    p = sub.add_parser("isoclinic", help="decide isoclinism of two groups")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--force", action="store_true", help="lift the isoclinism search cap")
    _add_pretty(p)

    # structure constants are computed, never cached, so kappa takes
    # neither --cache-dir nor --force
    p = sub.add_parser("kappa", help="field structure constants as JSON")
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--modulus", default=None,
                   help="comma separated modulus coefficients, lowest degree first")
    _add_pretty(p)
    return parser


def _cache(args) -> rp.ReportCache:
    root = args.cache_dir or os.environ.get("PGF_CACHE_DIR")
    return rp.ReportCache(root)


def _emit(args, payload: dict):
    text = rp.render_pretty(payload) if args.pretty else rp.to_json(payload)
    sys.stdout.write(text)


def cmd_invariants(args) -> int:
    spec = parse_group_spec(args.spec)
    modulus = spec.field().modulus
    canonical = spec.canonical()
    cache = _cache(args)
    timings: dict = {}
    payload = None if args.force else cache.load(canonical, modulus, "invariants")
    if payload is None:
        t0 = time.perf_counter()
        g = build_group(spec)
        timings["build_ms"] = 1000 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        payload = {"summary": rp.group_summary(g), "checks": []}
        timings["invariants_ms"] = 1000 * (time.perf_counter() - t0)
        cache.store(canonical, modulus, "invariants", payload)
    report = rp.assemble_report(canonical, payload["summary"], payload["checks"], timings)
    _emit(args, report)
    return EXIT_OK


def _flatten(checks: list, suite: str, rep: st.CheckReport):
    for name, info in rep.checks.items():
        witness = {k: v for k, v in info.items() if k != "passed"}
        checks.append({
            "name": f"{suite}:{name}",
            "passed": bool(info["passed"]),
            "witness": rp.jsonable(witness),
        })


def _skip(checks: list, suite: str, reason: str):
    checks.append({"name": f"{suite}:skipped", "passed": False,
                   "witness": {"reason": reason}})


def _presentation_checks(g: FiniteGroup, profile: st.CheckReport, checks: list):
    """Frames, parameter extraction, bracket relations, frame independence.

    Returns the extracted parameter dict, or None when extraction failed.
    """
    m = profile.inferred["m"]

    def attempt(name, fn):
        try:
            return fn()
        except GroupError as e:
            checks.append({"name": f"presentation:{name}", "passed": False,
                           "witness": {"error": str(e)}})
            return None

    frame = attempt("frame_coordinate", lambda: st.lift_generator_frame(g, "coordinate", profile))
    if frame is not None:
        checks.append({"name": "presentation:frame_coordinate", "passed": True,
                       "witness": {"x": list(frame.x), "y": list(frame.y)}})
    generic = attempt("frame_generic", lambda: st.lift_generator_frame(g, "generic", profile))
    if generic is not None:
        checks.append({"name": "presentation:frame_generic", "passed": True,
                       "witness": {"x": list(generic.x), "y": list(generic.y)}})
    if frame is None:
        _skip(checks, "presentation", "no coordinate frame to extract from")
        return None
    params = attempt("params_extracted", lambda: st.extract_presentation_params(g, frame))
    if params is None:
        return None
    checks.append({"name": "presentation:params_extracted", "passed": True,
                   "witness": {"p": params.p, "m": params.m}})
    rel = st.verify_kappa_commutator_relations(g, frame)
    checks.append({"name": "presentation:kappa_relations",
                   "passed": bool(rel["passed"]), "witness": rp.jsonable(rel)})
    # the residue parameters must not depend on which frame was read:
    # compare against a generic frame when it can carry the same kappa
    # chart (m = 1), and against the frame shifted by z_1 always
    others = []
    if m == 1 and generic is not None:
        others.append(("generic", generic))
    others.append(("central_shift", st.central_shift_frame(g, frame)))
    mismatched = {}
    for label, other in others:
        res = params.compare(st.extract_presentation_params(g, other))
        if not res["passed"]:
            mismatched[label] = res["mismatched"]
    checks.append({"name": "presentation:frame_independence",
                   "passed": not mismatched,
                   "witness": {"frames_compared": len(others), "mismatched": mismatched}})
    return params.as_dict()


def cmd_verify(args) -> int:
    spec = parse_group_spec(args.spec)
    modulus = spec.field().modulus
    canonical = spec.canonical()
    selected = SUITES if args.suite == "all" else (args.suite,)
    cache = _cache(args)
    cache_key = f"verify:{args.suite}"
    timings: dict = {}
    payload = None if args.force else cache.load(canonical, modulus, cache_key)
    if payload is None:
        t0 = time.perf_counter()
        g = build_group(spec)
        timings["build_ms"] = 1000 * (time.perf_counter() - t0)
        checks: list = []
        params = None
        t0 = time.perf_counter()
        profile = st.verify_class3_profile(g)
        if "a2" in selected:
            _flatten(checks, "a2", profile)
        timings["profile_ms"] = 1000 * (time.perf_counter() - t0)
        if "structural" in selected:
            t0 = time.perf_counter()
            if profile.passed:
                _flatten(checks, "structural", st.verify_structural_suite(g, profile))
            else:
                _skip(checks, "structural", "class-3 square-type profile fails")
            timings["structural_ms"] = 1000 * (time.perf_counter() - t0)
        if "presentation" in selected:
            t0 = time.perf_counter()
            if profile.passed:
                params = _presentation_checks(g, profile, checks)
            else:
                _skip(checks, "presentation", "class-3 square-type profile fails")
            timings["presentation_ms"] = 1000 * (time.perf_counter() - t0)
        payload = {"summary": rp.group_summary(g), "checks": checks, "params": params}
        cache.store(canonical, modulus, cache_key, payload)
        # the parameter file is written by the run that extracts the
        # parameters; a cache hit writes nothing
        if params is not None:
            rp.write_json_atomic(rp.params_file_path(canonical),
                                 {"schema": rp.SCHEMA, "spec": canonical, "params": params})
    report = rp.assemble_report(canonical, payload["summary"], payload["checks"], timings)
    _emit(args, report)
    return EXIT_OK if rp.all_checks_pass(report) else EXIT_FAIL


def cmd_isoclinic(args) -> int:
    spec_a = parse_group_spec(args.spec_a)
    spec_b = parse_group_spec(args.spec_b)
    timings: dict = {}
    t0 = time.perf_counter()
    ga = build_group(spec_a)
    gb = build_group(spec_b)
    timings["build_ms"] = 1000 * (time.perf_counter() - t0)
    t0 = time.perf_counter()
    result = are_isoclinic(ga, gb, SearchConfig(), allow_large=args.force)
    timings["search_ms"] = 1000 * (time.perf_counter() - t0)
    checks = [{
        "name": "isoclinic",
        "passed": result.outcome == "isoclinic",
        "witness": rp.jsonable({
            "outcome": result.outcome,
            "reason": result.reason,
            "nodes": result.nodes,
            "partner": spec_b.canonical(),
            "partner_summary": rp.group_summary(gb),
            "witness": None if result.witness is None else result.witness.as_dict(),
        }),
    }]
    if result.witness is not None:
        checks.append({
            "name": "witness_reverifies",
            "passed": verify_isoclinism_witness(ga, gb, result.witness),
            "witness": {"checked": "phi, theta, commuting square"},
        })
        checks.append({
            "name": "conjugate_types_agree",
            "passed": conjugate_type_isoclinism_consistency(ga, gb),
            "witness": {"a": ga.conjugate_type(), "b": gb.conjugate_type()},
        })
    report = rp.assemble_report(spec_a.canonical(), rp.group_summary(ga), checks, timings)
    _emit(args, report)
    if result.outcome == "inconclusive":
        return EXIT_INCONCLUSIVE
    if result.outcome == "isoclinic" and rp.all_checks_pass(report):
        return EXIT_OK
    return EXIT_FAIL


def cmd_kappa(args) -> int:
    if args.modulus is not None:
        try:
            coeffs = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            raise FieldError(f"bad modulus {args.modulus!r}") from None
        field = FieldSpec(args.p, args.m, coeffs)
    else:
        field = find_irreducible(args.p, args.m)
    kappa = structure_constants(field)
    payload = {
        "schema": rp.SCHEMA,
        "p": args.p,
        "m": args.m,
        "modulus": list(field.modulus),
        "kappa": kappa.as_lists(),
        "toolchain": rp.toolchain_string(),
    }
    _emit(args, payload)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "invariants": cmd_invariants,
        "verify": cmd_verify,
        "isoclinic": cmd_isoclinic,
        "kappa": cmd_kappa,
    }[args.command]
    try:
        return handler(args)
    except CapExceeded as e:
        print(f"pgf: {e}", file=sys.stderr)
        return EXIT_CAP
    except (FieldError, GroupError) as e:
        print(f"pgf: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
