"""Command-line front door.

Commands: ``suspend``, ``homology``, ``plumb``, ``gon``, ``certify``,
``profile-export``.  Every command prints deterministic JSON (sorted
keys, fixed-format floats).  Exit codes: 0 success, 1 computed failure,
2 usage or parse error, 3 unsupported request.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys

from . import grammar, jsonout, orbitgon, plumbing, riccicert, topology, warpmetric
from .errors import ComputedFailure, InputError, StageError, TwistbenchError, Unsupported

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload, out_path):
    text = jsonout.dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _expr_report(x) -> dict:
    h = topology.homology(x)
    return {
        "expression": topology.render(x),
        "dimension": topology.dim(x),
        "pi1": topology.pi1(x),
        "simply_connected": topology.simply_connected(x),
        "spin": topology.spin_label(topology.spin(x)),
        "homology": [g.render() for g in h],
        "cohomology": [g.render() for g in topology.cohomology(x)],
        "betti": list(topology.betti(x)),
        "euler_characteristic": topology.euler_characteristic(x),
    }


def cmd_suspend(args) -> int:
    expr_text = args.expr if args.expr != "-" else sys.stdin.read().strip()
    x = grammar.parse_manifold(expr_text)
    e = grammar.parse_euler(args.euler)
    result = topology.suspend(x, e)
    _emit(_expr_report(result), args.out)
    return EXIT_OK


def cmd_homology(args) -> int:
    expr_text = args.expr if args.expr != "-" else sys.stdin.read().strip()
    x = grammar.parse_manifold(expr_text)
    if args.decompose:
        x = topology.decompose(x)
    _emit(_expr_report(x), args.out)
    return EXIT_OK


def cmd_plumb(args) -> int:
    g = plumbing.parse_graph(_read_text(args.graph))
    reduced = plumbing.reduce(g)
    boundary = plumbing.boundary(g)
    payload = _expr_report(boundary)
    payload["reduced_edges"] = [[i, j, s] for (i, j, s) in reduced.edges]
    payload["nodes"] = len(g.nodes)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_gon(args) -> int:
    if args.standard is not None:
        g = orbitgon.standard_gon(args.standard)
    else:
        data = json.loads(_read_text(args.gon))
        if not isinstance(data, dict):
            raise InputError("gon JSON must be an object")
        try:
            g = orbitgon.gon(data["n"], data["labels"])
        except KeyError as exc:
            raise InputError(f"gon JSON needs key {exc}") from exc
    report = g.validation
    payload = {
        "n": g.n,
        "m": g.m,
        "labels": [list(a) for a in g.labels],
        "validation": report.as_dict(),
    }
    if report.valid:
        payload["b2"] = orbitgon.betti2(g)
        model = orbitgon.unimodular_model(g)
        payload["model"] = model.to_lists()
        payload["model_det"] = model.det()
    _emit(payload, args.out)
    return EXIT_OK if report.valid or args.standard is not None else EXIT_FAIL


# The config keys that override a WarpParams field, and their fields.
_PARAM_FIELDS = {
    "lambda0": "lam0", "alpha": "alpha", "cap_width": "cap_width",
    "tail_width": "tail_width", "origin_eps": "origin_eps", "step": "step",
}

_CERTIFY_KEYS = {
    "n", "s0", "connection", "sup_f", "sup_delta_f", "support_lo", "support_hi",
    "ric_min_base", "safety", "target_margin", *_PARAM_FIELDS,
}

_PROFILE_KEYS = {"n", "s0", "r", *_PARAM_FIELDS}


@functools.cache
def _config_parser() -> configparser.ConfigParser:
    """The config parser, built once per process: its constructor is most
    of the cost of reading a small config.  ``_load_config`` empties it
    before each read."""
    return configparser.ConfigParser(inline_comment_prefixes=("#",))


def _load_config(path: str, section: str, allowed: set):
    """The [section] of the config at ``path``, its n and s0, and the
    WarpParams for lam = cos(s0) with the section's overrides."""
    parser = _config_parser()
    # Nothing of an earlier read may leak into this one: no section and no
    # [DEFAULT] key.  A read that failed part way leaves its sections too.
    for name in parser.sections():
        parser.remove_section(name)
    parser[parser.default_section].clear()
    try:
        if not parser.read(path):
            raise InputError(f"config file {path!r} not found")
        if section not in parser:
            raise InputError(f"config file needs a [{section}] section")
        # Values are interpolated as they are read, so a bad % raises here.
        cfg = dict(parser[section])
    except configparser.Error as exc:
        # Its messages span lines; the CLI reports an error on one.
        raise InputError(f"bad config file {path!r}: {' '.join(str(exc).split())}") from exc
    for key in cfg:
        if key not in allowed:
            raise InputError(f"unknown config key {key!r} in [{section}]")
    try:
        n = int(cfg["n"])
        s0 = float(cfg["s0"])
    except KeyError as exc:
        raise InputError(f"{section} config needs key {exc}") from exc
    # s0 must lie in (0, pi/2) for both commands, as riccicert.certify
    # checks, and cos rounds to 1 below s0 of about 1.05e-8: the error names
    # s0, which the config gave, not lam = cos(s0).
    if not (0.0 < s0 < 0.5 * math.pi and math.cos(s0) < 1.0):
        raise InputError(f"gluing radius s0 must lie in (0, pi/2) with cos(s0) < 1, not {s0!r}")
    overrides = {name: float(cfg[key]) for key, name in _PARAM_FIELDS.items() if key in cfg}
    return cfg, n, s0, warpmetric.WarpParams(n=n, lam=math.cos(s0), **overrides)


def _connection_from(cfg) -> riccicert.ConnectionModel:
    support = None
    if "support_lo" in cfg or "support_hi" in cfg:
        try:
            support = (float(cfg["support_lo"]), float(cfg["support_hi"]))
        except KeyError as exc:
            raise InputError(f"a curvature support needs key {exc}") from exc
    # ConnectionModel refuses an unknown variant, and curvature keys on a
    # trivial connection.
    return riccicert.ConnectionModel(
        cfg.get("connection", "trivial"),
        sup_f=float(cfg.get("sup_f", 0.0)),
        sup_delta_f=float(cfg.get("sup_delta_f", 0.0)),
        support=support,
    )


def cmd_certify(args) -> int:
    cfg, n, s0, params = _load_config(args.config, "certify", _CERTIFY_KEYS)
    result = riccicert.certify(
        n,
        s0,
        _connection_from(cfg),
        float(cfg.get("ric_min_base", 1.0)),
        params=params,
        target_margin=float(cfg.get("target_margin", 1e-6)),
        safety=float(cfg.get("safety", 0.5)),
    )
    _emit(result.to_json_dict(), args.out)
    return EXIT_OK if result.passed() else EXIT_FAIL


def cmd_profile_export(args) -> int:
    cfg, _, _, params = _load_config(args.config, "profile", _PROFILE_KEYS)
    w, eps = warpmetric.build_neck(params)
    w = warpmetric.smooth_origin(w, float(cfg.get("r", 0.5)), eps)
    warpmetric.export_profile(w, args.out or sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistbench",
        description="Twisted-suspension topology and certified warped metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suspend", help="twisted suspension of an expression")
    p.add_argument("expr", help="manifold expression, or - for stdin")
    p.add_argument("euler", help="twisting class: 0, prim, div(k), [e1,...]")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_suspend)

    p = sub.add_parser("homology", help="homology report for an expression")
    p.add_argument("expr", help="manifold expression, or - for stdin")
    p.add_argument("--decompose", action="store_true", help="rewrite first")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("plumb", help="boundary of a plumbing graph")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plumb)

    p = sub.add_parser("gon", help="validate an orbit gon (JSON in)")
    p.add_argument("gon", nargs="?", default="-", help="JSON file, or - for stdin")
    p.add_argument("--standard", type=int, default=None, metavar="L",
                   help="emit the standard gon with b2 = 2L instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gon)

    p = sub.add_parser("certify", help="run the metric certification pipeline")
    p.add_argument("config", help="INI config with a [certify] section")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("profile-export", help="write a warp profile as CSV")
    p.add_argument("config", help="INI config with a [profile] section")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile_export)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (TwistbenchError, OSError, ValueError) as exc:
        # The cause's class, not the cause: a local holding the cause would
        # tie this frame into a cycle through its traceback, and the neck in
        # the failed stage's frames would wait for the cycle collector.
        kind = type(exc.cause) if isinstance(exc, StageError) else type(exc)
        if issubclass(kind, Unsupported):
            print(f"unsupported: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        if issubclass(kind, ComputedFailure):
            print(f"failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
