"""Command-line front end: weight tables, fusion tables, verification suites,
and theta evaluations, with machine-readable output.

Exit codes are a stable contract: 0 pass, 1 resource cap exceeded, 2 usage
error, 3 verification failure or oracle mismatch.  Suite output is JSON
lines, one report object per case, in a deterministic case order.

Importing this module loads only the algebra and errors layers, and each
command imports the layers it runs when it runs: weights loads weights; fuse
loads fusion and weights (and verlinde and phase with --oracle); theta loads
theta only.  verify loads the module that holds each suite it runs, beside
the checks the suite makes (_SUITES): identity for the identity, lemma,
bounds and conjugacy suites, with fusion and weights, and phase for the
variety scans or characters for the identity suite at k = infinity; theta
and identity for the theta suite; csmodel for the csmodel suite, with
characters, phase, fusion, weights, identity and verlinde.  No module
imports this one, so `python -m fusionkit.cli` compiles it once, and no
command loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from importlib import import_module
from typing import NamedTuple

from .algebra import AlgebraSpec, build_algebra
from .errors import (
    CapExceeded,
    Caps,
    FusionkitError,
    InvariantViolation,
    OracleMismatchError,
    caps_from_env,
    use_caps,
)

EXIT_OK = 0
EXIT_CAP = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


class RunConfig(NamedTuple):
    spec: AlgebraSpec
    k: int | None           # None means the algebra level (k = infinity)
    tolerance: float
    caps: Caps
    seed: int
    output: str | None
    fmt: str


def _parse_algebra(text: str):
    text = text.strip()
    if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
        raise ValueError(f"algebra must look like A2, D4, E6; got {text!r}")
    return text[0].upper(), int(text[1:])


def _parse_level(text: str):
    if text.lower() in ("inf", "infinity"):
        return None
    k = int(text)
    if k < 0:
        raise ValueError("level must be nonnegative or 'inf'")
    return k


def _parse_weight(text: str):
    return tuple(int(part) for part in text.split(","))  # the library checks the length


def _parse_tau(text: str) -> complex:
    """A complex literal with a trailing i (or j) for the imaginary unit."""
    text = text.replace(" ", "")
    if text.endswith("i"):
        text = text[:-1] + "j"
    return complex(text)


def _output(config: RunConfig):
    """The --output file, or stdout (left open).  A file that cannot be
    opened for writing is a usage error."""
    try:
        return open(config.output, "w") if config.output else nullcontext(sys.stdout)
    except OSError as err:
        raise ValueError(f"cannot write --output {config.output}: {err.strerror}") from None


def _emit(lines, config: RunConfig):
    with _output(config) as out:
        out.writelines(line + "\n" for line in lines)


def _rows(table: dict, column: str) -> list:
    """A weight -> integer table as JSON rows, sorted by weight."""
    return [{"weight": list(w), column: c} for w, c in sorted(table.items())]


def _emit_table(record: dict, table: dict, column: str, title: str, config: RunConfig,
                footer=()):
    """One weight -> integer table in the run's format: the whole record as
    one JSON line, the table as CSV with a weight and a ``column`` column,
    or text: the title, one indented line per weight, then the footer."""
    entries = sorted(table.items())
    if config.fmt == "json":
        lines = [json.dumps(record)]
    elif config.fmt == "csv":
        lines = [f"weight,{column}"] + [f"\"{','.join(map(str, w))}\",{c}" for w, c in entries]
    else:
        lines = [title] + [f"  {w}: {c}" for w, c in entries] + list(footer)
    _emit(lines, config)


def _report_line(report, config: RunConfig, mu=None, nu=None) -> str:
    record = {
        "case_id": report.case_id,
        "algebra": str(config.spec),
        "k": config.k,
        "mu": list(mu) if mu is not None else None,
        "nu": list(nu) if nu is not None else None,
    }
    record.update(report.to_dict())
    return json.dumps(record)


#: suite name -> (module, generator): each generator takes the algebra and the
#: run config and yields (report, mu, nu) per case; verify imports the module
#: when the suite runs
_SUITES = {
    "identity": ("identity", "_suite_identity"),
    "lemma": ("identity", "_suite_lemma"),
    "bounds": ("identity", "_suite_bounds"),
    "conjugacy": ("identity", "_suite_conjugacy"),
    "theta": ("theta", "_suite_theta"),
    "csmodel": ("csmodel", "_suite_csmodel"),
}


# ---------------------------------------------------------------------------
# commands


def _cmd_weights(args, config: RunConfig) -> int:
    from .weights import square_sum, weight_system, weyl_dimension

    spec = config.spec
    mu = _parse_weight(args.mu)
    ws = weight_system(spec, mu)
    dim, sum_squares = weyl_dimension(spec, mu), square_sum(spec, mu)
    record = {
        "algebra": str(spec),
        "mu": list(mu),
        "dim": dim,
        "sum_squares": sum_squares,
        "entries": _rows(ws.entries, "multiplicity"),
    }
    title = (f"weight system of {mu} in {spec}: dim {dim}, "
             f"sum of squared multiplicities {sum_squares}")
    _emit_table(record, ws.entries, "multiplicity", title, config)
    return EXIT_OK


def _cmd_fuse(args, config: RunConfig) -> int:
    if args.oracle and config.k is None:  # checked before the decomposition
        raise ValueError("--oracle needs a finite level")
    from .fusion import fuse_level_k, tensor_decompose

    spec = config.spec
    mu = _parse_weight(args.mu)
    nu = _parse_weight(args.nu)
    if config.k is None:
        table = tensor_decompose(spec, mu, nu)
    else:
        table = fuse_level_k(spec, mu, nu, config.k)
    record = {
        "algebra": str(spec),
        "k": config.k,
        "mu": list(mu),
        "nu": list(nu),
        "table": _rows(table, "coefficient"),
    }
    exit_code = EXIT_OK
    footer = []
    if args.oracle:
        from .verlinde import verlinde_rows

        (oracle,) = verlinde_rows(spec, mu, [nu], config.k)
        record["oracle_matches"] = oracle == table
        if not record["oracle_matches"]:
            record["oracle_table"] = _rows(oracle, "coefficient")
            exit_code = EXIT_VERIFY
        footer.append(f"oracle agreement: {record['oracle_matches']}")
    level_name = "infinity" if config.k is None else str(config.k)
    title = f"{mu} x {nu} in {spec} at k = {level_name}:"
    _emit_table(record, table, "coefficient", title, config, footer)
    return exit_code


def _cmd_verify(args, config: RunConfig) -> int:
    """Each report line is written as its case finishes, so a suite that
    raises keeps the lines of the cases before it."""
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    finite_only = [name for name in names if name != "identity"]
    if config.k is None and finite_only:  # checked before the first case runs
        raise ValueError(f"the {finite_only[0]} suite needs a finite level")
    if "theta" in names:  # and its series and level, also before the first case runs
        from .theta import _require_simply_laced
        _require_simply_laced(config.spec)
        if config.k == 0:
            raise ValueError("the theta suite needs a positive level")
    all_passed = True
    with _output(config) as out:
        for name in names:
            module, function = _SUITES[name]
            suite = getattr(import_module(f".{module}", __package__), function)
            for report, mu, nu in suite(config.spec, config):
                out.write(_report_line(report, config, mu, nu) + "\n")
                out.flush()
                all_passed &= report.passed
    return EXIT_OK if all_passed else EXIT_VERIFY


def _cmd_theta(args, config: RunConfig) -> int:
    from . import theta

    spec = config.spec
    if config.k is None:
        raise ValueError("theta evaluation needs a finite level")
    tau = _parse_tau(args.tau)
    u = tuple(float(part) for part in args.u.split(","))  # ThetaContext checks its length
    if args.char:
        mu = _parse_weight(args.mu)
        level = config.k + spec.dual_coxeter
        ctx = theta.ThetaContext(spec, level, tau, u)
        value = theta.kac_weyl_char(ctx, mu)
        gamma = tuple(m + 1 for m in mu)
    else:
        gamma = _parse_weight(args.gamma)
        ctx = theta.ThetaContext(spec, config.k, tau, u)
        value = theta.theta_weyl(ctx, gamma) if args.antisym else theta.theta_sum(ctx, gamma)
    t_residual = theta.check_T_transform(ctx, gamma)
    heat_residual = theta.check_heat_equation(ctx, gamma)
    cut = theta.truncation(ctx, gamma)
    header = (["gamma", "tau_re", "tau_im"]
              + [f"u{i+1}" for i in range(spec.rank)]
              + ["value_re", "value_im", "t_residual", "heat_residual",
                 "radius", "lattice_points", "tail_bound"])
    row = ([" ".join(map(str, gamma)), repr(tau.real), repr(tau.imag)]
           + [repr(x) for x in u]
           + [repr(value.real), repr(value.imag), repr(t_residual), repr(heat_residual),
              repr(cut.radius), str(cut.lattice_points), repr(cut.tail_bound)])
    _emit([",".join(header), ",".join(row)], config)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="characters, weight systems and level-k fusion rings, "
                    "with identity verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_level=True):
        p.add_argument("algebra", help="series letter + rank, e.g. A1, A2, D4")
        if with_level:
            p.add_argument("--k", default="inf", help="level (nonnegative integer or 'inf')")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="write output to a file")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--cap-weyl-order", type=int, default=None)
        p.add_argument("--cap-dim", type=int, default=None)
        p.add_argument("--cap-hilbert", type=int, default=None)

    p = sub.add_parser("weights", help="weight system of one representation")
    common(p, with_level=False)
    p.add_argument("--mu", required=True, help="comma-separated Dynkin labels")
    p.set_defaults(func=_cmd_weights, k="inf")

    p = sub.add_parser("fuse", help="tensor or level-k fusion decomposition")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the Verlinde oracle; exit 3 on mismatch")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("theta", help="lattice theta sums and finite-tau characters")
    common(p)
    p.add_argument("--gamma", default=None, help="comma-separated integer labels")
    p.add_argument("--tau", required=True, help="complex literal like 0.5+2i")
    p.add_argument("--u", required=True, help="comma-separated real components")
    p.add_argument("--antisym", action="store_true", help="Weyl-antisymmetrized sum")
    p.add_argument("--char", action="store_true",
                   help="evaluate the finite-tau character of --mu instead")
    p.add_argument("--mu", default=None)
    p.set_defaults(func=_cmd_theta)

    return parser


def _config_from(args) -> RunConfig:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {args.tolerance}")
    flags = {name: getattr(args, f"cap_{name}") for name in ("weyl_order", "dim", "hilbert")}
    caps = caps_from_env()._replace(**{name: v for name, v in flags.items() if v is not None})
    return RunConfig(
        spec=build_algebra(*_parse_algebra(args.algebra)),
        k=_parse_level(args.k),
        tolerance=args.tolerance,
        caps=caps,
        seed=args.seed,
        output=args.output,
        fmt=args.fmt,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return EXIT_USAGE if exit_info.code else EXIT_OK
    try:
        config = _config_from(args)
        if args.command == "theta" and not args.char and args.gamma is None:
            raise ValueError("theta needs --gamma (or --char with --mu)")
        if args.command == "theta" and args.char and args.mu is None:
            raise ValueError("--char needs --mu")
        with use_caps(config.caps):
            return args.func(args, config)
    except CapExceeded as err:
        print(f"resource cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except OracleMismatchError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except InvariantViolation as err:
        print(f"invariant violated: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, FusionkitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
