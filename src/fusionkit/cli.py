"""Command-line front end: weight tables, fusion tables, verification suites,
and theta evaluations, with machine-readable output.

Exit codes are a stable contract: 0 pass, 1 resource cap exceeded, 2 usage
error, 3 verification failure or oracle mismatch.  Suite output is JSON
lines, one report object per case, in a deterministic case order.

Importing this module loads only the algebra and errors layers, and each
command imports the layers it runs when it runs: weights loads weights; fuse
loads fusion and weights (and characters with --oracle); verify loads
identity, plus fusion and weights for every suite but theta, characters for
every suite but bounds, conjugacy and theta, theta for the theta suite and
csmodel for the csmodel suite; theta loads theta only.  No command loads
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from functools import partial
from itertools import product
from typing import NamedTuple

from .algebra import AlgebraSpec, build_algebra
from .errors import (
    CapExceeded,
    Caps,
    FusionkitError,
    InvariantViolation,
    OracleMismatchError,
    caps_from_env,
    check_cap,
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


def _random_regular_points(spec, count: int, seed: int):
    import random

    from .characters import GenericPoint, eval_D

    rng = random.Random(seed)
    points = []
    while len(points) < count:
        u = tuple(1j * rng.uniform(0.2, 2.8) for _ in range(spec.rank))
        point = GenericPoint(u)
        if abs(eval_D(spec, spec.rho, point)) > 1e-6:
            points.append(point)
    return points


# ---------------------------------------------------------------------------
# suites


def _suite_identity(spec, config: RunConfig):
    from . import fusion, identity

    if config.k is None:
        from .characters import weyl_ratio_sums
        from .weights import weyl_dimension

        labels = [w for w in product(range(4), repeat=spec.rank)]
        for mu in labels:  # every V(mu) is built by some case: check them before the first
            check_cap("dim", weyl_dimension(spec, mu), mu)
        points = _random_regular_points(spec, 25, config.seed)
        for mu in labels:
            for nu in labels:
                report = identity.check_identity(
                    f"char-sum-identity:{spec}:k=inf:mu={mu}:nu={nu}", spec, mu, nu,
                    fusion.tensor_decompose(spec, mu, nu), points,
                    partial(weyl_ratio_sums, spec), config.tolerance,
                )
                yield report, mu, nu
        return
    gammas = identity._ResidueGrid(spec, config.k)
    weights = fusion.level_k_weights(spec, config.k)
    for mu in weights:
        for nu in weights:
            report = identity.verify_numerator_identity(
                spec, mu, nu, config.k, gammas, tolerance=config.tolerance
            )
            yield report, mu, nu


def _suite_lemma(spec, config: RunConfig):
    from . import fusion, identity

    gammas = identity._ResidueGrid(spec, config.k)
    for mu in fusion.level_k_weights(spec, config.k):
        report = identity.verify_lemma_weightsum(
            spec, mu, config.k, gammas, tolerance=config.tolerance
        )
        yield report, mu, None


def _suite_bounds(spec, config: RunConfig):
    from . import fusion, identity
    from .weights import square_sum, weyl_dimension

    weights = fusion.level_k_weights(spec, config.k)
    squares = [square_sum(spec, w) for w in weights]  # checks every dim cap
    dims = [weyl_dimension(spec, w) for w in weights]
    # rows[i][j]: (sum N^2, sum N) of the table weights[i] x weights[j]
    rows = [identity._squares_and_sums(spec, mu, weights, config.k) for mu in weights]
    parseval_checks = []
    dim_checks = []
    for i, mu in enumerate(weights):
        for j, sigma in enumerate(weights):
            lhs, rhs, ok = identity._at_most(rows[j][i][0], squares[i], squares[j])
            parseval_checks.append((f"mu={mu},sigma={sigma}", lhs, rhs, ok, max(0, lhs - rhs)))
            total, bound, ok = identity._at_most(rows[i][j][1], dims[i], dims[j])
            dim_checks.append((f"mu={mu},nu={sigma}", total, bound, ok, max(0, total - bound)))
    yield identity.integer_report(f"parseval-bound:{spec}:k={config.k}",
                                  parseval_checks), None, None
    yield identity.integer_report(f"dimension-bound:{spec}:k={config.k}",
                                  dim_checks), None, None


def _suite_conjugacy(spec, config: RunConfig):
    from . import fusion, identity
    from .weights import conjugate

    identity._warn_if_self_conjugate(spec, stacklevel=1)
    weights = fusion.level_k_weights(spec, config.k)
    partners = [weights.index(conjugate(spec, b)) for b in weights]
    checks = []
    for a in weights:
        row = identity._squares_and_sums(spec, a, weights, config.k)
        for j, b in enumerate(weights):
            (s1, s2), (l1, l2) = zip(row[j], row[partners[j]])
            both = s1 == s2 and l1 == l2
            checks.append((f"a={a},b={b}", s1, s2, both, abs(s1 - s2) + abs(l1 - l2)))
    yield identity.integer_report(f"conjugacy-squares:{spec}:k={config.k}",
                                  checks), None, None


def _suite_theta(spec, config: RunConfig):
    from . import identity, theta

    k = config.k
    taus = [0.5j, 1j, 0.3 + 2j]
    gammas = [spec.rho, tuple(min(k, 1) if i == 0 else 0 for i in range(spec.rank)),
              (0,) * spec.rank]
    u = tuple(0.05 + 0.01 * i for i in range(spec.rank))

    def t_residuals():
        for tau in taus:
            ctx = theta.ThetaContext(spec, max(k, 1), tau, u)
            for gamma in gammas:
                yield (tau, gamma), complex(theta.check_T_transform(ctx, gamma)), 0j

    yield identity.make_report(
        f"theta-T-transform:{spec}:k={k}", 1e-10, t_residuals()
    ), None, None

    ctx = theta.ThetaContext(spec, max(k, 1), 1j, u)
    coarse = theta.check_heat_equation(ctx, spec.rho, h=2e-3)
    fine = theta.check_heat_equation(ctx, spec.rho, h=1e-3)
    ratio = coarse / fine if fine else math.inf
    yield identity.make_report(
        f"theta-heat-equation:{spec}:k={k}", 0.5,
        [(("ratio",), complex(ratio), complex(4.0))],
    ), None, None


def _suite_csmodel(spec, config: RunConfig):
    from . import csmodel, fusion, identity

    model = csmodel.build_model(spec, config.k)
    weights = fusion.level_k_weights(spec, config.k)

    yield identity.make_report(
        f"clock-commutator:{spec}:k={config.k}", 1e-12,
        [(("all pairs",), complex(csmodel.check_clock_commutator(model)), 0j)],
    ), None, None

    def ortho_residuals():
        states = [csmodel.primary_state(model, r) for r in weights]
        for r, psi_r in zip(weights, states):
            for s, psi_s in zip(weights, states):
                value = csmodel.inner_product(psi_r, psi_s)
                yield (r, s), value, complex(1.0 if r == s else 0.0)

    yield identity.make_report(
        f"primary-orthonormality:{spec}:k={config.k}", 1e-12, ortho_residuals()
    ), None, None

    yield identity.make_report(
        f"s-conjugation:{spec}:k={config.k}", 1e-10,
        [(("sampled basis",), complex(csmodel.check_s_conjugation(model)), 0j)],
    ), None, None

    def char_residuals():
        import random

        rng = random.Random(config.seed)
        gammas = [tuple(rng.randrange(model.period) for _ in range(spec.rank))
                  for _ in range(8)]
        for gamma in gammas:
            for mu in weights:
                try:
                    value = csmodel.character_as_inner_product(model, gamma, mu)
                    yield (gamma, mu), 0j, 0j
                except OracleMismatchError:
                    yield (gamma, mu), complex(1.0), 0j

    yield identity.make_report(
        f"character-inner-product:{spec}:k={config.k}", 1e-10, char_residuals()
    ), None, None

    mismatch_checks = []
    for mu in weights:
        operator_rows = csmodel.operator_fusion_rows(model, mu, weights)
        folded_rows = fusion.fuse_level_k_rows(spec, mu, weights, config.k)
        for nu, operator_table, folded in zip(weights, operator_rows, folded_rows):
            oracle = fusion.verlinde_table(spec, mu, nu, config.k)
            agree = operator_table == folded == oracle
            mismatch_checks.append(
                (f"mu={mu},nu={nu}", len(operator_table), len(folded), agree,
                 0 if agree else 1)
            )
    yield identity.integer_report(
        f"three-way-fusion:{spec}:k={config.k}", mismatch_checks
    ), None, None


_SUITES = {
    "identity": _suite_identity,
    "lemma": _suite_lemma,
    "bounds": _suite_bounds,
    "conjugacy": _suite_conjugacy,
    "theta": _suite_theta,
    "csmodel": _suite_csmodel,
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
    from .fusion import fuse_level_k, tensor_decompose, verlinde_table

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
        oracle = verlinde_table(spec, mu, nu, config.k)
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
    if "theta" in names:  # and its series, also before the first case runs
        from .theta import _require_simply_laced
        _require_simply_laced(config.spec)
    all_passed = True
    with _output(config) as out:
        for name in names:
            for report, mu, nu in _SUITES[name](config.spec, config):
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
        level = max(config.k, 1)
        ctx = theta.ThetaContext(spec, level, tau, u)
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
