"""Command-line front end: weight tables, fusion tables, verification suites,
and theta evaluations, with machine-readable output.

Exit codes are a stable contract: 0 pass, 1 resource cap exceeded, 2 usage
error, 3 verification failure or oracle mismatch.  Suite output is JSON
lines, one report object per case, in a deterministic case order.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from itertools import product

from . import csmodel, identity, theta
from .algebra import _check_weyl_order, build_algebra
from .characters import GenericPoint, eval_D, weyl_ratio_sums
from .errors import (
    CapExceeded,
    Caps,
    FusionkitError,
    InvariantViolation,
    OracleMismatchError,
    caps_from_env,
)
from .fusion import (
    fuse_level_k,
    level_k_weights,
    tensor_decompose,
    verlinde_table,
)
from .identity import VerificationReport, integer_report
from .weights import dimension, mult_sum_squares, weight_system

EXIT_OK = 0
EXIT_CAP = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


@dataclass
class RunConfig:
    series: str
    rank: int
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


def _parse_weight(text: str, rank: int):
    labels = tuple(int(part) for part in text.split(","))
    if len(labels) != rank:
        raise ValueError(f"weight {text!r} has {len(labels)} labels, expected {rank}")
    return labels


def _parse_tau(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _build_spec(config: RunConfig, uses_weyl_group: bool = True):
    """The run's algebra; a run that enumerates Weyl orbits is checked
    against the Weyl-order cap once, up front."""
    spec = build_algebra(config.series, config.rank)
    if uses_weyl_group:
        _check_weyl_order(spec, config.caps.weyl_order)
    return spec


def _emit(lines, config: RunConfig):
    payload = "\n".join(lines) + "\n"
    if config.output:
        with open(config.output, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _report_line(report: VerificationReport, config: RunConfig, mu=None, nu=None) -> str:
    record = {
        "case_id": report.case_id,
        "algebra": f"{config.series}{config.rank}",
        "k": config.k,
        "mu": list(mu) if mu is not None else None,
        "nu": list(nu) if nu is not None else None,
        "points_checked": report.points_checked,
        "max_abs_residual": report.max_abs_residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "witnesses": report.to_dict()["witnesses"],
    }
    return json.dumps(record)


def _full_residue_gammas(spec, k: int):
    level_shifted = k + spec.dual_coxeter
    if spec.rank == 1:
        return [(g,) for g in range(2 * level_shifted)]
    return list(product(range(level_shifted), repeat=spec.rank))


def _random_regular_points(spec, count: int, seed: int):
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
    if config.k is None:
        points = _random_regular_points(spec, 25, config.seed)
        labels = [w for w in product(range(4), repeat=spec.rank)]
        for mu in labels:
            for nu in labels:
                report = identity.check_identity(
                    f"char-sum-identity:{spec}:k=inf:mu={mu}:nu={nu}", spec, mu, nu,
                    tensor_decompose(spec, mu, nu), points,
                    partial(weyl_ratio_sums, spec), config.tolerance,
                )
                yield report, mu, nu
        return
    gammas = _full_residue_gammas(spec, config.k)
    weights = level_k_weights(spec, config.k)
    for mu in weights:
        for nu in weights:
            report = identity.verify_numerator_identity(
                spec, mu, nu, config.k, gammas, tolerance=config.tolerance
            )
            yield report, mu, nu


def _suite_lemma(spec, config: RunConfig):
    if config.k is None:
        raise ValueError("the lemma suite needs a finite level")
    gammas = _full_residue_gammas(spec, config.k)
    for mu in level_k_weights(spec, config.k):
        report = identity.verify_lemma_weightsum(
            spec, mu, config.k, gammas, tolerance=config.tolerance
        )
        yield report, mu, None


def _suite_bounds(spec, config: RunConfig):
    if config.k is None:
        raise ValueError("the bounds suite needs a finite level")
    weights = level_k_weights(spec, config.k)
    parseval_checks = []
    dim_checks = []
    for mu in weights:
        for sigma in weights:
            lhs, rhs, ok = identity.parseval_bound(spec, mu, sigma, config.k)
            parseval_checks.append((f"mu={mu},sigma={sigma}", lhs, rhs, ok, max(0, lhs - rhs)))
            total, bound, ok = identity.dim_bound(spec, mu, sigma, config.k)
            dim_checks.append((f"mu={mu},nu={sigma}", total, bound, ok, max(0, total - bound)))
    yield integer_report(f"parseval-bound:{spec}:k={config.k}", parseval_checks), None, None
    yield integer_report(f"dimension-bound:{spec}:k={config.k}", dim_checks), None, None


def _suite_conjugacy(spec, config: RunConfig):
    if config.k is None:
        raise ValueError("the conjugacy suite needs a finite level")
    weights = level_k_weights(spec, config.k)
    checks = []
    for a in weights:
        for b in weights:
            check = identity.conjugacy_square_check(spec, a, b, config.k)
            (s1, s2), (l1, l2) = check.square_sums, check.linear_sums
            both = check.squares_equal and check.linear_equal
            checks.append((f"a={a},b={b}", s1, s2, both, abs(s1 - s2) + abs(l1 - l2)))
    yield integer_report(f"conjugacy-squares:{spec}:k={config.k}", checks), None, None


def _suite_theta(spec, config: RunConfig):
    if config.k is None:
        raise ValueError("the theta suite needs a finite level")
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
    ratio = coarse / fine if fine else 4.0
    yield identity.make_report(
        f"theta-heat-equation:{spec}:k={k}", 0.5,
        [(("ratio",), complex(ratio), complex(4.0))],
    ), None, None


def _suite_csmodel(spec, config: RunConfig):
    if config.k is None:
        raise ValueError("the cs-model suite needs a finite level")
    model = csmodel.build_model(spec, config.k, hilbert_cap=config.caps.hilbert)
    weights = level_k_weights(spec, config.k)

    yield identity.make_report(
        f"clock-commutator:{spec}:k={config.k}", 1e-12,
        [(("all pairs",), complex(csmodel.check_clock_commutator(model)), 0j)],
    ), None, None

    def ortho_residuals():
        for r in weights:
            psi_r = csmodel.primary_state(model, r)
            for s in weights:
                value = csmodel.inner(psi_r, csmodel.primary_state(model, s))
                yield (r, s), value, complex(1.0 if r == s else 0.0)

    yield identity.make_report(
        f"primary-orthonormality:{spec}:k={config.k}", 1e-12, ortho_residuals()
    ), None, None

    yield identity.make_report(
        f"s-conjugation:{spec}:k={config.k}", 1e-10,
        [(("sampled basis",), complex(csmodel.check_s_conjugation(model)), 0j)],
    ), None, None

    def char_residuals():
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
        for nu in weights:
            operator_table = csmodel.fusion_from_operators(model, mu, nu)
            folded = fuse_level_k(spec, mu, nu, config.k)
            oracle = verlinde_table(spec, mu, nu, config.k)
            agree = operator_table == folded == oracle
            mismatch_checks.append(
                (f"mu={mu},nu={nu}", len(operator_table), len(folded), agree,
                 0 if agree else 1)
            )
    yield integer_report(
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

# suites that only fold tensor products and enumerate no Weyl orbit
_FUSION_ONLY_SUITES = {"bounds", "conjugacy"}


# ---------------------------------------------------------------------------
# commands


def _cmd_weights(args, config: RunConfig) -> int:
    spec = build_algebra(config.series, config.rank)
    mu = _parse_weight(args.mu, spec.rank)
    ws = weight_system(spec, mu, dim_cap=config.caps.dim)
    record = {
        "algebra": str(spec),
        "mu": list(mu),
        "dim": dimension(ws),
        "sum_squares": mult_sum_squares(ws),
        "entries": [
            {"weight": list(w), "multiplicity": m} for w, m in sorted(ws.entries.items())
        ],
    }
    if config.fmt == "json":
        _emit([json.dumps(record)], config)
    elif config.fmt == "csv":
        lines = ["weight,multiplicity"]
        lines += [f"\"{','.join(map(str, w))}\",{m}" for w, m in sorted(ws.entries.items())]
        _emit(lines, config)
    else:
        lines = [f"weight system of {mu} in {spec}: dim {record['dim']}, "
                 f"sum of squared multiplicities {record['sum_squares']}"]
        lines += [f"  {w}: {m}" for w, m in sorted(ws.entries.items())]
        _emit(lines, config)
    return EXIT_OK


def _cmd_fuse(args, config: RunConfig) -> int:
    spec = _build_spec(config, uses_weyl_group=args.oracle)
    mu = _parse_weight(args.mu, spec.rank)
    nu = _parse_weight(args.nu, spec.rank)
    if config.k is None:
        table = tensor_decompose(spec, mu, nu, dim_cap=config.caps.dim)
    else:
        table = fuse_level_k(spec, mu, nu, config.k)
    record = {
        "algebra": str(spec),
        "k": config.k,
        "mu": list(mu),
        "nu": list(nu),
        "table": [{"weight": list(w), "coefficient": c} for w, c in sorted(table.items())],
    }
    exit_code = EXIT_OK
    if args.oracle:
        if config.k is None:
            raise ValueError("--oracle needs a finite level")
        oracle = verlinde_table(spec, mu, nu, config.k)
        record["oracle_matches"] = oracle == table
        if not record["oracle_matches"]:
            record["oracle_table"] = [
                {"weight": list(w), "coefficient": c} for w, c in sorted(oracle.items())
            ]
            exit_code = EXIT_VERIFY
    if config.fmt == "json":
        _emit([json.dumps(record)], config)
    elif config.fmt == "csv":
        lines = ["weight,coefficient"]
        lines += [f"\"{','.join(map(str, w))}\",{c}" for w, c in sorted(table.items())]
        _emit(lines, config)
    else:
        level_name = "infinity" if config.k is None else str(config.k)
        lines = [f"{mu} x {nu} in {spec} at k = {level_name}:"]
        lines += [f"  {w}: {c}" for w, c in sorted(table.items())]
        if args.oracle:
            lines.append(f"oracle agreement: {record['oracle_matches']}")
        _emit(lines, config)
    return exit_code


def _cmd_verify(args, config: RunConfig) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    spec = _build_spec(config, uses_weyl_group=not set(names) <= _FUSION_ONLY_SUITES)
    lines = []
    all_passed = True
    for name in names:
        for report, mu, nu in _SUITES[name](spec, config):
            lines.append(_report_line(report, config, mu, nu))
            all_passed &= report.passed
    _emit(lines, config)
    return EXIT_OK if all_passed else EXIT_VERIFY


def _cmd_theta(args, config: RunConfig) -> int:
    spec = _build_spec(config)
    if config.k is None:
        raise ValueError("theta evaluation needs a finite level")
    tau = _parse_tau(args.tau)
    u = tuple(float(part) for part in args.u.split(","))
    if len(u) != spec.rank:
        raise ValueError(f"u has {len(u)} components, expected {spec.rank}")
    if args.char:
        mu = _parse_weight(args.mu, spec.rank)
        level = config.k + spec.dual_coxeter
        ctx = theta.ThetaContext(spec, level, tau, u)
        value = theta.kac_weyl_char(ctx, mu)
        gamma = tuple(m + 1 for m in mu)
    else:
        gamma = _parse_weight(args.gamma, spec.rank)
        level = max(config.k, 1)
        ctx = theta.ThetaContext(spec, level, tau, u)
        value = theta.theta_weyl(ctx, gamma, -1) if args.antisym else theta.theta_sum(ctx, gamma)
    t_residual = theta.check_T_transform(ctx, gamma)
    heat_residual = theta.check_heat_equation(ctx, gamma)
    radius, lattice_points, tail_bound = theta.truncation(ctx, gamma)
    header = (["gamma", "tau_re", "tau_im"]
              + [f"u{i+1}" for i in range(spec.rank)]
              + ["value_re", "value_im", "t_residual", "heat_residual",
                 "radius", "lattice_points", "tail_bound"])
    row = ([" ".join(map(str, gamma)), repr(tau.real), repr(tau.imag)]
           + [repr(x) for x in u]
           + [repr(value.real), repr(value.imag), repr(t_residual), repr(heat_residual),
              repr(radius), str(lattice_points), repr(tail_bound)])
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
    series, rank = _parse_algebra(args.algebra)
    caps = caps_from_env()
    overrides = {
        "weyl_order": args.cap_weyl_order,
        "dim": args.cap_dim,
        "hilbert": args.cap_hilbert,
    }
    for key, value in overrides.items():
        if value is not None:
            caps = Caps(**{**caps.__dict__, key: value})
    return RunConfig(
        series=series,
        rank=rank,
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
