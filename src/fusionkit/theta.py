"""Lattice theta sums at finite modular parameter, their Weyl
antisymmetrizations, and the finite-tau characters built from them.
Simply-laced algebras only: the construction leans on the even root lattice
((alpha, alpha) in 2Z) through both functional equations.

The basic object is

    Theta_{gamma,k}(tau, u) = sum over root-lattice alpha of
        exp(i pi k tau (alpha + gamma/k)^2 + 2 pi i k (alpha + gamma/k, u))

with Im(tau) > 0 for absolute convergence.  It depends on gamma only through
the coset gamma + kQ, so every sum starts from the shortest representative
of that coset.  The sum is truncated at a radius derived from a Gaussian
tail bound (smallest eigenvalue of the root-lattice Gram matrix C), so every
reported value is within TRUNCATION_EPSILON of the full sum.  The points
inside that radius are enumerated by a Fincke-Pohst walk on the pivots of
algebra's exact elimination of C and kept by an exact integer norm test;
their terms are summed with math.fsum, so a value is correctly rounded and
independent of the order of enumeration.  A Weyl-antisymmetrized sum walks
the lattice once per orbit, at its dominant image, and maps those points to
every other image by exact reflections of their integer labels.  Point sets
are kept in a store bounded by the points it holds.  The layer is plain
Python and imports only algebra and errors; it loads fusion and identity only
when verify_kw_identity runs, so theta sums and finite-tau characters need
neither.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub, truediv
from typing import NamedTuple

from .algebra import (TWO_PI, AlgebraSpec, Weight, _gauss_jordan, _generic_pairing_vector,
                       cartan_inverse, integer_gram, pairing_numerator, require_rank,
                       signed_orbit)
from .errors import CapExceeded, CheckedTuple, SingularPointError

_RADIUS_CAP = 60.0
_POINT_CAP = 1 << 23    # lattice points per enumeration
_SLACK = 1e-9           # relative widening of the float enumeration bounds

#: every theta sum is within this of the full lattice sum
TRUNCATION_EPSILON = 1e-12


def _require_simply_laced(spec: AlgebraSpec):
    if spec.series not in ("A", "D", "E"):
        raise ValueError(f"theta sums are defined for the ADE series, not {spec}")


def _require_finite(name: str, *values):
    if not all(cmath.isfinite(x) for x in values):
        raise ValueError(f"{name} must be finite, got {', '.join(map(str, values))}")


class ThetaContext(CheckedTuple, NamedTuple("ThetaContext", [
        ("spec", AlgebraSpec), ("level", int), ("tau", complex), ("u", tuple)])):
    """Evaluation context: algebra, theta level, modular parameter tau, vector u.

    ``level`` is the k of Theta_{gamma,k}; character-level callers pass
    k + c.
    """

    __slots__ = ()

    def __new__(cls, spec: AlgebraSpec, level: int, tau, u):
        _require_simply_laced(spec)
        if level <= 0:
            raise ValueError("theta level must be a positive integer")
        tau = complex(tau)
        _require_finite("tau", tau)
        if tau.imag <= 0:
            raise ValueError(f"Im(tau) = {tau.imag} must be positive")
        u = tuple(complex(x) for x in u)
        _require_finite("u", *u)
        if len(u) != spec.rank:
            raise ValueError(f"u has length {len(u)}, expected rank {spec.rank}")
        return super().__new__(cls, spec, level, tau, u)


@lru_cache(maxsize=None)
def _smallest_eigenvalue(matrix: tuple) -> float:
    """Smallest eigenvalue of a symmetric matrix by cyclic Jacobi sweeps, run
    until every off-diagonal entry is zero.  Each rotation zeroes a_pq and
    moves t a_pq between a_pp and a_qq, so a 2 x 2 block of small integers
    comes out exact (1.0 and 3.0 on A2)."""
    a = [[float(x) for x in row] for row in matrix]
    pairs = [(p, q) for p in range(len(a)) for q in range(p + 1, len(a))]
    for p, q in pairs * 64:  # 64 sweeps at most; zero entries are skipped
        if not a[p][q]:
            continue
        theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
        c = 1.0 / math.hypot(t, 1.0)
        s, tau = t * c, t * c / (1.0 + c)
        a[p][p] -= t * a[p][q]
        a[q][q] += t * a[p][q]
        a[p][q] = a[q][p] = 0.0
        for r in set(range(len(a))) - {p, q}:
            g, h = a[r][p], a[r][q]
            a[r][p] = a[p][r] = g - s * (h + g * tau)
            a[r][q] = a[q][r] = h + s * (g - h * tau)
    return min(a[i][i] for i in range(len(a)))


@lru_cache(maxsize=None)
def _root_cholesky(spec: AlgebraSpec):
    """(d, m) with x A x^T = sum_i d_i (x_i + sum_{j>i} m_ij x_j)^2 for the
    root Gram matrix A = C: the exact pivots of its elimination, as floats."""
    pivots = _gauss_jordan(spec.cartan)[2]
    return [float(d) for d, _ in pivots], [list(map(float, row)) for _, row in pivots]


def _matvec(matrix, vector) -> list:
    return [sum(x * y for x, y in zip(row, vector)) for row in matrix]


def _ellipsoid(spec: AlgebraSpec, gamma: Weight, level: int, radius_sq: float):
    """(N, w) for every w = gamma + level n C (n integral) whose v = w / level
    has |v|^2 <= radius_sq, and perhaps a few just outside; N = level^2 D |v|^2
    = w^T (D G) w exactly.

    A level-by-level Fincke-Pohst walk (Math. Comp. 44, 1985), last
    coordinate first, over x = n - center with center C = -gamma / level.
    Its float bounds are widened by _SLACK, so it visits a superset of the
    exact set; w and (D G) w are integers updated along the walk, and N
    along the first coordinate by its exact first differences."""
    d, m = _root_cholesky(spec)
    _, dg = integer_gram(spec)
    center = [float(-sum(map(mul, gamma, column)) / level)
              for column in zip(*cartan_inverse(spec))]
    steps = [[level * c for c in row] for row in spec.cartan]
    dg_steps = [_matvec(dg, step) for step in steps]
    # (remaining budget, x_j for j > i, w, (D G) w) per partial vector
    partials = [(radius_sq * (1.0 + _SLACK) + _SLACK, (), list(gamma), _matvec(dg, gamma))]
    for i in reversed(range(spec.rank)):
        row, ci, di, step, dg_step = m[i][i + 1:], center[i], d[i], steps[i], dg_steps[i]
        spans = []
        for budget, xs, _, _ in partials:
            mid = ci - sum(map(mul, row, xs))
            half = math.sqrt(max(budget, 0.0) / di)
            pad = _SLACK * (1.0 + abs(mid) + half)
            spans.append((range(math.ceil(mid - half - pad), math.floor(mid + half + pad) + 1), mid))
        _check_points(spec, sum(len(span) for span, _ in spans))
        if i == 0:
            break
        partials = [(budget - di * (n - mid) ** 2, (n - ci,) + xs,
                     [a + n * s for a, s in zip(w, step)], [a + n * s for a, s in zip(gw, dg_step)])
                    for (budget, xs, w, gw), (span, mid) in zip(partials, spans) for n in span]
    curvature = sum(map(mul, step, dg_step))
    for (_, _, w, gw), (span, _) in zip(partials, spans):
        w = tuple([a + span.start * s for a, s in zip(w, step)])
        gw = [a + span.start * s for a, s in zip(gw, dg_step)]
        norm, slope = sum(map(mul, w, gw)), sum(map(mul, step, gw))
        for _ in span:
            yield norm, w
            norm += 2 * slope + curvature
            slope += curvature
            w = tuple(map(add, w, step))


#: lattice points kept over all stored point sets; past it a set is built but not kept
_POINT_STORE_ENTRIES = 1 << 17


class _PointStore(dict):
    """Point sets by (spec, level, radius, coset key), and the points they hold."""

    points = 0

    def keep(self, key, points):
        if self.points + len(points[0]) <= _POINT_STORE_ENTRIES:
            self[key] = points
            self.points += len(points[0])

    def clear(self):
        super().clear()
        self.points = 0


_point_store = _PointStore()


def _check_points(spec: AlgebraSpec, count: int):
    if count > _POINT_CAP:
        raise CapExceeded(f"theta sum over {spec} needs more than {_POINT_CAP} lattice "
                          f"points", required=count)


def _lattice_points(spec: AlgebraSpec, gamma: Weight, level: int, radius: float,
                    parents=None):
    """(norms, shifts, labels) for the points w of gamma + level Q with
    float(|v|^2) <= radius^2, v = w / level: |v|^2 per point, and one column
    per coordinate of v (floats, each its rational correctly rounded) and of
    w (ints).  Read from the store, or else reflected from ``parents`` (the
    orbit level below gamma, by image) or enumerated, and kept if it fits."""
    d, dg = integer_gram(spec)
    # D G = D C^-1 on ADE, so gamma (D G) mod D level names the coset exactly
    key = (spec, level, radius, tuple(sum(map(mul, gamma, row)) % (d * level) for row in dg))
    points = _point_store.get(key)
    if points is None:
        if parents:
            points = _reflect_points(spec, gamma, parents, level)
        else:
            limit, denominator = radius * radius, d * level * level
            kept = [(norm, w) for numerator, w in _ellipsoid(spec, gamma, level, limit)
                    if (norm := numerator / denominator) <= limit]
            norms, labels = zip(*kept) if kept else ((), ())
            labels = tuple(zip(*labels)) or ((),) * spec.rank
            points = norms, tuple(tuple(map(truediv, c, repeat(level))) for c in labels), labels
        _point_store.keep(key, points)
    return points


def _reflect_points(spec: AlgebraSpec, image: Weight, parents: dict, level: int):
    """The points of image x: its parent's, s_i x with i the first negative
    label of x, under w -> w - w_i alpha_i, norms unchanged (W is an isometry
    of the root lattice).  Each changed column of v is divided afresh."""
    i = next(j for j, x in enumerate(image) if x < 0)
    root = spec.cartan[i]
    norms, shifts, labels = parents[tuple(map(sub, image, map(mul, root, repeat(image[i]))))]
    _check_points(spec, len(norms))
    shifts, labels, pivot = list(shifts), list(labels), labels[i]
    for j, a in enumerate(root):
        if a:
            labels[j] = tuple(map(sub, labels[j], map(mul, pivot, repeat(a))))
            shifts[j] = tuple(map(truediv, labels[j], repeat(level)))
    return norms, tuple(shifts), tuple(labels)


@lru_cache(maxsize=4096)
def _representative(spec: AlgebraSpec, gamma: Weight, level: int) -> Weight:
    """The shortest gamma' = gamma + level beta, beta in the root lattice,
    ties to the smallest labels: the exact minimum over the ball through the
    Babai rounding of the coset center.  Theta_{gamma'} = Theta_gamma."""
    d, _ = integer_gram(spec)
    shift = [round(-sum(map(mul, gamma, column)) / level) for column in zip(*cartan_inverse(spec))]
    babai = tuple(g + level * sum(map(mul, shift, column))
                  for g, column in zip(gamma, zip(*spec.cartan)))
    norm = pairing_numerator(spec, babai, babai)
    return min(_ellipsoid(spec, gamma, level, norm / (d * level * level)),
               default=(norm, babai))[1]


class Truncation(NamedTuple):
    """How theta_sum truncates the sum at gamma.  ``shift`` is the shortest
    representative of gamma + level Q, from which the sum is taken; it
    covers the ``lattice_points`` points with |v| <= ``radius``, and the
    neglected terms add up to less than ``tail_bound``."""

    shift: Weight
    radius: float
    lattice_points: int
    tail_bound: float


def _cut(ctx: ThetaContext, gamma: Weight, margin: float = 0.0):
    """(shift, radius, tail bound) of truncation(ctx, gamma, margin), with
    no point enumerated."""
    spec, level = ctx.spec, ctx.level
    gamma = tuple(int(x) for x in gamma)
    require_rank(spec, gamma)
    shift = _representative(spec, gamma, level)
    d, _ = integer_gram(spec)
    shift_norm = max(1.0, math.ceil(math.sqrt(
        pairing_numerator(spec, shift, shift) / (d * level * level))))
    im_u = [x.imag for x in ctx.u]
    im_u_norm = math.sqrt(math.fsum(map(mul, im_u, _generic_pairing_vector(spec, im_u))))
    sqrt_eig = math.sqrt(_smallest_eigenvalue(spec.cartan))
    kt = math.pi * level * ctx.tau.imag
    kb = TWO_PI * level * (im_u_norm + margin)

    def tail(radius: float) -> float:
        total = 0.0
        r = radius
        while True:
            box = 2 * math.ceil((r + 1.0 + shift_norm) / sqrt_eig) + 1
            term = box**spec.rank * math.exp(-kt * r * r + kb * r)
            total += term
            if term < TRUNCATION_EPSILON * 1e-9 or total > 1e30:
                return total
            r += 1.0

    radius = max(1.0, shift_norm + 1.0, kb / (2 * kt) + 1.0)
    while (bound := tail(radius)) >= TRUNCATION_EPSILON:
        radius += 1.0
        if radius > _RADIUS_CAP:
            raise CapExceeded(f"Im(tau) = {ctx.tau.imag} too small to reach epsilon = "
                              f"{TRUNCATION_EPSILON} within radius {_RADIUS_CAP}")
    return shift, radius, bound


def truncation(ctx: ThetaContext, gamma: Weight, margin: float = 0.0) -> Truncation:
    """The truncation of theta_sum at gamma: the smallest radius whose tail
    is provably below TRUNCATION_EPSILON.  Term magnitudes at norm r are bounded by
    exp(-pi k t r^2 + 2 pi k b r), t = Im(tau), b = |Im u| + margin (for
    callers that move u); shell populations by a box count through the
    smallest Gram eigenvalue."""
    shift, radius, bound = _cut(ctx, gamma, margin)
    points = len(_lattice_points(ctx.spec, shift, ctx.level, radius)[0])
    return Truncation(shift, radius, points, bound)


def _point_sum(level: int, tau: complex, gu: tuple, points) -> complex:
    """The lattice sum over a point set of _lattice_points at gu = G u.
    Each (v, G u) is formed left to right, in separate real and imaginary
    parts; the real and imaginary parts of the terms are each summed with
    math.fsum, so the value is correctly rounded, and each term's floats
    depend on its own norm and labels only."""
    norms, columns, _ = points

    def scaled_pairing(parts, scale):
        total = repeat(0.0)
        for column, part in zip(columns, parts):
            total = map(add, total, map(mul, column, repeat(part)))
        return map(mul, total, repeat(scale))

    a, b = 1j * math.pi * level * tau, TWO_PI * level
    exponent = map(mul, norms, repeat(a.real))
    if any(z.imag for z in gu):  # with real G u this term is a signed zero
        exponent = map(sub, exponent, scaled_pairing([z.imag for z in gu], b))
    size = list(map(math.exp, exponent))
    angle = list(map(add, map(mul, norms, repeat(a.imag)),
                     scaled_pairing([z.real for z in gu], b)))
    return complex(math.fsum(map(mul, size, map(math.cos, angle))),
                   math.fsum(map(mul, size, map(math.sin, angle))))


def _theta_raw(spec: AlgebraSpec, level: int, tau: complex, u, gamma: Weight,
               radius: float) -> complex:
    """Truncated lattice sum over the coset of gamma; radius chosen by the caller."""
    return _point_sum(level, tau, _generic_pairing_vector(spec, u),
                      _lattice_points(spec, tuple(gamma), level, radius))


def theta_sum(ctx: ThetaContext, gamma: Weight) -> complex:
    """Theta_{gamma, level} at the context's (tau, u)."""
    shift, radius, _ = _cut(ctx, gamma)
    return _theta_raw(ctx.spec, ctx.level, ctx.tau, ctx.u, shift, radius)


def theta_weyl(ctx: ThetaContext, gamma: Weight) -> complex:
    """Weyl-antisymmetrized theta sum sum_w (-1)^w Theta_{w gamma} over the
    sorted images of gamma, each valued as theta_sum values it, bit for bit.
    Only the dominant image is enumerated: the signed orbit lists the images
    level by level, its sign flipping at each, and each image reflects its
    parent's points at the dominant radius (W is an isometry)."""
    spec, level = ctx.spec, ctx.level
    gamma = tuple(int(x) for x in gamma)
    images, signs, stabiliser = signed_orbit(spec, gamma)
    if stabiliser > 1:  # a wall cancels exactly, before any float work
        return 0j
    radius = _cut(ctx, images[0])[1]
    gu = _generic_pairing_vector(spec, ctx.u)
    values, parents, points = {}, {}, {}
    for image, sign, previous in zip(images, signs, (0,) + signs):
        if sign != previous:  # the walk enters its next level
            parents, points = points, {}
        points[image] = _lattice_points(spec, image, level, radius, parents)
        values[image] = _point_sum(level, ctx.tau, gu, points[image])
    total = 0j
    for image, sign in sorted(zip(images, signs)):
        total += sign * values[image]
    return total


def kac_weyl_char(ctx: ThetaContext, mu: Weight) -> complex:
    """Finite-tau character: the ratio of antisymmetrized theta sums
    Theta^-_{mu+rho} / Theta^-_{rho} at the context's shifted level.

    The context level must already be k + c.  mu may be any weight (virtual
    extensions are legal and may evaluate to zero or to signed characters).
    """
    numerator = theta_weyl(ctx, tuple(m + 1 for m in mu))  # checks the length of mu first
    denominator = theta_weyl(ctx, ctx.spec.rho)
    if abs(denominator) < 1e-13:
        raise SingularPointError(f"(tau, u) = ({ctx.tau}, {ctx.u}) is a zero of the "
                                 f"theta denominator")
    return numerator / denominator


def check_T_transform(ctx: ThetaContext, gamma: Weight) -> float:
    """Residual of Theta(tau+1, u) = exp(i pi (gamma,gamma)/k) Theta(tau, u).

    The phase exponent is reduced mod 2 exactly before exponentiation; it is
    the same for every gamma of one coset gamma + kQ."""
    spec, level = ctx.spec, ctx.level
    shift, radius, _ = _cut(ctx, gamma)
    points = _lattice_points(spec, shift, level, radius)
    gu = _generic_pairing_vector(spec, ctx.u)
    lhs = _point_sum(level, ctx.tau + 1.0, gu, points)
    d, _ = integer_gram(spec)
    period = d * level  # (gamma, gamma)/level = N / period
    norm = pairing_numerator(spec, shift, shift)
    phase = cmath.exp(1j * math.pi * ((norm % (2 * period)) / period))
    rhs = phase * _point_sum(level, ctx.tau, gu, points)
    return abs(lhs - rhs)


def check_heat_equation(ctx: ThetaContext, gamma: Weight, h: float = 1e-3) -> float:
    """Central-difference residual of the Gaussian evolution equation

        (laplacian_u - 4 pi i k d/dtau) Theta = 0

    where the Laplacian is weighted by the inverse quadratic form (the
    coordinates pair through G, so contraction needs G^-1, the Cartan
    matrix on ADE).  Expected to scale as h^2 on top of truncation noise."""
    spec, level = ctx.spec, ctx.level
    shift, radius, _ = _cut(ctx, gamma, margin=2.0 * h)
    points = _lattice_points(spec, shift, level, radius)

    def value(tau, *moves):
        u = list(ctx.u)
        for axis, sign in moves:
            u[axis] += sign * h
        return _point_sum(level, tau, _generic_pairing_vector(spec, u), points)

    tau, g_inv = ctx.tau, spec.cartan
    center = value(tau)
    laplacian = 0j
    for a in range(spec.rank):
        second = value(tau, (a, 1)) - 2 * center + value(tau, (a, -1))
        laplacian += g_inv[a][a] * second * (1.0 / (h * h))
        for b in range(a + 1, spec.rank):
            mixed = (
                value(tau, (a, 1), (b, 1)) - value(tau, (a, 1), (b, -1))
                - value(tau, (a, -1), (b, 1)) + value(tau, (a, -1), (b, -1))
            ) / (4 * h * h)
            laplacian += 2 * g_inv[a][b] * mixed

    d_tau = (value(tau + h) - value(tau - h)) / (2 * h)
    return abs(laplacian - 2j * TWO_PI * level * d_tau)


def antisymmetric_theta_sums(spec: AlgebraSpec, level: int, terms, points) -> list:
    """sum over (lam, c) in terms of c Theta^-_{lam, level} at every (tau, u)
    point.  Wall weights need no normalization: their images cancel exactly."""
    contexts = (ThetaContext(spec, level, tau, u) for tau, u in points)
    return [sum((c * theta_weyl(ctx, lam) for lam, c in terms), 0j) for ctx in contexts]


def verify_kw_identity(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int,
                       points, tolerance: float = 1e-9):
    """Finite-tau numerator identity over a grid of (tau, u) points:

        sum_{mu' in Omega_mu} m Theta^-_{mu'+nu+rho, k+c}
            = sum_iota N_{mu nu}^iota Theta^-_{iota+rho, k+c}

    checked by identity.check_identity with the antisymmetrised theta kernel;
    returns its VerificationReport.
    """
    from .fusion import fuse_level_k
    from .identity import check_identity

    _require_simply_laced(spec)
    mu, nu = tuple(mu), tuple(nu)
    level_shifted = k + spec.dual_coxeter
    return check_identity(
        f"kw-identity:{spec}:k={k}:mu={mu}:nu={nu}", spec, mu, nu,
        fuse_level_k(spec, mu, nu, k), [(tau, tuple(u)) for tau, u in points],
        lambda terms, pts: antisymmetric_theta_sums(spec, level_shifted, terms, pts),
        tolerance,
    )


def _suite_theta(spec: AlgebraSpec, config):
    from .identity import make_report

    k = config.k
    taus = [0.5j, 1j, 0.3 + 2j]
    gammas = [spec.rho, (1,) + (0,) * (spec.rank - 1), (0,) * spec.rank]
    u = tuple(0.05 + 0.01 * i for i in range(spec.rank))

    def t_residuals():
        for tau in taus:
            ctx = ThetaContext(spec, k, tau, u)
            for gamma in gammas:
                yield (tau, gamma), complex(check_T_transform(ctx, gamma)), 0j

    yield make_report(f"theta-T-transform:{spec}:k={k}", 1e-10, t_residuals()), None, None

    ctx = ThetaContext(spec, k, 1j, u)
    coarse = check_heat_equation(ctx, spec.rho, h=2e-3)
    fine = check_heat_equation(ctx, spec.rho, h=1e-3)
    ratio = coarse / fine if fine else math.inf
    yield make_report(
        f"theta-heat-equation:{spec}:k={k}", 0.5,
        [(("ratio",), complex(ratio), complex(4.0))],
    ), None, None
