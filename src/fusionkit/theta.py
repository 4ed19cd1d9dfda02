"""Lattice theta sums at finite modular parameter, their Weyl
(anti)symmetrizations, and the finite-tau characters built from them.
Simply-laced algebras only: the construction leans on the even root lattice
((alpha, alpha) in 2Z) through both functional equations.

The basic object is

    Theta_{gamma,k}(tau, u) = sum over root-lattice alpha of
        exp(i pi k tau (alpha + gamma/k)^2 + 2 pi i k (alpha + gamma/k, u))

with Im(tau) > 0 for absolute convergence.  The sum is truncated at a radius
derived from a Gaussian tail bound (smallest eigenvalue of the root-lattice
Gram matrix), so every reported value is within the context epsilon of the
full sum.  The points inside that radius are enumerated by a Fincke-Pohst
walk and kept by an exact integer norm test; their terms are summed with
math.fsum, so a value is correctly rounded and does not depend on the order
of enumeration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraSpec, Weight, integer_gram, pairing_numerator
from .characters import TWO_PI, signed_orbit_array
from .errors import CapExceeded, SingularPointError
from .fusion import fuse_level_k
from .identity import VerificationReport, check_identity

_RADIUS_CAP = 60.0
_POINT_CAP = 1 << 23    # lattice points per enumeration
_SLACK = 1e-9           # relative widening of the float enumeration bounds
_EXACT = 1 << 53        # integers below this convert to float exactly


def _require_simply_laced(spec: AlgebraSpec):
    if spec.series not in ("A", "D", "E"):
        raise ValueError(f"theta sums are defined for the ADE series, not {spec}")


@dataclass(frozen=True)
class ThetaContext:
    """Evaluation context: algebra, theta level, modular parameter tau,
    vector u, and target truncation error.

    ``level`` is the k of Theta_{gamma,k}; character-level callers pass
    k + c.  ``radius`` is the derived truncation bound for shifts gamma/k
    inside the unit ball; larger shifts grow it per call.
    """

    spec: AlgebraSpec
    level: int
    tau: complex
    u: tuple
    epsilon: float = 1e-12

    def __post_init__(self):
        _require_simply_laced(self.spec)
        if self.level <= 0:
            raise ValueError("theta level must be a positive integer")
        object.__setattr__(self, "tau", complex(self.tau))
        if self.tau.imag <= 0:
            raise ValueError(f"Im(tau) = {self.tau.imag} must be positive")
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))
        if len(self.u) != self.spec.rank:
            raise ValueError(f"u has length {len(self.u)}, expected rank {self.spec.rank}")

    @property
    def radius(self) -> float:
        return _truncation_radius(
            self.spec, self.level, self.tau.imag, self._im_u_norm(), self.epsilon, 1.0
        )[0]

    def _im_u_norm(self) -> float:
        g = _gram_float(self.spec)
        imu = np.array([x.imag for x in self.u])
        return float(np.sqrt(imu @ g @ imu)) if imu.any() else 0.0


@lru_cache(maxsize=None)
def _gram_float(spec: AlgebraSpec):
    return np.array([[float(x) for x in row] for row in spec.quad_form])


@lru_cache(maxsize=None)
def _root_gram(spec: AlgebraSpec):
    """Gram matrix of the simple roots and its smallest eigenvalue."""
    c = np.array(spec.cartan, dtype=float)
    gram = c @ _gram_float(spec) @ c.T
    return gram, float(np.linalg.eigvalsh(gram).min())


@lru_cache(maxsize=4096)
def _truncation_radius(spec: AlgebraSpec, level: int, im_tau: float, im_u_norm: float,
                       epsilon: float, shift_norm: float) -> tuple[float, float]:
    """Smallest radius R such that the neglected tail is provably < epsilon,
    and that certified tail bound.

    Term magnitudes at norm r are bounded by exp(-pi k t r^2 + 2 pi k b r);
    shell populations by a box count through the smallest Gram eigenvalue.
    """
    _, eig_min = _root_gram(spec)
    sqrt_eig = math.sqrt(eig_min)
    kt = math.pi * level * im_tau
    kb = TWO_PI * level * im_u_norm

    def tail(radius: float) -> float:
        total = 0.0
        r = radius
        while True:
            box = 2 * math.ceil((r + 1.0 + shift_norm) / sqrt_eig) + 1
            term = box**spec.rank * math.exp(-kt * r * r + kb * r)
            total += term
            if term < epsilon * 1e-9 or total > 1e30:
                return total
            r += 1.0

    radius = max(1.0, shift_norm + 1.0, kb / (2 * kt) + 1.0)
    while (bound := tail(radius)) >= epsilon:
        radius += 1.0
        if radius > _RADIUS_CAP:
            raise CapExceeded(
                f"Im(tau) = {im_tau} too small to reach epsilon = {epsilon} "
                f"within radius {_RADIUS_CAP}"
            )
    return radius, bound


def _shift_norm(spec: AlgebraSpec, gamma: Weight, level: int) -> float:
    """|gamma / level|, the square root of a correctly rounded exact norm."""
    d, _ = integer_gram(spec)
    return math.sqrt(pairing_numerator(spec, gamma, gamma) / (d * level * level))


@lru_cache(maxsize=None)
def _root_cholesky(spec: AlgebraSpec):
    """(d, m) with x A x^T = sum_i d_i (x_i + sum_{j>i} m_ij x_j)^2 for the
    root Gram matrix A, read off its upper Cholesky factor."""
    gram, _ = _root_gram(spec)
    upper = np.linalg.cholesky(gram).T
    diag = np.diag(upper)
    return diag * diag, upper / diag[:, None]


def _ellipsoid_candidates(spec: AlgebraSpec, center, radius_sq: float, bound: int):
    """Integer n with |n_i| <= bound and (n - center) A (n - center)^T <=
    radius_sq, as an int64 array of rows.

    A level-by-level Fincke-Pohst walk (Math. Comp. 44, 1985), last
    coordinate first, extends every partial vector at once.  Its float bounds
    are widened by _SLACK, so the result is a superset of the exact set."""
    d, m = _root_cholesky(spec)
    points = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([radius_sq * (1.0 + _SLACK) + _SLACK])
    for i in reversed(range(spec.rank)):
        tail = (points - center[i + 1:]) @ m[i, i + 1:]
        mid = center[i] - tail
        half = np.sqrt(np.maximum(budget, 0.0) / d[i])
        pad = _SLACK * (1.0 + np.abs(mid) + half)
        lo = np.maximum(np.ceil(mid - half - pad), -bound).astype(np.int64)
        hi = np.minimum(np.floor(mid + half + pad), bound).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total > _POINT_CAP:
            raise CapExceeded(
                f"theta sum over {spec} needs more than {_POINT_CAP} lattice points",
                required=total,
            )
        parent = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        coord = lo[parent] + (np.arange(total) - first[parent])
        x = coord - center[i] + tail[parent]
        budget = budget[parent] - d[i] * x * x
        points = np.column_stack([coord, points[parent]])
    return points


@lru_cache(maxsize=4096)
def _lattice_shifts(spec: AlgebraSpec, gamma: Weight, level: int, radius_key: float):
    """Vectors v = alpha + gamma/level over the root lattice with
    |v|^2 <= radius_key^2, as read-only float arrays (|v|^2 per point, v per
    row) in enumeration order.

    Membership is exact: w = level v = gamma + level n C is integral and
    level^2 D |v|^2 = w^T (D G) w.  Each float is the correctly rounded value
    of its rational, the candidates are clipped to the box |n_i| <= bound of
    a plain scan, and a point is kept iff float(|v|^2) <= radius_key^2."""
    d, dg = integer_gram(spec)
    _, eig_min = _root_gram(spec)
    bound = math.ceil((radius_key + _shift_norm(spec, gamma, level)) / math.sqrt(eig_min))
    # v = (n - center) C, so center C = -gamma / level
    center = -np.linalg.solve(np.array(spec.cartan, dtype=float).T, np.array(gamma, dtype=float))
    center /= level
    n = _ellipsoid_candidates(spec, center, radius_key * radius_key, bound)

    # int64 while every product stays below 2^53, where int -> float is exact
    # and one float division is correctly rounded; Python ints past that.
    denominator = d * level * level
    w_max = max(abs(g) + level * bound * sum(abs(row[j]) for row in spec.cartan)
                for j, g in enumerate(gamma))
    fits = max(w_max * w_max * sum(abs(x) for row in dg for x in row), denominator) < _EXACT
    dtype = np.int64 if fits else object
    cartan = np.array(spec.cartan, dtype=dtype)
    w = np.array(gamma, dtype=dtype) + level * (n.astype(dtype, copy=False) @ cartan)
    norms = (((w @ np.array(dg, dtype=dtype)) * w).sum(axis=1) / denominator).astype(float)
    keep = norms <= radius_key * radius_key
    norms, coords = norms[keep], (w[keep] / level).astype(float)
    norms.flags.writeable = False
    coords.flags.writeable = False
    return norms, coords


def _theta_raw(spec: AlgebraSpec, level: int, tau: complex, u, gamma: Weight,
               radius: float) -> complex:
    """Truncated lattice sum; radius chosen by the caller.  One vectorised
    exp over the kept points; the real and imaginary parts of the terms are
    each summed with math.fsum, correctly rounded and in no particular order."""
    norms, coords = _lattice_shifts(spec, tuple(gamma), level, radius)
    gu = _gram_float(spec) @ np.array(u, dtype=complex)
    terms = np.exp(1j * math.pi * level * tau * norms + 1j * TWO_PI * level * (coords @ gu))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def theta_sum(ctx: ThetaContext, gamma: Weight) -> complex:
    """Theta_{gamma, level} at the context's (tau, u)."""
    gamma = tuple(int(x) for x in gamma)
    if len(gamma) != ctx.spec.rank:
        raise ValueError(f"gamma has length {len(gamma)}, expected rank {ctx.spec.rank}")
    radius = _radius_for(ctx, gamma)
    return _theta_raw(ctx.spec, ctx.level, ctx.tau, ctx.u, gamma, radius)


def _radius_for(ctx: ThetaContext, gamma: Weight, margin: float = 0.0) -> float:
    return _truncation_for(ctx, gamma, margin)[0]


def _truncation_for(ctx: ThetaContext, gamma: Weight, margin: float = 0.0):
    """(radius, certified tail bound) for the shift gamma/level."""
    return _truncation_radius(
        ctx.spec, ctx.level, ctx.tau.imag, ctx._im_u_norm() + margin, ctx.epsilon,
        max(1.0, math.ceil(_shift_norm(ctx.spec, gamma, ctx.level))),
    )


def truncation(ctx: ThetaContext, gamma: Weight) -> tuple[float, int, float]:
    """(radius, lattice points kept, certified tail bound) of theta_sum at
    gamma: the sum covers every point with |v| <= radius and the neglected
    terms add up to less than the tail bound."""
    gamma = tuple(int(x) for x in gamma)
    radius, tail = _truncation_for(ctx, gamma)
    norms, _ = _lattice_shifts(ctx.spec, gamma, ctx.level, radius)
    return radius, len(norms), tail


def _signed_orbit_counts(spec: AlgebraSpec, gamma: Weight, parity: int):
    """Net (+-1)^w counts of each Weyl image of gamma, sorted by image.

    Read off the cached signed orbit: a stabilised image appears there with
    both signs, so for parity -1 it cancels exactly, before any float work;
    for parity +1 every image is reached by |W| / |orbit| group elements."""
    images, signs = signed_orbit_array(spec, gamma)
    counts: dict[Weight, int] = {}
    for image, sign in zip(map(tuple, images.tolist()), signs.tolist()):
        counts[image] = counts.get(image, 0) + sign
    if parity > 0:
        stabiliser = spec.weyl_order // len(counts)
        return sorted((image, stabiliser) for image in counts)
    return sorted((image, c) for image, c in counts.items() if c != 0)


def theta_weyl(ctx: ThetaContext, gamma: Weight, parity: int) -> complex:
    """Weyl-symmetrized (parity +1) or antisymmetrized (parity -1) theta sum
    over the full group action on gamma."""
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    gamma = tuple(int(x) for x in gamma)
    total = 0j
    for image, count in _signed_orbit_counts(ctx.spec, gamma, parity):
        total += count * theta_sum(ctx, image)
    return total


def kac_weyl_char(ctx: ThetaContext, mu: Weight) -> complex:
    """Finite-tau character: the ratio of antisymmetrized theta sums
    Theta^-_{mu+rho} / Theta^-_{rho} at the context's shifted level.

    The context level must already be k + c.  mu may be any weight (virtual
    extensions are legal and may evaluate to zero or to signed characters).
    """
    denominator = theta_weyl(ctx, ctx.spec.rho, -1)
    if abs(denominator) < 1e-13:
        raise SingularPointError(
            f"(tau, u) = ({ctx.tau}, {ctx.u}) is a zero of the theta denominator"
        )
    numerator = theta_weyl(ctx, tuple(m + 1 for m in mu), -1)
    return numerator / denominator


def check_T_transform(ctx: ThetaContext, gamma: Weight) -> float:
    """Residual of Theta(tau+1, u) = exp(i pi (gamma,gamma)/k) Theta(tau, u).

    The phase exponent is reduced mod 2 exactly before exponentiation."""
    gamma = tuple(int(x) for x in gamma)
    radius = _radius_for(ctx, gamma)
    lhs = _theta_raw(ctx.spec, ctx.level, ctx.tau + 1.0, ctx.u, gamma, radius)
    d, _ = integer_gram(ctx.spec)
    period = d * ctx.level  # (gamma, gamma)/level = N / period
    norm = pairing_numerator(ctx.spec, gamma, gamma)
    phase = cmath.exp(1j * math.pi * ((norm % (2 * period)) / period))
    rhs = phase * _theta_raw(ctx.spec, ctx.level, ctx.tau, ctx.u, gamma, radius)
    return abs(lhs - rhs)


def check_heat_equation(ctx: ThetaContext, gamma: Weight, h: float = 1e-3) -> float:
    """Central-difference residual of the Gaussian evolution equation

        (laplacian_u - 4 pi i k d/dtau) Theta = 0

    where the Laplacian is weighted by the inverse quadratic form (the
    coordinates pair through G, so contraction needs G^-1).  Expected to
    scale as h^2 on top of truncation noise."""
    gamma = tuple(int(x) for x in gamma)
    spec, level = ctx.spec, ctx.level
    rank = spec.rank
    radius = _radius_for(ctx, gamma, margin=2.0 * h)

    def value(tau, u):
        return _theta_raw(spec, level, tau, u, gamma, radius)

    tau, u = ctx.tau, np.array(ctx.u, dtype=complex)
    g_inv = np.linalg.inv(_gram_float(spec))
    center = value(tau, tuple(u))

    laplacian = 0j
    for a in range(rank):
        e_a = np.eye(rank)[a]
        laplacian += g_inv[a][a] * (
            value(tau, tuple(u + h * e_a)) - 2 * center + value(tau, tuple(u - h * e_a))
        ) / (h * h)
        for b in range(a + 1, rank):
            e_b = np.eye(rank)[b]
            mixed = (
                value(tau, tuple(u + h * e_a + h * e_b))
                - value(tau, tuple(u + h * e_a - h * e_b))
                - value(tau, tuple(u - h * e_a + h * e_b))
                + value(tau, tuple(u - h * e_a - h * e_b))
            ) / (4 * h * h)
            laplacian += 2 * g_inv[a][b] * mixed

    d_tau = (value(tau + h, tuple(u)) - value(tau - h, tuple(u))) / (2 * h)
    return float(abs(laplacian - 2j * TWO_PI * level * d_tau))


def antisymmetric_theta_sums(spec: AlgebraSpec, level: int, terms, points,
                             epsilon: float = 1e-12) -> list:
    """sum over (lam, c) in terms of c Theta^-_{lam, level} at every (tau, u)
    point.  Wall weights need no normalization: their images cancel exactly."""
    contexts = (ThetaContext(spec, level, tau, u, epsilon) for tau, u in points)
    return [sum((c * theta_weyl(ctx, lam, -1) for lam, c in terms), 0j) for ctx in contexts]


def verify_kw_identity(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int,
                       points, tolerance: float = 1e-9,
                       epsilon: float = 1e-12) -> VerificationReport:
    """Finite-tau numerator identity over a grid of (tau, u) points:

        sum_{mu' in Omega_mu} m Theta^-_{mu'+nu+rho, k+c}
            = sum_iota N_{mu nu}^iota Theta^-_{iota+rho, k+c}

    checked by identity.check_identity with the antisymmetrised theta kernel.
    """
    _require_simply_laced(spec)
    mu, nu = tuple(mu), tuple(nu)
    level_shifted = k + spec.dual_coxeter
    return check_identity(
        f"kw-identity:{spec}:k={k}:mu={mu}:nu={nu}", spec, mu, nu,
        fuse_level_k(spec, mu, nu, k), [(tau, tuple(u)) for tau, u in points],
        lambda terms, pts: antisymmetric_theta_sums(spec, level_shifted, terms, pts, epsilon),
        tolerance,
    )


def su2_numerator_closed(j: int, k: int, tau: complex, u: complex,
                         epsilon: float = 1e-12) -> complex:
    """The su(2)_k character numerator as an explicit scalar two-term sum:

        sum_{a in Z}  e^{2 pi i tau K (a + m/2K)^2 + 2 pi i K (a + m/2K) u}
                    - e^{2 pi i tau K (a - m/2K)^2 + 2 pi i K (a - m/2K) u}

    with m = j+1 and K = k+2.  Agrees with theta_weyl(-1) on A1 at
    gamma = (j+1,), and vanishes identically at j = k+1; for j+m > k+1 the
    reflection chi_{j+m} = -chi_{2(k+1)-j-m} follows by an index shift.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError(f"Im(tau) = {tau.imag} must be positive")
    level = k + 2
    shift = (j + 1) / (2.0 * level)
    decay = TWO_PI * tau.imag * level
    growth = TWO_PI * level * abs(complex(u).imag)
    bound = 3 + math.ceil(
        abs(shift) + growth / (2 * decay) + math.sqrt(max(math.log(1 / epsilon), 1.0) / decay)
    )
    def term(x: float) -> complex:
        return cmath.exp(1j * TWO_PI * tau * level * x * x + 1j * TWO_PI * level * x * u)

    total = 0j
    for a in range(-bound, bound + 1):
        total += term(a + shift) - term(a - shift)
    return total
