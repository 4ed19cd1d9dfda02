"""Finite Gaussian model on the torus: clock and shift operators, Weyl-odd
primary states, the discrete Fourier (S) operator, and the operator-level
fusion expansion.

The state space is the weight lattice modulo K times the coroot lattice
(K = k + c), the affine Weyl translations; that identification is what
truncates the Wilson-operator ring to the level-k fusion ring, and for the
simply-laced series it is also the minimal quotient on which the clock
phases exp(2 pi i (C^-1 v)_j / K) separate states.  Concretely, states are
stored on a covering array (Z_L)^rank with L = qK (q the smallest integer
with q Z^rank inside the coroot lattice), restricted to functions invariant
under the finite radical R = (K coroot lattice) / L Z^rank; shifts stay
plain axis rolls that way.  For A1 the radical is trivial and the model is
literally Z_L with L = 2(k+2); at k=2 the clock eigenvalues are the 8th
roots of unity.

Operators are applied lazily as sums of phase/shift monomials with integer
phase exponents mod L, so operator identities hold to rounding error.  Only
the Fourier kernel is dense, and only below a hard size cap.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgebraSpec,
    Weight,
    _gauss_jordan,
    cartan_inverse,
)
from .characters import VarietyPoint, eval_D, signed_orbit_array
from .errors import CapExceeded, DEFAULT_CAPS, InvariantViolation, OracleMismatchError
from .fusion import is_integrable, level_k_weights
from .weights import weight_system

_DENSE_FOURIER_CAP = 1024

#: bytes of read-only primary states kept per model
_STATE_CACHE_BYTES = 1 << 26


@dataclass(frozen=True)
class GaussianModel:
    """Finite-dimensional level-k realization of the clock/shift algebra."""

    spec: AlgebraSpec
    k: int
    level_shifted: int          # K = k + c
    denominator_clear: int      # q: smallest positive integer with q Z^rank inside Q-vee
    period: int                 # L = q K, the covering array side
    phase_matrix: tuple = field(repr=False)   # q C^-1, exact integers
    radical: tuple = field(repr=False)        # K Q-vee mod L, as index tuples

    def __hash__(self) -> int:
        # every other field is a function of (spec, k)
        return hash((self.spec, self.k))

    @property
    def shape(self):
        return (self.period,) * self.spec.rank

    @property
    def cover_size(self) -> int:
        return self.period**self.spec.rank

    @property
    def size(self) -> int:
        """Dimension of the faithful state space: the index of K Q-vee in the
        weight lattice (for the simply-laced series, K^rank det C)."""
        return self.cover_size // len(self.radical)


def _coroot_labels(spec: AlgebraSpec):
    """Dynkin labels of the simple coroots, rows of diag(1/d) C."""
    rank = spec.rank
    halfnorms = [sum(spec.quad_form[i][j] * spec.cartan[i][j] for j in range(rank))
                 for i in range(rank)]
    rows = []
    for j in range(rank):
        row = [Fraction(spec.cartan[j][i]) / halfnorms[j] for i in range(rank)]
        if any(x.denominator != 1 for x in row):
            raise InvariantViolation(f"coroot {j} of {spec} has non-integral labels {row}")
        rows.append(tuple(int(x) for x in row))
    return tuple(rows)


def build_model(spec: AlgebraSpec, k: int, hilbert_cap: int | None = None) -> GaussianModel:
    """Assemble the level-k Gaussian model, failing loudly past the cap.

    States are identified under translation by K times the coroot lattice,
    the affine Weyl translations; that is what truncates the Wilson-operator
    ring to the level-k fusion ring.  The clock phases must be constant on
    those classes, which holds for the simply-laced series, B2, the C series,
    F4 and G2 but genuinely fails for some others (B3 for instance); such
    algebras are rejected."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    cap = DEFAULT_CAPS.hilbert if hilbert_cap is None else hilbert_cap
    inv = cartan_inverse(spec)
    coroots = _coroot_labels(spec)
    for row in coroots:
        image = [sum(inv[m][i] * row[i] for i in range(spec.rank)) for m in range(spec.rank)]
        if not all(x.denominator == 1 for x in image):
            raise ValueError(
                f"clock phases of {spec} are not constant on affine translation "
                f"classes; the Gaussian model construction does not apply"
            )
    coroot_det, coroot_inv = _gauss_jordan(coroots)
    q = math.lcm(*(entry.denominator for row in coroot_inv for entry in row))
    if any((q * entry).denominator != 1 for row in inv for entry in row):
        raise InvariantViolation(f"q = {q} does not clear the denominators of C^-1 of {spec}")

    level_shifted = k + spec.dual_coxeter
    period = q * level_shifted
    if period**spec.rank > cap:
        raise CapExceeded(
            f"Gaussian model for {spec} at k={k} needs a size-{period**spec.rank} "
            f"covering array (cap {cap})",
            required=period**spec.rank,
        )
    phase_matrix = tuple(tuple(int(q * entry) for entry in row) for row in inv)
    radical = _radical_subgroup(coroots, level_shifted, period)
    model = GaussianModel(spec, k, level_shifted, q, period, phase_matrix, radical)
    index = abs(int(coroot_det))
    if model.size != level_shifted**spec.rank * index:
        raise InvariantViolation(f"Gaussian model size {model.size} is not "
                                 f"K^rank * index = {level_shifted**spec.rank * index}")
    return model


def _radical_subgroup(coroots, level_shifted: int, period: int):
    """K Q-vee mod L: the translations glued to the identity on the array."""
    rank = len(coroots)
    generators = [
        tuple(level_shifted * coroots[j][i] % period for i in range(rank))
        for j in range(rank)
    ]
    seen = {(0,) * rank}
    frontier = [(0,) * rank]
    while frontier:
        nxt = []
        for element in frontier:
            for gen in generators:
                candidate = tuple((e + g) % period for e, g in zip(element, gen))
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return tuple(sorted(seen))


def basis_state(model: GaussianModel, v) -> np.ndarray:
    """The normalized physical state |v>: the radical-averaged class of the
    array index v."""
    state = np.zeros(model.shape, dtype=complex)
    amplitude = 1.0 / math.sqrt(len(model.radical))
    base = tuple(int(x) for x in v)
    for t in model.radical:
        index = tuple((b + dt) % model.period for b, dt in zip(base, t))
        state[index] = amplitude
    return state


def vacuum_state(model: GaussianModel) -> np.ndarray:
    """|0>: unit-norm, fixed by every clock operator."""
    return basis_state(model, (0,) * model.spec.rank)


def inner(bra: np.ndarray, ket: np.ndarray) -> complex:
    return complex(np.vdot(bra, ket))


def _phase_array(model: GaussianModel, power) -> np.ndarray:
    """exp(2 pi i (power^T C^-1 v)/K) over all v, via per-axis integer
    residues mod L; separable because the exponent is linear in v."""
    L = model.period
    rank = model.spec.rank
    b = model.phase_matrix
    coeffs = [sum(power[i] * b[i][j] for i in range(rank)) % L for j in range(rank)]
    result = np.ones((), dtype=complex)
    for axis, c in enumerate(coeffs):
        arr = np.exp(2j * np.pi * (c * np.arange(L) % L) / L)
        shape = [1] * rank
        shape[axis] = L
        result = result * arr.reshape(shape)
    return np.broadcast_to(result, model.shape)


class LatticeOperator:
    """Sum of phase/shift monomials, applied without dense matrices.

    A monomial (coeff, shift, power) acts as
        |v>  ->  coeff * exp(2 pi i (power^T C^-1 v)/K) |v + shift>.
    Clock operators are pure powers, shift operators pure shifts; products
    stay in this family up to exact root-of-unity scalars.
    """

    def __init__(self, model: GaussianModel, terms):
        self.model = model
        self.terms = tuple(
            (complex(c), tuple(int(x) for x in s), tuple(int(x) for x in p))
            for c, s, p in terms
        )

    def apply(self, state: np.ndarray) -> np.ndarray:
        out = np.zeros_like(state)
        for coeff, shift, power in self.terms:
            piece = state
            if any(power):
                piece = piece * _phase_array(self.model, power)
            if any(shift):
                piece = np.roll(piece, shift, axis=tuple(range(self.model.spec.rank)))
            out += coeff * piece
        return out

    def _commutation_scalar(self, power, shift) -> complex:
        L = self.model.period
        b = self.model.phase_matrix
        rank = self.model.spec.rank
        exponent = sum(
            power[i] * b[i][j] * shift[j] for i in range(rank) for j in range(rank)
        ) % L
        return cmath.exp(2j * cmath.pi * exponent / L)

    def __matmul__(self, other: "LatticeOperator") -> "LatticeOperator":
        merged = []
        for c2, s2, p2 in self.terms:
            for c1, s1, p1 in other.terms:
                # moving the phase of p2 past the shift s1 costs a scalar
                scalar = self._commutation_scalar(p2, s1)
                merged.append((
                    c2 * c1 * scalar,
                    tuple(x + y for x, y in zip(s1, s2)),
                    tuple(x + y for x, y in zip(p1, p2)),
                ))
        return LatticeOperator(self.model, merged)

    def dagger(self) -> "LatticeOperator":
        terms = []
        for c, s, p in self.terms:
            scalar = self._commutation_scalar(p, s)
            terms.append((c.conjugate() * scalar, tuple(-x for x in s), tuple(-x for x in p)))
        return LatticeOperator(self.model, terms)


def clock_op(model: GaussianModel, j: int) -> LatticeOperator:
    """a_j: diagonal with eigenvalue exp(2 pi i (C^-1 v)_j / K) at |v>."""
    if not 1 <= j <= model.spec.rank:
        raise ValueError(f"operator index {j} out of range")
    power = tuple(int(i == j - 1) for i in range(model.spec.rank))
    return LatticeOperator(model, [(1.0, (0,) * model.spec.rank, power)])


def shift_op(model: GaussianModel, j: int) -> LatticeOperator:
    """b_j: |v> -> |v + e_j>."""
    if not 1 <= j <= model.spec.rank:
        raise ValueError(f"operator index {j} out of range")
    shift = tuple(int(i == j - 1) for i in range(model.spec.rank))
    return LatticeOperator(model, [(1.0, shift, (0,) * model.spec.rank)])


def _sample_indices(model: GaussianModel, count: int, seed: int = 20259):
    """Deterministic sample of array indices; everything if the model is small."""
    if model.cover_size <= count:
        return list(np.ndindex(model.shape))
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(model.cover_size), count))
    return [tuple(int(x) for x in np.unravel_index(i, model.shape)) for i in picks]


def check_clock_commutator(model: GaussianModel, sample: int = 64) -> float:
    """Max residual of a_m b_j a_m^-1 b_j^-1 = exp(2 pi i (C^-1)_{mj}/K)
    over all operator pairs, applied to a basis sample."""
    rank = model.spec.rank
    inv = cartan_inverse(model.spec)
    indices = _sample_indices(model, sample)
    worst = 0.0
    for m in range(1, rank + 1):
        for j in range(1, rank + 1):
            a, b = clock_op(model, m), shift_op(model, j)
            commutator = a @ b @ a.dagger() @ b.dagger()
            phase = cmath.exp(
                2j * cmath.pi * float((inv[m - 1][j - 1] / model.level_shifted) % 1)
            )
            for v in indices:
                state = basis_state(model, v)
                residual = np.abs(commutator.apply(state) - phase * state).max()
                worst = max(worst, float(residual))
    return worst


def primary_state(model: GaussianModel, r: Weight) -> np.ndarray:
    """Weyl-antisymmetrized shift of the vacuum:
    psi_r = |W|^{-1/2} sum_w (-1)^w prod_j b_j^{w(r+rho)_j} |0>.

    Integrable r give an orthonormal family; r + rho on an affine wall
    collapses to the zero vector.
    """
    return _primary_state_view(model, tuple(r)).copy()


@lru_cache(maxsize=2)
def _state_cache(model: GaussianModel) -> dict:
    return {}


def _primary_state_view(model: GaussianModel, r: Weight) -> np.ndarray:
    """psi_r as a read-only array, kept per (model, r) within _STATE_CACHE_BYTES."""
    cache = _state_cache(model)
    if r in cache:
        return cache[r]
    spec = model.spec
    if not is_integrable(spec, r, model.k):
        raise ValueError(f"{r} is not integrable at level {model.k}")
    shifted = tuple(x + 1 for x in r)
    state = np.zeros(model.shape, dtype=complex)
    amplitude = 1.0 / math.sqrt(spec.weyl_order * len(model.radical))
    images, signs = signed_orbit_array(spec, shifted)
    for image, sign in zip(images.tolist(), signs.tolist()):
        for t in model.radical:
            index = tuple((x + dt) % model.period for x, dt in zip(image, t))
            state[index] += sign * amplitude
    state.flags.writeable = False
    if (len(cache) + 1) * state.nbytes <= _STATE_CACHE_BYTES:
        cache[r] = state
    return state


def wilson_operator(model: GaussianModel, mu: Weight, basis: str = "b") -> LatticeOperator:
    """O_mu = sum over the weight system of mu of monomials in the chosen
    operator family; Weyl even because the weight system is."""
    if basis not in ("a", "b"):
        raise ValueError("basis must be 'a' or 'b'")
    ws = weight_system(model.spec, tuple(mu))
    zero = (0,) * model.spec.rank
    terms = []
    for v, mult in sorted(ws.entries.items()):
        if basis == "b":
            terms.append((float(mult), v, zero))
        else:
            terms.append((float(mult), zero, v))
    return LatticeOperator(model, terms)


class FourierOperator:
    """The polarization-swap operator S, with
    <v|S^-1|w> = exp(+2 pi i (C^-1 v) . w / K) / sqrt(|Lambda|)
    on the physical space (for symmetric Cartan matrices this is the familiar
    v^T C^-1 w pairing).

    S intertwines shifts into clocks, S^-1 b_j S = a_j.  For the simply-laced
    series the kernel pairing is nondegenerate on the affine quotient and S
    is unitary there (annihilating the non-invariant part of the cover);
    beyond ADE it is a partial isometry and only the intertwining relation
    survives.
    """

    def __init__(self, model: GaussianModel):
        if model.cover_size > _DENSE_FOURIER_CAP:
            raise CapExceeded(
                f"Fourier kernel needs {model.cover_size}^2 entries "
                f"(cap {_DENSE_FOURIER_CAP}^2)",
                required=model.cover_size,
            )
        self.model = model
        L = model.period
        indices = np.stack([idx.ravel() for idx in np.indices(model.shape)], axis=1)
        b = np.array(model.phase_matrix, dtype=np.int64)
        # rows are bras: the phase of a clock word w evaluated at the state v
        exponents = (indices @ b.T @ indices.T) % L
        normalization = math.sqrt(model.size) * len(model.radical)
        self._kernel_inv = np.exp(2j * np.pi * exponents / L) / normalization
        self._kernel_inv.flags.writeable = False
        # S = adjoint of the S^-1 kernel
        self._kernel = self._kernel_inv.conj().T
        self._kernel.flags.writeable = False

    def apply(self, state: np.ndarray) -> np.ndarray:
        flat = self._kernel @ state.ravel()
        return flat.reshape(self.model.shape)

    def apply_inverse(self, state: np.ndarray) -> np.ndarray:
        flat = self._kernel_inv @ state.ravel()
        return flat.reshape(self.model.shape)


@lru_cache(maxsize=2)
def s_operator(model: GaussianModel) -> FourierOperator:
    """The Fourier operator of the model, built once per model."""
    return FourierOperator(model)


def check_s_conjugation(model: GaussianModel, sample: int = 32) -> float:
    """Residual of S^-1 b_j S = a_j on a physical basis sample.

    The intertwining form S^-1 b_j = a_j S^-1 is checked always; the literal
    conjugation and norm preservation additionally where S is unitary, i.e.
    for the simply-laced series (elsewhere the Fourier pairing degenerates
    on the affine quotient and S is only a partial isometry)."""
    s = s_operator(model)
    unitary = model.spec.series in ("A", "D", "E")
    worst = 0.0
    for j in range(1, model.spec.rank + 1):
        b, a = shift_op(model, j), clock_op(model, j)
        for v in _sample_indices(model, sample):
            state = basis_state(model, v)
            intertwined = s.apply_inverse(b.apply(state)) - a.apply(s.apply_inverse(state))
            worst = max(worst, float(np.abs(intertwined).max()))
            if unitary:
                conjugated = s.apply_inverse(b.apply(s.apply(state)))
                worst = max(worst, float(np.abs(conjugated - a.apply(state)).max()))
                worst = max(worst, abs(np.linalg.norm(s.apply(state)) - 1.0))
    return worst


def character_as_inner_product(model: GaussianModel, gamma, mu: Weight) -> complex:
    """<gamma|S^-1|psi_mu>, asserted to equal the alternating character sum

        |Lambda|^{-1/2} |W|^{-1/2} D_{mu+rho}(gamma)

    evaluated at the matching variety point."""
    spec = model.spec
    value = inner(basis_state(model, gamma),
                  s_operator(model).apply_inverse(_primary_state_view(model, tuple(mu))))
    point = VarietyPoint(tuple(gamma), model.level_shifted)
    expected = (
        eval_D(spec, tuple(m + 1 for m in mu), point)
        / math.sqrt(model.size) / math.sqrt(spec.weyl_order)
    )
    if abs(value - expected) > 1e-10:
        raise OracleMismatchError(
            f"inner-product character at gamma={tuple(gamma)}, mu={tuple(mu)} "
            f"differs from the alternating sum by {abs(value - expected):.3e}"
        )
    return value


def fusion_from_operators(model: GaussianModel, mu: Weight, nu: Weight) -> dict:
    """Fusion coefficients read off the operator algebra: expand
    O_mu(b) psi_nu over the orthonormal primaries, guarding integrality."""
    spec = model.spec
    for lam in (mu, nu):
        if not is_integrable(spec, tuple(lam), model.k):
            raise ValueError(f"{tuple(lam)} is not integrable at level {model.k}")
    image = wilson_operator(model, tuple(mu), "b").apply(_primary_state_view(model, tuple(nu)))
    table = {}
    for iota in level_k_weights(spec, model.k):
        coefficient = inner(_primary_state_view(model, iota), image)
        nearest = round(coefficient.real)
        if abs(coefficient - nearest) > 1e-8:
            raise OracleMismatchError(
                f"operator expansion coefficient {coefficient} at iota={iota} "
                f"is {abs(coefficient - nearest):.3e} from an integer"
            )
        if nearest:
            table[iota] = nearest
    return table
