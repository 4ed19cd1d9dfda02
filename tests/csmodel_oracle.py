"""The numpy clock/shift model that fusionkit.csmodel replaced, as the
reference the plain-Python model must match: states as arrays on the
covering array (Z_L)^rank, operators applied to the trailing rank axes with
axis rolls and per-axis phase arrays, and the Fourier operator as its dense
L^rank x L^rank kernel.  It reads models and operator terms from
fusionkit.csmodel, so only the arithmetic is independent.  Test modules
import this file as a plain module (``from csmodel_oracle import ...``);
pytest puts the tests directory on sys.path.
"""

import math
import random

import numpy as np

from fusionkit.algebra import signed_orbit
from fusionkit.phase import roots_of_unity


def to_array(model, state) -> np.ndarray:
    """A flat row-major state of fusionkit.csmodel as an array of the model's shape."""
    return np.array(state, dtype=complex).reshape(model.shape)


def class_state(model, points, values) -> np.ndarray:
    """sum_i values[i] sum_t |points[i] + t> over the radical t, added point
    by point in radical order."""
    rank = model.spec.rank
    offsets = np.array(model.radical, dtype=np.int64)
    indices = (np.array(points, dtype=np.int64).reshape(-1, 1, rank) + offsets) % model.period
    state = np.zeros(model.shape, dtype=complex)
    np.add.at(state, tuple(indices.reshape(-1, rank).T), np.repeat(values, len(offsets)))
    return state


def basis_state(model, v) -> np.ndarray:
    return class_state(model, [tuple(int(x) for x in v)], [1.0 / math.sqrt(len(model.radical))])


def primary_state(model, r) -> np.ndarray:
    amplitude = 1.0 / math.sqrt(model.spec.weyl_order * len(model.radical))
    images, signs, _ = signed_orbit(model.spec, tuple(x + 1 for x in r))
    return class_state(model, images, [sign * amplitude for sign in signs])


def phase_array(model, power) -> np.ndarray:
    """exp(2 pi i (power^T C^-1 v)/K) over all v, as the product of per-axis
    root-table lookups."""
    L = model.period
    rank = model.spec.rank
    b = model.phase_matrix
    roots = np.array(roots_of_unity(L))
    coeffs = [sum(power[i] * b[i][j] for i in range(rank)) % L for j in range(rank)]
    result = np.ones((), dtype=complex)
    for axis, c in enumerate(coeffs):
        shape = [1] * rank
        shape[axis] = L
        result = result * roots[c * np.arange(L) % L].reshape(shape)
    return np.broadcast_to(result, model.shape)


def apply(operator, state: np.ndarray) -> np.ndarray:
    """A csmodel.LatticeOperator applied to an array, or to a stack of them
    along the leading axis."""
    model = operator.model
    out = np.zeros_like(state)
    for coeff, shift, power in operator.terms:
        piece = state
        if any(power):
            piece = piece * phase_array(model, power)
        if any(shift):
            piece = np.roll(piece, shift, axis=tuple(range(-model.spec.rank, 0)))
        out = out + coeff * piece
    return out


class FourierKernel:
    """The dense S^-1 kernel <v|S^-1|w> = exp(2 pi i (B v) . w / L) / norm,
    and S as its adjoint."""

    def __init__(self, model):
        self.model = model
        indices = np.stack([idx.ravel() for idx in np.indices(model.shape)], axis=1)
        b = np.array(model.phase_matrix, dtype=np.int64)
        exponents = (indices @ b.T @ indices.T) % model.period
        self.kernel_inv = np.array(roots_of_unity(model.period))[exponents]
        self.kernel_inv /= math.sqrt(model.size) * len(model.radical)

    def apply(self, state: np.ndarray) -> np.ndarray:
        return (self.kernel_inv.conj().T @ state.ravel()).reshape(self.model.shape)

    def apply_inverse(self, state: np.ndarray) -> np.ndarray:
        return (self.kernel_inv @ state.ravel()).reshape(self.model.shape)


def sample_indices(model, count: int):
    """The deterministic sample of array indices the checks use."""
    if model.cover_size <= count:
        return list(np.ndindex(model.shape))
    rng = random.Random(20259)
    picks = sorted(rng.sample(range(model.cover_size), count))
    return [tuple(int(x) for x in np.unravel_index(i, model.shape)) for i in picks]
