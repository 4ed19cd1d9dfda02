"""Finite Gaussian model on the torus: clock and shift operators, Weyl-odd
primary states, the discrete Fourier (S) operator, and the operator-level
fusion expansion, in plain Python.

The state space is the weight lattice modulo K times the coroot lattice
(K = k + c), the affine Weyl translations; that identification is what
truncates the Wilson-operator ring to the level-k fusion ring, and for the
simply-laced series it is also the minimal quotient on which the clock
phases exp(2 pi i (C^-1 v)_j / K) separate states.  Concretely, states are
stored on a covering array (Z_L)^rank with L = qK (q the smallest integer
with q Z^rank inside the coroot lattice), restricted to functions invariant
under the finite radical R = (K coroot lattice) / L Z^rank; shifts stay
plain index permutations that way.  For A1 the radical is trivial and the
model is literally Z_L with L = 2(k+2); at k=2 the clock eigenvalues are the
8th roots of unity.

A state is a flat row-major tuple of the L^rank amplitudes of the array:
floats for basis and primary states, which are real (signs times one
amplitude, averaged over the radical), complex after a phase, a complex
coefficient or the Fourier operator.  Operators take one state.  The
coroot labels are algebra's.  Operators are applied lazily
as sums of phase/shift monomials with integer phase exponents mod L, read
from the shared table phase.roots_of_unity, so operator identities
hold to rounding error; they, the inner products and the primary states
touch only nonzero amplitudes.  The Fourier operator is a separable discrete Fourier transform
over the rank axes followed by a gather at B v mod L, below a hard size cap.
The command line's csmodel suite (_suite_csmodel) is at the end of the module.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import deque
from functools import lru_cache
from itertools import chain, compress, product, repeat
from operator import add, attrgetter, mul, sub, truediv
from typing import NamedTuple

from .algebra import (
    AlgebraSpec,
    Weight,
    _coroot_labels,
    _gauss_jordan,
    cartan_inverse,
    require_rank,
    signed_orbit,
)
from .characters import VarietyPoint, eval_D
from .errors import CapExceeded, InvariantViolation, OracleMismatchError, check_cap
from .fusion import level_k_weights, require_integrable
from .phase import roots_of_unity
from .weights import weight_system

#: largest cover, in states, that FourierOperator transforms
_FOURIER_STATES_CAP = 1024

#: basis states sampled by check_clock_commutator and check_s_conjugation
_COMMUTATOR_SAMPLE = 64
_CONJUGATION_SAMPLE = 32

#: entries kept per model: nonzero amplitudes of read-only states and
#: positions of shift and phase maps
_STATE_CACHE_ENTRIES = 1 << 18

_REAL = attrgetter("real")
_IMAG = attrgetter("imag")


class GaussianModel(NamedTuple):
    """Finite-dimensional level-k realization of the clock/shift algebra."""

    spec: AlgebraSpec
    k: int
    level_shifted: int          # K = k + c
    denominator_clear: int      # q: smallest positive integer with q Z^rank inside Q-vee
    period: int                 # L = q K, the covering array side
    phase_matrix: tuple         # q C^-1, exact integers
    radical: tuple              # K Q-vee mod L, as index tuples

    def __hash__(self) -> int:
        # every other field is a function of (spec, k)
        return hash((self.spec, self.k))

    def __repr__(self) -> str:
        # phase_matrix and radical (K^rank index tuples) are left out
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:5], self))
        return f"GaussianModel({fields})"

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


def build_model(spec: AlgebraSpec, k: int) -> GaussianModel:
    """Assemble the level-k Gaussian model, failing loudly past the cap.

    States are identified under translation by K times the coroot lattice,
    the affine Weyl translations; that is what truncates the Wilson-operator
    ring to the level-k fusion ring.  The clock phases must be constant on
    those classes, which holds for the simply-laced series, B2, the C series,
    F4 and G2 but genuinely fails for some others (B3 for instance); such
    algebras are rejected."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    inv = cartan_inverse(spec)
    coroots = _coroot_labels(spec)
    for row in coroots:
        image = [sum(inv[m][i] * row[i] for i in range(spec.rank)) for m in range(spec.rank)]
        if not all(x.denominator == 1 for x in image):
            raise ValueError(
                f"clock phases of {spec} are not constant on affine translation "
                f"classes; the Gaussian model construction does not apply"
            )
    coroot_det, coroot_inv, _ = _gauss_jordan(coroots)
    q = math.lcm(*(entry.denominator for row in coroot_inv for entry in row))
    if any((q * entry).denominator != 1 for row in inv for entry in row):
        raise InvariantViolation(f"q = {q} does not clear the denominators of C^-1 of {spec}")

    level_shifted = k + spec.dual_coxeter
    period = q * level_shifted
    check_cap("hilbert", period**spec.rank, f"the level-{k} Gaussian model of {spec}")
    phase_matrix = tuple(tuple(int(q * entry) for entry in row) for row in inv)
    radical = _radical_subgroup(coroots, level_shifted, period)
    model = GaussianModel(spec, k, level_shifted, q, period, phase_matrix, radical)
    index = abs(int(coroot_det))
    if model.size != level_shifted**spec.rank * index:
        raise InvariantViolation(f"Gaussian model size {model.size} is not "
                                 f"K^rank * index = {level_shifted**spec.rank * index}")
    return model


def _radical_subgroup(coroots, level_shifted: int, period: int):
    """K Q-vee mod L: the translations glued to the identity on the array,
    as the sorted set {K (n . Q-vee) mod L : n in Z_q^rank}; q K = L kills
    each generator, so n mod q covers the group."""
    rank = len(coroots)
    q = period // level_shifted
    return tuple(sorted({
        tuple(level_shifted * sum(n[j] * coroots[j][i] for j in range(rank)) % period
              for i in range(rank))
        for n in product(range(q), repeat=rank)
    }))


def _flat(model: GaussianModel, v) -> int:
    """Row-major position in a state of the array index v, taken mod L."""
    period = model.period
    position = 0
    for x in v:
        position = position * period + int(x) % period
    return position


def _array_index(model: GaussianModel, position: int) -> tuple:
    """The array index at a row-major position: _flat inverted."""
    digits = []
    for _ in range(model.spec.rank):
        position, digit = divmod(position, model.period)
        digits.append(digit)
    return tuple(reversed(digits))


def _dense(model: GaussianModel, entries: dict) -> tuple:
    """The state whose nonzero amplitudes are ``entries`` (position -> value)."""
    state = [0.0] * model.cover_size
    for position, value in entries.items():
        state[position] = value
    return tuple(state)


def _entries(state) -> dict:
    """The nonzero amplitudes of a state, position -> value."""
    positions = list(compress(range(len(state)), state))
    return dict(zip(positions, map(state.__getitem__, positions)))


def _inner(bra: dict, ket) -> complex:
    """<bra|ket> for the conjugated nonzero amplitudes ``bra`` (a real
    state's own), with the real and imaginary parts of the products each
    summed by math.fsum."""
    products = list(map(mul, bra.values(), map(ket.__getitem__, bra)))
    return complex(math.fsum(map(_REAL, products)), math.fsum(map(_IMAG, products)))


def inner_product(bra, ket) -> complex:
    """<bra|ket> of two states, over the nonzero amplitudes of bra."""
    return _inner({i: x.conjugate() for i, x in _entries(bra).items()}, ket)


def _class_entries(model: GaussianModel, points, values) -> dict:
    """sum_i values[i] sum_t |points[i] + t> over the radical t, added point
    by point in radical order, as position -> amplitude."""
    entries = {}
    for point, value in zip(points, values):
        for offset in model.radical:
            position = _flat(model, [x + t for x, t in zip(point, offset)])
            entries[position] = entries.get(position, 0.0) + value
    return entries


def _basis_entries(model: GaussianModel, v) -> dict:
    require_rank(model.spec, v)
    return _class_entries(model, [tuple(int(x) for x in v)], [1.0 / math.sqrt(len(model.radical))])


def basis_state(model: GaussianModel, v) -> tuple:
    """The normalized physical state |v>: the radical-averaged class of the
    array index v."""
    return _dense(model, _basis_entries(model, v))


def _shift_map(model: GaussianModel, shift: tuple) -> tuple:
    """The position of v + shift for every position v of (Z_L)^rank: a
    permutation, kept per model."""
    def build():
        period, rank = model.period, model.spec.rank
        axes = [[(x + s) % period * period ** (rank - 1 - axis) for x in range(period)]
                for axis, s in enumerate(shift)]
        return tuple(map(sum, product(*axes)))

    return _kept(model, ("shift", shift), build)


def _phase_map(model: GaussianModel, power: tuple) -> tuple:
    """exp(2 pi i (power^T C^-1 v)/K) for every position v: the root-table
    entry at the integer exponent power^T B v mod L, kept per model."""
    def build():
        period = model.period
        coeffs = [sum(map(mul, power, column)) % period for column in zip(*model.phase_matrix)]
        roots = roots_of_unity(period)
        axes = [[c * x % period for x in range(period)] for c in coeffs]
        return tuple([roots[e % period] for e in map(sum, product(*axes))])

    return _kept(model, ("phase", power), build)


class LatticeOperator:
    """Sum of phase/shift monomials, applied without dense matrices.

    A monomial (coeff, shift, power) acts as
        |v>  ->  coeff * exp(2 pi i (power^T C^-1 v)/K) |v + shift>.
    Clock operators are pure powers, shift operators pure shifts; products
    stay in this family up to exact root-of-unity scalars.  A real (int or
    float) coefficient is kept as a float, any other as a complex.  apply
    takes one state.
    """

    def __init__(self, model: GaussianModel, terms):
        self.model = model
        period = model.period
        kept = []
        for c, s, p in terms:
            require_rank(model.spec, s, p)
            kept.append((float(c) if isinstance(c, (int, float)) else complex(c),
                         tuple(int(x) % period for x in s), tuple(int(x) % period for x in p)))
        self.terms = tuple(kept)
        self._term_maps = None

    def apply(self, state):
        maps = self._maps()
        if len(maps) == 1 and maps[0][0] == 1 and all(state):
            # one term on a state with no zero amplitude: _image writes every
            # position once, so this is one phase map and one scatter (a zero
            # amplitude, which _image skips, keeps its signed zeros out)
            _, shifts, phases = maps[0]
            values = state if phases is None else map(mul, state, phases)
            if shifts is None:
                return tuple(values)
            out = [0j] * len(state)
            deque(map(out.__setitem__, shifts, values), maxlen=0)
            return tuple(out)
        return tuple(self._image(_entries(state)))

    def _image(self, entries: dict) -> list:
        """The image of the state with these nonzero amplitudes, as a list,
        accumulated term by term; it stays real unless a term or state is not."""
        out = [0.0] * self.model.cover_size
        positions = list(entries)
        amplitudes = list(entries.values())
        for n, (coeff, shifts, phases) in enumerate(self._maps()):
            values = amplitudes
            if phases is not None:
                values = map(mul, values, map(phases.__getitem__, positions))
            if coeff != 1:
                values = map(mul, repeat(coeff), values)
            targets = positions if shifts is None else map(shifts.__getitem__, positions)
            if n == 0:  # a permutation of positions: the first term is written
                deque(map(out.__setitem__, targets, values), maxlen=0)
            else:
                for target, value in zip(targets, values):
                    out[target] += value
        return out

    def _maps(self) -> list:
        """(coeff, shift map or None, phase map or None) per term, formed on
        the first application."""
        if self._term_maps is None:
            model = self.model
            self._term_maps = [
                (coeff, _shift_map(model, shift) if any(shift) else None,
                 _phase_map(model, power) if any(power) else None)
                for coeff, shift, power in self.terms]
        return self._term_maps

    def _commutation_scalar(self, power, shift) -> complex:
        L = self.model.period
        b = self.model.phase_matrix
        rank = self.model.spec.rank
        exponent = sum(
            power[i] * b[i][j] * shift[j] for i in range(rank) for j in range(rank)
        ) % L
        return roots_of_unity(L)[exponent]

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


def _sample_indices(model: GaussianModel, count: int):
    """Deterministic sample of array indices; everything if the model is small."""
    if model.cover_size <= count:
        return list(product(range(model.period), repeat=model.spec.rank))
    rng = random.Random(20259)
    picks = sorted(rng.sample(range(model.cover_size), count))
    return [_array_index(model, i) for i in picks]


def _max_gap(x, y) -> float:
    """max_i |x_i - y_i| of two states."""
    return max(map(abs, map(sub, x, y)))


def check_clock_commutator(model: GaussianModel) -> float:
    """Max residual of a_m b_j a_m^-1 b_j^-1 = exp(2 pi i (C^-1)_{mj}/K)
    over all operator pairs, applied to a basis sample."""
    rank = model.spec.rank
    inv = cartan_inverse(model.spec)
    bases = [_basis_entries(model, v) for v in _sample_indices(model, _COMMUTATOR_SAMPLE)]
    worst = 0.0
    for m in range(1, rank + 1):
        for j in range(1, rank + 1):
            a, b = clock_op(model, m), shift_op(model, j)
            commutator = a @ b @ a.dagger() @ b.dagger()
            phase = cmath.exp(
                2j * cmath.pi * float((inv[m - 1][j - 1] / model.level_shifted) % 1)
            )
            for basis in bases:
                image = commutator._image(basis)
                # off the support of the basis state and its image both sides are 0
                support = set(basis).union(compress(range(len(image)), image))
                residual = max(abs(image[i] - phase * basis.get(i, 0.0)) for i in support)
                worst = max(worst, residual)
    return worst


def primary_state(model: GaussianModel, r: Weight) -> tuple:
    """Weyl-antisymmetrized shift of the vacuum:
    psi_r = |W|^{-1/2} sum_w (-1)^w prod_j b_j^{w(r+rho)_j} |0>.

    Integrable r give an orthonormal family; r + rho on an affine wall
    collapses to the zero vector.
    """
    return _dense(model, _primary_entries(model, tuple(r)))


@lru_cache(maxsize=2)
def _state_cache(model: GaussianModel) -> dict:
    return {}


def _kept(model: GaussianModel, key, build):
    """build() kept per (model, key), read-only, while the model's kept
    states and maps hold at most _STATE_CACHE_ENTRIES entries."""
    cache = _state_cache(model)
    state = cache.get(key)
    if state is None:
        state = build()
        if sum(map(len, cache.values())) + len(state) <= _STATE_CACHE_ENTRIES:
            cache[key] = state
    return state


def _primary_entries(model: GaussianModel, r: Weight) -> dict:
    """The nonzero amplitudes of psi_r, as position -> amplitude."""
    check_cap("weyl_order", model.spec.weyl_order, model.spec)  # the cache skips signed_orbit

    def build():
        spec = model.spec
        require_integrable(spec, model.k, r)
        amplitude = 1.0 / math.sqrt(spec.weyl_order * len(model.radical))
        images, signs, _ = signed_orbit(spec, tuple(x + 1 for x in r))
        return _class_entries(model, images, [sign * amplitude for sign in signs])

    return _kept(model, ("primary", r), build)


def primary_overlaps(model: GaussianModel, weights):
    """(r, s, <psi_r|psi_s>) for every ordered pair of weights, r outer,
    over the kept nonzero amplitudes of each psi_r, real and so its bra."""
    weights = [tuple(r) for r in weights]
    states = [primary_state(model, s) for s in weights]
    for r in weights:
        bra = _primary_entries(model, r)
        for s, psi_s in zip(weights, states):
            yield r, s, _inner(bra, psi_s)


def wilson_operator(model: GaussianModel, mu: Weight) -> LatticeOperator:
    """O_mu = sum over the weight system of mu of the shift monomials b^v;
    Weyl even because the weight system is."""
    ws = weight_system(model.spec, tuple(mu))
    zero = (0,) * model.spec.rank
    terms = [(float(mult), v, zero) for v, mult in sorted(ws.entries.items())]
    return LatticeOperator(model, terms)


def _diagonal_form(matrix) -> tuple:
    """(P, d, Q) with matrix = P diag(d) Q for unimodular integer P and Q:
    the smallest nonzero entry of the trailing block is moved to the pivot
    and its row and column are reduced by it until both are clear."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            _, i, j = min((abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n)
                          if a[i][j])
            a[t], a[i] = a[i], a[t]
            for row in p:  # P <- P E^-1 for each row operation E
                row[t], row[i] = row[i], row[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            q[t], q[j] = q[j], q[t]  # Q <- F^-1 Q for each column operation F
            for i in range(t + 1, n):
                c = a[i][t] // a[t][t]
                a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                for row in p:
                    row[t] += c * row[i]
            for j in range(t + 1, n):
                c = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= c * row[t]
                q[t] = [x + c * y for x, y in zip(q[t], q[j])]
            if not any(a[i][t] for i in range(t + 1, n)) and not any(a[t][t + 1:]):
                break
    return p, [a[t][t] for t in range(n)], q


def _line_transform(line: list, rows) -> list:
    """sum_w row[w] line[w] for each row of the symmetric root table
    ``rows``, adding the nonzero products in w order either way.  A line at
    most half nonzero is summed column by column over its nonzero w; a
    product costs about 1.6 times as much that way as in a row sum, so the
    two break even near 60 % fill (lines of 7 and 21 amplitudes)."""
    nonzero = list(compress(range(len(line)), line))
    if 2 * len(nonzero) > len(line):
        return [sum(map(mul, row, line)) for row in rows]
    first, *rest = nonzero
    out = list(map(complex(line[first]).__mul__, rows[first]))
    for w in rest:
        out = list(map(add, out, map(complex(line[w]).__mul__, rows[w])))
    return out


class _Plan(NamedTuple):
    """One direction of the Fourier operator in relabelled coordinates,
    where the frequencies read on axis i are the multiples of a step g_i:
    the relabelling as a gather; per axis, last axis first, its step and the
    root table of Z_(L/g_i); and per output position its value's index."""

    source: tuple
    axes: tuple
    gather: tuple


def _plan(model: GaussianModel, relabel, steps, read, roots) -> _Plan:
    """The plan that relabels w as ``relabel`` w, keeps the multiples of
    ``steps[i]`` on axis i and reads at ``read`` v for every v."""
    period, rank = model.period, model.spec.rank
    indices = list(product(range(period), repeat=rank))
    source = [0] * model.cover_size
    for position, w in enumerate(indices):
        source[_flat(model, [sum(map(mul, row, w)) for row in relabel])] = position
    axes = []
    for step in reversed(steps):
        size = period // step
        axes.append((step, tuple(tuple(roots[step * u * w % period] for w in range(size))
                                 for u in range(size))))
    gather = []
    for v in indices:
        position = 0
        for row, step in zip(read, steps):
            position = position * (period // step) + sum(map(mul, row, v)) % period // step
        gather.append(position)
    return _Plan(tuple(source), tuple(axes), tuple(gather))


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

    With B = q C^-1 the exponent of <v|S^-1|w> is (B v) . w mod L, so S^-1 x
    is the discrete Fourier transform X(u) = sum_w exp(2 pi i u . w / L) x_w
    read at u = B v; S is its adjoint, the conjugate transform read at
    u = B^T w.  Writing B = P D Q with P, Q unimodular and D diagonal,
    (B v) . w = (D Q v) . (P^T w): after relabelling w by P^T the frequencies
    read are multiples of gcd(d_i, L) on axis i, so each axis is transformed
    only at those, one line at a time, skipping all-zero lines; no N x N
    kernel is formed.
    """

    def __init__(self, model: GaussianModel):
        if model.cover_size > _FOURIER_STATES_CAP:
            raise CapExceeded(
                f"Fourier transform over {model.cover_size} states "
                f"(cap {_FOURIER_STATES_CAP})",
                required=model.cover_size,
            )
        self.model = model
        period = model.period
        p, d, q = _diagonal_form(model.phase_matrix)
        # the most restricted axis last, so it is transformed first
        order = sorted(range(len(d)), key=lambda i: math.gcd(d[i], period))
        pt = [[row[i] for row in p] for i in order]
        q = [q[i] for i in order]
        steps = [math.gcd(d[i], period) for i in order]
        dq = [[d[i] * x for x in row] for i, row in zip(order, q)]
        dpt = [[d[i] * x for x in row] for i, row in zip(order, pt)]
        roots = roots_of_unity(period)
        self._inverse = _plan(model, pt, steps, dq, roots)
        self._adjoint = _plan(model, q, steps, dpt, tuple(x.conjugate() for x in roots))
        self._norm = math.sqrt(model.size) * len(model.radical)

    def _transform(self, state, plan: _Plan) -> tuple:
        """The relabelled state transformed axis by axis, last axis first:
        each pass folds the lines of the last axis to period L/g (the
        frequencies read are multiples of g), transforms them and moves that
        axis to the front."""
        data = list(map(state.__getitem__, plan.source))
        period = self.model.period
        for step, rows in plan.axes:
            size = period // step
            zeros = [0j] * size
            lines = zip(*[iter(data)] * size)
            if step > 1:  # block o of every line is blocks[o::step]
                blocks = list(lines)
                folded = chain.from_iterable(blocks[0::step])
                for offset in range(1, step):
                    folded = map(add, folded, chain.from_iterable(blocks[offset::step]))
                lines = zip(*[iter(folded)] * size)
            transformed = []
            for line in lines:
                if all(line):
                    transformed.append([sum(map(mul, row, line)) for row in rows])
                else:
                    transformed.append(_line_transform(line, rows) if any(line) else zeros)
            data = list(chain.from_iterable(zip(*transformed)))
        return tuple(map(truediv, map(data.__getitem__, plan.gather), repeat(self._norm)))

    def apply(self, state):
        return self._transform(state, self._adjoint)

    def apply_inverse(self, state):
        return self._transform(state, self._inverse)


@lru_cache(maxsize=2)
def s_operator(model: GaussianModel) -> FourierOperator:
    """The Fourier operator of the model, built once per model."""
    return FourierOperator(model)


def check_s_conjugation(model: GaussianModel) -> float:
    """Residual of S^-1 b_j S = a_j on a physical basis sample.

    The intertwining form S^-1 b_j = a_j S^-1 is checked always; the literal
    conjugation and norm preservation additionally where S is unitary, i.e.
    for the simply-laced series (elsewhere the Fourier pairing degenerates
    on the affine quotient and S is only a partial isometry)."""
    s = s_operator(model)
    unitary = model.spec.series in ("A", "D", "E")
    pairs = [(shift_op(model, j), clock_op(model, j)) for j in range(1, model.spec.rank + 1)]
    worst = 0.0
    for v in _sample_indices(model, _CONJUGATION_SAMPLE):
        state = basis_state(model, v)
        inverse = s.apply_inverse(state)
        if unitary:
            image = s.apply(state)
            # Re <image|image> over every amplitude: math.fsum rounds the exact
            # sum once, so the products of zero amplitudes change no bit
            norm_squared = math.fsum(map(_REAL, map(mul, map(complex.conjugate, image), image)))
            worst = max(worst, abs(math.sqrt(norm_squared) - 1.0))
        for b, a in pairs:
            worst = max(worst, _max_gap(s.apply_inverse(b.apply(state)), a.apply(inverse)))
            if unitary:
                worst = max(worst, _max_gap(s.apply_inverse(b.apply(image)), a.apply(state)))
    return worst


def character_as_inner_product(model: GaussianModel, gamma, mu: Weight) -> complex:
    """<gamma|S^-1|psi_mu>, asserted to equal the alternating character sum

        |Lambda|^{-1/2} |W|^{-1/2} D_{mu+rho}(gamma)

    evaluated at the matching variety point."""
    spec = model.spec
    mu = tuple(mu)
    bra = _basis_entries(model, gamma)  # real, so its own bra
    psi = _primary_entries(model, mu)  # checks the caps, also when the image is kept
    image = _kept(model, ("S^-1 primary", mu),
                  lambda: s_operator(model).apply_inverse(_dense(model, psi)))
    value = _inner(bra, image)
    point = VarietyPoint(tuple(gamma), model.level_shifted)
    expected = (
        eval_D(spec, tuple(m + 1 for m in mu), point)
        / math.sqrt(model.size) / math.sqrt(spec.weyl_order)
    )
    if abs(value - expected) > 1e-10:
        raise OracleMismatchError(
            f"inner-product character at gamma={tuple(gamma)}, mu={mu} "
            f"differs from the alternating sum by {abs(value - expected):.3e}"
        )
    return value


def operator_fusion_rows(model: GaussianModel, mu: Weight, nus) -> list:
    """One fusion table per nu in nus: apply O_mu to each primary psi_nu and
    expand the image over the orthonormal primaries, guarding integrality.
    Memory is one image at a time, not one per integrable weight.

    O_mu is pure shifts with integer multiplicities and every psi is real,
    so the image and each coefficient <psi_iota | O_mu psi_nu> are floats:
    one math.fsum of the products with the kept entries of psi_iota."""
    spec = model.spec
    nus = [tuple(nu) for nu in nus]
    require_integrable(spec, model.k, mu, *nus)
    weights = level_k_weights(spec, model.k)
    operator = wilson_operator(model, tuple(mu))
    bras = [_primary_entries(model, iota) for iota in weights]
    tables = []
    for nu in nus:
        image = operator._image(_primary_entries(model, nu))
        table = {}
        for iota, bra in zip(weights, bras):
            coefficient = math.fsum(map(mul, bra.values(), map(image.__getitem__, bra)))
            nearest = round(coefficient)
            if abs(coefficient - nearest) > 1e-8:
                raise OracleMismatchError(
                    f"operator expansion coefficient {coefficient} at iota={iota} "
                    f"is {abs(coefficient - nearest):.3e} from an integer"
                )
            if nearest:
                table[iota] = nearest
        tables.append(table)
    return tables


def _suite_csmodel(spec: AlgebraSpec, config):
    from .fusion import fuse_level_k_rows
    from .identity import integer_report, make_report
    from .verlinde import verlinde_rows

    model = build_model(spec, config.k)
    weights = level_k_weights(spec, config.k)

    yield make_report(
        f"clock-commutator:{spec}:k={config.k}", 1e-12,
        [(("all pairs",), complex(check_clock_commutator(model)), 0j)],
    ), None, None

    overlaps = primary_overlaps(model, weights)
    yield make_report(
        f"primary-orthonormality:{spec}:k={config.k}", 1e-12,
        (((r, s), value, complex(1.0 if r == s else 0.0)) for r, s, value in overlaps),
    ), None, None

    yield make_report(
        f"s-conjugation:{spec}:k={config.k}", 1e-10,
        [(("sampled basis",), complex(check_s_conjugation(model)), 0j)],
    ), None, None

    def char_residuals():
        rng = random.Random(config.seed)
        gammas = [tuple(rng.randrange(model.period) for _ in range(spec.rank))
                  for _ in range(8)]
        for gamma in gammas:
            for mu in weights:
                try:
                    character_as_inner_product(model, gamma, mu)
                    yield (gamma, mu), 0j, 0j
                except OracleMismatchError:
                    yield (gamma, mu), complex(1.0), 0j

    yield make_report(
        f"character-inner-product:{spec}:k={config.k}", 1e-10, char_residuals()
    ), None, None

    mismatch_checks = []
    for mu in weights:
        operator_rows = operator_fusion_rows(model, mu, weights)
        folded_rows = fuse_level_k_rows(spec, mu, weights, config.k)
        oracle_rows = verlinde_rows(spec, mu, weights, config.k)
        for nu, operator_table, folded, oracle in zip(weights, operator_rows, folded_rows,
                                                      oracle_rows):
            # channels where the operator side, then the Verlinde side, differs
            # from the folded table
            lhs, rhs = (sum(table.get(w, 0) != folded.get(w, 0) for w in {*table, *folded})
                        for table in (operator_table, oracle))
            mismatch_checks.append((f"mu={mu},nu={nu}", lhs, rhs, lhs + rhs))
    yield integer_report(
        f"three-way-fusion:{spec}:k={config.k}", mismatch_checks
    ), None, None
