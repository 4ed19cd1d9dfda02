"""One lattice enumeration per Weyl orbit: theta_weyl against the per-image
sum it replaced, mutants of the orbit walk, and the bounded point store."""

import pytest

from fusionkit import theta
from fusionkit.algebra import build_algebra, signed_orbit
from fusionkit.fusion import level_k_weights
from fusionkit.theta import (
    ThetaContext,
    kac_weyl_char,
    theta_sum,
    theta_weyl,
)

# the cases and the three tau of the CLI's theta suite
CASES = [(("A", 1), 6), (("A", 2), 2), (("A", 2), 5), (("A", 3), 1), (("D", 4), 1)]
TAUS = [0.5j, 1j, 0.3 + 2j]
STORE_ENTRIES = theta._POINT_STORE_ENTRIES
ORIGINAL_REFLECT = theta._reflect_points


def contexts(spec, k):
    u = tuple(0.05 + 0.01 * i for i in range(spec.rank))
    return [ThetaContext(spec, k + spec.dual_coxeter, tau, u) for tau in TAUS]


def per_image_theta_weyl(ctx, gamma):
    """The reference: sum over the sorted signed orbit of sign *
    theta_sum(ctx, image), each image truncated and enumerated on its own;
    a wall gives nothing."""
    images, signs, stabiliser = signed_orbit(ctx.spec, tuple(gamma))
    total = 0j
    for image, sign in [] if stabiliser > 1 else sorted(zip(images, signs)):
        total += sign * theta_sum(ctx, image)
    return total


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty point store for the test, dropped after it."""
    monkeypatch.setattr(theta, "_point_store", theta._PointStore())
    return monkeypatch


def reference_values(monkeypatch, spec, k):
    """{(tau, gamma): per-image value} over every mu + rho of level k, rho
    among them, computed with a store that keeps nothing, so that every
    image is truncated and enumerated on its own; the test then gets a
    fresh store of the usual size."""
    monkeypatch.setattr(theta, "_POINT_STORE_ENTRIES", 0)
    gammas = [tuple(m + 1 for m in mu) for mu in level_k_weights(spec, k)]
    values = {(ctx.tau, gamma): per_image_theta_weyl(ctx, gamma)
              for ctx in contexts(spec, k) for gamma in gammas}
    monkeypatch.setattr(theta, "_POINT_STORE_ENTRIES", STORE_ENTRIES)
    monkeypatch.setattr(theta, "_point_store", theta._PointStore())
    return values


@pytest.mark.parametrize("algebra,k", CASES, ids=[f"{s}{r}k{k}" for (s, r), k in CASES])
def test_theta_weyl_equals_per_image_sum_bit_for_bit(fresh_store, algebra, k):
    spec = build_algebra(*algebra)
    reference = reference_values(fresh_store, spec, k)
    for ctx in contexts(spec, k):
        rho = reference[ctx.tau, spec.rho]
        for mu in level_k_weights(spec, k):
            gamma = tuple(m + 1 for m in mu)
            assert theta_weyl(ctx, gamma) == reference[ctx.tau, gamma], (ctx.tau, mu)
            assert kac_weyl_char(ctx, mu) == reference[ctx.tau, gamma] / rho, (ctx.tau, mu)


def test_theta_weyl_from_a_non_dominant_image_and_on_a_wall(fresh_store):
    """Any image of the orbit starts the same walk; a wall cancels to 0j
    without a walk."""
    spec = build_algebra("A", 3)
    ctx = contexts(spec, 1)[0]
    gamma = (2, 1, 1)
    image = (-2, 3, 1)  # s_1 gamma
    assert theta_weyl(ctx, image) == -theta_weyl(ctx, gamma)
    assert theta_weyl(ctx, image) == per_image_theta_weyl(ctx, image)
    assert theta_weyl(ctx, (1, 0, 2)) == 0j


def wrong_reflection(spec, image, parents, level):
    """Mutant: the parent is found, but its points are mapped by the next
    simple reflection instead of s_i."""
    i = next(j for j, x in enumerate(image) if x < 0)
    parent = tuple(x - image[i] * a for x, a in zip(image, spec.cartan[i]))
    norms, shifts, labels = parents[parent]
    i = (i + 1) % spec.rank
    shifts, labels, pivot = list(shifts), list(labels), labels[i]
    for j, a in enumerate(spec.cartan[i]):
        if a:
            labels[j] = tuple(w - a * p for w, p in zip(labels[j], pivot))
            shifts[j] = tuple(w / level for w in labels[j])
    return norms, tuple(shifts), tuple(labels)


def dropped_sign(spec, image, parents, level):
    """Mutant: s_i moves the neighbouring labels but leaves w_i unnegated."""
    norms, shifts, labels = ORIGINAL_REFLECT(spec, image, parents, level)
    i = next(j for j, x in enumerate(image) if x < 0)
    shifts, labels = list(shifts), list(labels)
    labels[i] = tuple(-w for w in labels[i])
    shifts[i] = tuple(w / level for w in labels[i])
    return norms, tuple(shifts), tuple(labels)


@pytest.mark.parametrize("mutant", [wrong_reflection, dropped_sign], ids=lambda f: f.__name__)
def test_mutants_of_the_orbit_walk_fail(fresh_store, mutant):
    """Each mutant moves the A3 k = 1 characters by more than 0.1 from the
    per-image reference.  verify_kw_identity passes under both, since its
    two sides go through the same mapping, and on A2 the wrong reflection
    only permutes images of one sign, so the oracle is the check here."""
    spec = build_algebra("A", 3)
    reference = reference_values(fresh_store, spec, 1)
    fresh_store.setattr(theta, "_reflect_points", mutant)
    errors = [abs(kac_weyl_char(ctx, mu)
                  - reference[ctx.tau, tuple(m + 1 for m in mu)] / reference[ctx.tau, spec.rho])
              for ctx in contexts(spec, 1) for mu in level_k_weights(spec, 1)]
    assert max(errors) > 0.1


def count_enumerations(monkeypatch):
    calls = []
    ellipsoid = theta._ellipsoid

    def counted(*args):
        calls.append(args)
        return ellipsoid(*args)

    monkeypatch.setattr(theta, "_ellipsoid", counted)
    return calls


def test_character_enumerates_each_orbit_once(fresh_store):
    """kac_weyl_char on D4 at k = 1 walks the lattice once for Theta^-_{mu+rho}
    and once for Theta^-_rho (192 images each), and the representative
    search once per orbit."""
    spec = build_algebra("D", 4)
    ctx = contexts(spec, 1)[1]
    theta._representative.cache_clear()
    calls = count_enumerations(fresh_store)
    first = kac_weyl_char(ctx, (1, 0, 0, 0))
    assert len(calls) == 4
    theta._point_store.clear()
    del calls[:]
    assert kac_weyl_char(ctx, (1, 0, 0, 0)) == first
    assert len(calls) == 2
    assert {args[1] for args in calls} == {(2, 1, 1, 1), (1, 1, 1, 1)}


def test_point_store_stays_within_its_bound(fresh_store):
    """The store never holds more than _POINT_STORE_ENTRIES points; a set
    that does not fit is built again, with the same values."""
    spec = build_algebra("A", 3)
    fresh_store.setattr(theta, "_POINT_STORE_ENTRIES", 3000)
    store = theta._point_store
    values = []
    for ctx in contexts(spec, 1):
        for mu in level_k_weights(spec, 1):
            values.append(kac_weyl_char(ctx, mu))
            assert store.points == sum(len(p[0]) for p in store.values()) <= 3000
    assert 0 < len(store) < 4 * 3 * 24  # some sets were kept, not all
    calls = count_enumerations(fresh_store)
    again = [kac_weyl_char(ctx, mu) for ctx in contexts(spec, 1)
             for mu in level_k_weights(spec, 1)]
    assert calls and again == values
    assert store.points <= 3000
    fresh_store.setattr(theta, "_point_store", theta._PointStore())
    fresh_store.setattr(theta, "_POINT_STORE_ENTRIES", STORE_ENTRIES)
    assert [kac_weyl_char(ctx, mu) for ctx in contexts(spec, 1)
            for mu in level_k_weights(spec, 1)] == values


def test_reflected_sets_count_against_the_point_cap(fresh_store):
    """A derived set is checked against _POINT_CAP as an enumerated one is."""
    from fusionkit.errors import CapExceeded

    spec = build_algebra("A", 2)
    ctx = contexts(spec, 2)[1]
    points = theta._lattice_points(spec, (2, 1), ctx.level, 3.0)
    fresh_store.setattr(theta, "_POINT_CAP", len(points[0]) - 1)
    with pytest.raises(CapExceeded):
        theta._reflect_points(spec, (-2, 3), {(2, 1): points}, ctx.level)
