import numpy as np
import pytest

from _helpers import (EmptyInner, HPolytope, MixedBases, UnboundedDirection,
                      battery_to_hpolytope, bounding_box, contains_point,
                      contains_polytope, enumerate_vertices, fm_eliminate_one,
                      homothet_apply, homothet_inverse, lemma1_sum,
                      random_box_polytope, rejection_samples,
                      support_function)
from flexbat.errors import DimensionMismatch
from flexbat.geometry import Homothet, VirtualBattery, homothet_apply_battery

# the worked 2-D example, with the corrected sign on the third row
EX1 = HPolytope(np.array([[-0.5, -1.0], [0.6, 1.0], [-1.0, -1.0]]),
                np.array([-9.0, 10.0, -10.0]))
UNIT_BOX = HPolytope(np.vstack([np.eye(2), -np.eye(2)]),
                     np.array([1.0, 1.0, 0.0, 0.0]))


def interval(lo: float, hi: float) -> HPolytope:
    return HPolytope(np.array([[1.0], [-1.0]]), np.array([hi, -lo]))


# ---------------------------------------------------------------- batteries

def test_battery_rows_m1():
    b = VirtualBattery([0.0], [1.0], 0.0, 1.0)
    poly = battery_to_hpolytope(b)
    assert poly.a.shape == (4, 1)
    np.testing.assert_allclose(poly.a.ravel(), [1, -1, 1, -1])
    np.testing.assert_allclose(poly.c, [1, 0, 1, 0])


def test_battery_rows_m2_energy_pinned():
    b = VirtualBattery([0.0, 0.0], [1.0, 1.0], 1.0, 1.0)
    poly = battery_to_hpolytope(b)
    assert poly.n_rows == 6
    assert contains_point(poly, [0.5, 0.5])
    assert not contains_point(poly, [1.0, 1.0])  # sum exceeds the energy cap


def test_battery_rows_example1_nominal():
    b = VirtualBattery([-0.5], [1.0], -0.5, 1.0)
    poly = battery_to_hpolytope(b)
    assert poly.n_rows == 4
    np.testing.assert_allclose(poly.c, [1.0, 0.5, 1.0, 0.5])


def test_battery_invariants():
    with pytest.raises(ValueError):
        VirtualBattery([1.0], [0.0], 0.0, 1.0)          # p_low > p_high
    with pytest.raises(ValueError):
        VirtualBattery([0.0], [1.0], 0.8, 0.2)          # inverted interval
    for bad in (([np.nan], [1.0], 0.0, 1.0), ([0.0], [np.inf], 0.0, 1.0),
                ([0.0], [1.0], 0.0, np.inf), ([0.0], [1.0], np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            VirtualBattery(*bad)                       # non-finite bound or energy


def test_battery_json_roundtrip():
    b = VirtualBattery([0.0, 0.5], [2.0, 2.5], 1.0, 4.0)
    b2 = VirtualBattery.from_dict(b.to_dict())
    np.testing.assert_allclose(b2.p_low, b.p_low)
    np.testing.assert_allclose(b2.p_high, b.p_high)
    assert (b2.e_low, b2.e_high) == (b.e_low, b.e_high)


# ------------------------------------------------------------- containment

def test_contains_point_examples():
    assert contains_point(UNIT_BOX, [0.0, 0.0])
    assert not contains_point(UNIT_BOX, [2.0, 0.0])
    # direct substitution into the three corrected rows
    assert contains_point(EX1, [2.0, 8.0])
    with pytest.raises(DimensionMismatch):
        contains_point(UNIT_BOX, [0.0, 0.0, 0.0])


def test_contains_polytope_intervals():
    assert contains_polytope(interval(0, 1), interval(-1, 2))
    assert not contains_polytope(interval(0, 3), interval(0, 1))


def test_contains_polytope_empty_inner():
    empty = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    with pytest.raises(EmptyInner):
        contains_polytope(empty, interval(0, 1))


def test_contains_polytope_example1_section():
    """The widest horizontal section (at y = 8) scaled by 8/9 sits inside."""
    lam, mu = 8.0 / 9.0, 22.0 / 9.0
    lo, hi = lam * -0.5 + mu, lam * 1.0 + mu
    section = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([hi, -lo, 8.0, -8.0]))
    assert contains_polytope(section, EX1)
    # one scale notch wider no longer fits
    wider = HPolytope(section.a, section.c + np.array([0.2, 0.2, 0.0, 0.0]))
    assert not contains_polytope(wider, EX1)


def test_farkas_soundness_random(subtests=None):
    """True verdicts imply every sampled inner point lies in the outer set."""
    rng = np.random.default_rng(2024)
    true_seen = false_seen = 0
    for k in range(25):
        dim = int(rng.integers(1, 4))
        outer = random_box_polytope(rng, dim)
        center = rejection_samples(outer, 1, rng)[0]
        # scale about a feasible point: lam < 1 gives a subset, lam > 1 never
        lam = rng.uniform(0.2, 0.8) if k % 2 == 0 else rng.uniform(1.3, 2.0)
        inner = homothet_apply(Homothet(lam, (1.0 - lam) * center), outer)
        try:
            verdict = contains_polytope(inner, outer)
        except EmptyInner:
            continue
        if verdict:
            true_seen += 1
            pts = rejection_samples(inner, 40, rng)
            assert pts.size, "sampler found no inner points"
            for x in pts:
                assert contains_point(outer, x, tol=1e-8)
            if dim <= 3:
                for v in enumerate_vertices(inner):
                    assert contains_point(outer, v, tol=1e-7)
        else:
            false_seen += 1
    assert true_seen >= 5 and false_seen >= 5


# ---------------------------------------------------------------- homothets

def test_homothet_identity_and_scale():
    box = interval(0, 1)
    same = homothet_apply(Homothet(1.0, np.zeros(1)), box)
    np.testing.assert_allclose(same.c, box.c)
    doubled = homothet_apply(Homothet(2.0, np.zeros(1)), box)
    assert support_function(doubled, [1.0]) == pytest.approx(2.0)
    assert support_function(doubled, [-1.0]) == pytest.approx(0.0)


def test_homothet_example1_recovery():
    """1/0.15 * ([-0.5, 1] + 0.5) = [0, 10], the exact projection."""
    h = Homothet(1.0 / 0.15, np.array([0.5 / 0.15]))
    img = homothet_apply(h, interval(-0.5, 1.0))
    assert support_function(img, [1.0]) == pytest.approx(10.0, abs=1e-9)
    assert support_function(img, [-1.0]) == pytest.approx(0.0, abs=1e-9)


def test_homothet_roundtrip_membership():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        poly = random_box_polytope(rng, dim)
        h = Homothet(float(rng.uniform(0.3, 3.0)), rng.normal(size=dim))
        back = homothet_apply(homothet_inverse(h), homothet_apply(h, poly))
        lo, hi = bounding_box(poly)
        pts = rng.uniform(lo - 0.5, hi + 0.5, size=(50, dim))
        for x in pts:
            assert contains_point(poly, x, 1e-9) == contains_point(back, x, 1e-9)


def test_homothet_requires_positive_scale():
    with pytest.raises(ValueError):
        Homothet(0.0, np.zeros(1))


def test_homothet_apply_battery_matches_polytope_route():
    rng = np.random.default_rng(3)
    h = Homothet(2.5, np.array([0.3, -0.1]))
    for delta in (1.0, 0.5, 0.25):
        b = VirtualBattery([0.0, 0.2], [1.0, 2.0], 0.5 * delta, 2.5 * delta)
        via_battery = battery_to_hpolytope(homothet_apply_battery(h, b, delta), delta)
        via_poly = homothet_apply(h, battery_to_hpolytope(b, delta))
        for _ in range(100):
            x = rng.uniform(-1, 6, 2)
            assert contains_point(via_battery, x) == contains_point(via_poly, x)


# ----------------------------------------------------------------- lemma 1

def test_lemma1_translate_free():
    out = lemma1_sum([Homothet(2.0, np.zeros(2)), Homothet(3.0, np.zeros(2))])
    assert out.lam == pytest.approx(5.0)
    np.testing.assert_allclose(out.mu, 0.0)


def test_lemma1_translates_add():
    mu1, mu2 = np.array([1.0, -1.0]), np.array([0.5, 2.0])
    out = lemma1_sum([Homothet(1.0, mu1), Homothet(1.0, mu2)])
    assert out.lam == pytest.approx(2.0)
    np.testing.assert_allclose(out.mu, mu1 + mu2)


def test_lemma1_mixed_bases_rejected():
    hs = [Homothet(1.0, np.zeros(1)), Homothet(2.0, np.zeros(1))]
    with pytest.raises(MixedBases):
        lemma1_sum(hs, base_keys=["b1", "b2"])


def test_lemma1_support_additivity():
    """h_{sum}(v) = sum_k (lam_k h_B(v) + v . mu_k) over random instances."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        base = random_box_polytope(rng, dim)
        homs = [Homothet(float(rng.uniform(0.2, 3.0)), rng.normal(size=dim))
                for _ in range(int(rng.integers(2, 5)))]
        total = lemma1_sum(homs)
        summed = homothet_apply(total, base)
        v = rng.normal(size=dim)
        h_base = support_function(base, v)
        expected = sum(h.lam * h_base + v @ h.mu for h in homs)
        assert support_function(summed, v) == pytest.approx(expected, abs=1e-8)


# --------------------------------------------------------- support function

def test_support_function_box():
    assert support_function(UNIT_BOX, [1.0, 0.0]) == pytest.approx(1.0)
    assert support_function(UNIT_BOX, [1.0, 1.0]) == pytest.approx(2.0)


def test_support_function_example1_projection_width():
    assert support_function(EX1, [1.0, 0.0]) == pytest.approx(10.0, abs=1e-8)
    assert support_function(EX1, [-1.0, 0.0]) == pytest.approx(0.0, abs=1e-8)


def test_support_function_unbounded():
    half = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(UnboundedDirection):
        support_function(half, [0.0, 1.0])


# ------------------------------------------------------------ FM elimination

def test_fm_box_drop_coordinate():
    projected = fm_eliminate_one(UNIT_BOX, 1)
    assert support_function(projected, [1.0]) == pytest.approx(1.0)
    assert support_function(projected, [-1.0]) == pytest.approx(0.0)


def test_fm_example1_projection():
    """Pairing the y rows yields x >= 0 and x <= 10 (up to redundancy)."""
    projected = fm_eliminate_one(EX1, 1)
    assert support_function(projected, [1.0]) == pytest.approx(10.0, abs=1e-9)
    assert support_function(projected, [-1.0]) == pytest.approx(0.0, abs=1e-9)


def test_fm_strip_with_unbounded_coordinate():
    strip = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))
    projected = fm_eliminate_one(strip, 0)
    # no y bounds survive; every y satisfies the (vacuous) output rows
    assert contains_point(projected, [123.0])


def test_fm_matches_support_projection():
    """Projection via elimination agrees with direct support values."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        poly = random_box_polytope(rng, dim)
        drop = int(rng.integers(0, dim))
        projected = fm_eliminate_one(poly, drop)
        keep = [j for j in range(dim) if j != drop]
        for _ in range(20):
            v_small = rng.normal(size=dim - 1)
            v_full = np.zeros(dim)
            v_full[keep] = v_small
            assert support_function(projected, v_small) == pytest.approx(
                support_function(poly, v_full), abs=1e-8)
