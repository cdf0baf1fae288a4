import math

import numpy as np
import pytest

from robustchow.adversary import (STRATEGIES, AdversaryStrategy,
                                  LabeledSampleSet, corrupt, plant_instance)
from robustchow.distributions import gaussian_descriptor, hypercube_descriptor
from robustchow.errors import InvalidHypothesis, UnknownStrategy
from robustchow.ltf_learner import LTF
from robustchow.polybasis import eval_monomials_batch


def make_clean(n=6, m=4000, theta=0.3, seed=0):
    dist = gaussian_descriptor(n, 1, 0.1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    f = LTF(v, theta)
    pts = dist.sample(m, seed + 1)
    return dist, f, LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))


def test_sampleset_csv_roundtrip(tmp_path):
    _, _, s = make_clean(m=200)
    path = tmp_path / "s.csv"
    s.to_csv(path)
    back = LabeledSampleSet.from_csv(path)
    assert np.array_equal(back.points, s.points)
    assert np.array_equal(back.labels, s.labels)


def test_sampleset_csv_roundtrip_with_mask(tmp_path):
    dist, f, s = make_clean(m=300)
    out = corrupt(s, f, 0.1, AdversaryStrategy("random_flip"), dist, 5)
    path = tmp_path / "c.csv"
    out.to_csv(path)
    back = LabeledSampleSet.from_csv(path)
    assert np.array_equal(back.corrupted_mask, out.corrupted_mask)


def test_sampleset_rejects_nonfinite_points_and_nan_labels():
    _, _, s = make_clean(m=50)
    for bad in (np.nan, np.inf, -np.inf):
        pts = s.points.copy()
        pts[9, 1] = bad
        with pytest.raises(ValueError, match="finite.*sample index 9"):
            LabeledSampleSet(pts, s.labels)
    labels = s.labels.copy()
    labels[3] = np.nan
    with pytest.raises(ValueError, match="labels"):
        LabeledSampleSet(s.points, labels)


def test_budget_exact_every_strategy():
    dist, f, s = make_clean(m=1000)
    for tag in STRATEGIES:
        for eps in (0.0, 0.013, 0.1):
            out = corrupt(s, f, eps, AdversaryStrategy(tag), dist, 7)
            assert len(out) == len(s)
            expect = 0 if tag == "none" else math.floor(eps * len(s))
            assert int(out.corrupted_mask.sum()) == expect, (tag, eps)


def test_untouched_rows_byte_identical():
    dist, f, s = make_clean(m=1200)
    for tag in ("random_flip", "boundary_flip", "chow_attack", "remove_informative"):
        out = corrupt(s, f, 0.1, AdversaryStrategy(tag), dist, 3)
        keep = ~out.corrupted_mask
        # every untouched output row appears identically in the input
        if tag == "remove_informative":
            # rows are re-indexed after removal: match by content
            src = {r.tobytes() for r in s.points}
            assert all(r.tobytes() in src for r in out.points[keep])
        else:
            assert np.array_equal(out.points[keep], s.points[keep])
            assert np.array_equal(out.labels[keep], s.labels[keep])


def test_none_strategy_is_identity():
    dist, f, s = make_clean(m=500)
    out = corrupt(s, f, 0.1, AdversaryStrategy("none"), dist, 1)
    assert np.array_equal(out.points, s.points)
    assert np.array_equal(out.labels, s.labels)
    assert out.corrupted_mask.sum() == 0


def test_random_flip_flips_only_labels():
    dist, f, s = make_clean(m=800)
    out = corrupt(s, f, 0.05, AdversaryStrategy("random_flip"), dist, 11)
    assert np.array_equal(out.points, s.points)
    flipped = out.corrupted_mask
    assert np.array_equal(out.labels[flipped], -s.labels[flipped])


def test_boundary_flip_targets_smallest_margins():
    dist, f, s = make_clean(m=900)
    out = corrupt(s, f, 0.1, AdversaryStrategy("boundary_flip"), dist, 2)
    margins = np.abs(f.margin(s.points))
    worst_flipped = margins[out.corrupted_mask].max()
    best_kept = margins[~out.corrupted_mask].min()
    assert worst_flipped <= best_kept + 1e-12


def test_chow_attack_cluster_location_and_labels():
    dist, f, s = make_clean(m=1000)
    strat = AdversaryStrategy("chow_attack", rho=0.8)
    out = corrupt(s, f, 0.1, strat, dist, 13)
    moved = out.points[out.corrupted_mask]
    assert np.allclose(out.labels[out.corrupted_mask], 1.0)
    # all planted points identical, placed at whitened radius rho T_max/sqrt(2)
    assert np.allclose(moved, moved[0])
    isqrt, _ = dist.whitener()
    phi = eval_monomials_batch(dist.basis, moved[:1])
    q = float(np.square(isqrt @ phi[0]).sum())
    target = strat.rho * dist.t_max / math.sqrt(2.0)
    assert math.sqrt(q) == pytest.approx(target, rel=1e-4)
    # inside the prune radius T_max/sqrt(2) for any rho < 1
    assert q < dist.t_max ** 2 / 2.0


def test_chow_attack_shifts_empirical_chow():
    dist, f, s = make_clean(n=10, m=20_000, seed=4)
    out = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack", rho=0.9), dist, 17)
    from robustchow.chowfilter import chow_distance, empirical_chow
    clean_est = empirical_chow(s, dist)
    bad_est = empirical_chow(out, dist)
    assert chow_distance(bad_est, clean_est) > 0.4


def test_remove_informative_drops_largest_margins():
    dist, f, s = make_clean(m=700)
    out = corrupt(s, f, 0.1, AdversaryStrategy("remove_informative"), dist, 19)
    assert len(out) == len(s)
    # substituted points carry labels consistent with the target
    sub = out.corrupted_mask
    assert np.array_equal(out.labels[sub], f.evaluate(out.points[sub]))
    # surviving original rows are the smallest-margin ones
    margins = np.abs(f.margin(s.points))
    budget = math.floor(0.1 * len(s))
    dropped_floor = np.sort(margins)[len(s) - budget:]
    kept = {r.tobytes() for r in out.points[~sub]}
    originals = [(m_, r.tobytes()) for m_, r in zip(margins, s.points)]
    for m_, rb in originals:
        if m_ < dropped_floor[0] - 1e-12:
            assert rb in kept


def test_corrupt_deterministic_in_seed():
    dist, f, s = make_clean(m=600)
    a = corrupt(s, f, 0.1, AdversaryStrategy("random_flip"), dist, 42)
    b = corrupt(s, f, 0.1, AdversaryStrategy("random_flip"), dist, 42)
    c = corrupt(s, f, 0.1, AdversaryStrategy("random_flip"), dist, 43)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_unknown_strategy_rejected():
    with pytest.raises(UnknownStrategy):
        AdversaryStrategy("poison_everything")


def test_strategy_rho_bounds():
    with pytest.raises(ValueError):
        AdversaryStrategy("chow_attack", rho=1.5)


def test_plant_instance_kinds():
    dist = gaussian_descriptor(5, 1, 0.05)
    v = np.zeros(5)
    v[0] = 1.0
    f, s = plant_instance("ltf", (v, 0.5), dist, 500, 3)
    assert len(s) == 500
    assert set(np.unique(s.labels)) <= {-1.0, 1.0}
    assert np.array_equal(s.labels, f.evaluate(s.points))


def test_plant_instance_rejects_bad_params():
    dist = gaussian_descriptor(5, 1, 0.05)
    with pytest.raises(InvalidHypothesis):
        plant_instance("ltf", (np.full(5, 0.5), 0.5), dist, 100, 0)


def test_hypercube_chow_attack_vertex():
    dist = hypercube_descriptor(6, 1, 0.1)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    f = LTF(v, 0.1)
    pts = dist.sample(1000, 1)
    s = LabeledSampleSet(pts, f.evaluate(pts).astype(np.float64))
    out = corrupt(s, f, 0.1, AdversaryStrategy("chow_attack"), dist, 5)
    moved = out.points[out.corrupted_mask]
    assert set(np.unique(moved)) <= {-1.0, 1.0}
