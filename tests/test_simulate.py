"""Vote-histogram construction and noisy-argmax utility studies."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from ggprivacy import GGParams, IngestionError, ParameterError, ggdist, simulate
from ggprivacy.errors import ConstructionError
from ggprivacy.simulate import (
    PateAccuracy,
    ResultRow,
    SimConfig,
    UtilityPoint,
    VoteHistogram,
    auc_over_runner_up,
    build_histogram,
    exact_two_class_utility,
    hardmax_utility,
    histograms_from_csv,
    histograms_to_csv,
    make_histograms,
    normalized_auc,
    pate_label_accuracy,
    results_to_csv,
)


# -- configuration and histogram construction ------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(num_classes=1),
    dict(total_votes=0),
    dict(runner_up_grid=()),
    dict(runner_up_grid=(0.0, 0.1)),
    dict(runner_up_grid=(0.1, 1.0)),
    dict(histograms_per_r=0),
    dict(trials=0),
])
def test_sim_config_validation(kwargs):
    with pytest.raises(ParameterError):
        SimConfig(**kwargs)


def _spawn_state(rng):
    return rng.bit_generator.state, rng.bit_generator.seed_seq.n_children_spawned


@pytest.mark.parametrize("field", ["num_classes", "total_votes",
                                   "histograms_per_r", "trials"])
@pytest.mark.parametrize("bad", [2.5, 10.0, True, "5", None])
def test_sim_config_integer_fields_fail_fast(field, bad):
    with pytest.raises(ParameterError, match=field):
        SimConfig(**{field: bad})


def test_sim_config_keeps_numpy_integers_as_ints():
    cfg = SimConfig(num_classes=np.int64(3), trials=np.int32(7))
    assert type(cfg.num_classes) is int and cfg.num_classes == 3
    assert type(cfg.trials) is int and cfg.trials == 7


def test_vote_histogram_validation():
    with pytest.raises(ParameterError):
        VoteHistogram(np.asarray([5]), 0)
    with pytest.raises(ParameterError):
        VoteHistogram(np.asarray([5, -1]), 0)
    with pytest.raises(ParameterError):
        VoteHistogram(np.asarray([5, 3]), 2)
    hist = VoteHistogram(np.asarray([5, 3]), 0)
    with pytest.raises(ValueError):
        hist.counts[0] = 9


def test_two_class_split_is_deterministic(rng):
    hist = build_histogram(2, 1000, 0.2, rng)
    assert hist.counts.tolist() == [556, 444]
    assert hist.true_label == 0 and hist.runner_up == 0.2
    with pytest.raises(ParameterError):
        build_histogram(2, 1000, 0.0, rng)


@pytest.mark.parametrize("num_classes", [3, 4, 10, 25])
def test_multiclass_histogram_invariants(num_classes, rng):
    for r in (0.02, 0.1, 0.3):
        hist = build_histogram(num_classes, 1000, r, rng)
        c = hist.counts
        assert c.size == num_classes and c.sum() == 1000
        assert np.all(c >= 0)
        # Class 0 is the strict winner; class 1 holds the target margin.
        assert c[0] > c[1] >= np.max(c[1:])
        assert c[1] == math.floor(c[0] * (1.0 - r))
        assert c[-1] <= c[1]


def test_three_class_impossible_split_raises(rng):
    # V = 4 at r = 0.8: the winner takes 3, the margin forces the runner-up
    # to 0, and the leftover vote exceeds it; with no middle classes there
    # is nothing to retry.
    with pytest.raises(ConstructionError):
        build_histogram(3, 4, 0.8, rng)


def test_make_histograms_covers_grid(rng):
    cfg = SimConfig(num_classes=3, runner_up_grid=(0.05, 0.1), histograms_per_r=4)
    hists = make_histograms(cfg, rng)
    assert len(hists) == 8
    assert [h.runner_up for h in hists] == [0.05] * 4 + [0.1] * 4


@pytest.mark.parametrize("num_classes", [2, 3, 4])
def test_make_histograms_without_middle_classes_draws_nothing(num_classes):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    cfg = SimConfig(num_classes=num_classes, runner_up_grid=(0.05, 0.1),
                    histograms_per_r=5)
    hists = make_histograms(cfg, rng)
    assert rng.bit_generator.state == state
    for i, r in enumerate(cfg.runner_up_grid):
        block = hists[5 * i:5 * (i + 1)]
        assert all(h is block[0] for h in block)
        want = build_histogram(num_classes, 1000, r, np.random.default_rng(0))
        assert block[0].counts.tolist() == want.counts.tolist()
        assert block[0].runner_up == r


@pytest.mark.parametrize("num_classes", [5, 10, 25])
def test_make_histograms_block_rows_meet_the_invariants(num_classes, rng):
    grid = (0.02, 0.1, 0.3)
    cfg = SimConfig(num_classes=num_classes, runner_up_grid=grid,
                    histograms_per_r=50)
    hists = make_histograms(cfg, rng)
    assert [h.runner_up for h in hists] == [r for r in grid for _ in range(50)]
    for hist in hists:
        c, r = hist.counts, hist.runner_up
        assert c.size == num_classes and c.sum() == 1000
        assert np.all(c >= 0)
        assert c[0] > c[1] >= np.max(c[1:])
        assert c[1] == math.floor(c[0] * (1.0 - r))
        assert c[-1] <= c[1]
    # The middle counts are drawn, not repeated.
    assert len({h.counts.tobytes() for h in hists}) > len(grid)
    # The rows skip VoteHistogram's per-row checks, yet are what it builds:
    # read-only int64 rows that it accepts as they are.
    for hist in hists:
        assert hist.counts.dtype == np.int64 and hist.counts.ndim == 1
        assert not hist.counts.flags.writeable
        with pytest.raises(ValueError):
            hist.counts[0] = 0
        again = VoteHistogram(hist.counts, hist.true_label, hist.runner_up)
        assert np.array_equal(again.counts, hist.counts)


def test_histogram_block_is_checked_once():
    rows = np.asarray([[5, 3, 1], [4, 4, 0]], dtype=np.int64)
    hists = VoteHistogram._rows_of(rows, 0, 0.1)
    assert [h.counts.tolist() for h in hists] == rows.tolist()
    assert not rows.flags.writeable
    for bad, label in ((np.asarray([[5, -1, 1]]), 0), (rows[:, :1].copy(), 0),
                       (np.asarray([[5, 3, 1]]), 3), (np.asarray([5, 3]), 0)):
        with pytest.raises(ParameterError):
            VoteHistogram._rows_of(bad, label, None)


def test_make_histograms_raises_when_a_ratio_cannot_be_placed(rng):
    # V = 4 over 5 classes at r = 0.8: the winner takes 3, the runner-up and
    # the middle class 0, and the leftover vote exceeds the runner-up on
    # every draw.
    cfg = SimConfig(num_classes=5, total_votes=4, runner_up_grid=(0.8,),
                    histograms_per_r=3)
    with pytest.raises(ConstructionError, match="within"):
        make_histograms(cfg, rng)


# -- Monte-Carlo utility ------------------------------------------------------------

def test_hardmax_utility_groups_and_stderr(rng):
    hists = [build_histogram(2, 1000, r, rng) for r in (0.05, 0.05, 0.2)]
    points = hardmax_utility(hists, GGParams(2.0, 20.0), trials=40, rng=rng)
    assert {p.runner_up for p in points} == {0.05, 0.2}
    by_r = {p.runner_up: p for p in points}
    assert by_r[0.05].stderr == pytest.approx(
        math.sqrt(by_r[0.05].value * (1 - by_r[0.05].value) / (40 * 2)))
    assert by_r[0.2].stderr == pytest.approx(
        math.sqrt(by_r[0.2].value * (1 - by_r[0.2].value) / (40 * 1)))


def test_hardmax_utility_vanishing_noise_is_exact(rng):
    hists = [build_histogram(4, 1000, 0.1, rng) for _ in range(5)]
    (point,) = hardmax_utility(hists, GGParams(2.0, 1e-9), trials=10, rng=rng)
    assert point.value == 1.0 and point.stderr == 0.0


def test_hardmax_utility_validation(rng):
    with pytest.raises(ParameterError):
        hardmax_utility([], GGParams(2.0, 1.0), 10, rng)
    with pytest.raises(ParameterError):
        hardmax_utility([VoteHistogram(np.asarray([3, 1]), 0)],
                        GGParams(2.0, 1.0), 0, rng)


def test_hardmax_utility_rejects_mixed_class_counts_in_a_group(rng):
    # The groups before and after the mixed one are fine: the check on all
    # of them runs before any child stream is spawned.
    mixed = [VoteHistogram(np.asarray([5, 1]), 0, 0.05),
             VoteHistogram(np.asarray([5, 1]), 0, 0.1),
             VoteHistogram(np.asarray([5, 1, 0]), 0, 0.1),
             VoteHistogram(np.asarray([5, 1]), 0, 0.2)]
    state = _spawn_state(rng)
    with pytest.raises(ParameterError, match="share one class count"):
        hardmax_utility(mixed, GGParams(2.0, 1.0), 3, rng)
    assert _spawn_state(rng) == state
    mixed = mixed[1:3]
    # Different class counts in different groups are fine.
    mixed[1] = VoteHistogram(np.asarray([5, 1, 0]), 0, 0.2)
    assert len(hardmax_utility(mixed, GGParams(2.0, 1.0), 3, rng)) == 2


@pytest.mark.parametrize("bad", [0, 2.5, 15.0, True, np.float64(3.0)])
def test_study_trials_fail_fast_before_spawning(bad, rng):
    hists = [VoteHistogram(np.asarray([5, 1]), 0, 0.1)]
    state = _spawn_state(rng)
    with pytest.raises(ParameterError, match="trials"):
        hardmax_utility(hists, GGParams(2.0, 1.0), bad, rng)
    with pytest.raises(ParameterError, match="trials"):
        pate_label_accuracy(hists, [GGParams(2.0, 1.0)], bad, rng)
    assert _spawn_state(rng) == state


def _uneven_groups(rng):
    """Seven gap ratios over five classes with 1 to 7 histograms each, so
    the noise blocks differ in size from group to group."""
    cfg = SimConfig(num_classes=5, runner_up_grid=tuple(np.linspace(
        0.02, 0.3, 7)), histograms_per_r=7)
    hists = make_histograms(cfg, rng)
    return [h for i, h in enumerate(hists) if i % 7 <= i // 7]


def _serial_hits(jobs, trials, rng):
    """The documented derivation, one job after another: job i draws its
    (trials, H, N) block from child i of rng.spawn(len(jobs))."""
    hits = []
    for (noise, counts, true), child in zip(jobs, rng.spawn(len(jobs))):
        block = ggdist.sample(noise, child, trials * counts.size)
        hits.append(simulate._argmax_hits(
            counts, true, block.reshape(trials, *counts.shape)))
    return hits


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_studies_do_not_depend_on_the_worker_count(beta, monkeypatch):
    # 2000 trials make blocks of 10 000 to 70 000 draws, long enough that
    # workers writing one shared block would overwrite each other's noise;
    # five workers is more than there are cores, under a short switch
    # interval.
    hists = _uneven_groups(np.random.default_rng(5))
    noise = GGParams(beta, 40.0)
    noises = [GGParams(b, s) for b in (1.0, 1.5, 2.0) for s in (30.0, 90.0)]
    labelled = hists[:9]
    groups = {}
    for h in hists:
        groups.setdefault(h.runner_up, []).append(h)
    jobs = [(noise, *simulate._stacked(g, "")) for g in groups.values()]
    serial = [float(h.mean()) for h in _serial_hits(
        jobs, 2000, np.random.default_rng(6))]
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 5):
            monkeypatch.setattr(simulate, "_cores", lambda: workers)
            rng = np.random.default_rng(6)
            points = hardmax_utility(hists, noise, 2000, rng)
            assert rng.bit_generator.seed_seq.n_children_spawned == len(groups)
            rows = pate_label_accuracy(labelled, noises, 300,
                                       np.random.default_rng(6))
            results.append((points, rows))
    finally:
        sys.setswitchinterval(old)
    assert [p.runner_up for p in results[0][0]] == list(groups)
    assert [p.value for p in results[0][0]] == serial
    assert all(r == results[0] for r in results[1:])


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    hists = _uneven_groups(np.random.default_rng(5))
    draw = ggdist.sample
    calls = []

    def failing(params, rng, count, out=None):
        calls.append(count)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return draw(params, rng, count, out=out)

    monkeypatch.setattr(simulate, "_cores", lambda: 3)
    monkeypatch.setattr(ggdist, "sample", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="boom"):
        hardmax_utility(hists, GGParams(2.0, 40.0), 5, np.random.default_rng(1))
    assert threading.active_count() == before
    calls.clear()
    with pytest.raises(RuntimeError, match="boom"):
        pate_label_accuracy(hists[:4], [GGParams(2.0, 9.0)] * 4, 5,
                            np.random.default_rng(1))
    assert threading.active_count() == before


def test_argmax_hits_match_the_stacked_argmax_with_ties(rng):
    # Integer-valued noise makes ties common; the in-place score must keep
    # np.argmax's first-maximum rule, bitwise, for any true label.
    counts = rng.integers(0, 4, size=(60, 5)).astype(np.float64)
    true = rng.integers(0, 5, size=60)
    assert np.any(true != 0)
    block = rng.integers(-3, 4, size=(9, 60, 5)).astype(np.float64)
    noisy = counts[None] + block
    top = noisy.max(axis=2, keepdims=True)
    assert np.any((noisy == top).sum(axis=2) > 1)
    want = np.argmax(counts[None] + block, axis=2) == true
    got = simulate._argmax_hits(counts, true, block)
    assert got.dtype == bool and np.array_equal(got, want)
    assert np.array_equal(block, noisy)


def test_hardmax_matches_exact_two_class(rng):
    # MC estimate vs quadrature at a quiet margin.
    hist = build_histogram(2, 1000, 0.1, rng)
    gap = float(hist.counts[0] - hist.counts[1])
    noise = GGParams(2.0, 60.0)
    (point,) = hardmax_utility([hist], noise, trials=4000, rng=rng)
    exact = exact_two_class_utility(gap, noise)
    assert abs(point.value - exact) <= 4.0 * max(point.stderr, 1e-3)


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_hardmax_matches_exact_two_class_at_other_shapes(beta, rng):
    hist = build_histogram(2, 1000, 0.1, rng)
    gap = float(hist.counts[0] - hist.counts[1])
    noise = GGParams(beta, 60.0)
    (point,) = hardmax_utility([hist], noise, trials=4000, rng=rng)
    exact = exact_two_class_utility(gap, noise)
    assert abs(point.value - exact) <= 4.0 * max(point.stderr, 1e-3)


# -- exact quadrature -----------------------------------------------------------------

@pytest.mark.parametrize("gap,sigma", [(0.0, 1.0), (0.5, 1.0), (2.0, 3.0), (10.0, 2.0)])
def test_exact_two_class_gaussian_closed_form(gap, sigma):
    # GG(2, sigma) noise per class: the count difference is N(0, sigma^2).
    got = exact_two_class_utility(gap, GGParams(2.0, sigma))
    assert got == pytest.approx(stats.norm.cdf(gap / sigma), rel=1e-8)


@pytest.mark.parametrize("gap,sigma", [(0.0, 1.0), (1.0, 1.0), (3.0, 2.0)])
def test_exact_two_class_laplace_closed_form(gap, sigma):
    # Difference of two iid Laplace(sigma): P(D > g) = e^{-g/s} (2 + g/s) / 4.
    got = exact_two_class_utility(gap, GGParams(1.0, sigma))
    g = gap / sigma
    assert got == pytest.approx(1.0 - math.exp(-g) * (2.0 + g) / 4.0, rel=1e-8)


@pytest.mark.parametrize("beta", [1.5, 3.0])
@pytest.mark.parametrize("gap,sigma", [(0.0, 1.0), (0.5, 1.0), (2.0, 3.0), (10.0, 2.0)])
def test_exact_two_class_matches_adaptive_quadrature(beta, gap, sigma):
    from scipy import integrate

    noise = GGParams(beta, sigma)

    def integrand(y):
        return ggdist.pdf(noise, y) * ggdist.cdf(noise, gap + y)

    want, _ = integrate.quad(integrand, -40.0 * sigma, 40.0 * sigma,
                             points=sorted({0.0, -gap}), limit=500,
                             epsabs=1e-14, epsrel=1e-13)
    got = exact_two_class_utility(gap, noise)
    assert got == pytest.approx(want, rel=1e-9)


def test_exact_two_class_rejects_negative_gap():
    with pytest.raises(ParameterError):
        exact_two_class_utility(-1.0, GGParams(2.0, 1.0))


# -- curve summaries -------------------------------------------------------------------

def test_auc_trapezoid_hand_case():
    points = [
        UtilityPoint(0.06, 0.8, 0.0),
        UtilityPoint(0.02, 0.9, 0.0),
        UtilityPoint(0.10, 0.6, 0.0),
        UtilityPoint(0.15, 0.2, 0.0),   # beyond r_max: dropped
        UtilityPoint(None, 0.99, 0.0),  # ungrouped: dropped
    ]
    got = auc_over_runner_up(points, r_max=0.1)
    assert got == pytest.approx(0.04 * 0.85 + 0.04 * 0.7)
    with pytest.raises(ParameterError):
        auc_over_runner_up(points[:1], r_max=0.1)


def test_normalized_auc_scales_to_best():
    strong = [UtilityPoint(0.02, 1.0, 0.0), UtilityPoint(0.1, 1.0, 0.0)]
    weak = [UtilityPoint(0.02, 0.5, 0.0), UtilityPoint(0.1, 0.5, 0.0)]
    out = normalized_auc({"a": strong, "b": weak})
    assert out["a"] == 1.0 and out["b"] == pytest.approx(0.5)


# -- teacher-vote labeling ----------------------------------------------------------

def test_pate_label_accuracy_perfect_separation(rng):
    hists = [VoteHistogram(np.asarray([500, 1, 0]), 0),
             VoteHistogram(np.asarray([2, 500, 1]), 1)]
    rows = pate_label_accuracy(hists, [GGParams(2.0, 0.5), GGParams(1.0, 0.5)],
                               trials=5, rng=rng)
    assert [(r.beta, r.sigma) for r in rows] == [(2.0, 0.5), (1.0, 0.5)]
    for r in rows:
        assert r.mean == 1.0 and r.std == 0.0 and r.stderr == 0.0


def test_pate_label_accuracy_validation(rng):
    ok = [VoteHistogram(np.asarray([5, 1]), 0)]
    with pytest.raises(ParameterError):
        pate_label_accuracy(ok, [GGParams(2.0, 1.0)], trials=1, rng=rng)
    mixed = ok + [VoteHistogram(np.asarray([5, 1, 0]), 0)]
    with pytest.raises(ParameterError):
        pate_label_accuracy(mixed, [GGParams(2.0, 1.0)], trials=5, rng=rng)
    with pytest.raises(ParameterError):
        pate_label_accuracy([], [GGParams(2.0, 1.0)], trials=5, rng=rng)
    state = _spawn_state(rng)
    with pytest.raises(ParameterError, match="noises"):
        pate_label_accuracy(ok, [], trials=5, rng=rng)
    with pytest.raises(ParameterError, match="class count"):
        pate_label_accuracy(mixed, [GGParams(2.0, 1.0)], trials=5, rng=rng)
    assert _spawn_state(rng) == state


def test_pate_stderr_is_std_over_sqrt_trials(rng):
    hists = [VoteHistogram(np.asarray([20, 15, 10]), 0) for _ in range(6)]
    (row,) = pate_label_accuracy(hists, [GGParams(2.0, 8.0)], trials=30, rng=rng)
    assert 0.0 < row.mean < 1.0
    assert row.stderr == pytest.approx(row.std / math.sqrt(30))


# -- file formats ---------------------------------------------------------------------

def test_histogram_csv_round_trip(tmp_path, rng):
    hists = [build_histogram(3, 200, 0.1, rng) for _ in range(4)]
    text = histograms_to_csv(hists)
    assert text.splitlines()[0] == "class_0,class_1,class_2,true_label"
    path = tmp_path / "hists.csv"
    path.write_text(text)
    back = histograms_from_csv(path)
    assert len(back) == 4
    for orig, parsed in zip(hists, back):
        assert np.array_equal(orig.counts, parsed.counts)
        assert parsed.true_label == orig.true_label
        assert parsed.runner_up is None  # ratio is not persisted


@pytest.mark.parametrize("body,row", [
    ("", "row 1"),
    ("class_0,true_label\n3,0\n", "row 1"),
    ("votes_a,votes_b,true_label\n3,1,0\n", "row 1"),
    ("class_0,class_1,true_label\n3,1\n", "row 2"),
    ("class_0,class_1,true_label\n3,1.5,0\n", "row 2"),
    ("class_0,class_1,true_label\n3,-1,0\n", "row 2"),
    ("class_0,class_1,true_label\n3,1,0\n4,2,2\n", "row 3"),
])
def test_histogram_csv_names_offending_row(tmp_path, body, row):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(IngestionError, match=row):
        histograms_from_csv(path)


def test_results_csv_blanks_for_missing_fields():
    rows = [
        ResultRow(2.0, 1.5, 1.25, 1e-5, "utility", 0.875, 0.01),
        ResultRow(1.0, 2.0, None, None, "auc", 0.0625, None),
    ]
    text = results_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "beta,sigma,epsilon,delta,metric,value,stderr"
    assert lines[1] == "2,1.5,1.25,1e-05,utility,0.875,0.01"
    assert lines[2] == "1,2,,,auc,0.0625,"
