"""Noise mechanisms, private argmax, clipping, models, noisy SGD."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from ggprivacy import (
    GGParams,
    IngestionError,
    InputError,
    ParameterError,
    ggdist,
)
from ggprivacy.accountant import CompositionLedger
from ggprivacy.mechanisms import (
    LogisticModel,
    MLPModel,
    TrainConfig,
    clip_rows,
    gg_mechanism,
    ggnmax,
    lbeta_clip,
    load_dataset_csv,
    make_blobs,
    sgg_mechanism,
    train_noisy_sgd,
)
from ggprivacy.prv import MechanismSpec


# -- plain noise addition --------------------------------------------------------

@pytest.mark.parametrize("sensitivity", [0.0, -1.0, math.inf, math.nan])
def test_gg_mechanism_sensitivity_validation(sensitivity, rng):
    with pytest.raises(ParameterError):
        gg_mechanism([1.0], sensitivity, GGParams(2.0, 1.0), rng)


def test_gg_mechanism_rejects_non_finite_values(rng):
    with pytest.raises(InputError):
        gg_mechanism([1.0, math.inf], 1.0, GGParams(2.0, 1.0), rng)


def test_gg_mechanism_shapes_and_determinism():
    noise = GGParams(1.5, 0.7)
    out1 = gg_mechanism([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 2.0, noise,
                        np.random.default_rng(11))
    out2 = gg_mechanism([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 2.0, noise,
                        np.random.default_rng(11))
    assert out1.shape == (2, 3)
    assert np.array_equal(out1, out2)
    scalar = gg_mechanism(5.0, 1.0, noise, np.random.default_rng(0))
    assert scalar.shape == (1,)


def test_gg_mechanism_noise_law(rng):
    # Residuals must follow GG(beta, sigma * sensitivity).
    value = np.full(50_000, 3.25)
    out = gg_mechanism(value, 2.0, GGParams(2.0, 1.5), rng)
    residual = out - value
    result = stats.kstest(residual,
                          lambda x: ggdist.cdf(GGParams(2.0, 3.0), x))
    assert result.pvalue > 1e-3


# -- subsampled variant ----------------------------------------------------------

def test_sgg_mechanism_rate_validation(rng):
    with pytest.raises(ParameterError):
        sgg_mechanism([1.0], lambda s: [0.0], 1.0, GGParams(2.0, 1.0), 0.0, rng)
    with pytest.raises(ParameterError):
        sgg_mechanism([1.0], lambda s: [0.0], 1.0, GGParams(2.0, 1.0), 1.5, rng)


def test_sgg_mechanism_full_rate_matches_plain():
    records = np.arange(10.0)
    query = lambda s: np.atleast_1d(np.sum(s))
    noise = GGParams(2.0, 1.0)
    out = sgg_mechanism(records, query, 1.0, noise, 1.0,
                        np.random.default_rng(3))
    plain = gg_mechanism(query(records), 1.0, noise, np.random.default_rng(3))
    assert np.array_equal(out, plain)


def test_sgg_mechanism_subsamples_then_adds_noise():
    records = np.ones(200)
    noise = GGParams(2.0, 1.0)
    out = sgg_mechanism(records, lambda s: np.atleast_1d(np.sum(s)), 1.0,
                        noise, 0.3, np.random.default_rng(42))
    # Replicate the documented draw order: one uniform block for inclusion,
    # then the noise block.
    ref = np.random.default_rng(42)
    kept = float(np.sum(ref.random(200) < 0.3))
    expected = kept + ggdist.sample(noise, ref, 1)
    assert np.array_equal(out, expected)
    # List inputs go through the same path.
    as_list = sgg_mechanism(list(records), lambda s: np.atleast_1d(sum(s)),
                            1.0, noise, 0.3, np.random.default_rng(42))
    assert np.array_equal(as_list, out)


def test_sgg_mechanism_empty_subset(rng):
    out = sgg_mechanism(np.ones(5), lambda s: np.atleast_1d(np.sum(s)), 1.0,
                        GGParams(2.0, 1.0), 1e-12, rng)
    assert np.all(np.isfinite(out))


# -- private argmax --------------------------------------------------------------

def test_ggnmax_validation(rng):
    with pytest.raises(ParameterError):
        ggnmax([5.0], GGParams(2.0, 1.0), rng)
    with pytest.raises(ParameterError):
        ggnmax([[1.0, 2.0], [3.0, 4.0]], GGParams(2.0, 1.0), rng)
    with pytest.raises(InputError):
        ggnmax([1.0, math.nan], GGParams(2.0, 1.0), rng)


def test_ggnmax_returns_dominant_index():
    counts = [0.0, 1000.0, 0.0, 0.0]
    for seed in range(20):
        winner = ggnmax(counts, GGParams(2.0, 1.0), np.random.default_rng(seed))
        assert isinstance(winner, int)
        assert winner == 1


def test_ggnmax_tie_is_a_fair_coin(rng):
    picks = [ggnmax([0.0, 0.0], GGParams(1.0, 1.0), rng) for _ in range(2000)]
    assert 0.45 < np.mean(picks) < 0.55


# -- clipping ---------------------------------------------------------------------

def test_lbeta_clip_validation(rng):
    with pytest.raises(ParameterError):
        lbeta_clip([1.0], 2.0, 0.0)
    with pytest.raises(ParameterError):
        lbeta_clip([1.0], 0.5, 1.0)
    with pytest.raises(InputError):
        lbeta_clip([math.inf], 2.0, 1.0)
    with pytest.raises(ParameterError):
        clip_rows(np.ones(4), 2.0, 1.0)


@pytest.mark.parametrize("beta", [1.0, 1.7, 2.0, 6.0])
def test_lbeta_clip_norm_bound(beta, rng):
    vec = rng.normal(0.0, 5.0, size=12)
    clipped = lbeta_clip(vec, beta, 1.0)
    norm = float(np.sum(np.abs(clipped) ** beta) ** (1.0 / beta))
    assert norm <= 1.0 + 1e-9
    # Direction is preserved.
    assert np.allclose(clipped / np.linalg.norm(clipped),
                       vec / np.linalg.norm(vec))


def test_lbeta_clip_short_vector_untouched():
    vec = np.array([0.1, -0.2, 0.05])
    assert np.array_equal(lbeta_clip(vec, 2.0, 1.0), vec)


@pytest.mark.parametrize("beta,clip_norm,value,error", [
    (2.0, -1.0, 1.0, ParameterError),
    (2.0, 0.0, 1.0, ParameterError),
    (2.0, math.nan, 1.0, ParameterError),
    (2.0, math.inf, 1.0, ParameterError),
    (0.5, 1.0, 1.0, ParameterError),
    (math.nan, 1.0, 1.0, ParameterError),
    (ggdist.BETA_MAX * 2, 1.0, 1.0, ParameterError),
    (2.0, 1.0, math.nan, InputError),
    (2.0, 1.0, -math.inf, InputError),
])
def test_every_clip_checks_its_inputs_alike(beta, clip_norm, value, error):
    # lbeta_clip, clip_rows and both models' clipped sums share one check.
    mat = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, value]])
    with pytest.raises(error):
        lbeta_clip(mat[1], beta, clip_norm)
    with pytest.raises(error):
        clip_rows(mat, beta, clip_norm)
    y = np.array([0.0, 1.0])
    for model in (LogisticModel(dim=3), MLPModel(dim=3, width=2)):
        with pytest.raises(error):
            model.clipped_grad_sum(np.zeros(model.num_params), mat, y, beta,
                                   clip_norm)


def test_clip_rows_matches_per_row(rng):
    mat = rng.normal(0.0, 3.0, size=(8, 5))
    out = clip_rows(mat, 1.5, 0.8)
    for i in range(8):
        assert np.allclose(out[i], lbeta_clip(mat[i], 1.5, 0.8),
                           rtol=1e-12, atol=0.0)


# -- models ------------------------------------------------------------------------

def _cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Stable per-example binary cross-entropy on logits.
    return np.logaddexp(0.0, z) - y * z


def _fd_check(model, params, X, y, eps=1e-6):
    grads = model.per_example_grads(params, X, y)
    assert grads.shape == (X.shape[0], model.num_params)
    for j in range(model.num_params):
        bump = np.zeros_like(params)
        bump[j] = eps
        if isinstance(model, LogisticModel):
            z_hi = X @ (params + bump)[:-1] + (params + bump)[-1]
            z_lo = X @ (params - bump)[:-1] + (params - bump)[-1]
        else:
            _, z_hi = model._forward(params + bump, X)
            _, z_lo = model._forward(params - bump, X)
        numeric = (_cross_entropy(z_hi, y) - _cross_entropy(z_lo, y)) / (2 * eps)
        assert np.allclose(grads[:, j], numeric, rtol=1e-5, atol=1e-7)


def test_logistic_grads_match_finite_differences(rng):
    model = LogisticModel(dim=3)
    assert model.num_params == 4
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=6).astype(np.float64)
    params = rng.normal(size=model.num_params)
    _fd_check(model, params, X, y)


def test_mlp_grads_match_finite_differences(rng):
    model = MLPModel(dim=2, width=3)
    assert model.num_params == 2 * 3 + 3 + 3 + 1
    X = rng.normal(size=(5, 2))
    y = rng.integers(0, 2, size=5).astype(np.float64)
    params = model.init_params(rng) + rng.normal(0.0, 0.3, model.num_params)
    _fd_check(model, params, X, y)


def _clipped_sum_case(model_name, rng, n=40, dim=4):
    X = rng.normal(size=(n, dim))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    if model_name == "logistic":
        model = LogisticModel(dim=dim)
        params = rng.normal(size=model.num_params)
    else:
        model = MLPModel(dim=dim, width=5)
        params = model.init_params(rng) + rng.normal(0.0, 0.3, model.num_params)
    return model, params, X, y


def _assert_clipped_sum_matches(model, params, X, y, beta, clip_norm):
    want = clip_rows(model.per_example_grads(params, X, y), beta,
                     clip_norm).sum(axis=0)
    got = model.clipped_grad_sum(params, X, y, beta, clip_norm)
    assert got.shape == (model.num_params,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("model_name", ["logistic", "mlp"])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("clipped", ["none", "some", "all"])
def test_clipped_grad_sum_matches_clipped_rows(model_name, beta, clipped, rng):
    model, params, X, y = _clipped_sum_case(model_name, rng)
    norms = np.sum(np.abs(model.per_example_grads(params, X, y)) ** beta,
                   axis=1) ** (1.0 / beta)
    clip_norm = {"none": 2.0 * norms.max(), "some": float(np.median(norms)),
                 "all": 0.5 * norms.min()}[clipped]
    n = len(norms)
    low, high = {"none": (0, 0), "some": (1, n - 1), "all": (n, n)}[clipped]
    assert low <= np.sum(norms > clip_norm) <= high
    _assert_clipped_sum_matches(model, params, X, y, beta, clip_norm)


@pytest.mark.parametrize("model_name", ["logistic", "mlp"])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
def test_clipped_grad_sum_one_row_and_extreme_rows(model_name, beta, rng):
    model, params, X, y = _clipped_sum_case(model_name, rng)
    _assert_clipped_sum_matches(model, params, X[:1], y[:1], beta, 0.3)
    # Rows at 1e-100 leave only the bias terms of each norm; rows at 1e100
    # saturate the logistic output and the MLP's tanh layer.
    X = X.copy()
    X[::3] *= 1e-100
    X[1::3] *= 1e100
    for clip_norm in (0.3, 1e3):
        _assert_clipped_sum_matches(model, params, X, y, beta, clip_norm)


def test_logistic_plain_gd_separates_blobs(rng):
    X, y = make_blobs(400, 4, 4.0, rng)
    model = LogisticModel(dim=4)
    params = model.init_params(rng)
    for _ in range(100):
        params = params - 0.5 * model.per_example_grads(params, X, y).mean(axis=0)
    assert np.mean(model.predict(params, X) == y) >= 0.95


# -- data helpers --------------------------------------------------------------------

def test_make_blobs_geometry(rng):
    X, y = make_blobs(2000, 6, 3.0, rng)
    assert X.shape == (2000, 6) and y.shape == (2000,)
    assert y.dtype == np.int64 and set(np.unique(y)) == {0, 1}
    proj = X @ (np.ones(6) / math.sqrt(6))
    gap = proj[y == 1].mean() - proj[y == 0].mean()
    assert gap == pytest.approx(3.0, abs=0.3)
    with pytest.raises(ParameterError):
        make_blobs(1, 3, 1.0, rng)


def test_load_dataset_csv_happy_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,label\n1.0,2.0,0\n\n-3.5,4.25,1\n")
    X, y = load_dataset_csv(path)
    assert np.array_equal(X, [[1.0, 2.0], [-3.5, 4.25]])
    assert np.array_equal(y, [0, 1]) and y.dtype == np.int64


@pytest.mark.parametrize("body,row", [
    ("1.0,2.0,0\n3.0,oops,1\n", "row 2"),
    ("1.0,2.0,0\n3.0,4.0\n", "row 2"),
    ("1.0,2.0,0.5\n", "row 1"),
    ("", "row 1"),
    ("x1,x2,label\n", "row 1"),
])
def test_load_dataset_csv_names_offending_row(tmp_path, body, row):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(IngestionError, match=row):
        load_dataset_csv(path)


# -- noisy SGD ---------------------------------------------------------------------

def small_problem(rng, n=120, dim=3):
    X, y = make_blobs(n, dim, 3.0, rng)
    return LogisticModel(dim=dim), (X, y)


def test_train_validates_batch_size(rng):
    model, data = small_problem(rng)
    with pytest.raises(ParameterError):
        train_noisy_sgd(model, data, TrainConfig(batch_size=500), rng)
    with pytest.raises(ParameterError):
        train_noisy_sgd(model, (data[0][:0], data[1][:0]),
                        TrainConfig(batch_size=1), rng)
    for epochs in (0, -1):
        with pytest.raises(ParameterError, match="epochs"):
            train_noisy_sgd(model, data, TrainConfig(epochs=epochs), rng)
    with pytest.raises(ParameterError, match="labels"):
        train_noisy_sgd(model, (data[0], data[1][:-1]),
                        TrainConfig(batch_size=30), rng)


@pytest.mark.parametrize("clip_norm", [0.0, -1.0, math.nan])
def test_train_rejects_a_bad_clip_norm(clip_norm, rng):
    model, data = small_problem(rng)
    with pytest.raises(ParameterError, match="clip_norm"):
        train_noisy_sgd(model, data, TrainConfig(clip_norm=clip_norm,
                                                 batch_size=30), rng)


# Recorded from the per-example-gradient loop (clip_rows of
# per_example_grads, summed) that the factored clipped sum replaced.  The
# steps, halts, epsilon history and accuracies are bitwise; params moved in
# the last bits only, since the sum is taken in another order.  The epsilon
# history was re-recorded when the ledger's suffix tables left the log form:
# each value moved by at most 1.5e-15 relative.  The beta = 1 accuracies
# and params were re-recorded when `ggdist.sample` moved to one random bit
# per sign, which changes every beta != 2 noise stream.
PINNED_TRAINING = {
    ("logistic", 1.0): (12, False, [
        "0x1.b46293108fa2dp-1", "0x1.a2bfb53195e07p+0", "0x1.0ede1d83b7debp+1"],
        [0.9166666666666666, 0.9083333333333333, 0.9],
        [0.5902537261730351, 0.40402732786416623, 0.5507496074349311,
         -0.1288016831858965]),
    ("logistic", 2.0): (8, True, [
        "0x1.e6d280e28f72dp+1", "0x1.3c209c3a3f00fp+2"],
        [0.9083333333333333, 0.9083333333333333],
        [0.6882886084986292, 0.508150035786882, 0.543699319841435,
         -0.0651388542144219]),
    ("mlp", 1.0): (12, False, [
        "0x1.b46293108fa2dp-1", "0x1.a2bfb53195e07p+0", "0x1.0ede1d83b7debp+1"],
        [0.525, 0.6583333333333333, 0.75],
        [-0.32183463696534415, 0.3440568529687728, 0.31602738686807247,
         -0.7430262497117751, 0.39911882649889413, 0.04426204893443992,
         0.5842470829938036, 0.004313123083858651, 0.5589917818975798,
         -0.6514501254386927, 1.0614061399797619, 0.5462690532147554,
         0.08547587214161691, -0.09118114284949128, -0.057488870804456284,
         0.030267550570853296, -0.08540015774436949, 0.2592717208519327,
         0.5042442672236827, -0.9193171188255709, -0.014389552671026873]),
    ("mlp", 2.0): (8, True, [
        "0x1.e6d280e28f72dp+1", "0x1.3c209c3a3f00fp+2"],
        [0.75, 0.8666666666666667],
        [-0.2743700206692004, 0.30118511548712057, 0.45379619908853897,
         -0.9326882440312287, 0.38984178204889003, 0.2733474092174357,
         0.45526983089339407, -0.13990522587613238, 0.5915577320654193,
         -0.464371584831405, 1.0147218299907823, 0.30888050472876416,
         0.00954280591972928, 0.004486115831809667, -0.011515138882024347,
         -0.017547929467573192, 0.03268943132813881, 0.27340967049633436,
         0.7893221242588088, -1.0200432881478934, -0.07503704249040956]),
}


@pytest.mark.parametrize("model_name,beta", sorted(PINNED_TRAINING))
def test_train_matches_the_per_example_gradient_loop(model_name, beta):
    steps, halted, eps_hex, train_acc, params = \
        PINNED_TRAINING[model_name, beta]
    X, y = make_blobs(120, 3, 3.0, np.random.default_rng(20))
    model = LogisticModel(3) if model_name == "logistic" else MLPModel(3, 4)
    cfg = TrainConfig(batch_size=30, epochs=3, clip_norm=0.5,
                      noise=GGParams(beta, 1.5), target_epsilon=5.0,
                      ledger_bins=2 ** 12, learning_rate=0.5)
    result = train_noisy_sgd(model, (X, y), cfg, np.random.default_rng(31))
    assert (result.steps, result.halted) == (steps, halted)
    assert [h["epsilon"].hex() for h in result.history] == eps_hex
    assert [h["train_acc"] for h in result.history] == train_acc
    assert result.params.tolist() == pytest.approx(params, rel=1e-12)


def test_train_runs_to_plan_without_target(rng):
    model, data = small_problem(rng)
    cfg = TrainConfig(batch_size=30, epochs=2)
    result = train_noisy_sgd(model, data, cfg, np.random.default_rng(5),
                             test_data=data)
    assert result.steps == 2 * 4 and result.halted is False
    assert result.epsilon is None and result.delta is None
    assert len(result.history) == 2
    for rec in result.history:
        assert set(rec) == {"epoch", "epsilon", "delta", "train_acc", "test_acc"}
        assert rec["epsilon"] is None
        assert 0.0 <= rec["train_acc"] <= 1.0
        assert rec["test_acc"] == rec["train_acc"]  # same data passed twice
    again = train_noisy_sgd(model, data, cfg, np.random.default_rng(5),
                            test_data=data)
    assert np.array_equal(result.params, again.params)


def test_train_halts_at_budget(rng):
    model, data = small_problem(rng)
    cfg = TrainConfig(batch_size=30, epochs=4,
                      noise=GGParams(2.0, 3 * math.sqrt(2.0)),
                      target_epsilon=1.0, target_delta=1e-5,
                      ledger_bins=2 ** 12)
    planned = 4 * 4
    spec = MechanismSpec(cfg.noise, cfg.clip_norm, 30 / 120, 1)
    ledger = CompositionLedger(spec, k_cap=planned, bins=2 ** 12)
    budget = ledger.max_steps(cfg.target_epsilon, cfg.target_delta)
    assert budget < planned  # otherwise this test would not exercise the halt
    result = train_noisy_sgd(model, data, cfg, np.random.default_rng(9))
    assert result.steps == budget
    assert result.halted is True
    assert result.epsilon == ledger.epsilon_at(budget, cfg.target_delta)
    assert result.epsilon <= cfg.target_epsilon


def test_train_refuses_a_nan_budget(rng):
    # The ledger refuses the NaN budget: no step is trained, where one was.
    model, data = small_problem(rng)
    cfg = TrainConfig(batch_size=30, epochs=4, target_epsilon=float("nan"),
                      ledger_bins=2 ** 12)
    with pytest.raises(ParameterError, match="^epsilon must be a number"):
        train_noisy_sgd(model, data, cfg, np.random.default_rng(9))


def test_train_accounts_the_noise_it_adds_at_any_clip_norm(rng):
    # Clip norm C adds GG(beta, sigma * C) to a sum of sensitivity C, so the
    # ledger must account that spec, not (sigma, C).
    model, data = small_problem(rng)
    cfg = TrainConfig(batch_size=30, epochs=2, clip_norm=0.25,
                      noise=GGParams(2.0, 3.0), target_epsilon=50.0,
                      ledger_bins=2 ** 12)
    result = train_noisy_sgd(model, data, cfg, np.random.default_rng(3))
    assert result.steps == 2 * 4
    kwargs = dict(k_cap=2 * 4, bins=2 ** 12)
    released = CompositionLedger(
        MechanismSpec(GGParams(2.0, 3.0 * 0.25), 0.25, 30 / 120, 1), **kwargs)
    assert result.epsilon == released.epsilon_at(result.steps, cfg.target_delta)
    mislabelled = CompositionLedger(
        MechanismSpec(cfg.noise, 0.25, 30 / 120, 1), **kwargs)
    assert mislabelled.epsilon_at(result.steps, cfg.target_delta) \
        < result.epsilon


def test_train_refuses_to_account_beta_above_two(rng):
    # The ledger's 1-D loss under-states a d-dimensional beta > 2 release.
    model, data = small_problem(rng)
    noise = GGParams(3.0, 0.5)
    with pytest.raises(ParameterError, match=r"beta=3 .*dimension reduction"):
        train_noisy_sgd(model, data, TrainConfig(noise=noise, batch_size=30,
                                                 target_epsilon=8.0), rng)
    result = train_noisy_sgd(model, data, TrainConfig(noise=noise, batch_size=30),
                             rng)
    assert result.steps == 4 * 5 and result.epsilon is None


def test_train_survives_empty_batches(rng):
    model, data = small_problem(rng, n=50)
    cfg = TrainConfig(batch_size=1, epochs=1, learning_rate=0.1)
    result = train_noisy_sgd(model, data, cfg, rng)
    assert result.steps == 50
    assert np.all(np.isfinite(result.params))
