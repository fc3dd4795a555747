import numpy as np
import pytest

from viapt.backbone import ViTConfig, init_backbone
from viapt.errors import ConfigError, ModeMismatchError
from viapt.harness import SyntheticDatasetSpec, gen_dataset
from viapt.inference import (
    InferenceConfig,
    evaluate_dataset,
    predict_direct,
    predict_fixed_sampling,
    predict_multi_round,
)
from viapt.numerics import RngState
from viapt.prompt_engine import PromptConfig, count_parameters
from viapt.training import TrainConfig, build_model, train

RNG = np.random.default_rng(2718)

# oracle-established (2026-08-08): fixed-sampling argmax agreement with
# multi_round(R=16) measured at this exact budget over noise seeds 0..3 was
# 0.685..0.815; the frozen floor leaves margin below the observed minimum
AGREEMENT_FLOOR = 0.60


def small_model(vit, lam=2, mode="viapt", seed=5):
    bb = init_backbone(vit, RngState(11).derive("backbone"), dtype=np.float32)
    bb.freeze()
    pcfg = PromptConfig(tokens=4, instance_tokens=lam, retained_dims=2, mode=mode)
    return build_model(vit, pcfg, RngState(seed).derive("init"), bb, dtype=np.float32)


@pytest.fixture(scope="module")
def trained_setup():
    """One lightly trained probabilistic model on instance_shift."""
    vit = ViTConfig(classes=5)
    spec = SyntheticDatasetSpec(variant="instance_shift", classes=5, train_samples=600,
                                noise=0.1, seed=0)
    data = gen_dataset(spec)
    bb = init_backbone(vit, RngState(77).derive("backbone"), dtype=np.float32)
    bb.freeze()
    cfg = TrainConfig(epochs=8, warmup_epochs=1, batch_size=32, seed=1)
    pcfg = PromptConfig(tokens=8, instance_tokens=4, retained_dims=24, mode="viapt")
    res = train(cfg, pcfg, data, bb, vit)
    return res.final.model, data


def test_inference_config_validation():
    with pytest.raises(ConfigError):
        InferenceConfig(rounds=0)
    with pytest.raises(ConfigError):
        InferenceConfig(strategy="oracle")


def test_r1_equals_single_stochastic_forward(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    rng = RngState(42)
    p1 = predict_multi_round(img, model, 1, rng)
    # the single round reads the stream at counter offset 0
    z = RngState(42).gaussian((1, 2, 8), dtype=np.float32)
    from viapt.inference import FrozenForward, _forward_probs
    expect = _forward_probs(model, img[None], FrozenForward(noise=z))[0]
    assert np.array_equal(p1, expect)


def test_multi_round_output_is_distribution(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    p = predict_multi_round(img, model, 5, RngState(3))
    assert p.shape == (tiny_vit.classes,)
    assert (p >= 0).all() and abs(p.sum() - 1.0) < 1e-6


def test_round_counter_offsets_partition(tiny_vit):
    # rounds use offsets r*lam*d, so R=2 averages the same two rounds that
    # R=1 would produce at offsets 0 and lam*d
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    lamd = 2 * 8
    p_r2 = predict_multi_round(img, model, 2, RngState(9))
    pa = predict_multi_round(img, model, 1, RngState(9))
    pb = predict_multi_round(img, model, 1, RngState(9, counter=lamd))
    assert np.allclose(p_r2, (pa + pb) / 2.0, atol=1e-7)


def test_batch_position_keys_disjoint_streams(tiny_vit):
    # image b's rounds start at counter c + b*R*lam*d, so each image of a
    # batch matches that image alone read from its own offset
    model = small_model(tiny_vit)
    imgs = RNG.standard_normal((2, 1, 8, 8)).astype(np.float32)
    rounds, lamd, c = 3, 2 * 8, 5
    both = predict_multi_round(imgs, model, rounds, RngState(9, counter=c))
    for b in range(2):
        alone = predict_multi_round(imgs[b], model, rounds,
                                    RngState(9, counter=c + b * rounds * lamd))
        assert np.abs(both[b] - alone).max() < 1e-6


def test_lambda_zero_collapses_all_strategies(tiny_vit):
    model = small_model(tiny_vit, lam=0)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    multi = predict_multi_round(img, model, 7, RngState(1))
    fixed = predict_fixed_sampling(img, model, noise_seed=99)
    direct = predict_direct(img, model)
    assert np.array_equal(multi, fixed)
    assert np.array_equal(fixed, direct)


def test_identical_rounds_average_bitwise_idempotent(tiny_vit):
    model = small_model(tiny_vit, lam=0)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    single = predict_multi_round(img, model, 1, RngState(4))
    many = predict_multi_round(img, model, 9, RngState(4))
    assert np.array_equal(single, many)


def test_fixed_sampling_bitwise_reproducible(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    a = predict_fixed_sampling(img, model, noise_seed=5)
    b = predict_fixed_sampling(img, model, noise_seed=5)
    assert np.array_equal(a, b)


def test_fixed_sampling_varies_across_images(tiny_vit):
    model = small_model(tiny_vit)
    imgs = RNG.standard_normal((2, 1, 8, 8)).astype(np.float32)
    probs = predict_fixed_sampling(imgs, model, noise_seed=5)
    assert np.abs(probs[0] - probs[1]).max() > 0


def test_full_testset_fixed_evaluation_reproducible(trained_setup):
    model, data = trained_setup
    x, y = data["test"]
    cfg = InferenceConfig(strategy="fixed_sampling", noise_seed=7)
    s1, r1 = evaluate_dataset(model, x, y, cfg)
    s2, r2 = evaluate_dataset(model, x, y, cfg)
    assert s1 == s2
    assert [r["argmax"] for r in r1] == [r["argmax"] for r in r2]


def test_fixed_sampling_agrees_with_multi_round_majority(trained_setup):
    model, data = trained_setup
    x, y = data["test"]
    s16, r16 = evaluate_dataset(model, x, y,
                                InferenceConfig(strategy="multi_round", rounds=16))
    ref = np.array([r["argmax"] for r in r16])
    for seed in (0, 1, 2, 3):
        _, rf = evaluate_dataset(model, x, y,
                                 InferenceConfig(strategy="fixed_sampling", noise_seed=seed))
        agreement = (np.array([r["argmax"] for r in rf]) == ref).mean()
        assert agreement >= AGREEMENT_FLOOR, f"seed {seed}: agreement {agreement}"


def test_std_scales_like_inverse_sqrt_rounds(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    repeats = 96
    stds = {}
    for rounds in (1, 4, 16):
        probs = np.stack([
            predict_multi_round(img, model, rounds, RngState(1000 + rep))
            for rep in range(repeats)
        ])
        stds[rounds] = probs.std(axis=0).mean()
    ratio4 = stds[1] / stds[4]
    ratio16 = stds[1] / stds[16]
    assert abs(ratio4 - 2.0) <= 0.6      # within +-30% of sqrt(4)
    assert abs(ratio16 - 4.0) <= 1.2     # within +-30% of sqrt(16)


def test_direct_mode_deterministic(tiny_vit):
    model = small_model(tiny_vit, mode="direct_generation")
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    assert np.array_equal(predict_direct(img, model), predict_direct(img, model))


def test_mode_mismatch_errors(tiny_vit):
    prob_model = small_model(tiny_vit, mode="viapt")
    direct_model = small_model(tiny_vit, mode="direct_generation")
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    with pytest.raises(ModeMismatchError):
        predict_direct(img, prob_model)
    with pytest.raises(ModeMismatchError):
        predict_multi_round(img, direct_model, 3, RngState(0))
    with pytest.raises(ModeMismatchError):
        predict_fixed_sampling(img, direct_model, 0)


def test_direct_generator_parameter_count_difference(tiny_vit):
    lam, d = 2, tiny_vit.embed_dim
    prob = count_parameters(PromptConfig(tokens=4, instance_tokens=lam, retained_dims=2,
                                         mode="viapt"), tiny_vit)
    direct = count_parameters(PromptConfig(tokens=4, instance_tokens=lam, retained_dims=2,
                                           mode="direct_generation"), tiny_vit)
    # output maps: d/2 -> lam*d replaces two d/2 -> d maps
    expect_diff = (lam * d - 2 * d) * (d // 2) + (lam * d - 2 * d)
    assert direct["generator_params"] - prob["generator_params"] == expect_diff


def test_evaluate_dataset_records_schema(trained_setup):
    model, data = trained_setup
    x, y = data["val"]
    summary, records = evaluate_dataset(model, x[:10], y[:10],
                                        InferenceConfig(strategy="multi_round", rounds=2))
    assert summary["n"] == 10 and summary["R"] == 2
    assert set(records[0].keys()) == {"image", "strategy", "probabilities", "argmax"}
    probs = np.array(records[0]["probabilities"])
    assert abs(probs.sum() - 1.0) < 1e-6 and (probs >= 0).all()
