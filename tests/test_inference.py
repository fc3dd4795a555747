import numpy as np
import pytest

from viapt.backbone import ViTConfig, embed_patches, init_backbone
from viapt.errors import ConfigError, DimensionError, ModeMismatchError
from viapt.harness import SyntheticDatasetSpec, gen_dataset
from viapt.inference import InferenceConfig, evaluate_dataset, predict_probs
from viapt.numerics import RngState
from viapt.prompt_engine import (
    FrozenForward,
    PromptConfig,
    count_parameters,
    generate_instance_prompts,
)
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


def _noise(model, rng, shape):
    """Standard normals shaped (..., lam, d) for the model's instance tokens."""
    return rng.gaussian(shape + (model.pcfg.instance_tokens, model.vit.embed_dim))


def test_r1_equals_single_stochastic_forward(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    z = _noise(model, RngState(42), (1, 1))
    p1 = predict_probs(model, img[None], z)
    # one round is one forward: the logits' softmax, nothing averaged
    logits, _, _ = model.forward(img[None], rng=None, frozen=FrozenForward(noise=z[0]))
    e = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
    assert np.array_equal(p1, e / e.sum(axis=-1, keepdims=True))


def test_multi_round_output_is_distribution(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    p = predict_probs(model, img[None], _noise(model, RngState(3), (5, 1)))[0]
    assert p.shape == (tiny_vit.classes,)
    assert (p >= 0).all() and abs(p.sum() - 1.0) < 1e-6


def test_round_counter_offsets_partition(tiny_vit):
    # an R=2 stack drawn in one call holds the blocks at offsets 0 and lam*d,
    # and its result is the average of those two single rounds
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
    lamd = 2 * 8
    p_r2 = predict_probs(model, img, _noise(model, RngState(9), (2, 1)))
    pa = predict_probs(model, img, _noise(model, RngState(9), (1,)))
    pb = predict_probs(model, img, _noise(model, RngState(9, counter=lamd), (1,)))
    assert np.allclose(p_r2, (pa + pb) / 2.0, atol=1e-7)


def test_shared_block_equals_per_image_copies(tiny_vit):
    model = small_model(tiny_vit)
    imgs = RNG.standard_normal((2, 1, 8, 8)).astype(np.float32)
    z = _noise(model, RngState(6), ())
    shared = predict_probs(model, imgs, z)
    assert np.array_equal(shared, predict_probs(model, imgs, np.stack([z] * 2)))
    assert np.array_equal(shared, predict_probs(model, imgs, np.stack([z] * 2)[None]))


@pytest.mark.parametrize("shape", [(3, 5), (2, 4, 48), (5, 2, 4, 48)])
def test_mismatched_noise_shape_raises(desk_vit, shape):
    # a 3-image batch at lambda = 4, d = 48 takes (4, 48), (3, 4, 48) or (R, 3, 4, 48)
    model = small_model(desk_vit, lam=4)
    imgs = RNG.standard_normal((3, 1, 16, 16)).astype(np.float32)
    z = np.zeros(shape, dtype=np.float32)
    e0 = embed_patches(imgs, model.backbone, desk_vit)
    with pytest.raises(DimensionError, match="noise shaped"):
        generate_instance_prompts(e0, model.generator, 4, None, frozen_noise=z)
    with pytest.raises(DimensionError, match="noise shaped"):
        predict_probs(model, imgs, z)


def test_lambda_zero_collapses_all_strategies(tiny_vit):
    model = small_model(tiny_vit, lam=0)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    label = np.zeros(1, dtype=np.int64)
    probs = []
    for icfg in (InferenceConfig(strategy="multi_round", rounds=7, noise_seed=1),
                 InferenceConfig(strategy="fixed_sampling", noise_seed=99),
                 InferenceConfig(strategy="direct")):
        _, records = evaluate_dataset(model, img[None], label, icfg)
        probs.append(np.array([r["probabilities"] for r in records]))
    assert np.array_equal(probs[0], probs[1])
    assert np.array_equal(probs[1], probs[2])


def test_identical_rounds_average_bitwise_idempotent(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
    z = _noise(model, RngState(4), (1, 1))
    single = predict_probs(model, img, z)
    many = predict_probs(model, img, np.repeat(z, 9, axis=0))
    assert np.array_equal(single, many)


def test_fixed_sampling_bitwise_reproducible(tiny_vit):
    model = small_model(tiny_vit)
    img = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
    a = predict_probs(model, img, _noise(model, RngState(5), ()))
    b = predict_probs(model, img, _noise(model, RngState(5), ()))
    assert np.array_equal(a, b)


def test_fixed_sampling_varies_across_images(tiny_vit):
    model = small_model(tiny_vit)
    imgs = RNG.standard_normal((2, 1, 8, 8)).astype(np.float32)
    probs = predict_probs(model, imgs, _noise(model, RngState(5), ()))
    assert np.abs(probs[0] - probs[1]).max() > 0


def test_multi_round_records_read_per_image_streams(desk_vit):
    # image i's R rounds are one draw of R*lam*d values from the stream that
    # noise_seed derives for "img.i"
    model = small_model(desk_vit)
    rng = np.random.default_rng(32)
    images = rng.standard_normal((5, 1, 16, 16)).astype(np.float32)
    labels = rng.integers(0, desk_vit.classes, 5)
    icfg = InferenceConfig(strategy="multi_round", rounds=3, noise_seed=7)
    _, records = evaluate_dataset(model, images, labels, icfg, batch_size=1)
    for i, rec in enumerate(records):
        z = _noise(model, RngState(7).derive(f"img.{i}"), (3, 1))
        expect = predict_probs(model, images[i:i + 1], z)[0]
        assert np.array_equal(np.array(rec["probabilities"]), expect)


def test_fixed_sampling_records_share_one_block(desk_vit):
    model = small_model(desk_vit)
    rng = np.random.default_rng(33)
    images = rng.standard_normal((5, 1, 16, 16)).astype(np.float32)
    labels = rng.integers(0, desk_vit.classes, 5)
    icfg = InferenceConfig(strategy="fixed_sampling", noise_seed=7)
    _, records = evaluate_dataset(model, images, labels, icfg)
    expect = predict_probs(model, images, _noise(model, RngState(7), ()))
    assert np.array_equal(np.array([r["probabilities"] for r in records]), expect)


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
            predict_probs(model, img[None], _noise(model, RngState(1000 + rep), (rounds, 1)))[0]
            for rep in range(repeats)
        ])
        stds[rounds] = probs.std(axis=0).mean()
    ratio4 = stds[1] / stds[4]
    ratio16 = stds[1] / stds[16]
    assert abs(ratio4 - 2.0) <= 0.6      # within +-30% of sqrt(4)
    assert abs(ratio16 - 4.0) <= 1.2     # within +-30% of sqrt(16)


def test_direct_mode_deterministic(tiny_vit):
    model = small_model(tiny_vit, mode="direct_generation")
    img = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
    assert np.array_equal(predict_probs(model, img), predict_probs(model, img))


def test_mode_mismatch_errors(tiny_vit):
    prob_model = small_model(tiny_vit, mode="viapt")
    direct_model = small_model(tiny_vit, mode="direct_generation")
    img = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
    label = np.zeros(1, dtype=np.int64)
    with pytest.raises(ModeMismatchError):
        evaluate_dataset(prob_model, img, label, InferenceConfig(strategy="direct"))
    with pytest.raises(ModeMismatchError):
        evaluate_dataset(direct_model, img, label, InferenceConfig(strategy="multi_round", rounds=3))
    with pytest.raises(ModeMismatchError):
        evaluate_dataset(direct_model, img, label, InferenceConfig(strategy="fixed_sampling"))


def test_direct_generator_parameter_count_difference(tiny_vit):
    lam, d = 2, tiny_vit.embed_dim
    prob = count_parameters(PromptConfig(tokens=4, instance_tokens=lam, retained_dims=2,
                                         mode="viapt"), tiny_vit)
    direct = count_parameters(PromptConfig(tokens=4, instance_tokens=lam, retained_dims=2,
                                           mode="direct_generation"), tiny_vit)
    # output maps: d/2 -> lam*d replaces two d/2 -> d maps
    expect_diff = (lam * d - 2 * d) * (d // 2) + (lam * d - 2 * d)
    assert direct["generator_params"] - prob["generator_params"] == expect_diff


# Batch size changes only the BLAS blocking of each forward, so results agree
# up to f32 rounding: at most 9e-8 was measured at desk geometry. The bound is
# about 8 f32 epsilons.
BATCH_SIZE_TOL = 1e-6


@pytest.mark.parametrize("strategy,mode", [("multi_round", "viapt"),
                                           ("fixed_sampling", "viapt"),
                                           ("direct", "direct_generation")])
def test_evaluation_independent_of_batch_size(desk_vit, strategy, mode):
    model = small_model(desk_vit, mode=mode)
    n = 70  # one full batch of 64 plus a ragged one
    images = RNG.standard_normal((n, 1, 16, 16)).astype(np.float32)
    labels = RNG.integers(0, desk_vit.classes, n)
    icfg = InferenceConfig(strategy=strategy, rounds=3, noise_seed=7)
    probs = {}
    for bs in (1, 7, 64):
        _, records = evaluate_dataset(model, images, labels, icfg, batch_size=bs)
        assert [r["image"] for r in records] == list(range(n))
        probs[bs] = np.array([r["probabilities"] for r in records])
    for bs in (1, 7):
        assert np.abs(probs[bs] - probs[64]).max() <= BATCH_SIZE_TOL


def test_evaluate_dataset_records_schema(trained_setup):
    model, data = trained_setup
    x, y = data["val"]
    summary, records = evaluate_dataset(model, x[:10], y[:10],
                                        InferenceConfig(strategy="multi_round", rounds=2))
    assert summary["n"] == 10 and summary["R"] == 2
    assert set(records[0].keys()) == {"image", "strategy", "probabilities", "argmax"}
    probs = np.array(records[0]["probabilities"])
    assert abs(probs.sum() - 1.0) < 1e-6 and (probs >= 0).all()
