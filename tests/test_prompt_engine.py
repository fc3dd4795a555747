import numpy as np
import pytest

import viapt.numerics as nm
from viapt.backbone import ViTConfig, embed_patches, forward_vpt_deep, forward_vpt_shallow
from viapt.errors import ConfigError
from viapt.numerics import RngState, Tensor
from viapt.prompt_engine import (
    DatasetPrompts,
    FrozenForward,
    PromptConfig,
    assemble_combined,
    count_parameters,
    forward_viapt,
    generate_instance_prompts,
    init_generator,
    kl_to_standard_normal,
    pca_project,
    random_orthonormal_basis,
)
from viapt.training import build_model

from oracles import jacobi_eigh, kl_closed_form, kl_monte_carlo, viapt_forward_np

RNG = np.random.default_rng(99)

VIT_B = ViTConfig(image_side=224, patch_side=16, embed_dim=768, layers=12, heads=12,
                  classes=200)


# -- config -------------------------------------------------------------------

def test_mode_endpoints_force_m_and_lambda():
    shallow = PromptConfig(tokens=8, instance_tokens=4, retained_dims=10,
                           mode="vpt_shallow").resolved(48)
    assert shallow.retained_dims == 48 and shallow.instance_tokens == 0
    deep = PromptConfig(tokens=8, instance_tokens=4, mode="vpt_deep").resolved(48)
    assert deep.retained_dims == 0 and deep.instance_tokens == 0


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        PromptConfig(tokens=4, instance_tokens=5).resolved(8)
    with pytest.raises(ConfigError):
        PromptConfig(tokens=4, retained_dims=9).resolved(8)
    with pytest.raises(ConfigError):
        PromptConfig(mode="nonsense").resolved(8)


def test_default_m_is_half_width():
    assert PromptConfig(tokens=8).resolved(48).retained_dims == 24


# -- instance prompt generation -------------------------------------------------

def _tiny_e0(vit, backbone, n=2):
    imgs = RNG.standard_normal((n, 1, vit.image_side, vit.image_side))
    return embed_patches(imgs.astype(backbone.patch_w.data.dtype), backbone, vit)


def test_degenerate_sigma_returns_mu(tiny_vit, tiny_backbone):
    g = init_generator(8, RngState(3).derive("g"), dtype=np.float64)
    g.logvar_w.data = np.zeros_like(g.logvar_w.data)
    g.logvar_b.data = np.full_like(g.logvar_b.data, -2000.0)  # sigma underflows to 0
    e0 = _tiny_e0(tiny_vit, tiny_backbone)
    prompts, mu, logvar = generate_instance_prompts(e0, g, 3, RngState(1))
    assert np.array_equal(prompts.data, np.broadcast_to(mu.data[:, None, :], prompts.data.shape))


def test_zeroed_maps_give_raw_noise(tiny_vit, tiny_backbone):
    g = init_generator(8, RngState(3).derive("g"), dtype=np.float64)
    for t in (g.mu_w, g.mu_b, g.logvar_w, g.logvar_b):
        t.data = np.zeros_like(t.data)
    e0 = _tiny_e0(tiny_vit, tiny_backbone)
    rng = RngState(5)
    expected = RngState(5).gaussian((2, 3, 8), dtype=np.float64)
    prompts, mu, logvar = generate_instance_prompts(e0, g, 3, rng)
    assert np.array_equal(prompts.data, expected)
    assert np.abs(mu.data).max() == 0 and np.abs(logvar.data).max() == 0


def test_reparameterized_gradient_matches_fd_with_frozen_noise(tiny_vit, tiny_backbone):
    g = init_generator(8, RngState(3).derive("g"), dtype=np.float64)
    e0_data = _tiny_e0(tiny_vit, tiny_backbone).data
    z = RngState(9).gaussian((2, 3, 8), dtype=np.float64)
    target = RNG.standard_normal((2, 3, 8))

    def run():
        prompts, mu, logvar = generate_instance_prompts(Tensor(e0_data), g, 3, None,
                                                        frozen_noise=z)
        diff = nm.add(prompts, nm.constant(-target, np.float64))
        return nm.mean_(nm.mul(diff, diff))

    gmap = nm.backward(run())
    h = 1e-5
    for tensor in (g.mu_w, g.logvar_b, g.conv1_w):
        flat = tensor.data.ravel()
        grad = gmap[tensor].ravel()
        for i in range(0, flat.size, max(flat.size // 17, 1)):
            orig = flat[i]
            flat[i] = orig + h
            up = float(run().data)
            flat[i] = orig - h
            down = float(run().data)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grad[i]))
            assert denom < 1e-8 or abs(fd - grad[i]) / denom < 1e-4


def test_noise_is_constant_for_gradients(tiny_vit, tiny_backbone):
    g = init_generator(8, RngState(3).derive("g"), dtype=np.float64)
    e0 = _tiny_e0(tiny_vit, tiny_backbone)
    prompts, _, _ = generate_instance_prompts(e0, g, 2, RngState(0))
    gmap = nm.backward(nm.sum_(nm.mul(prompts, prompts)))
    assert all(t in gmap for t in (g.mu_w, g.logvar_w, g.conv1_w))


def test_lambda_requires_square_token_grid():
    vit = ViTConfig(image_side=8, patch_side=4, embed_dim=8, layers=1, heads=2, classes=2)
    g = init_generator(8, RngState(0), dtype=np.float64)
    e0 = Tensor(RNG.standard_normal((1, 2, 8)))  # k=2 is not a perfect square
    with pytest.raises(ConfigError):
        generate_instance_prompts(e0, g, 1, RngState(0))


def test_instance_prompts_differ_across_inputs(tiny_vit, tiny_backbone):
    g = init_generator(8, RngState(3).derive("g"), dtype=np.float64)
    e0 = _tiny_e0(tiny_vit, tiny_backbone, n=2)
    z = RngState(4).gaussian((3, 8), dtype=np.float64)
    prompts, _, _ = generate_instance_prompts(e0, g, 3, None, frozen_noise=z)
    assert np.abs(prompts.data[0] - prompts.data[1]).max() > 0


# -- KL -------------------------------------------------------------------------

def test_kl_zero_at_standard_normal():
    assert float(kl_to_standard_normal(np.zeros(5), np.zeros(5)).data) == 0.0


def test_kl_half_for_unit_mean():
    assert float(kl_to_standard_normal(np.array([1.0]), np.array([0.0])).data) == pytest.approx(0.5)


def test_kl_matches_closed_form_oracle():
    mu = RNG.standard_normal(8)
    lv = RNG.standard_normal(8) * 0.5
    assert float(kl_to_standard_normal(mu, lv).data) == pytest.approx(kl_closed_form(mu, lv))


def test_kl_matches_monte_carlo():
    for seed in range(3):
        local = np.random.default_rng(seed)
        mu = local.standard_normal(8) * 0.8
        lv = local.standard_normal(8) * 0.6
        closed = float(kl_to_standard_normal(mu, lv).data)
        mc = kl_monte_carlo(mu, lv, 10 ** 6, seed=seed + 100)
        assert abs(closed - mc) / abs(closed) < 0.01


def test_kl_non_negative_property():
    for _ in range(50):
        mu = RNG.standard_normal(6) * 3
        lv = RNG.standard_normal(6) * 2
        assert float(kl_to_standard_normal(mu, lv).data) >= 0.0


def test_kl_batched_shape():
    out = kl_to_standard_normal(RNG.standard_normal((4, 6)), RNG.standard_normal((4, 6)))
    assert out.data.shape == (4,)


# -- PCA ------------------------------------------------------------------------

def test_exact_rank_reconstruction():
    basis = RNG.standard_normal((2, 6))
    coords = RNG.standard_normal((7, 2))
    offset = RNG.standard_normal(6)
    z = coords @ basis + offset
    proj = pca_project(z, 2)
    recon = proj.mean + proj.coords.data @ proj.basis.T
    assert np.abs(recon - z).max() < 1e-8
    assert proj.retained_variance == pytest.approx(1.0)


def test_full_m_is_an_isometry():
    z = RNG.standard_normal((5, 4))
    proj = pca_project(z, 4)
    centered = z - z.mean(axis=0)
    assert np.abs((proj.coords.data ** 2).sum() - (centered ** 2).sum()) < 1e-10


def test_retained_variance_matches_eigh_oracle():
    z = RNG.standard_normal((10, 6))
    proj = pca_project(z, 3)
    centered = z - z.mean(axis=0)
    eigvals, _ = jacobi_eigh(centered.T @ centered)
    total = eigvals.sum()
    expect = eigvals[:3].sum() / total
    assert abs(proj.retained_variance - expect) / expect < 1e-8


def test_pca_beats_random_projections():
    for m in (1, 2, 3):
        z = RNG.standard_normal((10, 6))
        centered = z - z.mean(axis=0)
        proj = pca_project(z, m)
        best = ((centered - centered @ proj.basis[:, :m] @ proj.basis[:, :m].T) ** 2).sum()
        for trial in range(100):
            q = random_orthonormal_basis(6, m, RngState(trial * 7 + 1), dtype=np.float64)
            err = ((centered - centered @ q @ q.T) ** 2).sum()
            assert err > best - 1e-12


def test_trailing_coordinates_are_exact_zeros_beyond_rank():
    z = RNG.standard_normal((4, 12))  # centered rank <= 3
    proj = pca_project(z, 8)
    assert np.abs(proj.coords.data[:, 3:]).max() == 0.0
    assert np.abs(proj.basis.T @ proj.basis - np.eye(8)).max() < 1e-6


def test_coordinates_equal_centered_times_basis():
    z = RNG.standard_normal((6, 5))
    proj = pca_project(z, 3)
    centered = z - z.mean(axis=0)
    assert np.abs(proj.coords.data - centered @ proj.basis[:, :3]).max() < 1e-12


def test_pca_gradient_flows_through_coordinates_only():
    z = Tensor(RNG.standard_normal((5, 4)), trainable=True)
    proj = pca_project(z, 2)
    gmap = nm.backward(nm.sum_(nm.mul(proj.coords, proj.coords)))
    expect = 2 * proj.coords.data @ proj.basis[:, :2].T
    assert np.abs(gmap[z] - expect).max() < 1e-12


def test_pca_m_bounds():
    with pytest.raises(ConfigError):
        pca_project(RNG.standard_normal((4, 6)), 0)
    with pytest.raises(ConfigError):
        pca_project(RNG.standard_normal((4, 6)), 7)


# -- assembly ---------------------------------------------------------------------

def test_assemble_endpoints_and_round_trip():
    coords = Tensor(RNG.standard_normal((4, 3)))
    fresh = Tensor(RNG.standard_normal((4, 5)))
    combined = assemble_combined(coords, fresh)
    assert np.array_equal(combined.data[:, :3], coords.data)
    assert np.array_equal(combined.data[:, 3:], fresh.data)
    only_new = assemble_combined(Tensor(RNG.standard_normal((4, 0))), fresh)
    assert only_new.data is fresh.data
    only_coords = assemble_combined(coords, Tensor(RNG.standard_normal((4, 0))))
    assert only_coords.data is coords.data


# -- combined forward ---------------------------------------------------------------

def test_endpoint_equivalence_deep(tiny_vit, tiny_backbone):
    cfg = PromptConfig(tokens=4, mode="vpt_deep")
    model = build_model(tiny_vit, cfg, RngState(2).derive("init"), tiny_backbone,
                        dtype=np.float64)
    e0 = _tiny_e0(tiny_vit, tiny_backbone, n=3)
    ours, mu, logvar = forward_viapt(e0, cfg, model.prompts, None, tiny_backbone,
                                     tiny_vit, RngState(0))
    ref = forward_vpt_deep(e0, [model.prompts.dom] + model.prompts.new,
                           tiny_backbone, tiny_vit)
    assert np.array_equal(ours.data, ref.data)
    assert mu is None and logvar is None


def test_endpoint_equivalence_shallow(tiny_vit, tiny_backbone):
    cfg = PromptConfig(tokens=4, mode="vpt_shallow")
    model = build_model(tiny_vit, cfg, RngState(2).derive("init"), tiny_backbone,
                        dtype=np.float64)
    e0 = _tiny_e0(tiny_vit, tiny_backbone, n=3)
    ours, _, _ = forward_viapt(e0, cfg, model.prompts, None, tiny_backbone, tiny_vit,
                               RngState(0))
    ref = forward_vpt_shallow(e0, model.prompts.dom, tiny_backbone, tiny_vit)
    assert np.array_equal(ours.data, ref.data)


def test_shared_seed_gives_identical_init_across_endpoint_modes(tiny_vit, tiny_backbone):
    deep_model = build_model(tiny_vit, PromptConfig(tokens=4, mode="vpt_deep"),
                             RngState(2).derive("init"), tiny_backbone, dtype=np.float64)
    viapt_model = build_model(tiny_vit,
                              PromptConfig(tokens=4, instance_tokens=0, retained_dims=0),
                              RngState(2).derive("init"), tiny_backbone, dtype=np.float64)
    assert np.array_equal(deep_model.prompts.dom.data, viapt_model.prompts.dom.data)
    for a, b in zip(deep_model.prompts.new, viapt_model.prompts.new):
        assert np.array_equal(a.data, b.data)


def test_monolithic_oracle_float64(tiny_vit, tiny_backbone):
    cfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2, mode="viapt")
    model = build_model(tiny_vit, cfg, RngState(6).derive("init"), tiny_backbone,
                        dtype=np.float64)
    img = RNG.standard_normal((1, 8, 8))
    z = RngState(31).gaussian((2, 8), dtype=np.float64)
    e0 = embed_patches(img[None], tiny_backbone, tiny_vit)
    logits, mu, logvar = forward_viapt(
        e0, cfg, model.prompts, model.generator,
        tiny_backbone, tiny_vit, None, frozen=FrozenForward(noise=z[None]))
    params = {name: t.data for name, t in model.named_tensors()}
    ref_logits, ref_mu, ref_lv = viapt_forward_np(img, params, tiny_vit, cfg.resolved(8), z)
    assert np.abs(logits.data[0] - ref_logits).max() < 1e-10
    assert np.abs(mu.data[0] - ref_mu).max() < 1e-10
    assert np.abs(logvar.data[0] - ref_lv).max() < 1e-10


def test_monolithic_oracle_float32(tiny_vit, tiny_backbone_f32):
    cfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2, mode="viapt")
    model = build_model(tiny_vit, cfg, RngState(6).derive("init"), tiny_backbone_f32,
                        dtype=np.float32)
    img = RNG.standard_normal((1, 8, 8)).astype(np.float32)
    z = RngState(31).gaussian((2, 8), dtype=np.float32)
    e0 = embed_patches(img[None], tiny_backbone_f32, tiny_vit)
    logits, _, _ = forward_viapt(
        e0, cfg, model.prompts, model.generator,
        tiny_backbone_f32, tiny_vit, None, frozen=FrozenForward(noise=z[None]))
    params = {name: t.data.astype(np.float64) for name, t in model.named_tensors()}
    ref_logits, _, _ = viapt_forward_np(img.astype(np.float64), params, tiny_vit,
                                        cfg.resolved(8), z.astype(np.float64))
    assert np.abs(logits.data[0] - ref_logits).max() < 1e-4


def test_instance_dependence_and_lambda_zero_independence(tiny_vit, tiny_backbone):
    e0 = _tiny_e0(tiny_vit, tiny_backbone, n=2)
    cfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    model = build_model(tiny_vit, cfg, RngState(8).derive("init"), tiny_backbone,
                        dtype=np.float64)
    cap = FrozenForward()
    z = RngState(12).gaussian((2, 8), dtype=np.float64)
    forward_viapt(e0, cfg, model.prompts, model.generator, tiny_backbone, tiny_vit,
                  None, frozen=FrozenForward(noise=z), capture=cap)
    assert np.abs(cap.layer1_prompts[0] - cap.layer1_prompts[1]).max() > 0

    cfg0 = PromptConfig(tokens=4, instance_tokens=0, retained_dims=2)
    model0 = build_model(tiny_vit, cfg0, RngState(8).derive("init"), tiny_backbone,
                         dtype=np.float64)
    cap0 = FrozenForward()
    forward_viapt(e0, cfg0, model0.prompts, None, tiny_backbone, tiny_vit,
                  RngState(0), capture=cap0)
    assert np.array_equal(cap0.layer1_prompts[0], cap0.layer1_prompts[1])


def test_ablation_no_pca_propagates_unchanged(tiny_vit, tiny_backbone):
    cfg = PromptConfig(tokens=4, instance_tokens=2, mode="ablation_no_pca")
    model = build_model(tiny_vit, cfg, RngState(8).derive("init"), tiny_backbone,
                        dtype=np.float64)
    assert model.prompts.new == []
    e0 = _tiny_e0(tiny_vit, tiny_backbone, n=2)
    logits, mu, _ = forward_viapt(e0, cfg, model.prompts, model.generator,
                                  tiny_backbone, tiny_vit, RngState(1))
    assert logits.data.shape == (2, 3) and mu is not None


def test_ablation_random_projection_fixed_basis(tiny_vit, tiny_backbone):
    cfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=3,
                       mode="ablation_random_projection")
    a, b, c = (build_model(tiny_vit, cfg, RngState(seed).derive("init"), tiny_backbone,
                           dtype=np.float64) for seed in (8, 8, 9))
    # the basis is drawn once per run from the init seed
    assert np.array_equal(a.fixed_basis.data, b.fixed_basis.data)
    assert not np.array_equal(a.fixed_basis.data, c.fixed_basis.data)
    e0 = _tiny_e0(tiny_vit, tiny_backbone, n=2)
    frozen = FrozenForward(noise=RngState(12).gaussian((2, 2, 8), dtype=np.float64))

    def logits(basis):
        out, _, _ = forward_viapt(e0, cfg, a.prompts, a.generator, tiny_backbone, tiny_vit,
                                  None, frozen=frozen, basis_override=basis)
        return out.data

    ref = logits(a.fixed_basis.data)
    assert np.array_equal(logits(b.fixed_basis.data), ref)
    assert not np.array_equal(logits(c.fixed_basis.data), ref)  # only the basis differs
    with pytest.raises(ConfigError, match="fixed basis"):
        logits(None)


def test_config_errors_raised_before_compute(tiny_vit, tiny_backbone):
    cfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    model = build_model(tiny_vit, cfg, RngState(8).derive("init"), tiny_backbone,
                        dtype=np.float64)
    e0 = _tiny_e0(tiny_vit, tiny_backbone)
    with pytest.raises(ConfigError):
        forward_viapt(e0, cfg, model.prompts, None, tiny_backbone, tiny_vit, RngState(0))
    bad = DatasetPrompts(dom=Tensor(np.zeros((4, 8))), new=model.prompts.new)
    with pytest.raises(ConfigError):
        forward_viapt(e0, cfg, bad, model.generator, tiny_backbone, tiny_vit, RngState(0))


# -- parameter accounting ------------------------------------------------------------

TABLE_ROWS = [
    (0, 460_800, 441_600),
    (32, 441_600, 424_000),
    (64, 422_400, 406_400),
    (128, 384_000, 371_200),
    (256, 307_200, 300_800),
    (512, 153_600, 160_000),
    (768, 0, 19_200),
]


@pytest.mark.parametrize("m,domain_expected,ours_expected", TABLE_ROWS)
def test_parameter_table_rows(m, domain_expected, ours_expected):
    domain = count_parameters(
        PromptConfig(tokens=50, instance_tokens=0, retained_dims=m,
                     mode="ablation_no_instance"), VIT_B)
    ours = count_parameters(
        PromptConfig(tokens=50, instance_tokens=25, retained_dims=m, mode="viapt"), VIT_B)
    assert domain["prompt_params"] == domain_expected
    assert ours["prompt_params"] == ours_expected


def test_shallow_and_deep_prompt_counts():
    shallow = count_parameters(PromptConfig(tokens=50, mode="vpt_shallow"), VIT_B)
    deep = count_parameters(PromptConfig(tokens=50, mode="vpt_deep"), VIT_B)
    assert shallow["prompt_params"] == 38_400
    assert deep["prompt_params"] == 460_800


def test_ours_count_strictly_decreasing_in_m():
    counts = [count_parameters(
        PromptConfig(tokens=50, instance_tokens=25, retained_dims=m, mode="viapt"),
        VIT_B)["prompt_params"] for m in range(0, 769, 64)]
    assert all(a > b for a, b in zip(counts, counts[1:]))


def test_m_equals_d_row_carries_discrepancy_note():
    full = count_parameters(
        PromptConfig(tokens=50, instance_tokens=25, retained_dims=768, mode="viapt"), VIT_B)
    assert full["note"]
    mid = count_parameters(
        PromptConfig(tokens=50, instance_tokens=25, retained_dims=128, mode="viapt"), VIT_B)
    assert not mid["note"]


def test_generator_and_head_counts(tiny_vit):
    rec = count_parameters(PromptConfig(tokens=4, instance_tokens=2, retained_dims=2),
                           tiny_vit)
    d, h = 8, 4
    expect_gen = (h * d * 9 + h) + (h * h * 9 + h) + 2 * (h * d + d)
    assert rec["generator_params"] == expect_gen
    assert rec["head_params"] == d * tiny_vit.classes + tiny_vit.classes
    assert rec["total_trainable"] == rec["prompt_params"] + expect_gen + rec["head_params"]
    lam0 = count_parameters(PromptConfig(tokens=4, instance_tokens=0, retained_dims=2),
                            tiny_vit)
    assert lam0["generator_params"] == 0
