from dataclasses import fields

import numpy as np
import pytest

import viapt.numerics as nm
from viapt.backbone import (
    TokenSequence,
    ViTConfig,
    embed_patches,
    extract_patches,
    forward_plain,
    forward_vpt_deep,
    forward_vpt_shallow,
    head,
    init_backbone,
    initial_sequence,
    layer_forward,
    sinusoidal_position_encoding,
)
from viapt.errors import ConfigError, DimensionError
from viapt.numerics import RngState, Tensor
from viapt.training import OptimizerState, optimizer_step

from oracles import attention_block_np, softmax_np

RNG = np.random.default_rng(4111)


def f64_backbone(vit, seed=11):
    bb = init_backbone(vit, RngState(seed).derive("backbone"), dtype=np.float64)
    bb.freeze()
    return bb


def layer_as_dict(lp):
    # "attn.wq" -> "wq", "ln1.g" -> "ln1_g", "mlp.w1" -> "w1"
    out = {}
    for name, t in lp.tensors():
        group, short = name.split(".")
        out[f"{group}_{short}" if group.startswith("ln") else short] = t.data
    return out


# -- config -------------------------------------------------------------------

def test_vit_config_validation():
    with pytest.raises(ConfigError):
        ViTConfig(image_side=15, patch_side=4)
    with pytest.raises(ConfigError):
        ViTConfig(embed_dim=50, heads=4)
    for f in fields(ViTConfig):
        with pytest.raises(ConfigError, match=f.name):
            ViTConfig(**{f.name: 0})


def test_token_count():
    assert ViTConfig(image_side=8, patch_side=2, embed_dim=48).tokens == 16


# -- patch embedding ------------------------------------------------------------

def test_zero_image_embeds_to_position_encoding(tiny_vit):
    bb = f64_backbone(tiny_vit)
    e0 = embed_patches(np.zeros((1, 8, 8))[None], bb, tiny_vit)
    pe = sinusoidal_position_encoding(tiny_vit.tokens, tiny_vit.embed_dim, np.float64)
    assert np.array_equal(e0.data[0], pe)


def test_embedding_matches_per_patch_matmul(tiny_vit):
    bb = f64_backbone(tiny_vit)
    img = RNG.standard_normal((1, 8, 8))
    e0 = embed_patches(img[None], bb, tiny_vit).data[0]
    ps = tiny_vit.patch_side
    pe = sinusoidal_position_encoding(tiny_vit.tokens, tiny_vit.embed_dim, np.float64)
    grid = tiny_vit.image_side // ps
    for idx in range(tiny_vit.tokens):
        i, j = divmod(idx, grid)
        patch = img[0, i * ps : (i + 1) * ps, j * ps : (j + 1) * ps].ravel()
        expect = patch @ bb.patch_w.data + bb.patch_b.data + pe[idx]
        # same arithmetic, different BLAS call shapes; rounding-level agreement
        assert np.abs(e0[idx] - expect).max() < 1e-12


def test_patch_count_and_shape():
    vit = ViTConfig(image_side=8, patch_side=2, embed_dim=48, layers=1, heads=4)
    bb = f64_backbone(vit)
    e0 = embed_patches(np.zeros((4, 1, 8, 8)), bb, vit)
    assert e0.data.shape == (4, 16, 48)
    patches = extract_patches(RNG.standard_normal((2, 1, 8, 8)), 2)
    assert patches.shape == (2, 16, 4)


def test_wrong_image_size_raises(tiny_vit):
    bb = f64_backbone(tiny_vit)
    with pytest.raises(DimensionError):
        embed_patches(np.zeros((1, 1, 6, 6)), bb, tiny_vit)
    with pytest.raises(DimensionError):  # every forward takes a batch
        embed_patches(np.zeros((1, 8, 8)), bb, tiny_vit)


def test_unbatched_tokens_rejected(tiny_vit):
    bb = f64_backbone(tiny_vit)
    tokens = np.zeros((tiny_vit.tokens, tiny_vit.embed_dim))
    prompts = np.zeros((4, tiny_vit.embed_dim))
    with pytest.raises(DimensionError):
        forward_plain(tokens, bb, tiny_vit)
    with pytest.raises(DimensionError):
        forward_vpt_shallow(tokens, prompts, bb, tiny_vit)
    with pytest.raises(DimensionError):
        forward_vpt_deep(tokens, [prompts] * tiny_vit.layers, bb, tiny_vit)


# -- transformer block ----------------------------------------------------------

def _random_sequence(vit, batch=2, p=3):
    d = vit.embed_dim
    return TokenSequence(
        x=Tensor(RNG.standard_normal((batch, 1, d))),
        prompts=Tensor(RNG.standard_normal((batch, p, d))),
        image=Tensor(RNG.standard_normal((batch, vit.tokens, d))),
    )


def test_residual_identity_with_zeroed_output_projections(tiny_vit):
    bb = f64_backbone(tiny_vit)
    lp = bb.layers[0]
    lp.wo.data = np.zeros_like(lp.wo.data)
    lp.bo.data = np.zeros_like(lp.bo.data)
    lp.w2.data = np.zeros_like(lp.w2.data)
    lp.b2.data = np.zeros_like(lp.b2.data)
    seq = _random_sequence(tiny_vit, batch=1, p=0)
    out = layer_forward(seq, lp, tiny_vit)
    assert np.allclose(out.x.data, seq.x.data, atol=1e-15)
    assert np.allclose(out.image.data, seq.image.data, atol=1e-15)


def test_attention_rows_sum_to_one(tiny_vit):
    bb = f64_backbone(tiny_vit)
    seq = _random_sequence(tiny_vit)
    _, attn = layer_forward(seq, bb.layers[0], tiny_vit, return_attn=True)
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_forward_matches_step_by_step_oracle(tiny_vit):
    bb = f64_backbone(tiny_vit)
    seq = _random_sequence(tiny_vit, batch=1, p=4)
    out = layer_forward(seq, bb.layers[1], tiny_vit)
    tokens = np.concatenate([seq.x.data[0], seq.prompts.data[0], seq.image.data[0]], axis=0)
    expect = attention_block_np(tokens, layer_as_dict(bb.layers[1]), tiny_vit.heads)
    got = np.concatenate([out.x.data[0], out.prompts.data[0], out.image.data[0]], axis=0)
    assert np.abs(got - expect).max() < 1e-10


def test_block_split_round_trip(tiny_vit):
    bb = f64_backbone(tiny_vit)
    seq = _random_sequence(tiny_vit, batch=2, p=5)
    out = layer_forward(seq, bb.layers[0], tiny_vit)
    assert out.x.data.shape == (2, 1, tiny_vit.embed_dim)
    assert out.prompts.data.shape == (2, 5, tiny_vit.embed_dim)
    assert out.image.data.shape == (2, tiny_vit.tokens, tiny_vit.embed_dim)
    joined = nm.concat([seq.x, seq.prompts, seq.image], axis=-2)
    assert np.array_equal(nm.narrow(joined, -2, 1, 5).data, seq.prompts.data)


def test_layer_index_advances(tiny_vit):
    bb = f64_backbone(tiny_vit)
    seq = _random_sequence(tiny_vit)
    assert layer_forward(seq, bb.layers[0], tiny_vit).layer_index == 1


# -- forward rules ---------------------------------------------------------------

def test_shallow_with_no_prompts_equals_plain(tiny_vit):
    bb = f64_backbone(tiny_vit)
    img = RNG.standard_normal((3, 1, 8, 8))
    e0 = embed_patches(img, bb, tiny_vit)
    a = forward_vpt_shallow(e0, np.zeros((0, tiny_vit.embed_dim)), bb, tiny_vit)
    b = forward_plain(e0, bb, tiny_vit)
    assert np.array_equal(a.data, b.data)


def test_deep_single_layer_equals_shallow():
    vit = ViTConfig(image_side=8, patch_side=4, embed_dim=8, layers=1, heads=2,
                    mlp_ratio=2, classes=3)
    bb = f64_backbone(vit)
    prompts = RNG.standard_normal((4, 8))
    e0 = embed_patches(RNG.standard_normal((2, 1, 8, 8)), bb, vit)
    deep = forward_vpt_deep(e0, [prompts], bb, vit)
    shallow = forward_vpt_shallow(e0, prompts, bb, vit)
    assert np.array_equal(deep.data, shallow.data)


def test_deep_uses_fresh_prompts_and_discards_propagated(tiny_vit):
    bb = f64_backbone(tiny_vit)
    e0 = embed_patches(RNG.standard_normal((1, 1, 8, 8)), bb, tiny_vit)
    prompts = [Tensor(RNG.standard_normal((4, 8)), trainable=True) for _ in range(3)]
    logits = forward_vpt_deep(e0, prompts, bb, tiny_vit)

    # trainable prompts at a middle layer receive gradient
    gmap = nm.backward(nm.sum_(nm.mul(logits, logits)))
    assert prompts[2] in gmap and np.abs(gmap[prompts[2]]).max() > 0

    # manually replaying the forward with the propagated prompt outputs
    # perturbed between layers gives identical logits (they are discarded)
    def run(perturb):
        seq = initial_sequence(nm.reshape(Tensor(e0.data), e0.data.shape),
                               nm.broadcast_batch(Tensor(prompts[0].data), 1), bb)
        for i, lp in enumerate(bb.layers):
            if i > 0:
                z_prev = seq.prompts.data + (perturb if i == 2 else 0.0)
                del z_prev  # discarded, exactly like the rule says
                seq = TokenSequence(x=seq.x,
                                    prompts=nm.broadcast_batch(Tensor(prompts[i].data), 1),
                                    image=seq.image, layer_index=seq.layer_index)
            seq = layer_forward(seq, lp, tiny_vit)
        return head(nm.reshape(seq.x, (1, -1)), bb).data

    assert np.array_equal(run(0.0), run(123.456))
    assert np.allclose(run(0.0), logits.data, atol=1e-12)


def test_shallow_forward_matches_monolithic_sequence_oracle(tiny_vit):
    # re-derive the whole forward by materializing the concatenated sequence
    # once per layer with the independent block oracle
    bb = f64_backbone(tiny_vit)
    img = RNG.standard_normal((1, 8, 8))[None]
    prompts = RNG.standard_normal((4, 8))
    e0 = embed_patches(img, bb, tiny_vit)
    logits = forward_vpt_shallow(e0, prompts, bb, tiny_vit)

    seq = np.concatenate([bb.cls_token.data[None, :], prompts, e0.data[0]], axis=0)
    for lp in bb.layers:
        seq = attention_block_np(seq, layer_as_dict(lp), tiny_vit.heads)
    expect = seq[0] @ bb.head_w.data + bb.head_b.data
    assert np.abs(logits.data[0] - expect).max() < 1e-10


def test_head_contracts(tiny_vit):
    bb = f64_backbone(tiny_vit)
    bb.head_w.data = np.zeros_like(bb.head_w.data)
    bb.head_b.data = np.zeros_like(bb.head_b.data)
    logits = head(RNG.standard_normal(8)[None], bb)
    assert logits.shape == (1, tiny_vit.classes)
    assert np.array_equal(logits.data, np.zeros((1, tiny_vit.classes)))
    assert np.allclose(softmax_np(logits.data), 1.0 / tiny_vit.classes)


def test_head_gradient_vs_finite_differences(tiny_vit):
    bb = f64_backbone(tiny_vit)
    x = RNG.standard_normal(8)[None]
    def f():
        return nm.sum_(nm.mul(head(x, bb), head(x, bb)))
    gmap = nm.backward(f())
    h = 1e-6
    flat = bb.head_w.data.ravel()
    grad = gmap[bb.head_w].ravel()
    for i in range(0, flat.size, 5):
        orig = flat[i]
        flat[i] = orig + h
        up = float(f().data)
        flat[i] = orig - h
        down = float(f().data)
        flat[i] = orig
        fd = (up - down) / (2 * h)
        assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8) < 1e-6


# -- invariants -------------------------------------------------------------------

def test_frozen_weights_unchanged_by_optimizer_step(tiny_vit):
    bb = f64_backbone(tiny_vit)
    before = {n: t.data.copy() for n, t in bb.named_tensors()}
    e0 = embed_patches(RNG.standard_normal((2, 1, 8, 8)), bb, tiny_vit)
    logits = forward_plain(e0, bb, tiny_vit)
    nm.backward(nm.sum_(nm.mul(logits, logits)))
    trainable = {n: t for n, t in bb.named_tensors() if t.trainable}
    grads = {n: t.grad for n, t in trainable.items() if t.grad is not None}
    optimizer_step(trainable, grads, OptimizerState(), 0.05, weight_decay=0.01)
    for name, t in bb.named_tensors():
        if name.startswith("head."):
            assert not np.array_equal(t.data, before[name])
        else:
            assert np.array_equal(t.data, before[name]), name


def test_image_token_permutation_equivariance(tiny_vit):
    # permuting embedded tokens (with their encodings) leaves the class
    # output unchanged; permuting raw patches against fixed encodings does not
    bb = f64_backbone(tiny_vit)
    img = RNG.standard_normal((1, 1, 8, 8))
    e0 = embed_patches(img, bb, tiny_vit).data
    perm = np.array([2, 0, 3, 1])
    base = forward_plain(Tensor(e0), bb, tiny_vit).data
    permuted = forward_plain(Tensor(e0[:, perm]), bb, tiny_vit).data
    assert np.abs(base - permuted).max() < 1e-10

    pe = sinusoidal_position_encoding(tiny_vit.tokens, tiny_vit.embed_dim, np.float64)
    tampered = (e0 - pe)[:, perm] + pe  # tokens permuted, encodings left behind
    mismatched = forward_plain(Tensor(tampered), bb, tiny_vit).data
    assert np.abs(base - mismatched).max() > 1e-6
