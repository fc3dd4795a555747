import json
import os
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

import viapt.numerics as nm
from viapt.errors import ConfigError, FormatError, NumericError
from viapt.numerics import RngState, Tensor
from viapt.prompt_engine import MODES, PromptConfig, kl_to_standard_normal
from viapt.training import (
    METRIC_KEYS,
    OptimizerState,
    TrainConfig,
    build_model,
    global_grad_norm,
    load_archive,
    load_backbone,
    load_checkpoint,
    loss,
    lr_schedule,
    optimizer_step,
    pretrain_backbone,
    save_archive,
    save_backbone,
    save_checkpoint,
    train,
)

from oracles import adamw_scalar_reference, softmax_np

RNG = np.random.default_rng(314)


def tiny_data(n=48, classes=3, side=8, seed=0):
    local = np.random.default_rng(seed)
    x = local.standard_normal((n, 1, side, side)).astype(np.float32)
    y = local.integers(0, classes, n).astype(np.int64)
    k = max(n // 3, 1)
    return {"train": (x, y), "val": (x[:k], y[:k])}


# -- loss ---------------------------------------------------------------------

def test_uniform_logits_give_log_c():
    logits = Tensor(np.zeros((4, 5)))
    total, xent, kl = loss(logits, np.array([0, 1, 2, 3]), None, None, 0.01)
    assert float(xent.data) == pytest.approx(np.log(5.0), rel=1e-12)
    assert float(kl.data) == 0.0


def test_beta_zero_total_equals_xent():
    logits = Tensor(RNG.standard_normal((3, 4)))
    mu = Tensor(RNG.standard_normal((3, 6)))
    lv = Tensor(RNG.standard_normal((3, 6)))
    total, xent, kl = loss(logits, np.array([1, 0, 3]), mu, lv, 0.0)
    assert float(total.data) == float(xent.data)
    assert float(kl.data) > 0


def test_loss_matches_recomputed_closed_forms():
    logits_np = RNG.standard_normal((8, 5))
    labels = RNG.integers(0, 5, 8)
    mu_np = RNG.standard_normal((8, 6))
    lv_np = RNG.standard_normal((8, 6)) * 0.3
    beta = 0.01
    total, xent, kl = loss(Tensor(logits_np), labels, Tensor(mu_np), Tensor(lv_np), beta)
    probs = softmax_np(logits_np)
    xent_ref = -np.log(probs[np.arange(8), labels]).mean()
    kl_ref = (0.5 * (mu_np ** 2 + np.exp(lv_np) - 1.0 - lv_np).sum(axis=1)).mean()
    assert abs(float(xent.data) - xent_ref) < 1e-10
    assert abs(float(kl.data) - kl_ref) < 1e-10
    assert abs(float(total.data) - (xent_ref + beta * kl_ref)) < 1e-10


def test_loss_decomposition_exact_as_computed():
    logits = Tensor(RNG.standard_normal((4, 3)).astype(np.float32))
    mu = Tensor(RNG.standard_normal((4, 5)).astype(np.float32))
    lv = Tensor(RNG.standard_normal((4, 5)).astype(np.float32))
    total, xent, kl = loss(logits, np.array([0, 1, 2, 0]), mu, lv, 0.01)
    assert float(total.data) == float(xent.data + np.float32(0.01) * kl.data)


def test_label_out_of_range():
    with pytest.raises(ConfigError):
        loss(Tensor(np.zeros((2, 3))), np.array([0, 3]), None, None, 0.0)


def test_kl_gradient_sanity():
    mu = Tensor(RNG.standard_normal((6, 4)), trainable=True)
    lv = Tensor(RNG.standard_normal((6, 4)), trainable=True)
    kl = nm.mean_(kl_to_standard_normal(mu, lv))
    gmap = nm.backward(kl)
    batch = 6
    assert np.abs(gmap[mu] - mu.data / batch).max() < 1e-10
    assert np.abs(gmap[lv] - (np.exp(lv.data) - 1.0) / (2 * batch)).max() < 1e-10


# -- optimizer ------------------------------------------------------------------

def test_zero_gradient_zero_decay_leaves_parameters():
    t = Tensor(RNG.standard_normal((3, 3)), trainable=True, name="w")
    before = t.data.copy()
    optimizer_step({"w": t}, {"w": np.zeros((3, 3))}, OptimizerState(), 0.1, 0.0)
    assert np.array_equal(t.data, before)


def test_scalar_recurrence_matches_hand_rolled_oracle():
    grads = [0.3] * 7
    lrs = [0.01 * (i + 1) for i in range(7)]
    t = Tensor(np.array([1.0]), trainable=True, name="w")
    state = OptimizerState()
    for g, lr in zip(grads, lrs):
        optimizer_step({"w": t}, {"w": np.array([g])}, state, lr, weight_decay=0.02)
    expect = adamw_scalar_reference(grads, lrs, wd=0.02)
    assert abs(float(t.data[0]) - expect) < 1e-12


def test_decay_only_shrinks_by_factor():
    t = Tensor(np.array([2.0]), trainable=True, name="w")
    optimizer_step({"w": t}, {"w": np.array([0.0])}, OptimizerState(), 0.1, weight_decay=0.5)
    assert float(t.data[0]) == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-15)


def test_nan_gradient_aborts_with_tensor_name():
    t = Tensor(np.array([1.0]), trainable=True, name="w")
    with pytest.raises(NumericError, match="prompt.dom"):
        optimizer_step({"prompt.dom": t}, {"prompt.dom": np.array([np.nan])},
                       OptimizerState(), 0.1)


def test_global_grad_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_grad_norm(grads) == pytest.approx(5.0)


# -- schedule ---------------------------------------------------------------------

def test_schedule_hits_base_at_warmup_end():
    assert lr_schedule(10, 100, 10, 1e-3) == pytest.approx(1e-3)


def test_schedule_reaches_zero_at_end():
    assert lr_schedule(100, 100, 10, 1e-3) == pytest.approx(0.0, abs=1e-18)


def test_schedule_half_at_decay_midpoint():
    assert lr_schedule(55, 100, 10, 1e-3) == pytest.approx(5e-4)


def test_schedule_linear_ramp():
    assert lr_schedule(5, 100, 10, 1e-3) == pytest.approx(5e-4)
    assert lr_schedule(0, 100, 10, 1e-3) == 0.0


def test_schedule_step_beyond_total_raises():
    with pytest.raises(ConfigError):
        lr_schedule(101, 100, 10, 1e-3)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=5, warmup_epochs=6)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(precision="f16")
    TrainConfig(lr=0.0)  # allowed: a no-op pass that still emits metrics


# -- training loop ------------------------------------------------------------------

def small_run_setup(tiny_vit, dtype=np.float32, seed=11):
    from viapt.backbone import init_backbone

    bb = init_backbone(tiny_vit, RngState(seed).derive("backbone"), dtype=dtype)
    bb.freeze()
    return bb


def test_zero_epochs_returns_init(tiny_vit):
    bb = small_run_setup(tiny_vit)
    cfg = TrainConfig(epochs=0, warmup_epochs=0, batch_size=16, seed=3)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    res = train(cfg, pcfg, tiny_data(), bb, tiny_vit)
    fresh = build_model(tiny_vit, pcfg, RngState(3).derive("init"), bb)
    got = dict(res.final.model.named_tensors())
    for name, t in fresh.named_tensors():
        if name.startswith("head."):
            continue  # reinitialized from the run seed inside train()
        assert np.array_equal(got[name].data, t.data), name
    assert res.metrics == []
    assert res.final.step == 0


def test_lr_zero_full_batch_leaves_parameters_and_emits_metrics(tiny_vit):
    bb = small_run_setup(tiny_vit)
    data = tiny_data(n=24)
    cfg = TrainConfig(lr=0.0, epochs=1, warmup_epochs=0, batch_size=24, seed=3)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    res = train(cfg, pcfg, data, bb, tiny_vit)
    before = build_model(tiny_vit, pcfg, RngState(3).derive("init"), bb)
    got = dict(res.final.model.named_tensors())
    for name, t in before.named_tensors():
        if not name.startswith("head."):
            assert np.array_equal(got[name].data, t.data), name
    assert len(res.metrics) == 2  # one train + one val record


def test_metrics_schema_and_count(tiny_vit, tmp_path):
    bb = small_run_setup(tiny_vit)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=4)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    res = train(cfg, pcfg, tiny_data(), bb, tiny_vit, out_dir=tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2 * 2
    for line in lines:
        rec = json.loads(line)
        assert tuple(rec.keys()) == METRIC_KEYS
        assert rec["wall_seconds"] == 0.0
    assert res.best["epoch"] >= 0


def test_training_reduces_loss_on_learnable_data(tiny_vit):
    # class-coded mean intensity: tokens carry the signal directly
    n, side = 96, 8
    local = np.random.default_rng(5)
    y = local.integers(0, 3, n)
    x = (y[:, None, None, None] - 1.0) * 0.8 + 0.15 * local.standard_normal((n, 1, side, side))
    data = {"train": (x.astype(np.float32), y), "val": (x[:32].astype(np.float32), y[:32])}
    bb = small_run_setup(tiny_vit)
    cfg = TrainConfig(epochs=12, warmup_epochs=2, batch_size=16, seed=2)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    res = train(cfg, pcfg, data, bb, tiny_vit)
    first = [m for m in res.metrics if m["split"] == "train"][0]
    last = [m for m in res.metrics if m["split"] == "train"][-1]
    assert last["xent"] < first["xent"]
    assert last["xent"] < np.log(3.0)  # better than chance


def test_determinism_bitwise(tiny_vit, tmp_path):
    bb1 = small_run_setup(tiny_vit)
    bb2 = small_run_setup(tiny_vit)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=9)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    train(cfg, pcfg, tiny_data(), bb1, tiny_vit, out_dir=tmp_path / "a")
    train(cfg, pcfg, tiny_data(), bb2, tiny_vit, out_dir=tmp_path / "b")
    for fname in ("final.ckpt", "best.ckpt", "metrics.jsonl"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b, fname


def test_frozen_tensors_bitwise_unchanged_by_training(tiny_vit):
    bb = small_run_setup(tiny_vit)
    before = {n: zlib.crc32(t.data.tobytes()) for n, t in bb.named_tensors()
              if not n.startswith("head.")}
    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=9)
    train(cfg, PromptConfig(tokens=4, instance_tokens=2, retained_dims=2),
          tiny_data(), bb, tiny_vit)
    after = {n: zlib.crc32(t.data.tobytes()) for n, t in bb.named_tensors()
             if not n.startswith("head.")}
    assert before == after


def test_non_finite_loss_aborts(tiny_vit):
    bb = small_run_setup(tiny_vit)
    data = tiny_data(n=24)
    bad = data["train"][0].copy()
    bad[0, 0, 0, 0] = np.nan
    data = {"train": (bad, data["train"][1]), "val": data["val"]}
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=24, seed=3)
    with pytest.raises(NumericError, match="non-finite"):
        train(cfg, PromptConfig(tokens=4, instance_tokens=2, retained_dims=2),
              data, bb, tiny_vit)


# -- checkpoints ----------------------------------------------------------------------

def test_archive_round_trip_byte_identical(tmp_path):
    tensors = {"a": RNG.standard_normal((3, 4)).astype(np.float32),
               "b.c": RNG.standard_normal(7)}
    meta = {"config": {"x": 1}, "rng": {"algorithm": "test", "seed": 3, "counter": 0}}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_archive(p1, tensors, meta)
    loaded, meta2 = load_archive(p1)
    save_archive(p2, loaded, meta2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded["a"], tensors["a"])
    assert loaded["b.c"].dtype == np.float64


def test_truncated_archive_rejected(tmp_path):
    p = tmp_path / "trunc.ckpt"
    save_archive(p, {"a": np.zeros(4, dtype=np.float32)}, {"rng": {}})
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_archive(p)


def test_corrupted_crc_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    save_archive(p, {"a": np.zeros(4, dtype=np.float32)}, {"rng": {}})
    blob = bytearray(p.read_bytes())
    blob[30] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="crc"):
        load_archive(p)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "not.ckpt"
    p.write_bytes(b"NOTVIAPT" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_archive(p)


@pytest.mark.parametrize("mode", MODES)
def test_checkpoint_state_round_trip(tiny_vit, tmp_path, mode):
    bb = small_run_setup(tiny_vit)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=16, seed=7)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2, mode=mode)
    res = train(cfg, pcfg, tiny_data(), bb, tiny_vit, out_dir=tmp_path / "run")
    path = tmp_path / "run" / "final.ckpt"
    state = load_checkpoint(path)
    orig = dict(res.final.model.named_tensors())
    for name, t in state.model.named_tensors():
        assert np.array_equal(t.data, orig[name].data), name
    assert state.rng.counter == res.final.rng.counter
    assert state.step == res.final.step
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(state, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_interrupted_write_keeps_previous_archive(tiny_vit, tmp_path, monkeypatch):
    bb = small_run_setup(tiny_vit)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=16, seed=7)
    train(cfg, pcfg, tiny_data(), bb, tiny_vit, out_dir=tmp_path / "run")
    best = tmp_path / "run" / "best.ckpt"
    before = best.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        train(replace(cfg, seed=8), pcfg, tiny_data(), bb, tiny_vit, out_dir=tmp_path / "run")
    assert best.read_bytes() == before
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "best.ckpt", "final.ckpt", "metrics.jsonl"]


def test_non_utf8_tensor_name_rejected(tmp_path):
    p = tmp_path / "names.ckpt"
    save_archive(p, {"placeholder": np.zeros(2, dtype=np.float32)}, {})
    blob = p.read_bytes()[:-4].replace(b"placeholder", b"\xff" * 11)
    p.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(FormatError, match="UTF-8"):
        load_archive(p)


def test_cross_precision_load_rejected(tiny_vit, tmp_path):
    bb = small_run_setup(tiny_vit, dtype=np.float64)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=16, seed=7, precision="f64")
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    train(cfg, pcfg, tiny_data(), bb, tiny_vit, out_dir=tmp_path / "run")
    with pytest.raises(FormatError, match="precision"):
        load_checkpoint(tmp_path / "run" / "final.ckpt", expect_precision="f32")


def test_backbone_checkpoint_round_trip(tiny_vit, tmp_path):
    bb = small_run_setup(tiny_vit)
    save_backbone(bb, tiny_vit, tmp_path / "bb.ckpt")
    loaded, vit2 = load_backbone(tmp_path / "bb.ckpt")
    assert vit2 == tiny_vit
    for (n1, t1), (n2, t2) in zip(bb.named_tensors(), loaded.named_tensors()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)


@pytest.mark.parametrize("metadata", [
    {"kind": "backbone"},
    {"kind": "backbone", "precision": "f32", "config": {"vit": {"bogus": 1}}},
    {"kind": "backbone", "precision": "f16", "config": {"vit": {}}},
    {"kind": "backbone", "precision": "f32", "config": {"vit": {"heads": 5}}},
], ids=["no_config", "unknown_vit_field", "unknown_precision", "invalid_vit_heads"])
def test_malformed_backbone_metadata_rejected(tmp_path, metadata):
    save_archive(tmp_path / "bb.ckpt", {}, metadata)
    with pytest.raises(FormatError, match="malformed"):
        load_backbone(tmp_path / "bb.ckpt")


BAD_BACKBONE_TENSORS = {
    "wrong_shape": lambda t: t.update(
        {"backbone.layer0.attn.wq": t["backbone.layer0.attn.wq"][:, :6]}),
    "unexpected_name": lambda t: t.update({"backbone.layer0.attn.extra": np.zeros(8)}),
    "missing_tensor": lambda t: t.pop("backbone.layer0.attn.wq"),
}


@pytest.mark.parametrize("case", BAD_BACKBONE_TENSORS)
def test_bad_backbone_tensors_rejected(tiny_vit, tmp_path, case):
    save_backbone(small_run_setup(tiny_vit), tiny_vit, tmp_path / "bb.ckpt")
    tensors, metadata = load_archive(tmp_path / "bb.ckpt")
    BAD_BACKBONE_TENSORS[case](tensors)
    save_archive(tmp_path / "bb.ckpt", tensors, metadata)
    with pytest.raises(FormatError, match="shaped|unexpected|missing"):
        load_backbone(tmp_path / "bb.ckpt")


def test_rng_state_persisted_in_checkpoint(tiny_vit, tmp_path):
    bb = small_run_setup(tiny_vit)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=16, seed=7)
    pcfg = PromptConfig(tokens=4, instance_tokens=2, retained_dims=2)
    res = train(cfg, pcfg, tiny_data(), bb, tiny_vit, out_dir=tmp_path / "run")
    _, meta = load_archive(tmp_path / "run" / "final.ckpt")
    assert meta["rng"]["algorithm"] == res.final.rng.algorithm
    assert meta["rng"]["counter"] == res.final.rng.counter > 0


# -- pretraining -------------------------------------------------------------------

def test_pretraining_learns_rotation_pretext(tiny_vit):
    from viapt.backbone import embed_patches, forward_plain
    from viapt.harness import SyntheticDatasetSpec, gen_dataset

    vit = replace(tiny_vit, classes=4)
    spec = SyntheticDatasetSpec(variant="pretext_rotation", classes=4,
                                train_samples=192, image_side=8, noise=0.05, seed=2)
    data = gen_dataset(spec)
    cfg = TrainConfig(epochs=16, warmup_epochs=1, batch_size=32, seed=1)
    bb = pretrain_backbone(vit, data, cfg)
    x, y = data["val"]
    logits = forward_plain(embed_patches(x.astype(np.float32), bb, vit), bb, vit)
    acc = (np.argmax(logits.data, -1) == y).mean()
    assert acc > 0.5  # far above the 0.25 chance rate
    assert not bb.patch_w.trainable and bb.head_w.trainable


def test_pretraining_non_finite_loss_aborts(tiny_vit):
    data = tiny_data(n=24, classes=4)
    x, y = data["train"]
    x = x.copy()
    x[3, 0, 0, 0] = np.nan
    cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=8, seed=3)
    with pytest.raises(NumericError, match="non-finite"):
        pretrain_backbone(replace(tiny_vit, classes=4), {"train": (x, y)}, cfg)
