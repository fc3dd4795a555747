import hashlib
import json
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from viapt.backbone import ViTConfig
from viapt.errors import ConfigError, FormatError
from viapt.harness import (
    RunConfig,
    SyntheticDatasetSpec,
    cmd_gradcheck,
    cmd_param_count,
    difficulty_certificate,
    gen_dataset,
    instance_aware_oracle_predict,
    load_dataset_dir,
    load_dataset_split,
    make_run_config,
    parse_config_file,
    read_sweep_csv,
    save_dataset_split,
    template_oracle_predict,
    write_dataset,
    write_sweep_csv,
)
from viapt.numerics import ALGORITHM_ID
from viapt.prompt_engine import PromptConfig
from viapt.training import TrainConfig, save_archive


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- dataset generation -----------------------------------------------------------

def test_same_spec_gives_identical_files(tmp_path):
    spec = SyntheticDatasetSpec(variant="class_template", classes=4, train_samples=60,
                                image_side=8, noise=0.1, seed=3)
    write_dataset(tmp_path / "a", spec)
    write_dataset(tmp_path / "b", spec)
    for name in ("train.viadata", "val.viadata", "test.viadata"):
        assert file_hash(tmp_path / "a" / name) == file_hash(tmp_path / "b" / name)


def test_different_seed_changes_data(tmp_path):
    a = gen_dataset(SyntheticDatasetSpec(train_samples=30, image_side=8, seed=1))
    b = gen_dataset(SyntheticDatasetSpec(train_samples=30, image_side=8, seed=2))
    assert not np.array_equal(a["train"][0], b["train"][0])


def test_split_sizes_follow_60_20_20():
    data = gen_dataset(SyntheticDatasetSpec(train_samples=300, image_side=8))
    assert len(data["train"][1]) == 300
    assert len(data["val"][1]) == 100
    assert len(data["test"][1]) == 100


def test_noise_free_class_template_is_solved_by_template_oracle():
    spec = SyntheticDatasetSpec(variant="class_template", classes=5, train_samples=90,
                                image_side=8, noise=0.0, seed=4)
    images, labels = gen_dataset(spec)["test"]
    assert (template_oracle_predict(images, spec) == labels).mean() == 1.0


def test_instance_shift_certificate_shows_gap():
    spec = SyntheticDatasetSpec(variant="instance_shift", classes=5, train_samples=300,
                                image_side=16, noise=0.1, seed=0)
    cert = difficulty_certificate(spec, gen_dataset(spec)["test"])
    assert cert["instance_oracle_accuracy"] > cert["template_oracle_accuracy"]
    assert cert["gap"] > 0.2


def test_instance_oracle_recovers_gain_rule():
    spec = SyntheticDatasetSpec(variant="instance_shift", classes=3, train_samples=120,
                                image_side=8, noise=0.02, seed=9)
    images, labels = gen_dataset(spec)["val"]
    pred = instance_aware_oracle_predict(images, spec)
    assert (pred == labels).mean() > 0.95


def test_rotation_pretext_labels_are_rotations():
    spec = SyntheticDatasetSpec(variant="pretext_rotation", classes=4, train_samples=40,
                                image_side=8, noise=0.0, seed=5)
    images, labels = gen_dataset(spec)["train"]
    assert set(np.unique(labels)) <= {0, 1, 2, 3}


def test_pretext_requires_four_classes():
    with pytest.raises(ConfigError):
        SyntheticDatasetSpec(variant="pretext_rotation", classes=5)


def test_dataset_file_round_trip(tmp_path):
    spec = SyntheticDatasetSpec(train_samples=30, image_side=8, classes=3, seed=8)
    images, labels = gen_dataset(spec)["train"]
    p = tmp_path / "split.viadata"
    save_dataset_split(p, images, labels, 3)
    images2, labels2, classes = load_dataset_split(p)
    assert np.array_equal(images, images2)
    assert np.array_equal(labels, labels2)
    assert classes == 3


def test_truncated_dataset_rejected(tmp_path):
    spec = SyntheticDatasetSpec(train_samples=30, image_side=8, classes=3)
    images, labels = gen_dataset(spec)["train"]
    p = tmp_path / "bad.viadata"
    save_dataset_split(p, images, labels, 3)
    blob = p.read_bytes()
    p.write_bytes(blob[:-7])
    with pytest.raises(FormatError):
        load_dataset_split(p)


def test_wrong_magic_rejected(tmp_path):
    p = tmp_path / "junk.viadata"
    p.write_bytes(b"NOTDATA!!" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        load_dataset_split(p)


def test_write_dataset_embeds_spec_and_certificate(tmp_path):
    spec = SyntheticDatasetSpec(variant="instance_shift", classes=5, train_samples=60,
                                image_side=16, seed=0)
    write_dataset(tmp_path / "d", spec)
    meta = json.loads((tmp_path / "d" / "dataset.json").read_text())
    assert meta["spec"]["variant"] == "instance_shift"
    assert meta["difficulty"]["gap"] > 0
    splits = load_dataset_dir(tmp_path / "d")
    assert len(splits["train"][1]) == 60


# -- configuration -----------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("""
# comment line
embed_dim = 16
prompt_tokens = 6
mode = vpt_deep     # trailing comment
lr = 5e-4
retained_dims = none
""")
    overrides = parse_config_file(p)
    assert overrides == {"embed_dim": 16, "prompt_tokens": 6, "mode": "vpt_deep",
                         "lr": 5e-4, "retained_dims": None}


def test_unknown_config_key_fails_loudly(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("not_a_key = 3\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        parse_config_file(p)


def test_bad_value_type_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs = banana\n")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config_file(p)


def test_cli_overrides_take_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs = 7\nwarmup_epochs = 2\nseed = 3\n")
    cfg = make_run_config(parse_config_file(p), {"seed": 9})
    assert cfg.train.epochs == 7
    assert cfg.train.seed == 9


def test_run_config_snapshot_round_trips():
    cfg = RunConfig(train=TrainConfig(epochs=3, warmup_epochs=1))
    flat = json.loads(cfg.snapshot())
    rebuilt = make_run_config(flat)
    assert rebuilt.snapshot() == cfg.snapshot()


# -- gradient check -----------------------------------------------------------------

def gradcheck_config(mode="viapt", lam=2):
    return RunConfig(
        vit=ViTConfig(image_side=8, patch_side=4, embed_dim=8, layers=3, heads=2,
                      mlp_ratio=2, classes=3),
        prompt=PromptConfig(tokens=4, instance_tokens=lam, retained_dims=2, mode=mode),
        train=TrainConfig(seed=3, precision="f64", epochs=1, warmup_epochs=0),
    )


def test_gradcheck_refuses_float32():
    cfg = gradcheck_config()
    cfg = replace(cfg, train=TrainConfig(seed=3, precision="f32"))
    with pytest.raises(ConfigError, match="f64"):
        cmd_gradcheck(cfg)


def test_gradcheck_passes_on_tiny_viapt():
    report = cmd_gradcheck(gradcheck_config(), batch=3)
    assert report["passed"], report
    assert report["max_rel_error"] < 1e-4
    assert any(name.startswith("generator.") for name in report["tensors"])
    assert any(name.startswith("prompt.") for name in report["tensors"])
    assert any(name.startswith("head.") for name in report["tensors"])


def test_gradcheck_detects_corrupted_backward(monkeypatch):
    import viapt.numerics.tensor as tensor_mod

    true_gelu = tensor_mod.gelu

    def broken_gelu(a):
        out = true_gelu(a)
        inner = out._backward

        def bwd(g, acc):
            inner(g * 1.01, acc)  # deliberately wrong chain rule

        return tensor_mod.Tensor(out.data, _parents=out._parents, _backward=bwd)

    monkeypatch.setattr("viapt.numerics.gelu", broken_gelu)
    monkeypatch.setattr("viapt.backbone.nm.gelu", broken_gelu)
    report = cmd_gradcheck(gradcheck_config(lam=0), batch=2)
    assert not report["passed"]


def test_gradcheck_lambda_zero_has_no_generator_tensors():
    report = cmd_gradcheck(gradcheck_config(lam=0), batch=2)
    assert report["passed"]
    assert not any(name.startswith("generator.") for name in report["tensors"])


# -- parameter table command ----------------------------------------------------------

def test_param_count_full_scale_table():
    vit_b = ViTConfig(image_side=224, patch_side=16, embed_dim=768, layers=12, heads=12,
                      classes=200)
    report = cmd_param_count(vit_b, PromptConfig(tokens=50, instance_tokens=25),
                             [0, 32, 64, 128, 256, 512, 768])
    by_m = {row["m"]: row for row in report["rows"]}
    assert by_m[128]["ours_prompt_params"] == 371_200
    assert by_m[128]["ours_pct_of_reference"] == pytest.approx(0.429, abs=0.001)
    assert by_m[768]["domain_pct_of_reference"] == pytest.approx(0.000, abs=0.001)
    assert report["prompt_count_comparison"]["vpt_shallow"] == 38_400


# -- sweep CSV -------------------------------------------------------------------------

def test_sweep_csv_round_trip(tmp_path):
    rows = [{"m": 0, "lambda": 4, "accuracy_mean": 0.5, "accuracy_std": 0.01,
             "trainable_params": 1234, "ratio": 0.0108},
            {"m": 24, "lambda": 0, "accuracy_mean": 0.25, "accuracy_std": 0.0,
             "trainable_params": 987, "ratio": 0.0086}]
    p = tmp_path / "sweep.csv"
    write_sweep_csv(p, rows)
    assert read_sweep_csv(p) == rows


def test_sweep_csv_schema_enforced(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("m,lambda,accuracy\n1,2,0.5\n")
    with pytest.raises(FormatError):
        read_sweep_csv(p)


# -- CLI ------------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "viapt.cli", *args],
                          capture_output=True, text=True)


def test_cli_unknown_config_key_exits_2(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus = 1\n")
    proc = run_cli("train", "--config", str(p), "--backbone", "missing.ckpt")
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


@pytest.mark.parametrize("metadata", [
    None,
    {},
    {"config": {"vit": asdict(ViTConfig()), "prompt": {**asdict(PromptConfig()), "bogus": 1},
                "train": None},
     "rng": {"algorithm": ALGORITHM_ID, "seed": 0, "counter": 0}, "precision": "f32"},
    {"config": {"vit": {**asdict(ViTConfig()), "heads": 5}, "prompt": asdict(PromptConfig()),
                "train": None},
     "rng": {"algorithm": ALGORITHM_ID, "seed": 0, "counter": 0}, "precision": "f32"},
    {"config": {"vit": asdict(ViTConfig()), "prompt": {**asdict(PromptConfig()), "retained_dims": 99},
                "train": None},
     "rng": {"algorithm": ALGORITHM_ID, "seed": 0, "counter": 0}, "precision": "f32"},
], ids=["garbage", "empty_metadata", "unknown_prompt_field", "invalid_vit_heads",
        "retained_dims_beyond_embed_dim"])
def test_cli_bad_checkpoint_exits_4(tmp_path, metadata):
    bad = tmp_path / "bad.ckpt"
    if metadata is None:
        bad.write_bytes(b"garbage")
    else:  # a valid CRC around malformed metadata
        save_archive(bad, {}, metadata)
    proc = run_cli("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


def test_cli_gen_data_deterministic(tmp_path):
    a = run_cli("gen-data", "--out", str(tmp_path / "a"), "--dataset", "class_template",
                "--train-samples", "45")
    b = run_cli("gen-data", "--out", str(tmp_path / "b"), "--dataset", "class_template",
                "--train-samples", "45")
    assert a.returncode == 0 and b.returncode == 0
    assert file_hash(tmp_path / "a" / "train.viadata") == file_hash(tmp_path / "b" / "train.viadata")


def test_cli_param_count_runs():
    proc = run_cli("param-count")
    assert proc.returncode == 0
    assert "domain-only" in proc.stdout


def test_cli_gradcheck_refuses_f32_with_exit_2():
    proc = run_cli("gradcheck", "--precision", "f32")
    assert proc.returncode == 2
    assert "f64" in proc.stderr


# -- train / eval / ablate command level ------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run_setup(tmp_path_factory):
    """A pretrained tiny backbone checkpoint plus a matching RunConfig base."""
    from viapt.harness import cmd_pretrain_backbone

    root = tmp_path_factory.mktemp("cmdruns")
    base = RunConfig(
        vit=ViTConfig(image_side=8, patch_side=4, embed_dim=8, layers=2, heads=2,
                      mlp_ratio=2, classes=3),
        prompt=PromptConfig(tokens=4, instance_tokens=2, retained_dims=4),
        train=TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=1),
        dataset=SyntheticDatasetSpec(variant="instance_shift", classes=3,
                                     train_samples=48, image_side=8, noise=0.1, seed=2),
        out_dir=str(root / "pretrain"),
    )
    backbone_path = cmd_pretrain_backbone(
        replace(base, train=TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=7)))
    return base, backbone_path, root


def test_cmd_train_smoke_and_mode_routing(tiny_run_setup):
    from viapt.harness import cmd_train

    base, backbone_path, root = tiny_run_setup
    for i, mode in enumerate(["viapt", "vpt_deep", "vpt_shallow"]):
        cfg = replace(base, prompt=replace(base.prompt, mode=mode),
                      out_dir=str(root / f"run_{mode}"))
        res = cmd_train(cfg, backbone_path)
        out = Path(cfg.out_dir)
        assert (out / "config.json").exists()
        assert (out / "final.ckpt").exists()
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 2  # epochs * splits


def test_cmd_train_rerun_identical_metrics(tiny_run_setup):
    from viapt.harness import cmd_train

    base, backbone_path, root = tiny_run_setup
    hashes = []
    for tag in ("r1", "r2"):
        cfg = replace(base, out_dir=str(root / tag))
        cmd_train(cfg, backbone_path)
        hashes.append(file_hash(Path(cfg.out_dir) / "metrics.jsonl"))
    assert hashes[0] == hashes[1]


def test_cmd_eval_fixed_twice_identical(tiny_run_setup):
    from viapt.harness import cmd_eval, cmd_train, gen_dataset
    from viapt.inference import InferenceConfig

    base, backbone_path, root = tiny_run_setup
    cfg = replace(base, out_dir=str(root / "eval_run"))
    cmd_train(cfg, backbone_path)
    data = gen_dataset(cfg.dataset)
    icfg = InferenceConfig(strategy="fixed_sampling", noise_seed=5)
    s1, _ = cmd_eval(Path(cfg.out_dir) / "best.ckpt", data, icfg, out_dir=root / "e1")
    s2, _ = cmd_eval(Path(cfg.out_dir) / "best.ckpt", data, icfg, out_dir=root / "e2")
    assert s1 == s2
    assert (root / "e1" / "eval_summary.json").read_bytes() == \
        (root / "e2" / "eval_summary.json").read_bytes()
    summary = json.loads((root / "e1" / "eval_summary.json").read_text())
    assert {"strategy", "R", "accuracy", "n", "split"} <= set(summary)


def test_cmd_eval_multi_round_smoke(tiny_run_setup):
    from viapt.harness import cmd_eval, cmd_train, gen_dataset
    from viapt.inference import InferenceConfig

    base, backbone_path, root = tiny_run_setup
    cfg = replace(base, out_dir=str(root / "eval_run2"))
    cmd_train(cfg, backbone_path)
    data = gen_dataset(cfg.dataset)
    for rounds in (1, 5):
        summary, records = cmd_eval(Path(cfg.out_dir) / "best.ckpt", data,
                                    InferenceConfig(strategy="multi_round", rounds=rounds))
        assert summary["R"] == rounds and summary["n"] == len(records)


def test_cli_train_empty_split_exits_2(tiny_run_setup, tmp_path):
    # a zero-image train.viadata is a well-formed file, so the refusal is a
    # config error raised before anything is built
    base, backbone_path, _ = tiny_run_setup
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in base.to_flat().items()))
    data_dir = tmp_path / "data"
    write_dataset(data_dir, base.dataset)
    side = base.dataset.image_side
    save_dataset_split(data_dir / "train.viadata", np.zeros((0, 1, side, side), np.float32),
                       np.zeros(0, np.uint16), base.dataset.classes)
    proc = run_cli("train", "--config", str(cfg_file), "--backbone", backbone_path,
                   "--data", str(data_dir), "--out", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "no images" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_lr_sweep_hook(tiny_run_setup):
    from viapt.harness import lr_sweep

    base, backbone_path, root = tiny_run_setup
    cfg = replace(base, train=replace(base.train, epochs=1, warmup_epochs=0))
    rows = lr_sweep(cfg, backbone_path, [1e-3, 1e-2])
    assert [r["lr"] for r in rows] == [1e-3, 1e-2]
    assert all(0.0 <= r["val_accuracy"] <= 1.0 for r in rows)


def test_cmd_ablate_rows(tiny_run_setup):
    from viapt.harness import ablation_cells, cmd_ablate

    base, backbone_path, root = tiny_run_setup
    cfg = replace(base, out_dir=str(root / "ablate"),
                  train=replace(base.train, epochs=1, warmup_epochs=0))
    rows = cmd_ablate(cfg, backbone_path, seeds=[1])
    assert [r["variant"] for r in rows] == list(ablation_cells(cfg).keys())
    by_variant = {r["variant"]: r for r in rows}
    assert by_variant["no_instance"]["lambda"] == 0
    assert by_variant["no_pca"]["m"] == cfg.vit.embed_dim
    assert by_variant["full"]["trainable_params"] > by_variant["no_both"]["trainable_params"]
    assert (root / "ablate" / "ablation.csv").exists()
