import hashlib
import json
import random
import struct
import subprocess
import sys
import zlib
from dataclasses import asdict, fields, replace
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
from viapt.inference import InferenceConfig
from viapt.numerics import ALGORITHM_ID
from viapt.prompt_engine import PromptConfig
from viapt.training import TrainConfig, load_archive, save_archive


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


def test_label_outside_header_classes_rejected(tmp_path):
    spec = SyntheticDatasetSpec(train_samples=30, image_side=8, classes=3)
    images, labels = gen_dataset(spec)["train"]
    p = tmp_path / "bad.viadata"
    save_dataset_split(p, images, labels + 2, 3)
    with pytest.raises(FormatError, match="label"):
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


def test_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe = 1\n")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "binary.cfg")


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


def test_every_field_is_a_key_and_survives_a_file_round_trip(tmp_path):
    # every field differs from its default, so a field the file dropped would
    # come back as its default and fail the comparison
    cfg = RunConfig(
        vit=ViTConfig(image_side=12, patch_side=3, embed_dim=12, layers=2, heads=3,
                      mlp_ratio=3, classes=4),
        prompt=PromptConfig(tokens=6, instance_tokens=2, retained_dims=5, kl_weight=0.5,
                            mode="vpt_deep"),
        train=TrainConfig(lr=2e-3, weight_decay=0.1, batch_size=8, epochs=3,
                          warmup_epochs=1, clip_norm=2.5, seed=7, precision="f64"),
        infer=InferenceConfig(strategy="fixed_sampling", rounds=3, noise_seed=5),
        dataset=SyntheticDatasetSpec(variant="class_template", classes=3, train_samples=30,
                                     image_side=12, noise=0.2, seed=4),
        out_dir="runs/elsewhere",
    )
    sections = [cfg.vit, cfg.prompt, cfg.train, cfg.infer, cfg.dataset]
    for section in sections:
        for f in fields(section):
            assert getattr(section, f.name) != f.default, f.name
    assert len(cfg.to_flat()) == 1 + sum(len(fields(section)) for section in sections)
    rebuilt = make_run_config(parse_config_file(write_config_file(cfg, tmp_path / "all.cfg")))
    assert rebuilt == cfg
    assert rebuilt.snapshot() == cfg.snapshot()


def test_config_line_fuzzer(tmp_path):
    """Mutated lines of configs/desk.cfg raise ConfigError or nothing: every
    key set to each bad value, then seeded runs of one to three mutations
    (drop the '=', set a bad value, take another key's value, add an unknown
    key)."""
    lines = (Path(__file__).parents[1] / "configs" / "desk.cfg").read_text().splitlines()
    bad_values = ["0", "-1", "nan", "none", ""]
    rng = random.Random(8)

    def keyed(text):
        return [i for i, line in enumerate(text) if "=" in line and not line.startswith("#")]

    def mutate(text, kind, i, value=None):
        text = list(text)
        key, own = text[i].split("=", 1)
        if kind == "drop_equals":
            text[i] = f"{key} {own}"
        elif kind == "set":
            text[i] = f"{key}= {value}"
        elif kind == "swap":
            text[i] = f"{key}={text[value].split('=', 1)[1]}"
        else:
            text.insert(i, f"unknown_{value} = 1")
        return text

    cases = [mutate(lines, "drop_equals", i) for i in keyed(lines)]
    cases += [mutate(lines, "set", i, v) for i in keyed(lines) for v in bad_values]
    for _ in range(400):
        text = lines
        for _ in range(rng.randint(1, 3)):
            rows = keyed(text)
            kind = rng.choice(["drop_equals", "set", "swap", "unknown"])
            value = {"set": rng.choice(bad_values), "swap": rng.choice(rows),
                     "unknown": rng.randrange(100)}.get(kind)
            text = mutate(text, kind, rng.choice(rows), value)
        cases.append(text)

    path = tmp_path / "fuzz.cfg"
    failures = []
    for text in cases:
        path.write_text("\n".join(text) + "\n")
        try:
            cfg = make_run_config(parse_config_file(path))
            cfg.prompt.resolved(cfg.vit.embed_dim)
        except ConfigError:
            pass
        except Exception as e:  # anything else is a finding; collect it, keep fuzzing
            failures.append(f"{type(e).__name__}: {e} <- {text}")
    assert not failures, f"{len(failures)} of {len(cases)} cases, first: {failures[0]}"


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
    {"config": {"vit": {**asdict(ViTConfig()), "heads": 0}, "prompt": asdict(PromptConfig()),
                "train": None},
     "rng": {"algorithm": ALGORITHM_ID, "seed": 0, "counter": 0}, "precision": "f32"},
    {"config": {"vit": asdict(ViTConfig()), "prompt": {**asdict(PromptConfig()), "retained_dims": 99},
                "train": None},
     "rng": {"algorithm": ALGORITHM_ID, "seed": 0, "counter": 0}, "precision": "f32"},
], ids=["garbage", "empty_metadata", "unknown_prompt_field", "invalid_vit_heads",
        "zero_vit_heads", "retained_dims_beyond_embed_dim"])
def test_cli_bad_checkpoint_exits_4(tmp_path, metadata):
    bad = tmp_path / "bad.ckpt"
    if metadata is None:
        bad.write_bytes(b"garbage")
    else:  # a valid CRC around malformed metadata
        save_archive(bad, {}, metadata)
    proc = run_cli("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


def test_cli_eval_non_utf8_tensor_name_exits_4(tmp_path):
    bad = tmp_path / "bad.ckpt"
    save_archive(bad, {"placeholder": np.zeros(2, dtype=np.float32)}, {})
    blob = bad.read_bytes()[:-4].replace(b"placeholder", b"\xff" * 11)
    bad.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    proc = run_cli("eval", "--checkpoint", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("line", ["heads = 0", "patch_side = 0", "embed_dim = 0",
                                  "mlp_ratio = 0", "dataset_side = 0", "seed = -1",
                                  "dataset_seed = -1", "noise_seed = -1"])
def test_cli_bad_config_value_exits_2(tmp_path, line):
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    proc = run_cli("gen-data", "--config", str(p), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
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


def write_config_file(cfg, path):
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.to_flat().items()))
    return path


def test_cli_every_output_command_writes_config_json(tiny_run_setup, tmp_path):
    from viapt.cli import run

    base, backbone_path, _ = tiny_run_setup
    cfg = replace(base, train=replace(base.train, epochs=1, warmup_epochs=0))
    cfg_file = str(write_config_file(cfg, tmp_path / "tiny.cfg"))
    commands = {
        "gen-data": [],
        "pretrain-backbone": [],
        "train": ["--backbone", backbone_path],
        "eval": ["--checkpoint", str(tmp_path / "train" / "best.ckpt")],
        "sweep-m": ["--backbone", backbone_path, "--m-list", "0", "--seeds", "1",
                    "--no-instance-compare"],
        "ablate": ["--backbone", backbone_path, "--seeds", "1"],
    }
    for command, extra in commands.items():
        out = tmp_path / command
        assert run([command, "--config", cfg_file, "--out", str(out), *extra]) == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot == replace(cfg, out_dir=str(out)).to_flat(), command


def test_cli_eval_noise_seed_from_file_or_flag(tiny_run_setup, tmp_path):
    from viapt.harness import cmd_train

    base, backbone_path, _ = tiny_run_setup
    cmd_train(replace(base, out_dir=str(tmp_path / "run")), backbone_path)
    plain = str(write_config_file(base, tmp_path / "plain.cfg"))
    seeded = replace(base, infer=replace(base.infer, noise_seed=5))
    runs = {"file": ["--config", str(write_config_file(seeded, tmp_path / "seeded.cfg"))],
            "flag": ["--config", plain, "--noise-seed", "5"],
            "default": ["--config", plain]}
    predictions = {}
    for name, args in runs.items():
        proc = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
                       "--strategy", "fixed", *args, "--out", str(tmp_path / name))
        assert proc.returncode == 0, proc.stderr
        predictions[name] = (tmp_path / name / "predictions.jsonl").read_bytes()
        recorded = json.loads((tmp_path / name / "config.json").read_text())["noise_seed"]
        assert recorded == (0 if name == "default" else 5)
    assert predictions["file"] == predictions["flag"] != predictions["default"]


def test_cli_train_empty_split_exits_2(tiny_run_setup, tmp_path):
    # a zero-image train.viadata is a well-formed file, so the refusal is a
    # config error raised before anything is built
    base, backbone_path, _ = tiny_run_setup
    cfg_file = write_config_file(base, tmp_path / "tiny.cfg")
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


BAD_BACKBONE_TENSORS = {
    "wrong_shape": lambda t: t.update(
        {"backbone.layer0.attn.wq": t["backbone.layer0.attn.wq"][:, :6]}),
    "unexpected_name": lambda t: t.update({"backbone.layer0.attn.extra": np.zeros(8)}),
    "missing_tensor": lambda t: t.pop("backbone.layer0.attn.wq"),
}


@pytest.mark.parametrize("case", BAD_BACKBONE_TENSORS)
def test_cli_train_bad_backbone_tensor_exits_4(tiny_run_setup, tmp_path, case):
    # CRC-valid archives with valid metadata; only the tensors are wrong
    base, backbone_path, _ = tiny_run_setup
    tensors, metadata = load_archive(backbone_path)
    BAD_BACKBONE_TENSORS[case](tensors)
    save_archive(tmp_path / "bad.ckpt", tensors, metadata)
    proc = run_cli("train", "--config", str(write_config_file(base, tmp_path / "tiny.cfg")),
                   "--backbone", str(tmp_path / "bad.ckpt"), "--out", str(tmp_path / "run"))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("header_classes,code", [(3, 4), (50, 2)],
                         ids=["beyond_header_classes", "beyond_checkpoint_classes"])
def test_cli_eval_labels_outside_classes(tiny_run_setup, tmp_path, header_classes, code):
    # a label beyond the file's own class count is a bad file (4); one the
    # file allows but the checkpoint's head cannot score is a bad run (2)
    from viapt.harness import cmd_train

    base, backbone_path, _ = tiny_run_setup
    cmd_train(replace(base, out_dir=str(tmp_path / "run")), backbone_path)
    data_dir = tmp_path / "data"
    write_dataset(data_dir, base.dataset)
    images, labels, _ = load_dataset_split(data_dir / "test.viadata")
    save_dataset_split(data_dir / "test.viadata", images, labels + 40, header_classes)
    proc = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
                   "--data", str(data_dir), "--out", str(tmp_path / "eval"))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


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
