"""Acceptance criteria, one test per criterion, each printing a PASS line.

Training-based criteria replay pre-registered oracle configurations; the
frozen floors below came from oracle runs performed first (2026-08-08) and
recorded alongside the budgets they were measured at. Run with -s to see the
per-criterion lines.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import viapt.numerics as nm
from viapt.backbone import ViTConfig, forward_vpt_deep, forward_vpt_shallow, init_backbone
from viapt.errors import FormatError
from viapt.harness import (
    RunConfig,
    SyntheticDatasetSpec,
    _clone_backbone,
    cmd_gradcheck,
    cmd_param_count,
    cmd_pretrain_backbone,
    cmd_sweep_m,
    cmd_train,
    gen_dataset,
    read_sweep_csv,
)
from viapt.inference import InferenceConfig, evaluate_dataset, predict_probs
from viapt.numerics import RngState
from viapt.prompt_engine import (
    PromptConfig,
    forward_viapt,
    kl_to_standard_normal,
    pca_project,
    random_orthonormal_basis,
)
from viapt.training import (
    TrainConfig,
    actual_trainable_count,
    build_model,
    load_archive,
    load_backbone,
    load_checkpoint,
    save_checkpoint,
    train,
)

from oracles import jacobi_eigh, kl_monte_carlo

pytestmark = pytest.mark.acceptance

# ---------------------------------------------------------------------------
# pre-registered oracle constants (frozen 2026-08-08; see the run budgets in
# the fixtures below, which reproduce the oracle configurations exactly)
# ---------------------------------------------------------------------------
CHANCE = 1.0 / 5.0
VIAPT_FLOOR = 0.7571   # oracle: mean 0.8553, std 0.0491 -> mean - 2*std
LAM0_FLOOR = 0.4885    # oracle: mean 0.6186, std 0.0651 -> mean - 2*std
DIRECT_BAND = 0.15     # oracle: |direct - probabilistic| = 0.081 at this budget
SWEEP_WINS_REQUIRED = 4  # oracle: lam=4 beat/tied lam=0 in 4/5 seeds at every m

C7_TRAIN = dict(epochs=15, warmup_epochs=2, batch_size=32)
C9_TRAIN = dict(epochs=8, warmup_epochs=1, batch_size=32)
SEEDS = (1, 2, 3, 4, 5)


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" | {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared heavyweight fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_vit5():
    return ViTConfig(classes=5)


@pytest.fixture(scope="session")
def pretrained_backbone(tmp_path_factory, desk_vit5):
    out = tmp_path_factory.mktemp("backbone")
    cfg = RunConfig(train=TrainConfig(epochs=6, warmup_epochs=1, batch_size=32, seed=7),
                    out_dir=str(out))
    path = cmd_pretrain_backbone(cfg)
    backbone, _ = load_backbone(path)
    return backbone, path


@pytest.fixture(scope="session")
def data1000():
    return gen_dataset(SyntheticDatasetSpec(variant="instance_shift", classes=5,
                                            train_samples=1000, noise=0.1, seed=0))


@pytest.fixture(scope="session")
def data600():
    return gen_dataset(SyntheticDatasetSpec(variant="instance_shift", classes=5,
                                            train_samples=600, noise=0.1, seed=0))


@pytest.fixture(scope="session")
def c7_runs(pretrained_backbone, data1000, desk_vit5):
    """The pre-registered criterion-7 grid: lam in {4, 0} x seeds 1..5."""
    backbone, _ = pretrained_backbone
    results = {}
    for lam in (4, 0):
        per_seed = []
        for seed in SEEDS:
            cfg = TrainConfig(seed=seed, **C7_TRAIN)
            pcfg = PromptConfig(tokens=8, instance_tokens=lam, retained_dims=24,
                                mode="viapt")
            res = train(cfg, pcfg, data1000, _clone_backbone(backbone, desk_vit5),
                        desk_vit5)
            per_seed.append(res)
        results[lam] = per_seed
    return results


# ---------------------------------------------------------------------------
# criterion 1: endpoint equivalence (exact, 100 random inputs)
# ---------------------------------------------------------------------------

def test_criterion_1_endpoint_equivalence(desk_vit5):
    vit = desk_vit5
    backbone = init_backbone(vit, RngState(11).derive("backbone"), dtype=np.float32)
    backbone.freeze()
    e0_data = RngState(123).gaussian((100, vit.tokens, vit.embed_dim), dtype=np.float32)
    e0 = nm.Tensor(e0_data)

    deep_cfg = PromptConfig(tokens=8, mode="vpt_deep")
    deep_model = build_model(vit, deep_cfg, RngState(5).derive("init"), backbone)
    ours_deep, _, _ = forward_viapt(e0, deep_cfg, deep_model.prompts, None, backbone,
                                    vit, RngState(0))
    ref_deep = forward_vpt_deep(e0, [deep_model.prompts.dom] + deep_model.prompts.new,
                                backbone, vit)
    deep_ok = np.array_equal(ours_deep.data, ref_deep.data)

    sh_cfg = PromptConfig(tokens=8, mode="vpt_shallow")
    sh_model = build_model(vit, sh_cfg, RngState(5).derive("init"), backbone)
    ours_sh, _, _ = forward_viapt(e0, sh_cfg, sh_model.prompts, None, backbone, vit,
                                  RngState(0))
    ref_sh = forward_vpt_shallow(e0, sh_model.prompts.dom, backbone, vit)
    shallow_ok = np.array_equal(ours_sh.data, ref_sh.data)

    distinct = not np.array_equal(ours_deep.data, ours_sh.data)
    report("criterion 1: endpoint equivalence",
           deep_ok and shallow_ok and distinct,
           f"m=0 bitwise={deep_ok}, m=d bitwise={shallow_ok} on 100 inputs")


# ---------------------------------------------------------------------------
# criterion 2: parameter tables (exact integers; percentages to 0.001)
# ---------------------------------------------------------------------------

TABLE = {0: (460_800, 441_600, 0.532, 0.510),
         32: (441_600, 424_000, 0.510, 0.490),
         64: (422_400, 406_400, 0.488, 0.470),
         128: (384_000, 371_200, 0.444, 0.429),
         256: (307_200, 300_800, 0.355, 0.347),
         512: (153_600, 160_000, 0.177, 0.185),
         768: (0, 19_200, 0.000, 0.022)}


def test_criterion_2_parameter_tables():
    vit_b = ViTConfig(image_side=224, patch_side=16, embed_dim=768, layers=12, heads=12,
                      classes=200)
    rep = cmd_param_count(vit_b, PromptConfig(tokens=50, instance_tokens=25),
                          sorted(TABLE))
    ref = rep["reference_total"]
    ok = True
    details = []
    for row in rep["rows"]:
        dom, ours, dom_pct, ours_pct = TABLE[row["m"]]
        # percentage tolerance applies to the exact ratio, not its 3-decimal print
        exact_dom_pct = 100.0 * row["domain_prompt_params"] / ref
        exact_ours_pct = 100.0 * row["ours_prompt_params"] / ref
        row_ok = (row["domain_prompt_params"] == dom
                  and row["ours_prompt_params"] == ours
                  and abs(exact_dom_pct - dom_pct) <= 0.001 + 1e-9
                  and abs(exact_ours_pct - ours_pct) <= 0.001 + 1e-9)
        ok = ok and row_ok
        if not row_ok:
            details.append(f"m={row['m']}: {row}")
    ok = ok and rep["prompt_count_comparison"]["vpt_shallow"] == 38_400
    ok = ok and rep["prompt_count_comparison"]["vpt_deep"] == 460_800
    flagged = any(r["note"] for r in rep["rows"] if r["m"] == 768)
    report("criterion 2: parameter tables", ok and flagged,
           "all seven rows + percentages vs 86.57M exact"
           + (f"; mismatches: {details}" if details else ""))


# ---------------------------------------------------------------------------
# criterion 3: gradient fidelity (float64, frozen noise, < 1e-4)
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_fidelity():
    cfg = RunConfig(
        vit=ViTConfig(image_side=8, patch_side=4, embed_dim=8, layers=3, heads=2,
                      mlp_ratio=2, classes=3),
        prompt=PromptConfig(tokens=4, instance_tokens=2, retained_dims=2, mode="viapt"),
        train=TrainConfig(seed=3, precision="f64", epochs=1, warmup_epochs=0),
    )
    rep = cmd_gradcheck(cfg, batch=4)
    covered = {name.split(".")[0] for name in rep["tensors"]}
    ok = rep["passed"] and {"prompt", "generator", "head"} <= covered
    report("criterion 3: gradient fidelity", ok,
           f"max rel error {rep['max_rel_error']:.2e} over {len(rep['tensors'])} tensors")


# ---------------------------------------------------------------------------
# criterion 4: KL correctness
# ---------------------------------------------------------------------------

def test_criterion_4_kl_correctness():
    exact_zero = float(kl_to_standard_normal(np.zeros(8), np.zeros(8)).data) == 0.0
    worst = 0.0
    rng = np.random.default_rng(4242)
    for trial in range(10):
        mu = rng.standard_normal(8) * 0.8
        lv = rng.standard_normal(8) * 0.6
        closed = float(kl_to_standard_normal(mu, lv).data)
        mc = kl_monte_carlo(mu, lv, 10 ** 6, seed=trial)
        worst = max(worst, abs(closed - mc) / abs(closed))
    report("criterion 4: KL correctness", exact_zero and worst < 0.01,
           f"KL(0,0)=0 exact; worst closed-vs-MC rel error {worst:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: PCA optimality and oracle agreement
# ---------------------------------------------------------------------------

def test_criterion_5_pca_optimality():
    rng = np.random.default_rng(55)
    worst_rel = 0.0
    all_beaten = True
    for m in (1, 2, 3):
        z = rng.standard_normal((10, 6))
        centered = z - z.mean(axis=0)
        proj = pca_project(z, m)
        eigvals, _ = jacobi_eigh(centered.T @ centered)
        expect = eigvals[:m].sum() / eigvals.sum()
        worst_rel = max(worst_rel, abs(proj.retained_variance - expect) / expect)
        pca_err = ((centered - centered @ proj.basis[:, :m] @ proj.basis[:, :m].T) ** 2).sum()
        for trial in range(100):
            q = random_orthonormal_basis(6, m, RngState(trial * 13 + m), dtype=np.float64)
            rand_err = ((centered - centered @ q @ q.T) ** 2).sum()
            all_beaten = all_beaten and rand_err > pca_err - 1e-12
    report("criterion 5: PCA optimality", worst_rel < 1e-8 and all_beaten,
           f"retained-variance rel err {worst_rel:.2e}; beat 100 random bases at m=1,2,3")


# ---------------------------------------------------------------------------
# criterion 6: inference contracts
# ---------------------------------------------------------------------------

def test_criterion_6_inference_contracts(pretrained_backbone, data600, desk_vit5):
    backbone, _ = pretrained_backbone
    cfg = TrainConfig(seed=1, epochs=4, warmup_epochs=1, batch_size=32)
    pcfg = PromptConfig(tokens=8, instance_tokens=4, retained_dims=24, mode="viapt")
    model = train(cfg, pcfg, data600, _clone_backbone(backbone, desk_vit5),
                  desk_vit5).final.model
    x, y = data600["test"]

    icfg = InferenceConfig(strategy="fixed_sampling", noise_seed=3)
    s1, r1 = evaluate_dataset(model, x, y, icfg)
    s2, r2 = evaluate_dataset(model, x, y, icfg)
    fixed_ok = (s1 == s2 and
                all(np.array_equal(np.array(a["probabilities"]),
                                   np.array(b["probabilities"])) for a, b in zip(r1, r2)))

    # 1/sqrt(R) scaling of the final-probability std over repeated evaluations
    img = x[0]
    lam, d = pcfg.instance_tokens, desk_vit5.embed_dim
    stds = {}
    for rounds in (1, 4, 16):
        probs = np.stack([predict_probs(model, img[None],
                                        RngState(9000 + rep).gaussian((rounds, 1, lam, d)))[0]
                          for rep in range(96)])
        stds[rounds] = probs.std(axis=0).mean()
    r4, r16 = stds[1] / stds[4], stds[1] / stds[16]
    scaling_ok = abs(r4 - 2.0) <= 0.6 and abs(r16 - 4.0) <= 1.2

    # lambda = 0 collapse across strategies
    pcfg0 = PromptConfig(tokens=8, instance_tokens=0, retained_dims=24, mode="viapt")
    model0 = build_model(desk_vit5, pcfg0, RngState(1).derive("init"),
                         _clone_backbone(backbone, desk_vit5))
    collapsed = []
    for icfg0 in (InferenceConfig(strategy="multi_round", rounds=5, noise_seed=1),
                  InferenceConfig(strategy="fixed_sampling", noise_seed=77),
                  InferenceConfig(strategy="direct")):
        _, records = evaluate_dataset(model0, img[None], y[:1], icfg0)
        collapsed.append(np.array(records[0]["probabilities"]))
    a, b, c = collapsed
    collapse_ok = np.array_equal(a, b) and np.array_equal(b, c)
    valid = (a >= 0).all() and abs(a.sum() - 1.0) < 1e-6

    report("criterion 6: inference contracts",
           fixed_ok and scaling_ok and collapse_ok and valid,
           f"fixed bitwise={fixed_ok}; std ratios {r4:.2f}/{r16:.2f} vs 2/4; "
           f"lambda=0 collapse={collapse_ok}")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale efficacy ordering (pre-registered floors)
# ---------------------------------------------------------------------------

def test_criterion_7_efficacy_ordering(c7_runs):
    acc4 = [r.best["accuracy"] for r in c7_runs[4]]
    acc0 = [r.best["accuracy"] for r in c7_runs[0]]
    wins = sum(a >= b for a, b in zip(acc4, acc0))
    mean4, mean0 = float(np.mean(acc4)), float(np.mean(acc0))
    ok = (wins >= 4
          and mean4 >= VIAPT_FLOOR and mean0 >= LAM0_FLOOR
          and VIAPT_FLOOR > CHANCE and LAM0_FLOOR > CHANCE)
    report("criterion 7: efficacy ordering", ok,
           f"viapt>=lam0 in {wins}/5 seeds; means {mean4:.3f}/{mean0:.3f} "
           f"vs floors {VIAPT_FLOOR}/{LAM0_FLOOR} (chance {CHANCE})")


def test_direct_mode_within_oracle_band(c7_runs, pretrained_backbone, data1000, desk_vit5):
    # paired-run example: deterministic generator reaches comparable accuracy
    backbone, _ = pretrained_backbone
    cfg = TrainConfig(seed=1, **C7_TRAIN)
    pcfg = PromptConfig(tokens=8, instance_tokens=4, retained_dims=24,
                        mode="direct_generation")
    direct = train(cfg, pcfg, data1000, _clone_backbone(backbone, desk_vit5),
                   desk_vit5).final.model
    x, y = data1000["test"]
    s_prob, _ = evaluate_dataset(c7_runs[4][0].final.model, x, y,
                                 InferenceConfig(strategy="multi_round", rounds=5))
    s_dir, _ = evaluate_dataset(direct, x, y, InferenceConfig(strategy="direct"))
    diff = abs(s_prob["accuracy"] - s_dir["accuracy"])
    report("inference example: direct-mode accuracy band", diff <= DIRECT_BAND,
           f"probabilistic {s_prob['accuracy']:.3f} vs direct {s_dir['accuracy']:.3f} "
           f"(band {DIRECT_BAND})")


def test_converged_train_eval_dominates_validation(c7_runs, data1000):
    model = c7_runs[4][0].final.model
    icfg = InferenceConfig(strategy="fixed_sampling", noise_seed=0)
    s_train, _ = evaluate_dataset(model, *data1000["train"], icfg)
    s_val, _ = evaluate_dataset(model, *data1000["val"], icfg)
    report("harness example: train-split eval >= val",
           s_train["accuracy"] >= s_val["accuracy"],
           f"train {s_train['accuracy']:.3f} vs val {s_val['accuracy']:.3f}")


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_8_determinism_and_persistence(pretrained_backbone, desk_vit5, tmp_path):
    backbone, backbone_path = pretrained_backbone
    base = RunConfig(
        vit=desk_vit5,
        prompt=PromptConfig(tokens=8, instance_tokens=4, retained_dims=24),
        train=TrainConfig(epochs=3, warmup_epochs=1, batch_size=32, seed=2),
        dataset=SyntheticDatasetSpec(variant="instance_shift", classes=5,
                                     train_samples=240, noise=0.1, seed=0),
    )
    runs = []
    for tag in ("a", "b"):
        cfg = replace(base, out_dir=str(tmp_path / tag))
        cmd_train(cfg, backbone_path)
        runs.append(tmp_path / tag)
    identical = all((runs[0] / f).read_bytes() == (runs[1] / f).read_bytes()
                    for f in ("final.ckpt", "best.ckpt", "metrics.jsonl"))

    state = load_checkpoint(runs[0] / "final.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(state, resaved)
    round_trip = resaved.read_bytes() == (runs[0] / "final.ckpt").read_bytes()

    corrupt = tmp_path / "corrupt.ckpt"
    blob = bytearray((runs[0] / "final.ckpt").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    corrupt.write_bytes(bytes(blob))
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(bytes(blob[: len(blob) // 3]))
    rejected = 0
    for bad in (corrupt, trunc):
        try:
            load_archive(bad)
        except FormatError:
            rejected += 1
    report("criterion 8: determinism and persistence",
           identical and round_trip and rejected == 2,
           f"byte-identical reruns={identical}; save/load round trip={round_trip}; "
           f"corrupt archives rejected {rejected}/2")


# ---------------------------------------------------------------------------
# criterion 9: sweep integrity (+ pre-registered dominance example)
# ---------------------------------------------------------------------------

def test_criterion_9_sweep_integrity(pretrained_backbone, data600, desk_vit5, tmp_path):
    backbone, backbone_path = pretrained_backbone
    d = desk_vit5.embed_dim
    cfg = RunConfig(
        vit=desk_vit5,
        prompt=PromptConfig(tokens=8, instance_tokens=4, retained_dims=24),
        train=TrainConfig(seed=1, **C9_TRAIN),
        dataset=SyntheticDatasetSpec(variant="instance_shift", classes=5,
                                     train_samples=600, noise=0.1, seed=0),
        out_dir=str(tmp_path / "sweep"),
    )
    m_list = [0, d // 4, d // 2, 3 * d // 4, d]
    rows, per_seed = cmd_sweep_m(cfg, backbone_path, m_list, with_and_without_instance=True,
                                 seeds=SEEDS, data=data600)
    by_cell = {(r["m"], r["lambda"]): r for r in rows}

    # standalone baselines, same seeds, launched through the normal train path
    def standalone(mode):
        accs, model = [], None
        for seed in SEEDS:
            pcfg = PromptConfig(tokens=8, mode=mode)
            res = train(TrainConfig(seed=seed, **C9_TRAIN), pcfg, data600,
                        _clone_backbone(backbone, desk_vit5), desk_vit5)
            accs.append(res.best["accuracy"])
            model = model or res.final.model
        return accs, actual_trainable_count(model)

    deep_accs, deep_params = standalone("vpt_deep")
    sh_accs, sh_params = standalone("vpt_shallow")
    deep_cell = by_cell[(0, 0)]
    sh_cell = by_cell[(d, 0)]
    endpoints_ok = (
        deep_cell["accuracy_mean"] == float(np.mean(deep_accs))
        and deep_cell["accuracy_std"] == float(np.std(deep_accs))
        and deep_cell["trainable_params"] == deep_params
        and per_seed[(0, 0)] == deep_accs
        and sh_cell["accuracy_mean"] == float(np.mean(sh_accs))
        and sh_cell["accuracy_std"] == float(np.std(sh_accs))
        and sh_cell["trainable_params"] == sh_params
        and per_seed[(d, 0)] == sh_accs
    )

    parsed = read_sweep_csv(Path(cfg.out_dir) / "sweep_m.csv")
    csv_ok = parsed == rows

    # interior maximum: recorded and reported, not asserted
    lam4 = {m: by_cell[(m, 4)]["accuracy_mean"] for m in m_list}
    best_m = max(lam4, key=lam4.get)
    interior = 0 < best_m < d
    print(f"[INFO] criterion 9: lam=4 accuracy peaks at m={best_m} "
          f"({'interior' if interior else 'endpoint'}); curve: "
          + ", ".join(f"m={m}:{lam4[m]:.3f}" for m in m_list))

    report("criterion 9: sweep integrity", endpoints_ok and csv_ok,
           f"endpoint cells equal standalone baselines={endpoints_ok}; csv schema ok={csv_ok}")

    # pre-registered dominance example over the same sweep cells
    wins_ok = True
    detail = []
    for m in m_list:
        wins = sum(a >= b for a, b in zip(per_seed[(m, 4)], per_seed[(m, 0)]))
        detail.append(f"m={m}:{wins}/5")
        wins_ok = wins_ok and wins >= SWEEP_WINS_REQUIRED
    report("sweep example: instance dominance per m", wins_ok, ", ".join(detail))
