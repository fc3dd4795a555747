"""Each correctness check of the benchmark passes on a good input and rejects
a corrupted one. Run with: python3 -m pytest perfbench"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _projection_case(seed=0, bsz=3, p=8, d=48, m=24):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((bsz, p, d)).astype(np.float32)
    mean = z.mean(axis=1, keepdims=True)
    _, s, vt = np.linalg.svd((z - mean).astype(np.float64), full_matrices=False)
    proj = np.zeros((bsz, d, m), dtype=np.float32)
    rank = p - 1  # centering removes one direction
    proj[:, :, :rank] = np.swapaxes(vt, 1, 2)[:, :, :rank]
    return z, mean, proj, m


def test_projection_accepts_the_lapack_projection():
    assert checks.check_projection(*_projection_case()) == []


def test_projection_rejects_a_perturbed_column():
    z, mean, proj, m = _projection_case()
    proj[1, :, 2] += 1e-3
    errors = checks.check_projection(z, mean, proj, m)
    assert any("not orthonormal" in e for e in errors)


def test_projection_rejects_a_suboptimal_subspace():
    z, mean, proj, m = _projection_case()
    # an orthonormal basis that misses the top direction keeps too little energy
    proj[0, :, 0] = 0.0
    errors = checks.check_projection(z, mean, proj, m)
    assert any("Eckart-Young" in e for e in errors)


def test_projection_rejects_a_wrong_mean():
    z, mean, proj, m = _projection_case()
    errors = checks.check_projection(z, mean + 1e-3, proj, m)
    assert any("token mean" in e for e in errors)


def test_probabilities_reject_a_row_off_by_1e3():
    probs = np.full((5, 4), 0.25, dtype=np.float32)
    assert checks.check_probabilities(probs) == []
    probs[3, 1] += 1e-3
    assert checks.check_probabilities(probs)


def test_probabilities_reject_a_negative_entry():
    probs = np.array([[1.1, -0.1, 0.0, 0.0]])
    assert any("negative" in e for e in checks.check_probabilities(probs))


def test_invariance_rejects_a_moved_probability():
    probs = np.random.default_rng(1).dirichlet(np.ones(4), size=6)
    assert checks.check_invariance(probs, probs.copy(), "same") == []
    other = probs.copy()
    other[2] = other[2][::-1]
    assert checks.check_invariance(probs, other, "moved")


def test_frozen_rejects_a_flipped_byte():
    rng = np.random.default_rng(2)
    tensors = {"layer0.wq": rng.standard_normal((4, 4)).astype(np.float32),
               "patch.b": np.zeros(4, dtype=np.float32)}
    before = {n: checks.fingerprint(a) for n, a in tensors.items()}
    assert checks.check_frozen(before, tensors, "model") == []
    flipped = tensors["layer0.wq"].copy()
    flipped.reshape(-1).view(np.uint8)[5] ^= 0x01
    errors = checks.check_frozen(before, dict(tensors, **{"layer0.wq": flipped}), "model")
    assert errors == ["model: frozen tensor 'layer0.wq' changed"]
    assert checks.check_frozen(before, {"patch.b": tensors["patch.b"]}, "model")


def test_param_count_closed_form_and_off_by_one():
    # d=48, 4 layers, p=8, lambda=4, m=24, 4 classes
    expected = checks.viapt_trainable_count(48, 4, 8, 4, 24, 4)
    assert expected == 18_964
    assert checks.check_param_count(expected, expected) == []
    assert checks.check_param_count(expected + 1, expected)
    assert checks.check_param_count(expected - 1, expected)


def test_param_count_matches_the_package():
    from viapt.backbone import ViTConfig, init_backbone
    from viapt.numerics import RngState
    from viapt.prompt_engine import PromptConfig
    from viapt.training import actual_trainable_count, build_model

    vit = ViTConfig(classes=4)
    backbone = init_backbone(vit, RngState(0))
    backbone.freeze()
    backbone.head_w.trainable = backbone.head_b.trainable = True
    model = build_model(vit, PromptConfig(tokens=8, instance_tokens=4, retained_dims=24),
                        RngState(1), backbone)
    assert actual_trainable_count(model) == checks.viapt_trainable_count(48, 4, 8, 4, 24, 4)


def test_training_curve_and_uniform_bound():
    assert checks.check_training_curve([1.5, 1.2]) == []
    assert checks.check_training_curve([1.2, 1.2])
    assert checks.check_below_uniform(1.1, 4, "x") == []
    assert checks.check_below_uniform(math.log(4), 4, "x")
    assert checks.check_below_uniform(float("nan"), 4, "x")


def test_bitwise_rejects_one_ulp():
    a = {"w": np.linspace(0, 1, 7, dtype=np.float32)}
    assert checks.check_bitwise(a, {"w": a["w"].copy()}, "ckpt") == []
    b = a["w"].copy()
    b[3] = np.nextafter(b[3], np.float32(2))
    assert checks.check_bitwise(a, {"w": b}, "ckpt")
    assert checks.check_bitwise(a, {"w": a["w"].astype(np.float64)}, "ckpt")


def test_archive_reader_agrees_with_the_package(tmp_path):
    from viapt.training import save_archive

    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
               "b": np.array([0.5, -1.0], dtype=np.float64)}
    save_archive(tmp_path / "x.ckpt", tensors, {"kind": "test"})
    blob = (tmp_path / "x.ckpt").read_bytes()
    got, meta = checks.read_archive(blob)
    assert meta == {"kind": "test"}
    assert checks.check_bitwise(tensors, got, "archive") == []
    corrupt = bytearray(blob)
    corrupt[-10] ^= 0xFF
    with pytest.raises(ValueError):
        checks.read_archive(bytes(corrupt))


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_self_time_subtracts_children_and_untimed_work():
    clock = _Clock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    def counter(tracer, args, kwargs):
        clock.t += 5.0  # bookkeeping, charged to no span
        tracer.count("outer.items", 3)

    wrapped_leaf = tr.wrap("leaf", leaf)

    def outer():
        clock.t += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.t += 0.5

    wrapped_outer = tr.wrap("outer", outer, counter)
    wrapped_outer()            # not recorded: no phase
    tr.phase = "op"
    wrapped_outer()
    times = tr.self_times("op")
    assert times["outer"] == (1.5, 1)
    assert times["leaf"] == (4.0, 2)
    assert tr.durations("op") == {"outer": 5.5}
    assert tr.counts[("op", "outer.items")] == 3


def test_tracer_marks_missing_targets_absent_and_restores():
    import checks as target_module

    tr = Tracer()
    original = target_module.fingerprint
    tr.install([("checks.fingerprint", [("checks", "fingerprint")], None),
                ("gone.function", [("checks", "no_such_function"),
                                   ("no_such_module_xyz", "f")], None)])
    assert tr.absent == ["gone.function"]
    assert target_module.fingerprint is not original
    tr.phase = "op"
    target_module.fingerprint(np.zeros(2))
    tr.uninstall()
    assert target_module.fingerprint is original
    assert tr.self_times("op")["checks.fingerprint"][1] == 1


def test_tracer_merge_keeps_parent_links():
    clock = _Clock()
    child = Tracer(clock=clock)
    child.phase = "setup"
    inner = child.wrap("inner", lambda: None)
    child.wrap("outer", lambda: inner())()
    parent = Tracer()
    parent.spans.append(["x", 0.0, 1.0, -1, "op", 1.0])
    parent.merge_json(child.to_json())
    assert [s[0] for s in parent.spans] == ["x", "outer", "inner"]
    assert parent.spans[2][3] == 1
