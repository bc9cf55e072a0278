import dataclasses
import json

import numpy as np
import pytest

from embedlab.harness.cli import cli_dispatch
from embedlab.harness.config import (
    ConfigError,
    DateSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from embedlab.harness.metrics import (
    MetricsError,
    compute_metrics,
    gaussian_frechet,
    paired_ttest,
)
from embedlab.harness.run import build_objects, run_experiment
from embedlab.models import default_task


class TestConfig:
    def test_minimal_gets_documented_defaults(self):
        cfg = config_from_dict({})
        assert cfg.date.rho == 0.5
        assert cfg.schedule.T == 100
        assert cfg.sampler == "ddpm"
        assert cfg.guidance.kind == "none"
        assert cfg.h.kind == "cosine"

    def test_duplicate_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1, "seed": 2}')
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            load_config(path)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="config: unknown keys.*sedd"):
            config_from_dict({"sedd": 3})
        with pytest.raises(ConfigError, match="schedule: unknown keys"):
            config_from_dict({"schedule": {"Tee": 10}})
        with pytest.raises(ConfigError, match="date: unknown keys"):
            config_from_dict({"date": {"rho": 0.5, "radius": 1.0}})

    def test_range_violations_name_the_key(self):
        with pytest.raises(ConfigError, match="schedule.T"):
            config_from_dict({"schedule": {"T": 0}})
        with pytest.raises(ConfigError, match="date.rho"):
            config_from_dict({"date": {"rho": -1.0}})
        with pytest.raises(ConfigError, match="n_samples"):
            config_from_dict({"n_samples": 0})
        with pytest.raises(ConfigError, match="date.update_steps"):
            config_from_dict({"schedule": {"T": 10}, "date": {"update_steps": [11]}})

    def test_learned_model_requires_existing_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="model.checkpoint"):
            config_from_dict({"model": {"kind": "learned"}})
        with pytest.raises(ConfigError, match="file not found"):
            config_from_dict({"model": {"kind": "learned",
                                        "checkpoint": str(tmp_path / "nope.json")}})

    def test_round_trip_identity(self, tmp_path):
        raw = {
            "seed": 3,
            "schedule": {"T": 40, "kind": "linear", "beta_lo": 0.002, "beta_hi": 0.1},
            "prompt": 2,
            "sampler": "ddim",
            "guidance": {"kind": "cfg", "w": 3.0},
            "date": {"rho": 0.7, "fraction": 0.2, "placement": "late",
                     "origin": "previous", "l2_weight": 0.05, "iters_per_update": 2},
            "h": {"kind": "quadratic", "sign": 1.0},
            "n_samples": 5,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_ablation_requires_date_section(self):
        with pytest.raises(ConfigError, match="ablations need"):
            config_from_dict({"date": None,
                              "guidance": {"kind": "ablation", "ablation_kind": "random"}})


class TestFrechet:
    def test_identical_gaussians_zero(self):
        mu = np.array([0.3, -0.2])
        S = np.array([[0.5, 0.1], [0.1, 0.4]])
        assert gaussian_frechet(mu, S, mu, S) == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_closed_form(self):
        assert gaussian_frechet([0.0], [[1.0]], [1.0], [[1.0]]) == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        S1, S2 = A @ A.T + 0.1 * np.eye(2), B @ B.T + 0.1 * np.eye(2)
        mu1, mu2 = rng.standard_normal(2), rng.standard_normal(2)
        d1 = gaussian_frechet(mu1, S1, mu2, S2)
        d2 = gaussian_frechet(mu2, S2, mu1, S1)
        assert d1 == pytest.approx(d2, abs=1e-10)

    def test_non_psd_rejected(self):
        with pytest.raises(MetricsError):
            gaussian_frechet([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]],
                             [0.0, 0.0], np.eye(2))

    def test_closed_form_against_separable_case(self):
        """Diagonal covariances: distance = sum of 1-D distances."""
        d = gaussian_frechet([0.0, 0.0], np.diag([1.0, 4.0]),
                             [1.0, -2.0], np.diag([9.0, 1.0]))
        expected = (1.0 + (1 - 3) ** 2) + (4.0 + (2 - 1) ** 2)
        assert d == pytest.approx(expected, rel=1e-12)


class TestPairedTtest:
    def test_detects_consistent_shift(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(100)
        a = b + 0.5 + 0.01 * rng.standard_normal(100)
        out = paired_ttest(a, b)
        assert out["p_greater"] < 1e-10

    def test_null_is_uniformish(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(200)
        a = b + 0.001 * rng.standard_normal(200)
        out = paired_ttest(a, b)
        assert out["p_two_sided"] > 0.01


@pytest.fixture(scope="module")
def small_cfg():
    return config_from_dict({"n_samples": 6, "schedule": {"T": 30}, "seed": 5})


class TestRunExperiment:
    def test_fixed_embedding_constant_trace(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, date=None)
        records, report = run_experiment(cfg)
        task, sched, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        for rec in records:
            assert len(rec.steps) == sched.T
            for step in rec.steps:
                np.testing.assert_array_equal(step.c_t, c_org)
        assert report.n_samples == 6
        assert len(report.h_trace) == sched.T

    def test_determinism_bit_identical(self, small_cfg):
        rec_a, rep_a = run_experiment(small_cfg)
        rec_b, rep_b = run_experiment(small_cfg)
        assert rep_a.mean_h == rep_b.mean_h
        assert rep_a.frechet == rep_b.frechet
        for a, b in zip(rec_a, rec_b):
            np.testing.assert_array_equal(a.final_x0, b.final_x0)
            for sa, sb in zip(a.steps, b.steps):
                np.testing.assert_array_equal(sa.x_t, sb.x_t)
                np.testing.assert_array_equal(sa.c_t, sb.c_t)

    def test_update_steps_change_embedding_only_there(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg, date=DateSpec(rho=0.5, update_steps=(10, 20)))
        records, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        for rec in records:
            for step in rec.steps:
                if step.t in (10, 20):
                    assert np.linalg.norm(step.c_t - c_org) == pytest.approx(0.5, rel=1e-9)
        # between updates the embedding persists
        rec = records[0]
        by_t = {s.t: s.c_t for s in rec.steps}
        np.testing.assert_array_equal(by_t[15], by_t[20])
        np.testing.assert_array_equal(by_t[5], by_t[10])

    def test_fresh_origin_ball_invariant(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg, date=DateSpec(rho=0.4, fraction=1.0, placement="all"))
        records, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        for rec in records:
            for step in rec.steps:
                assert np.linalg.norm(step.c_t - c_org) <= 0.4 * (1 + 1e-9)

    def test_previous_origin_k_rho_invariant(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg,
            date=DateSpec(rho=0.4, fraction=1.0, placement="all", origin="previous"))
        records, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        for rec in records:
            for k, step in enumerate(rec.steps, start=1):
                assert np.linalg.norm(step.c_t - c_org) <= 0.4 * k * (1 + 1e-9)

    def test_paired_streams_isolate_method(self, small_cfg):
        """Fixed and adaptive runs at one seed share every noise draw, so
        their trajectories coincide until the first update step."""
        fixed = dataclasses.replace(small_cfg, date=None)
        dated = dataclasses.replace(small_cfg,
                                    date=DateSpec(rho=0.5, update_steps=(15,)))
        rf, _ = run_experiment(fixed)
        rd, _ = run_experiment(dated)
        for a, b in zip(rf, rd):
            ta = {s.t: s.x_t for s in a.steps}
            tb = {s.t: s.x_t for s in b.steps}
            for t in range(30, 15, -1):
                np.testing.assert_array_equal(ta[t], tb[t])
            assert not np.array_equal(ta[14], tb[14])

    def test_samplers_run(self, small_cfg):
        for sampler in ("ddpm", "alg1", "ddim"):
            cfg = dataclasses.replace(small_cfg, sampler=sampler, n_samples=2)
            records, _ = run_experiment(cfg)
            assert np.all(np.isfinite(records[0].final_x0))

    def test_guidance_kinds_run(self, small_cfg):
        from embedlab.guidance import GuidanceConfig
        for kind in ("cfg", "cg", "ug"):
            cfg = dataclasses.replace(small_cfg, n_samples=2, date=None,
                                      guidance=GuidanceConfig(kind=kind, w=2.0))
            records, _ = run_experiment(cfg)
            assert np.all(np.isfinite(records[0].final_x0))

    def test_learned_model_runs(self, small_cfg, tmp_path):
        from embedlab.models import ScoreNet, save_checkpoint
        net = ScoreNet(2, 4, seed=0)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        cfg = config_from_dict({"n_samples": 2, "schedule": {"T": 20},
                                "model": {"kind": "learned", "checkpoint": str(path)},
                                "date": {"rho": 0.5, "fraction": 0.2}})
        records, report = run_experiment(cfg)
        assert np.all(np.isfinite(records[0].final_x0))

    def test_composite_h_config_runs(self):
        cfg = config_from_dict({
            "n_samples": 2, "schedule": {"T": 15},
            "h": {"kind": "composite",
                  "weights": [{"kind": "cosine", "weight": 0.7},
                              {"kind": "quadratic", "weight": 0.3}]},
        })
        records, report = run_experiment(cfg)
        assert np.isfinite(report.mean_h)

    def test_nonfinite_state_aborts_with_diagnostics(self, tmp_path):
        """A score model that explodes the state names the trajectory and
        step in the abort."""
        from embedlab.harness.run import TrajectoryAborted
        from embedlab.models import ScoreNet, save_checkpoint
        net = ScoreNet(2, 4, seed=0)
        for p in net.params:
            p.value = p.value * 1e200
        path = tmp_path / "boom.json"
        save_checkpoint(net, path)
        cfg = config_from_dict({"n_samples": 1, "schedule": {"T": 20},
                                "model": {"kind": "learned", "checkpoint": str(path)},
                                "date": None})
        with pytest.raises(TrajectoryAborted) as exc:
            with np.errstate(over="ignore", invalid="ignore"):
                run_experiment(cfg)
        assert exc.value.trajectory == 0
        assert 1 <= exc.value.t <= 20


class TestComputeMetrics:
    def test_self_distance_near_zero(self, small_cfg):
        """Moment fit of direct samples from the true conditional."""

        class FakeRecord:
            def __init__(self, x):
                self.final_x0 = x
                self.steps = [dataclasses.replace_me] if False else []

        task = default_task()
        rng = np.random.default_rng(3)
        c = task.embedding(0)
        xs = task.model.sample_x0(c, 10_000, rng)

        @dataclasses.dataclass
        class Rec:
            final_x0: np.ndarray
            steps: tuple

        from embedlab.harness.run import StepRecord
        recs = [Rec(final_x0=x, steps=(StepRecord(1, x, c, x, 0.0),)) for x in xs]
        from embedlab.alignment import CosineAlignment
        h = CosineAlignment.for_task(task)
        report = compute_metrics(recs, {"cfg": 1}, h, 0, task.model, c)
        assert report.frechet < 0.01

    def test_single_record_se_absent(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, n_samples=1)
        _, report = run_experiment(cfg)
        assert report.se_h is None
        assert report.n_samples == 1

    def test_empty_records_rejected(self):
        task = default_task()
        from embedlab.alignment import CosineAlignment
        with pytest.raises(MetricsError):
            compute_metrics([], {}, CosineAlignment.for_task(task), 0,
                            task.model, task.embedding(0))


class TestCli:
    def test_no_args_usage_exit_2(self, capsys):
        assert cli_dispatch([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_sample_writes_outputs(self, tmp_path, capsys):
        cfg = {"n_samples": 2, "schedule": {"T": 10}, "date": None}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code = cli_dispatch(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "records.jsonl").exists()
        assert (tmp_path / "o" / "metrics.json").exists()
        lines = (tmp_path / "o" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert len(rec["steps"]) == 10
        metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert set(metrics) == {"mean_h", "se_h", "h_trace", "frechet",
                                "n_samples", "config_hash"}

    def test_verify_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = cli_dispatch(["verify", "--seed", "7",
                                 "--check", "taylor_order_quadratic_k1",
                                 "--out", str(out)])
            assert code == 0
        assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()

    def test_sweep_csv_shape(self, tmp_path):
        cfg = {"n_samples": 3, "schedule": {"T": 10}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code = cli_dispatch(["sweep", "--config", str(path), "--param", "rho",
                             "--values", "0.1,0.25,0.5,1,2,4",
                             "--out", str(tmp_path / "s")])
        assert code == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "rho,mean_h,se_h,frechet"
        assert len(lines) == 7
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_sweep_fraction_and_iters_params(self, tmp_path):
        cfg = {"n_samples": 2, "schedule": {"T": 10}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        for param, values in (("fraction", "0.0,0.5"), ("iters", "1,2"),
                              ("placement", "early,late")):
            out = tmp_path / f"s_{param}"
            code = cli_dispatch(["sweep", "--config", str(path), "--param", param,
                                 "--values", values, "--out", str(out)])
            assert code == 0
            lines = (out / "sweep.csv").read_text().splitlines()
            assert lines[0].startswith(param + ",")
            assert len(lines) == 3

    def test_compare_byte_identical_across_runs(self, tmp_path):
        cfg = {"n_samples": 3, "schedule": {"T": 10}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli_dispatch(["compare", "--config", str(path), "--seed", "7",
                                 "--out", str(out)])
            assert code == 0
            outs.append((out / "compare.csv").read_bytes())
            assert (out / "compare_paired.csv").exists()
        assert outs[0] == outs[1]

    def test_train_writes_checkpoint(self, tmp_path):
        cfg = {"schedule": {"T": 10}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code = cli_dispatch(["train", "--config", str(path), "--steps", "20",
                             "--batch", "8", "--lr", "1e-3",
                             "--out", str(tmp_path / "t")])
        assert code == 0
        ckpt = tmp_path / "t" / "checkpoint.json"
        assert ckpt.exists()
        from embedlab.models import load_checkpoint
        net = load_checkpoint(ckpt)
        assert net.data_dim == 2

    @pytest.mark.filterwarnings("error")
    def test_train_zero_steps_prints_no_loss(self, tmp_path, capsys):
        code = cli_dispatch(["train", "--steps", "0", "--out", str(tmp_path / "t")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "trained 0 steps"
        assert (tmp_path / "t" / "train_losses.csv").read_text() == "step,loss\n"

    def test_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sedd": 1}')
        assert cli_dispatch(["sample", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err
