import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import embedlab
from embedlab.guidance import GuidanceConfig, GuidanceError
from embedlab.harness.cli import cli_dispatch, write_csv, write_json
from embedlab.harness.config import (
    ConfigError,
    DateConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from embedlab.harness.metrics import (
    MetricsError,
    compute_metrics,
    config_hash,
    gaussian_frechet,
    paired_ttest,
)
from embedlab.harness.run import build_objects, run_experiment, run_variants
from embedlab.models import default_task
from embedlab.update import UpdateError


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

    @pytest.mark.parametrize("raw, path", [
        ({"schedule": {"T": None}}, "schedule.T"),
        ({"date": {"update_steps": 5}}, "date.update_steps"),
        ({"date": {"update_steps": [3, "x"]}}, "date.update_steps"),
        ({"h": {"kind": "composite", "weights": [1]}}, "h.weights"),
        ({"h": {"kind": "composite", "weights": [{"kind": "cosine"}]}}, "h.weights"),
        ({"seed": [1]}, "seed"),
        ({"n_samples": "x"}, "n_samples"),
        ({"guidance": {"w": {}}}, "guidance.w"),
        ({"model": {"kind": "learned", "checkpoint": 3}}, "model.checkpoint"),
        # numbers are JSON numbers: bools and numeric strings are refused
        ({"guidance": {"w": True}}, "guidance.w"),
        ({"n_samples": "3"}, "n_samples"),
        ({"date": {"rho": "0.5"}}, "date.rho"),
    ])
    def test_wrong_type_names_the_key(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{path}: "):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, path", [
        ({"n_samples": 2.5}, "n_samples"),
        ({"schedule": {"T": 10.9}}, "schedule.T"),
        ({"seed": True}, "seed"),
        ({"date": {"iters_per_update": False}}, "date.iters_per_update"),
        ({"date": {"update_steps": [2, 3.5]}}, "date.update_steps"),
    ])
    def test_int_fields_refuse_fractions_and_bools(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{path}: expected "):
            config_from_dict(raw)

    def test_integral_float_is_an_int(self):
        cfg = config_from_dict({"n_samples": 3.0, "schedule": {"T": 10.0}})
        assert (cfg.n_samples, cfg.schedule.T) == (3, 10)
        assert isinstance(cfg.n_samples, int)

    @pytest.mark.parametrize("raw, path", [
        ({"seed": -1}, "seed"),
        ({"model": {"task_seed": -2}}, "model.task_seed"),
        ({"h": {"seed": -1}}, "h.seed"),
        ({"h": {"feature_dim": 0}}, "h.feature_dim"),
    ])
    def test_seeds_and_feature_dim_out_of_range(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{path}: must be >= "):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, path", [
        ({"date": {"l2_weight": v}}, "date.l2_weight") for v in (np.nan, np.inf, -np.inf)
    ] + [
        ({"guidance": {"kind": "ablation", "ablation_kind": "random", "rho": v}}, "guidance.rho")
        for v in (np.nan, np.inf, -np.inf)
    ] + [
        ({"h": {"kind": "composite", "weights": [{"kind": "cosine", "weight": 1.0},
                                                 {"kind": "quadratic", "weight": v}]}},
         r"h.weights\[1\].weight") for v in (np.nan, np.inf, -np.inf)
    ])
    def test_non_finite_numbers_name_the_key(self, raw, path):
        with pytest.raises(ConfigError, match=f"^{path}: expected finite float"):
            config_from_dict(raw)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, -0.0])
    def test_guidance_rho_must_be_positive(self, rho):
        with pytest.raises(ConfigError, match="^guidance.rho: must be finite and positive"):
            config_from_dict({"guidance": {"kind": "ablation", "ablation_kind": "random",
                                           "rho": rho}})

    def test_settings_refuse_non_finite_values_outside_configs(self):
        with pytest.raises(UpdateError, match="^l2_weight: "):
            DateConfig(l2_weight=float("nan"))
        for rho in (-1.0, float("nan"), float("inf")):
            with pytest.raises(GuidanceError, match="^rho: "):
                GuidanceConfig(kind="ablation", ablation_kind="random", rho=rho)

    def test_json_nan_and_infinity_literals_refused(self, tmp_path):
        """json.load reads NaN and Infinity; the loader refuses them by key."""
        path = tmp_path / "c.json"
        path.write_text('{"date": {"l2_weight": NaN}}')
        with pytest.raises(ConfigError, match="^date.l2_weight: expected finite float"):
            load_config(path)
        path.write_text('{"guidance": {"w": -Infinity}}')
        with pytest.raises(ConfigError, match="^guidance.w: expected finite float"):
            load_config(path)

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

    @pytest.mark.parametrize("raw, digest", [
        ({}, "622d1507b8d0"),
        ({"seed": 3,
          "schedule": {"T": 40, "kind": "constant", "beta_lo": 0.002, "beta_hi": 0.05},
          "model": {"kind": "learned", "task_seed": 5, "checkpoint": "net.json"},
          "prompt": 2, "sampler": "ddim", "guidance": {"kind": "none", "w": 1.5},
          "date": {"rho": 0.7, "fraction": 0.3, "placement": "late",
                   "update_steps": [30, 4, 17], "origin": "previous", "l2_weight": 0.05,
                   "iters_per_update": 3},
          "h": {"kind": "composite", "seed": 4, "feature_dim": 6, "sign": 1.0,
                "weights": [{"kind": "cosine", "weight": 0.75},
                            {"kind": "quadratic", "weight": -0.25}]},
          "n_samples": 5, "out_dir": "elsewhere"}, "033f11786aef"),
        ({"date": None, "guidance": {"kind": "cg", "w": 3.0}}, "2424b9cec660"),
        ({"date": {"placement": "mid", "fraction": 0.25},
          "guidance": {"kind": "ablation", "ablation_kind": "unnormalized", "rho": 0.3}},
         "57e7e0650ded"),
    ], ids=["default", "every_field_set", "date_null", "ablation_rho"])
    def test_config_hash_pinned(self, raw, digest, tmp_path, monkeypatch):
        """The serialized config, and so every report's config_hash, keeps
        its bytes: the default and configs with every section set."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.json").write_text("{}")
        assert config_hash(config_to_dict(config_from_dict(raw))) == digest

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

    def test_only_compare_loads_scipy(self, tmp_path):
        """Importing scipy.special would more than double every command's
        start-up; paired_ttest imports it on its first call, and only compare
        runs a t-test.  The commands run one after another in one fresh
        interpreter."""
        (tmp_path / "c.json").write_text(json.dumps({"n_samples": 2, "schedule": {"T": 5}}))
        code = """if True:
            import json, sys
            from embedlab.harness.cli import cli_dispatch

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            loaded = {"import": scipy_modules()}
            for argv in (["sample", "--config", "c.json"],
                         ["sweep", "--config", "c.json", "--param", "rho", "--values", "0.1,2"],
                         ["verify", "--check", "tweedie_exact_k1"],
                         ["train", "--config", "c.json", "--steps", "1", "--batch", "4"],
                         ["compare", "--config", "c.json"]):
                assert cli_dispatch(argv + ["--out", argv[0]]) == 0, argv
                loaded[argv[0]] = scipy_modules()
            print(json.dumps(loaded))
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(embedlab.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                             capture_output=True, text=True)
        loaded = json.loads(out.stdout.splitlines()[-1])
        compare = loaded.pop("compare")
        assert loaded == {name: [] for name in ("import", "sample", "sweep", "verify", "train")}
        assert "scipy.special" in compare


_T = 30   # small_cfg's steps; step t of a run sits at index _T - t


@pytest.fixture(scope="module")
def small_cfg():
    return config_from_dict({"n_samples": 6, "schedule": {"T": _T}, "seed": 5})


class TestRunExperiment:
    def test_fixed_embedding_constant_trace(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, date=None)
        run, report = run_experiment(cfg)
        task, sched, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        assert run.c_t.shape == (6, sched.T, c_org.size)
        np.testing.assert_array_equal(run.c_t, np.broadcast_to(c_org, run.c_t.shape))
        assert report.n_samples == 6
        assert len(report.h_trace) == sched.T

    def test_determinism_bit_identical(self, small_cfg):
        run_a, rep_a = run_experiment(small_cfg)
        run_b, rep_b = run_experiment(small_cfg)
        assert rep_a.mean_h == rep_b.mean_h
        assert rep_a.frechet == rep_b.frechet
        np.testing.assert_array_equal(run_a.final_x0, run_b.final_x0)
        np.testing.assert_array_equal(run_a.x_t, run_b.x_t)
        np.testing.assert_array_equal(run_a.c_t, run_b.c_t)

    def test_update_steps_change_embedding_only_there(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg, date=DateConfig(rho=0.5, update_steps=(10, 20)))
        run, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        dist = np.linalg.norm(run.c_t - c_org, axis=-1)
        for t in (10, 20):
            np.testing.assert_allclose(dist[:, _T - t], 0.5, rtol=1e-9)
        # between updates the embedding persists
        c_t = run.c_t[0]
        np.testing.assert_array_equal(c_t[_T - 15], c_t[_T - 20])
        np.testing.assert_array_equal(c_t[_T - 5], c_t[_T - 10])

    def test_fresh_origin_ball_invariant(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg, date=DateConfig(rho=0.4, fraction=1.0, placement="all"))
        run, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        assert np.all(np.linalg.norm(run.c_t - c_org, axis=-1) <= 0.4 * (1 + 1e-9))

    def test_previous_origin_k_rho_invariant(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg,
            date=DateConfig(rho=0.4, fraction=1.0, placement="all", origin="previous"))
        run, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_org = task.embedding(cfg.prompt)
        k = np.arange(1, _T + 1)          # updates made up to each step
        assert np.all(np.linalg.norm(run.c_t - c_org, axis=-1) <= 0.4 * k * (1 + 1e-9))

    def test_previous_origin_steps_from_last_update(self, small_cfg):
        """Each update starts from the embedding the last one left (the
        encoder output before the first), so without the pull toward the
        encoder every update moves exactly rho from the step before."""
        cfg = dataclasses.replace(
            small_cfg, date=DateConfig(rho=0.4, update_steps=(10, 20, 30), origin="previous",
                                       l2_weight=0.0))
        run, _ = run_experiment(cfg)
        task, _, _, _, _ = build_objects(cfg)
        c_enc = np.broadcast_to(task.embedding(cfg.prompt), run.c_t[:, :1].shape)
        before = np.concatenate([c_enc, run.c_t[:, :-1]], axis=1)
        moved = np.linalg.norm(run.c_t - before, axis=-1)
        np.testing.assert_allclose(moved[:, [_T - 30, _T - 20, _T - 10]], 0.4, rtol=1e-9)

    def test_paired_streams_isolate_method(self, small_cfg):
        """Fixed and adaptive runs at one seed share every noise draw, so
        their trajectories coincide until the first update step."""
        fixed = dataclasses.replace(small_cfg, date=None)
        dated = dataclasses.replace(small_cfg,
                                    date=DateConfig(rho=0.5, update_steps=(15,)))
        rf, _ = run_experiment(fixed)
        rd, _ = run_experiment(dated)
        # steps t = 30 .. 16
        np.testing.assert_array_equal(rf.x_t[:, :_T - 15], rd.x_t[:, :_T - 15])
        for a, b in zip(rf.x_t[:, _T - 14], rd.x_t[:, _T - 14]):
            assert not np.array_equal(a, b)

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
        net.params = [p * 1e200 for p in net.params]
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


class TestRunArrays:
    """compare scores a run's finals with one h.value call on the record
    array's final_x0 column, a strided view; every row must get the bits
    it gets alone."""

    @pytest.fixture(scope="class")
    def run(self):
        run, _ = run_experiment(config_from_dict(
            {"n_samples": 64, "schedule": {"T": 5}, "seed": 9, "date": None}))
        return run

    def test_rows_match_the_columns(self, run):
        assert not run.final_x0.flags.c_contiguous
        np.testing.assert_array_equal(np.stack([r.final_x0 for r in run]), run.final_x0,
                                      strict=True)
        np.testing.assert_array_equal(np.stack([r.h for r in run]), run.h, strict=True)

    @pytest.mark.parametrize("kind", ["cosine", "quadratic", "linear", "composite"])
    def test_h_value_on_a_batch_is_each_row_alone(self, run, kind):
        from embedlab.alignment import (CompositeAlignment, CosineAlignment,
                                        LinearAlignment, QuadraticAlignment)
        task = default_task()
        cos = CosineAlignment.for_task(task)
        quad = QuadraticAlignment.for_task(task)
        lin = LinearAlignment(np.random.default_rng(4).standard_normal((task.n_prompts, 2)))
        h = {"cosine": cos, "quadratic": quad, "linear": lin,
             "composite": CompositeAlignment([(cos, 0.7), (quad, 0.3), (lin, -1.2)])}[kind]
        for batch in (np.ascontiguousarray(run.final_x0), run.final_x0):
            rows = np.array([h.value(x, 1) for x in batch])
            assert h.value(batch, 1).tobytes() == rows.tobytes()


class TestComputeMetrics:
    def test_self_distance_near_zero(self, small_cfg):
        """Moment fit of direct samples from the true conditional."""
        task = default_task()
        rng = np.random.default_rng(3)
        c = task.embedding(0)
        xs = task.model.sample_x0(c, 10_000, rng)
        from embedlab.alignment import CosineAlignment
        h = CosineAlignment.for_task(task)
        report = compute_metrics(xs, np.zeros((len(xs), 1)), {"cfg": 1}, h, 0, task.model, c)
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
            compute_metrics(np.zeros((0, 2)), np.zeros((0, 1)), {},
                            CosineAlignment.for_task(task), 0, task.model, task.embedding(0))


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

    def test_verify_fail_line_goes_to_stderr(self, tmp_path, capsys, monkeypatch):
        """A caller that keeps only stderr learns which check failed and why."""
        import embedlab.harness.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_checks", lambda seed, names: {
            "good": {"passed": True, "slope": 2.0},
            "bad": {"passed": False, "slope": 2.8, "r2": 0.5}})
        assert cli_dispatch(["verify", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == ["FAIL bad slope=2.8 r2=0.5"]
        assert "PASS good slope=2" in out.splitlines()
        assert "FAIL" not in out

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

    def test_sweep_values_take_their_fields_types(self, tmp_path, monkeypatch):
        """--values strings are parsed as the swept field's type, not
        passed to the config reader, which refuses strings for numbers."""
        import embedlab.harness.cli as cli_mod
        seen = []

        def recording(cfgs):
            seen.append([cfg.date for cfg in cfgs])
            return run_variants(cfgs)

        monkeypatch.setattr(cli_mod, "run_variants", recording)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n_samples": 2, "schedule": {"T": 5}}))
        for param, values in (("rho", "0.5,1"), ("iters", "1,2")):
            out = tmp_path / f"s_{param}"
            assert cli_dispatch(["sweep", "--config", str(path), "--param", param,
                                 "--values", values, "--out", str(out)]) == 0
            assert len((out / "sweep.csv").read_text().splitlines()) == 3
        rhos, iters = seen
        assert [d.rho for d in rhos] == [0.5, 1.0]
        assert [d.iters_per_update for d in iters] == [1, 2]
        assert all(type(d.iters_per_update) is int for d in iters)

    @pytest.mark.parametrize("param, values, bad", [
        ("iters", "1,1.5", "1.5"),
        ("rho", "0.5,abc", "abc"),
        ("rho", "0.5,-1", "-1"),
        ("fraction", "0.5,2", "2"),
        ("placement", "uniform,bogus", "bogus"),
    ])
    def test_sweep_bad_value_named_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                   param, values, bad):
        def no_sampling(cfgs):
            raise AssertionError("sampled before every value was checked")

        monkeypatch.setattr("embedlab.harness.cli.run_variants", no_sampling)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n_samples": 2, "schedule": {"T": 5}}))
        out = tmp_path / "s"
        code = cli_dispatch(["sweep", "--config", str(path), "--param", param,
                             "--values", values, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--param {param}: bad value '{bad}'" in err
        assert not (out / "sweep.csv").exists()

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

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_train_nonfinite_lr_exit_1(self, tmp_path, capsys, lr):
        """A non-finite --lr is refused by name before any training step,
        and no checkpoint is written."""
        out = tmp_path / "t"
        code = cli_dispatch(["train", "--steps", "5", "--batch", "4", "--lr", lr,
                             "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: lr must be finite and > 0, got {lr}\n"
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_train_zero_steps_prints_no_loss(self, tmp_path, capsys):
        code = cli_dispatch(["train", "--steps", "0", "--out", str(tmp_path / "t")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "trained 0 steps"
        assert (tmp_path / "t" / "train_losses.csv").read_text() == "step,loss\n"

    def test_failed_report_write_keeps_previous_report(self, tmp_path):
        """An encode failing partway through a report leaves the earlier
        report as it was and no temporary file."""
        class Unprintable:
            def __str__(self):
                raise RuntimeError("boom")

        json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        write_json(json_path, {"a": 1.0})
        write_csv(csv_path, ["a", "b"], [(1.0, 2)])
        before = {p: p.read_bytes() for p in (json_path, csv_path)}
        with pytest.raises(TypeError):
            write_json(json_path, {"a": 2.0, "b": object()})
        with pytest.raises(RuntimeError, match="boom"):
            write_csv(csv_path, ["a", "b"], [(2.0, 3), (Unprintable(), 4)])
        assert {p: p.read_bytes() for p in before} == before
        assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]

    def test_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sedd": 1}')
        assert cli_dispatch(["sample", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_negative_ablation_radius_exit_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"guidance": {"kind": "ablation",
                                                 "ablation_kind": "random", "rho": -1.0}}))
        monkeypatch.setattr("embedlab.harness.cli.run_experiment", None)   # never reached
        assert cli_dispatch(["sample", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "error: guidance.rho: must be finite and positive" in capsys.readouterr().err

    def test_parser_built_once_and_commands_looked_up_at_dispatch(self, tmp_path,
                                                                  monkeypatch):
        """cli_dispatch reuses one parser; a patched cmd_* still runs."""
        import embedlab.harness.cli as cli_mod
        assert cli_mod.build_parser() is cli_mod.build_parser()
        seen = []
        monkeypatch.setattr(cli_mod, "cmd_verify", lambda args: seen.append(args) or 5)
        assert cli_dispatch(["verify", "--seed", "3", "--out", str(tmp_path)]) == 5
        assert cli_dispatch(["verify", "--check", "tweedie_exact_k1"]) == 5
        assert [(a.seed, a.check, a.out) for a in seen] == [
            (3, None, str(tmp_path)), (0, "tweedie_exact_k1", None)]

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--samples", "0"], "n_samples: must be >= 1"),
        (["sample", "--seed", "-5"], "seed: must be >= 0"),
        (["sweep", "--seed", "-5", "--param", "rho", "--values", "0.5"], "seed: must be >= 0"),
        (["train", "--seed", "-5", "--steps", "1"], "seed: must be >= 0"),
        (["compare", "--seed", "-5"], "seed: must be >= 0"),
        (["verify", "--seed", "-5", "--check", "tweedie_exact_k1"], "seed: must be >= 0"),
    ], ids=["sample_samples", "sample_seed", "sweep_seed", "train_seed", "compare_seed",
            "verify_seed"])
    def test_bad_override_named_and_no_output_left(self, tmp_path, capsys, monkeypatch,
                                                   argv, message):
        """--seed and --samples pass the config file's checks: a bad value is
        refused by its key before anything runs, and no --out directory is made."""
        import embedlab.harness.cli as cli_mod
        for name in ("run_experiment", "run_variants", "train_dsm", "run_checks"):
            monkeypatch.setattr(cli_mod, name, None)   # never reached
        out = tmp_path / "o"
        assert cli_dispatch(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overrides_equal_the_config_file(self, tmp_path, monkeypatch):
        """--seed, --samples and --out give the reports, config_hash
        included, that the same values in the config file give."""
        monkeypatch.chdir(tmp_path)
        base = {"schedule": {"T": 10}, "date": None}
        (tmp_path / "base.json").write_text(json.dumps(base))
        (tmp_path / "full.json").write_text(json.dumps(
            dict(base, seed=3, n_samples=2, out_dir="a")))
        assert cli_dispatch(["sample", "--config", "full.json"]) == 0
        os.rename("a", "from_file")
        assert cli_dispatch(["sample", "--config", "base.json", "--seed", "3",
                             "--samples", "2", "--out", "a"]) == 0
        assert (tmp_path / "a" / "metrics.json").read_bytes() == \
            (tmp_path / "from_file" / "metrics.json").read_bytes()

    @pytest.mark.parametrize("kind", ["mixture", "scorenet"])
    def test_non_finite_checkpoint_exit_1_without_report(self, tmp_path, capsys, kind):
        """A checkpoint holding NaN is refused at load, naming the file and
        the key, whether or not the run would update embeddings."""
        from embedlab.models import ScoreNet, save_checkpoint
        path = tmp_path / "ckpt.json"
        save_checkpoint(default_task().model if kind == "mixture" else ScoreNet(2, 4, seed=0),
                        path)
        doc = json.loads(path.read_text())
        flat, name = (doc["covs"], "covs") if kind == "mixture" else (doc["weights"][0],
                                                                       "weights[0]")
        flat[0] = float("nan")
        path.write_text(json.dumps(doc))
        for date in ({"rho": 0.5, "fraction": 1.0}, None):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"n_samples": 2, "schedule": {"T": 10}, "date": date,
                                       "model": {"kind": "learned", "checkpoint": str(path)}}))
            out = tmp_path / "o"
            assert cli_dispatch(["sample", "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: {name} holds a non-finite value (nan at index 0)\n")
            assert not out.exists()
