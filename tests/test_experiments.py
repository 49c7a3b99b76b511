"""Config parsing, experiment runners, artifact formats, CLI exit codes."""

import configparser
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from leobeam import accel, beamform, cli, experiments, gnn, svgplot, train
from leobeam.experiments import (ALL_SCHEMES, GLOBAL_SCHEMES, ConfigError,
                                 MissingArtifactError, budget_for_policy,
                                 canonical_scheme, compute_beams,
                                 db_to_linear, load_config, resolve_out_dir)

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
CLASSICAL = ("mrt_local", "zf_local", "mmse_local", "zf_global",
             "mmse_global")

MICRO_INI = """\
[system]
k_sats = 1
m_users = 2
n_antennas = 2

[gnn]
scale_factor = 32

[train]
epochs = 2
batch_size = 10
samples_per_epoch = 20
test_size = 10
early_stop = false

[run]
seed = 3
eval_size = 6
quant_size = 4
schemes = mrt_local,zf_local,mmse_local
"""


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    """Tiny trained setup shared by the runner tests."""
    root = tmp_path_factory.mktemp("micro")
    cfg_path = root / "micro.ini"
    cfg_path.write_text(MICRO_INI)
    config = load_config(str(cfg_path))
    out = root / "out"
    out.mkdir()
    result, ckpt_path = experiments.run_train(config, str(out))
    return {"config": config, "cfg_path": str(cfg_path), "out": str(out),
            "root": root, "result": result, "ckpt": ckpt_path}


@pytest.fixture(scope="module")
def micro_ckpt(micro):
    # the path alone: hypothesis prints every argument of a failing example
    return micro["ckpt"]


class TestConversions:
    def test_known_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        # dBm is the same helper 30 dB down
        assert db_to_linear(-90.0 - 30.0) == pytest.approx(1e-12, rel=1e-12)
        assert db_to_linear(30.0 - 30.0) == pytest.approx(1.0, rel=1e-15)
        assert db_to_linear(52.0) == pytest.approx(10 ** 5.2, rel=1e-15)
        assert db_to_linear(4000.0) == float("inf")


class TestConfigLoading:
    def test_pure_defaults(self):
        c = load_config(None)
        assert (c.k_sats, c.m_users, c.n_antennas) == (2, 4, 4)
        assert c.p_dbw == 0.0 and c.sigma2_dbm == -90.0
        assert c.power == 1.0
        assert c.sigma2 == pytest.approx(1e-12, rel=1e-12)
        assert c.weights == (1.0,)
        assert c.weight_tuple == (1.0, 1.0, 1.0, 1.0)
        assert c.scale_factor == 1 and c.epochs == 200
        assert c.sa_size == 16 and c.bits == 8
        assert c.seed == 0
        assert c.latency_m_list == (1, 2, 4, 8)
        assert "mmse_global" in c.schemes

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[orbital]\nshells = 3\n")
        with pytest.raises(ConfigError, match=r"\[orbital\]"):
            load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[system]\nk_satellites = 3\n")
        with pytest.raises(ConfigError, match="k_satellites"):
            load_config(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[system]\nk_sats = banana\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(str(p))

    def test_range_validation_names_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[system]\nk_sats = 0\n")
        with pytest.raises(ConfigError, match="system.k_sats must be >= 1"):
            load_config(str(p))

    @pytest.mark.parametrize("text,message", [
        ("phi_3db_deg = 100", r"phi_3db_deg = 100.0 must lie in \(0, 90\) "
         "degrees"),
        ("phi_3db_deg = 0", r"phi_3db_deg = 0.0 must lie in \(0, 90\) "),
        ("phi_deg = 95", r"phi_deg entries must lie in \[0, 90\) degrees, "
         r"got \(95.0,\)"),
        ("phi_deg = -1", r"phi_deg entries must lie in \[0, 90\) ")],
        ids=["phi-3db-100", "phi-3db-0", "phi-95", "phi-negative"])
    def test_beam_angles_name_key_in_degrees(self, tmp_path, text, message):
        p = tmp_path / "c.ini"
        p.write_text(f"[system]\n{text}\n")
        with pytest.raises(ConfigError, match=r"^\[system\] " + message):
            load_config(str(p))

    def test_weights_length_must_match_users(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[system]\nweights = 1,2,3\n")
        with pytest.raises(ConfigError, match="weights"):
            load_config(str(p))

    @pytest.mark.parametrize("sect,key,text", [
        ("system", "p_dbw", "nan"), ("system", "sigma2_dbm", "inf"),
        ("system", "bandwidth_hz", "-inf"), ("system", "weights", "1,nan"),
        ("train", "lr0", "NaN")])
    def test_non_finite_rejected(self, tmp_path, sect, key, text):
        p = tmp_path / "c.ini"
        p.write_text(f"[{sect}]\n{key} = {text}\n")
        with pytest.raises(ConfigError, match=rf"bad value for \[{sect}\] "
                           rf"{key} = '{text}': not a finite number"):
            load_config(str(p))

    @pytest.mark.parametrize("p_dbw", ["4000", "-4000", "-3235", "-3200"])
    def test_unusable_budget_names_key(self, tmp_path, p_dbw):
        # overflow, 0 W, and subnormal budgets whose MMSE regularizer
        # M*sigma2/P overflows (M = 4, sigma2 = 1e-12 W)
        p = tmp_path / "c.ini"
        p.write_text(f"[system]\np_dbw = {p_dbw}\n")
        with pytest.raises(ConfigError,
                           match=rf"^\[system\] p_dbw = {p_dbw}\.0 gives "):
            load_config(str(p))

    def test_budget_check_covers_every_policy(self):
        # M*sigma2/P is finite down to about 2.2e-320 W at M = 4; split
        # divides P by K, so the least usable budget grows with K
        sigma2 = experiments.db_to_linear(-90.0 - 30.0)
        assert experiments._check_budget(-3190.0, (1,), 4, sigma2, "k") \
            == experiments.db_to_linear(-3190.0)
        with pytest.raises(ConfigError, match="K up to 8"):
            experiments._check_budget(-3190.0, (1, 8), 4, sigma2, "k")
        with pytest.raises(ConfigError, match="K up to 3"):
            experiments._check_budget(3080.0, (3,), 4, sigma2, "k")
        experiments._check_budget(3080.0, (1,), 4, sigma2, "k")

    def test_least_usable_budget_gives_finite_rates(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(MICRO_INI.replace("k_sats = 1", "k_sats = 2\n"
                                       "p_dbw = -3190"))
        config = load_config(str(p))
        summary = experiments.run_eval(
            config, str(tmp_path), schemes=list(ALL_SCHEMES[:5]), size=3)
        assert all(np.isfinite(v).all() for v in summary.values())

    def test_bits_checked(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[accel]\nbits = 12\n")
        with pytest.raises(ConfigError, match="bits"):
            load_config(str(p))

    def test_fading_keys_map_to_fields(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[fading]\nb = 0.1\nm = 3\nomega = 0.5\n")
        c = load_config(str(p))
        assert (c.fading_b, c.fading_m, c.fading_omega) == (0.1, 3.0, 0.5)

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nseed = 1\n")
        c = load_config(str(p), overrides={("run", "seed"): "9"})
        assert c.seed == 9

    def test_config_hash_stability(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(MICRO_INI)
        assert load_config(str(p)).config_hash() \
            == load_config(str(p)).config_hash()
        other = load_config(str(p), overrides={("run", "seed"): "99"})
        assert other.config_hash() != load_config(str(p)).config_hash()
        assert re.fullmatch(r"[0-9a-f]{16}",
                            load_config(str(p)).config_hash())

    def test_config_hash_pinned(self):
        # artifacts carry this hash; it covers the flat field names
        desk = load_config(os.path.join(REPO, "configs", "desk.ini"))
        default = load_config(os.path.join(REPO, "configs", "default.ini"))
        assert desk.config_hash() == "f6d05bccf07fcf06"
        assert default.config_hash() == "f0c76b9e7b740f91"
        assert load_config(None).config_hash() == "f0c76b9e7b740f91"
        # the test cache key of the desk training
        key = hashlib.sha256(repr(desk.train_config()).encode()).hexdigest()
        assert key[:16] == "70c0dec02a37261a"

    def test_reference_file_lists_every_key(self):
        path = os.path.join(REPO, "configs", "default.ini")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        listed = [(sect, key) for sect in parser.sections()
                  for key in parser[sect]]
        assert sorted(listed) == sorted(experiments._KEYS)
        assert load_config(path) == load_config(None)

    def test_channel_params_factory(self):
        c = load_config(None)
        cp = c.channel_params()
        assert len(cp.phi) == c.m_users
        assert cp.phi[0] == pytest.approx(np.radians(0.01))
        assert cp.phi_3db == pytest.approx(np.radians(0.4))
        assert cp.b_max == pytest.approx(10 ** 5.2)
        assert cp.fading.b == 0.063

    def test_system_params_weights(self, tmp_path):
        c = load_config(None)
        assert c.system_params().weights is None  # uniform unit weights
        p = tmp_path / "c.ini"
        p.write_text("[system]\nm_users = 2\nweights = 1,2\n")
        c2 = load_config(str(p))
        assert np.array_equal(c2.system_params().weights, [1.0, 2.0])

    def test_accel_factory_zero_tiles_mean_default(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[accel]\ntile_m = 0\ntile_n = 0\n")
        cfg = load_config(str(p)).accel_config()
        assert cfg.tm == cfg.sa_size and cfg.tn == cfg.sa_size
        cfg16 = load_config(str(p)).accel_config(bits=16)
        assert cfg16.bits == 16


class TestSchemes:
    def test_aliases(self):
        assert canonical_scheme("mrt") == "mrt_local"
        assert canonical_scheme("zf") == "zf_local"
        assert canonical_scheme("mmse") == "mmse_local"
        assert canonical_scheme("gnn") == "gnn_local"
        assert canonical_scheme("zf_global") == "zf_global"

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="known:"):
            canonical_scheme("dirty_paper")

    def test_budget_policies(self):
        assert budget_for_policy("fixed", 2.0, 4) == (2.0, 8.0)
        assert budget_for_policy("split", 2.0, 4) == (0.5, 2.0)
        assert budget_for_policy("pooled", 2.0, 4) == (2.0, 2.0)
        with pytest.raises(ConfigError):
            budget_for_policy("solar", 2.0, 4)


def random_networks(k, n):
    """Untrained local (N antennas) and pooled (K*N antennas) networks."""
    return tuple(
        train.Checkpoint([gnn.init_params(
            gnn.scaled_dims(ant, 32),
            np.random.Generator(np.random.Philox(ant)))], 1.0)
        for ant in (n, k * n))


def random_stack(rng, b, k, m, n):
    return (rng.normal(size=(b, k, m, n))
            + 1j * rng.normal(size=(b, k, m, n)))


class TestComputeBeams:
    @pytest.mark.parametrize("k,m,n", [(1, 1, 2), (1, 3, 4), (2, 1, 3),
                                       (3, 2, 2), (2, 4, 4)])
    def test_stack_bytes_equal_per_sample(self, k, m, n):
        h = random_stack(np.random.default_rng(k * 100 + m * 10 + n),
                         5, k, m, n)
        local, pooled = random_networks(k, n)
        for scheme in ALL_SCHEMES:
            got = compute_beams(scheme, h, 2.0, 2.0 * k, 0.1,
                                gnn_ctx=local, gnn_ctx_global=pooled).w
            want = np.stack([compute_beams(scheme, x, 2.0, 2.0 * k, 0.1,
                                           gnn_ctx=local,
                                           gnn_ctx_global=pooled).w
                             for x in h])
            assert got.shape == h.shape, scheme
            nodes = m * (k if scheme == "gnn_local" else 1)
            if scheme.startswith("gnn") and nodes == 1:
                # one realization with one graph node runs every dense layer
                # as a one-row matmul, which numpy hands to gemv, not gemm
                assert np.max(np.abs(got - want)) \
                    <= 1e-14 * np.max(np.abs(want)), scheme
            else:
                assert got.tobytes() == want.tobytes(), scheme

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 3), extra=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1), p_dbw=st.floats(-20.0, 20.0),
           policy=st.sampled_from(("fixed", "split", "pooled")))
    def test_exact_power_budgets(self, k, m, extra, seed, p_dbw, policy):
        n = m + extra  # enough antennas for per-satellite zero forcing
        h = random_stack(np.random.default_rng(seed), 2, k, m, n)
        per_sat, total = budget_for_policy(policy, db_to_linear(p_dbw), k)
        local, pooled = random_networks(k, n)
        for scheme in ALL_SCHEMES:
            pooled_only = scheme in GLOBAL_SCHEMES
            if policy == "pooled" and not pooled_only:
                continue  # a sweep drops local schemes under this policy
            beams = compute_beams(scheme, h, per_sat, total, 0.1,
                                  gnn_ctx=local, gnn_ctx_global=pooled)
            assert beams.scope == ("total" if pooled_only
                                   else "per_satellite")
            assert beams.power_budget == (total if pooled_only else per_sat)
            power = np.sum(beams.w.real ** 2 + beams.w.imag ** 2,
                           axis=(-3, -2, -1) if pooled_only else (-2, -1))
            np.testing.assert_allclose(power, beams.power_budget,
                                       rtol=1e-12, err_msg=scheme)


def assert_budget_axis_bytes(h, per_sat, total, sigma2, schemes, **ctx):
    """One call over a budget vector gives, budget by budget, the beams and
    the rates of scalar calls, byte for byte."""
    weights = np.linspace(0.5, 1.5, h.shape[-2])
    for scheme in schemes:
        got = compute_beams(scheme, h, per_sat, total, sigma2, **ctx)
        assert got.w.shape == (len(per_sat),) + h.shape, scheme
        stacked = beamform.wsr(np.broadcast_to(h, got.w.shape), got.w,
                               sigma2, bandwidth=3.0, weights=weights)
        for i, (p, t) in enumerate(zip(per_sat, total)):
            want = compute_beams(scheme, h, float(p), float(t), sigma2,
                                 **ctx)
            one = beamform.wsr(h, want.w, sigma2, bandwidth=3.0,
                               weights=weights)
            assert got.w[i].tobytes() == want.w.tobytes(), (scheme, i)
            assert got.scope == want.scope
            assert float(got.power_budget[i]) == want.power_budget
            assert stacked.per_user_rates[i].tobytes() \
                == one.per_user_rates.tobytes(), (scheme, i)
            assert stacked.weighted_sum[i].tobytes() \
                == one.weighted_sum.tobytes(), (scheme, i)


class TestBudgetAxis:
    @pytest.mark.parametrize("policy", ["fixed", "split", "pooled"])
    def test_desk_ensemble_bytes_equal_per_budget(self, policy):
        config = load_config(os.path.join(REPO, "configs", "desk.ini"))
        h = experiments._sample_batch(config, 40, experiments._STREAM_SWEEP)
        watts = np.array([db_to_linear(v) for v in (-10, -5, 0, 5, 10)])
        per_sat, total = budget_for_policy(policy, watts, config.k_sats)
        local, pooled = random_networks(config.k_sats, config.n_antennas)
        assert_budget_axis_bytes(h, per_sat, total, config.sigma2,
                                 ALL_SCHEMES, gnn_ctx=local,
                                 gnn_ctx_global=pooled)

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(b=st.integers(1, 3), k=st.integers(1, 3), m=st.integers(1, 3),
           extra=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
           p_dbw=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4),
           sigma2=st.floats(1e-3, 10.0),
           policy=st.sampled_from(("fixed", "split", "pooled")))
    def test_random_shapes_bytes_equal_per_budget(self, b, k, m, extra,
                                                  seed, p_dbw, sigma2,
                                                  policy):
        n = m + extra  # enough antennas for per-satellite zero forcing
        rng = np.random.default_rng(seed)
        h = random_stack(rng, b, k, m, n)
        watts = np.array([db_to_linear(v) for v in p_dbw])
        per_sat, total = budget_for_policy(policy, watts, k)
        assert_budget_axis_bytes(h, per_sat, total, sigma2, CLASSICAL)
        # the trace-normalized ZF takes the axis as well
        got = beamform.zf_local(h, per_sat, normalization="trace")
        for i, p in enumerate(got.power_budget):
            one = beamform.zf_local(h, float(p), normalization="trace")
            assert got.w[i].tobytes() == one.w.tobytes()

    def test_scalar_budget_keeps_shape(self):
        h = random_stack(np.random.default_rng(5), 3, 2, 2, 2)
        for scheme in CLASSICAL:
            beams = compute_beams(scheme, h, 2.0, 4.0, 0.1)
            assert beams.w.shape == h.shape
            assert beams.power_budget in (2.0, 4.0)

    def test_dead_blocks_stay_zero_at_every_budget(self):
        h = random_stack(np.random.default_rng(7), 2, 2, 3, 2)
        # below ZERO_POWER: one user's channel, and a whole satellite block
        h[1, 0, 2] = 1e-20
        h[0, 1] = 1e-20
        budgets = np.array([0.5, 2.0])
        mrt = beamform.mrt_local(h, budgets).w
        assert np.all(mrt[:, 1, 0, 2] == 0) and np.all(mrt[:, 0, 1] == 0)
        assert np.all(mrt[:, 1, 0, :2] != 0)
        scaled = beamform._rescale(np.stack([h, h]),
                                   beamform._budget(budgets, h.ndim))
        assert np.all(scaled[:, 0, 1] == 0) and np.all(scaled[:, 1, 1] != 0)

    def test_bad_budget_vectors_rejected(self):
        h = random_stack(np.random.default_rng(6), 2, 1, 2, 2)
        for bad in ([], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="1-D vector"):
                beamform.mrt_local(h, bad)
        with pytest.raises(ValueError, match="power > 0"):
            beamform.mmse_local(h, [1.0, 0.0], 0.1)
        with pytest.raises(ValueError, match="shape \\(P,\\)"):
            beamform.BeamformerSet(w=np.ones((2, 1, 2, 2)),
                                   power_budget=np.ones(3))


class TestAtomicArtifacts:
    def test_failed_rows_keep_the_old_csv(self, tmp_path):
        path = tmp_path / "eval.csv"
        gnn.write_files([gnn.csv_file(path, "# old", ["a"], [[1.0]])])
        old = path.read_bytes()

        def rows():
            yield [2.0]
            raise RuntimeError("writer died midway")
        with pytest.raises(RuntimeError, match="midway"):
            gnn.write_files([gnn.csv_file(path, "# new", ["a"], rows())])
        with pytest.raises(gnn.GnnNumericError,
                           match="non-finite a = nan bound for eval.csv"):
            gnn.write_files([gnn.csv_file(path, "# new", ["a"],
                                          [[2.0], [float("nan")]])])
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["eval.csv"]


class TestResolveOutDir:
    def test_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        c = load_config(None)
        monkeypatch.setenv("LEOBEAM_OUT_DIR", str(tmp_path / "env"))
        assert resolve_out_dir(c, str(tmp_path / "cli")) \
            == str(tmp_path / "cli")
        assert resolve_out_dir(c) == str(tmp_path / "env")
        monkeypatch.delenv("LEOBEAM_OUT_DIR")
        assert resolve_out_dir(c) == "leobeam_out"
        # resolving makes nothing; the first write makes the directory
        assert not os.path.exists("leobeam_out")
        gnn.write_files([gnn.csv_file(os.path.join("leobeam_out", "a.csv"),
                                      "# a", ["a"], [[1.0]])])
        assert os.listdir("leobeam_out") == ["a.csv"]


class TestEval:
    def test_summary_and_artifacts(self, micro):
        config, out = micro["config"], micro["out"]
        summary = experiments.run_eval(config, out)
        assert set(summary) == {"mrt_local", "zf_local", "mmse_local"}
        for mean, std in summary.values():
            assert mean > 0 and std >= 0
        path = os.path.join(out, "eval.csv")
        lines = open(path).read().splitlines()
        assert re.match(r"# leobeam eval v1 config_hash=[0-9a-f]{16}",
                        lines[0])
        assert lines[1].startswith("sample,seed,scheme")
        assert len(lines) == 2 + 3 * config.eval_size

    def test_summary_matches_rows(self, micro):
        config, out = micro["config"], micro["out"]
        summary = experiments.run_eval(config, out)
        lines = open(os.path.join(out, "eval.csv")).read().splitlines()
        cols = lines[1].split(",")
        wsr_col = cols.index("weighted_sum_bps")
        scheme_col = cols.index("scheme")
        per_scheme = {}
        for row in lines[2:]:
            cells = row.split(",")
            per_scheme.setdefault(cells[scheme_col], []).append(
                float(cells[wsr_col]))
        for scheme, vals in per_scheme.items():
            assert summary[scheme][0] == pytest.approx(np.mean(vals),
                                                       rel=1e-12)

    def test_byte_identical_reruns(self, micro, tmp_path):
        config = micro["config"]
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        experiments.run_eval(config, str(a))
        experiments.run_eval(config, str(b))
        for name in ("eval.csv", "eval_summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_scheme_subset_and_alias(self, micro, tmp_path):
        out = tmp_path / "sub"
        out.mkdir()
        summary = experiments.run_eval(micro["config"], str(out),
                                       schemes=["mrt"], size=3)
        assert list(summary) == ["mrt_local"]

    def test_repeated_scheme_rejected(self, micro, tmp_path):
        # [run] schemes as well as a --schemes list, aliases resolved
        config = dataclasses.replace(micro["config"],
                                     schemes=("zf", "mmse", "zf_local"))
        with pytest.raises(ConfigError, match="zf_local is listed more"):
            experiments.run_eval(config, str(tmp_path))
        with pytest.raises(ConfigError, match="zf_local is listed more"):
            experiments.run_sweep(config, str(tmp_path), "p_dbw", [0.0])
        assert not os.listdir(tmp_path)

    def test_gnn_needs_checkpoint(self, micro, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(MissingArtifactError, match="leobeam train"):
            experiments.run_eval(micro["config"], str(empty),
                                 schemes=["gnn"], size=2)

    def test_gnn_scheme_with_trained_model(self, micro):
        summary = experiments.run_eval(micro["config"], micro["out"],
                                       schemes=["gnn", "mrt"], size=4)
        assert summary["gnn_local"][0] > 0


class TestSweep:
    def test_power_sweep(self, micro, tmp_path):
        out = tmp_path / "sw"
        out.mkdir()
        res = experiments.run_sweep(micro["config"], str(out), "p_dbw",
                                    (-5.0, 0.0, 5.0), schemes=["mrt"],
                                    size=4)
        pts = res["mrt_local"]
        assert [v for v, _ in pts] == [-5.0, 0.0, 5.0]
        assert os.path.exists(out / "sweep.csv")
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "mrt_local" in svg

    def test_k_sweep_fresh_ensembles(self, micro, tmp_path):
        out = tmp_path / "swk"
        out.mkdir()
        res = experiments.run_sweep(micro["config"], str(out), "k_sats",
                                    (1, 2), policy="split",
                                    schemes=["mrt"], size=4)
        assert [v for v, _ in res["mrt_local"]] == [1.0, 2.0]

    def test_pooled_drops_local(self, micro, tmp_path):
        out = tmp_path / "swp"
        out.mkdir()
        res = experiments.run_sweep(micro["config"], str(out), "p_dbw",
                                    (0.0,), policy="pooled",
                                    schemes=["mrt", "mmse_global"], size=3)
        assert list(res) == ["mmse_global"]
        with pytest.raises(ConfigError, match="global"):
            experiments.run_sweep(micro["config"], str(out), "p_dbw",
                                  (0.0,), policy="pooled", schemes=["mrt"],
                                  size=3)

    @pytest.mark.parametrize("policy", ["fixed", "split", "pooled"])
    def test_power_sweep_rows_match_single_value_sweeps(self, tmp_path,
                                                        policy):
        config = load_config(None, {
            ("system", "k_sats"): "2", ("system", "m_users"): "3",
            ("system", "n_antennas"): "3", ("run", "eval_size"): "12"})

        def lines(values, name):
            out = tmp_path / name
            out.mkdir()
            experiments.run_sweep(config, str(out), "p_dbw", values,
                                  policy=policy, schemes=CLASSICAL)
            return (out / "sweep.csv").read_text().splitlines()

        values = (-10.0, 0.0, 7.5)
        stacked = lines(values, "all")
        single = [lines((v,), f"one{i}") for i, v in enumerate(values)]
        assert stacked[:2] == single[0][:2]  # header and column names
        assert stacked[2:] == [row for s in single for row in s[2:]]

    def test_bad_arguments(self, micro, tmp_path):
        with pytest.raises(ConfigError, match="variable"):
            experiments.run_sweep(micro["config"], str(tmp_path), "bw",
                                  (1.0,))
        with pytest.raises(ConfigError, match="value"):
            experiments.run_sweep(micro["config"], str(tmp_path), "p_dbw",
                                  ())
        with pytest.raises(ConfigError, match=">= 1"):
            experiments.run_sweep(micro["config"], str(tmp_path), "k_sats",
                                  (0,), schemes=["mrt"], size=2)
        with pytest.raises(ConfigError, match="integers, got 1.5"):
            experiments.run_sweep(micro["config"], str(tmp_path), "k_sats",
                                  (1, 1.5), schemes=["mrt"], size=2)
        # the configured budget is checked at every swept K
        with pytest.raises(ConfigError, match=r"^\[system\] p_dbw = .* "
                           r"K up to 100000"):
            experiments.run_sweep(
                dataclasses.replace(micro["config"], p_dbw=-3195.0),
                str(tmp_path), "k_sats", (1, 100000), schemes=["mrt"],
                size=2)
        assert not os.listdir(tmp_path)


class TestQuantCompare:
    def test_ratios_and_artifacts(self, micro):
        config, out = micro["config"], micro["out"]
        summary = experiments.run_quant_compare(config, out)
        assert set(summary) == {"float", "int8", "int16", "ratio8", "ratio16"}
        assert summary["ratio16"] == pytest.approx(1.0, abs=0.01)
        assert 0.5 < summary["ratio8"] < 1.2
        lines = open(os.path.join(out, "quant.csv")).read().splitlines()
        assert len(lines) == 2 + config.quant_size
        slines = open(os.path.join(out,
                                   "quant_summary.csv")).read().splitlines()
        assert len(slines) == 2 + 5

    def test_missing_checkpoint(self, micro, tmp_path):
        empty = tmp_path / "noq"
        empty.mkdir()
        with pytest.raises(MissingArtifactError):
            experiments.run_quant_compare(micro["config"], str(empty))


# two satellites, so a tied set serves a stack of them; one epoch
QUANT_INI = MICRO_INI.replace("k_sats = 1", "k_sats = 2") \
    .replace("epochs = 2", "epochs = 1")

# SHA-256 of quant.csv (8 samples) for a tied QUANT_INI network.  Taken at
# numerics revision 2 (leobeam.NUMERICS), which moved the channel and rate
# bits; revision 1 gave
# 98ed4279f95fa315f92f6d4232cd2b60d9ff786c92e868c8f4df8629ffbd9507
QUANT_CSV_SHA256 = \
    "cc215f7fa2f5336255cbb6dbc7503155b63868c927c52022cad4580d20bddef4"


def train_and_quant(tmp_path, text):
    """(quant exit code, config, out dir) after `train` on the INI text."""
    p = tmp_path / "c.ini"
    p.write_text(text)
    out = tmp_path / "out"
    argv = ["--config", str(p), "--out", str(out)]
    assert cli.main([*argv, "train"]) == 0
    return cli.main([*argv, "quant", "--size", "8"]), load_config(str(p)), out


class TestQuantDriver:
    def test_tied_quant_csv_pinned(self, tmp_path):
        rc, _, out = train_and_quant(tmp_path, QUANT_INI)
        assert rc == 0
        digest = hashlib.sha256((out / "quant.csv").read_bytes()).hexdigest()
        assert digest == QUANT_CSV_SHA256

    def test_untied_checkpoint(self, tmp_path):
        rc, config, out = train_and_quant(tmp_path, QUANT_INI.replace(
            "early_stop = false", "early_stop = false\ntied = false"))
        assert rc == 0
        ckpt = train.load_checkpoint(out / "model.ckpt")
        sets = ckpt.params_list
        assert len(sets) == 2
        assert not np.array_equal(sets[0].layers[0].w, sets[1].layers[0].w)
        h = experiments._sample_batch(config, 8, experiments._STREAM_QUANT)
        sysp = config.system_params(input_scale=ckpt.input_scale)
        cfg = config.accel_config(bits=8)
        w = train.infer_batch(ckpt.params, h, sysp,
                              accel.quantized_dense(cfg, config.m_users))
        # satellite k's beams are those of its own set on its own channels
        per_sat = [accel.quantized_forward(p, h[:, k] / ckpt.input_scale,
                                           sysp.power, cfg)[0]
                   for k, p in enumerate(sets)]
        for k in range(2):
            assert w[:, k].tobytes() == per_sat[k].tobytes()
        # and quant.csv scores them
        wsr = beamform.wsr(h, np.stack(per_sat, axis=1), sysp.sigma2,
                           bandwidth=sysp.bandwidth,
                           weights=np.asarray(config.weight_tuple))
        rows = (out / "quant.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2] for row in rows] \
            == [repr(float(v)) for v in wsr.weighted_sum]


class TestLatencyRunner:
    def test_totals_match_model(self, micro):
        config, out = micro["config"], micro["out"]
        totals = experiments.run_latency(config, out, m_list=(1, 2),
                                         bits_list=(8,))
        dims = gnn.scaled_dims(config.n_antennas, config.scale_factor)
        want = accel.latency_model(dims, 1, config.accel_config(bits=8))
        assert totals[(8, 1)] == want.total_ms
        assert totals[(8, 2)] >= totals[(8, 1)]
        lines = open(os.path.join(out, "latency.csv")).read().splitlines()
        assert len(lines) == 2 + 2
        assert "3.863" in lines[2]  # reference window annotated, not asserted
        llines = open(os.path.join(out,
                                   "latency_layers.csv")).read().splitlines()
        assert len(llines) == 2 + 2 * 11


class TestTrainRunner:
    def test_artifacts(self, micro):
        out, result = micro["out"], micro["result"]
        assert os.path.exists(micro["ckpt"])
        assert len(result.history) == 2
        ckpt = train.load_checkpoint(micro["ckpt"])
        assert ckpt.input_scale == result.input_scale
        hist = open(os.path.join(out, "history.csv")).read().splitlines()
        assert "config_hash" in hist[0]
        assert len(hist) == 2 + 2

    def test_pooled_stacks_antennas(self, tmp_path, monkeypatch):
        p = tmp_path / "c.ini"
        p.write_text(MICRO_INI.replace("k_sats = 1", "k_sats = 2")
                     .replace("epochs = 2", "epochs = 1"))
        config = load_config(str(p))
        out = tmp_path / "out"
        out.mkdir()
        trained = []
        real_train = train.train
        monkeypatch.setattr(train, "train", lambda cfg: (
            trained.append(cfg.system) or real_train(cfg)))
        result, ckpt_path = experiments.run_train(config, str(out),
                                                  pooled=True)
        # one transmitter with every antenna and the total budget
        sys = config.system_params()
        assert trained == [train.SystemParams(
            1, sys.m_users, 2 * sys.n_antennas, power=2 * sys.power,
            sigma2=sys.sigma2, bandwidth=sys.bandwidth, weights=sys.weights)]
        assert ckpt_path.endswith("model_pooled.ckpt")
        ckpt = train.load_checkpoint(ckpt_path)
        assert ckpt.params.dims.n_antennas == 4  # K*N stacked
        assert os.path.exists(out / "history_pooled.csv")


class TestCli:
    def test_eval_exit_zero(self, micro, capsys):
        rc = cli.main(["--config", micro["cfg_path"], "--out", micro["out"],
                       "eval", "--schemes", "mrt", "--size", "3"])
        assert rc == 0
        assert "mrt_local" in capsys.readouterr().out

    def test_latency_exit_zero(self, micro, capsys):
        rc = cli.main(["--config", micro["cfg_path"], "--out", micro["out"],
                       "latency", "--m-list", "1", "--bits", "8"])
        assert rc == 0
        assert "8-bit" in capsys.readouterr().out

    def test_shared_flags_after_subcommand(self, micro, tmp_path, capsys):
        out = str(tmp_path / "after")
        rc = cli.main(["eval", "--config", micro["cfg_path"], "--out", out,
                       "--schemes", "mrt", "--size", "2"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "eval.csv"))
        assert "mrt_local" in capsys.readouterr().out

    def test_shared_flag_after_overrides_before(self, micro, tmp_path):
        early = str(tmp_path / "early")
        late = str(tmp_path / "late")
        rc = cli.main(["--out", early, "eval", "--config", micro["cfg_path"],
                       "--out", late, "--schemes", "mrt", "--size", "2"])
        assert rc == 0
        assert os.path.exists(os.path.join(late, "eval.csv"))
        assert not os.path.exists(os.path.join(early, "eval.csv"))

    def test_sweep_exit_zero(self, micro):
        rc = cli.main(["--config", micro["cfg_path"], "--out", micro["out"],
                       "sweep", "--variable", "p_dbw", "--values", "0,5",
                       "--schemes", "mrt", "--size", "2"])
        assert rc == 0

    def test_k_sweep_with_gnn_global_is_2(self, micro, tmp_path, capsys,
                                          monkeypatch):
        # no checkpoint serves every satellite count; rejected before any
        # checkpoint is opened
        def no_load(path):
            raise AssertionError(f"opened {path}")
        monkeypatch.setattr(experiments, "load_gnn_context", no_load)
        out = tmp_path / "k"
        rc = cli.main(["--config", micro["cfg_path"], "--out", str(out),
                       "sweep", "--variable", "k_sats", "--values", "1,2",
                       "--schemes", "zf_global,gnn_global", "--size", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: gnn_global")
        assert err.count("\n") == 1
        assert not (out / "sweep.csv").exists()

    def test_truncated_checkpoint_exits_4(self, micro, tmp_path, capsys):
        data = open(micro["ckpt"], "rb").read()
        n = len(data)
        # magic, model count, container header, weights, input scale
        for cut in (0, 5, 10, 40, n // 4, n // 2, n - 60, n - 1):
            out = tmp_path / f"cut{cut}"
            out.mkdir()
            (out / "model.ckpt").write_bytes(data[:cut])
            with pytest.raises(gnn.ArtifactError):
                train.load_checkpoint(out / "model.ckpt")
            rc = cli.main(["--config", micro["cfg_path"], "--out", str(out),
                           "eval", "--schemes", "gnn_local", "--size", "2"])
            err = capsys.readouterr().err
            assert rc == 4, cut
            assert err.startswith("unreadable artifact: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "quant"])
    @pytest.mark.parametrize("damage", [
        "nan-weight", "inf-bias", "scale-0", "scale-negative", "scale-nan",
        "scale-inf"])
    def test_non_finite_checkpoint_exits_4(self, micro, tmp_path, capsys,
                                           command, damage):
        ckpt = train.load_checkpoint(micro["ckpt"])
        params, scale = ckpt.params, ckpt.input_scale
        if damage == "nan-weight":
            params.layers[3].w[1, 0] = np.nan
        elif damage == "inf-bias":
            params.layers[10].b[0] = -np.inf
        else:
            scale = {"scale-0": 0.0, "scale-negative": -scale,
                     "scale-nan": np.nan, "scale-inf": np.inf}[damage]
        out = tmp_path / "out"
        out.mkdir()
        train.save_checkpoint(out / "model.ckpt", params, input_scale=scale)
        argv = {"eval": ["eval", "--schemes", "gnn", "--size", "2"],
                "quant": ["quant", "--size", "2"]}[command]
        rc = cli.main(["--config", micro["cfg_path"], "--out", str(out),
                       *argv])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("unreadable artifact: ")
        assert err.count("\n") == 1
        assert os.listdir(out) == ["model.ckpt"]

    @pytest.mark.parametrize("argv", [
        ["eval", "--schemes", "gnn"],
        ["sweep", "--variable", "p_dbw", "--values=0,5", "--schemes", "gnn"],
        ["quant"]], ids=["eval", "sweep", "quant"])
    def test_antenna_mismatch_exits_4(self, micro, tmp_path, capsys, argv):
        # the micro checkpoint serves satellites of 2 antennas
        p = tmp_path / "n4.ini"
        p.write_text(MICRO_INI.replace("n_antennas = 2", "n_antennas = 4"))
        out = tmp_path / "out"
        out.mkdir()
        (out / "model.ckpt").write_bytes(open(micro["ckpt"], "rb").read())
        rc = cli.main(["--config", str(p), "--out", str(out), *argv,
                       "--size", "2"])
        err = capsys.readouterr().err
        assert rc == 4
        assert err == ("missing artifact: checkpoint expects 2 antennas but "
                       "each satellite has 4; retrain\n")
        assert os.listdir(out) == ["model.ckpt"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "quant"])
    @pytest.mark.parametrize("damage", ["scale-1e-310", "weights-1e100",
                                        "weights-1e20"])
    def test_non_finite_network_exits_3(self, micro, tmp_path, capsys,
                                        command, damage):
        # a checkpoint that loads, but whose network overflows: h/s for a
        # tiny input scale, every activation for huge finite weights, or
        # only the beams' raw power (finite outputs near 1e220), which must
        # not be normalized to all-zero beams
        ckpt = train.load_checkpoint(micro["ckpt"])
        params, scale = ckpt.params, ckpt.input_scale
        if damage == "scale-1e-310":
            scale = 1e-310
        else:
            factor = {"weights-1e100": 1e100, "weights-1e20": 1e20}[damage]
            for layer in params.layers:
                layer.w *= factor
        out = tmp_path / "out"
        out.mkdir()
        train.save_checkpoint(out / "model.ckpt", params, input_scale=scale)
        argv = {"eval": ["eval", "--schemes", "gnn", "--size", "2"],
                "quant": ["quant", "--size", "2"]}[command]
        rc = cli.main(["--config", micro["cfg_path"], "--out", str(out),
                       *argv])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == ("numeric failure: non-finite values after power "
                       "normalization\n")
        assert os.listdir(out) == ["model.ckpt"]

    def test_numeric_failure_is_one_line_outside_pytest(self, micro,
                                                        tmp_path):
        # pytest captures numpy's warnings; a plain process shows them
        ckpt = train.load_checkpoint(micro["ckpt"])
        out = tmp_path / "out"
        out.mkdir()
        train.save_checkpoint(out / "model.ckpt", ckpt.params, 1e-310)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(os.path.join(REPO, "src")),
                        env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-m", "leobeam.cli", "--config",
             micro["cfg_path"], "--out", str(out), "eval", "--schemes",
             "gnn", "--size", "2"], env=env, capture_output=True, text=True)
        assert run.returncode == 3
        assert run.stderr == ("numeric failure: non-finite values after "
                              "power normalization\n")
        assert os.listdir(out) == ["model.ckpt"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,system", [
        (["eval", "--schemes", "mrt"],
         "bandwidth_hz = 1e308\nweights = 1e308"),
        (["sweep", "--variable", "p_dbw", "--values=0,5", "--schemes", "mrt"],
         "bandwidth_hz = 1e308\nweights = 1e308"),
        (["quant"], "bandwidth_hz = 1e308\nweights = 1e308"),
    ], ids=["eval-1e308", "sweep-1e308", "quant-1e308"])
    def test_non_finite_rates_exit_3(self, micro, tmp_path, capsys, argv,
                                     system):
        # weighted sum rates overflow a float: no CSV may hold them
        p = tmp_path / "huge.ini"
        p.write_text(MICRO_INI.replace("[system]\n", f"[system]\n{system}\n"))
        out = tmp_path / "out"
        out.mkdir()
        (out / "model.ckpt").write_bytes(open(micro["ckpt"], "rb").read())
        rc = cli.main(["--config", str(p), "--out", str(out), *argv,
                       "--size", "2"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numeric failure: non-finite ")
        assert err.count("\n") == 1
        assert os.listdir(out) == ["model.ckpt"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,summary", [
        (["eval", "--schemes", "mrt"], "eval_summary.csv"),
        (["sweep", "--variable", "p_dbw", "--values=0,5", "--schemes", "mrt"],
         "sweep.csv")], ids=["eval", "sweep"])
    @pytest.mark.parametrize("bandwidth,shift", [(1e160, 500), (1e306, 1000)],
                             ids=["1e160", "1e306"])
    def test_huge_finite_rates_keep_an_exact_spread(
            self, micro, tmp_path, capsys, argv, summary, bandwidth, shift):
        # the deviations of rates near 1e154 overflow when squared; the
        # spread must not: rates at bandwidth B / 2^shift are exactly
        # 2^-shift of those at B, and so are their means and spreads
        columns = []
        for b in (bandwidth, math.ldexp(bandwidth, -shift)):
            p = tmp_path / "huge.ini"
            p.write_text(MICRO_INI.replace(
                "[system]\n", f"[system]\nbandwidth_hz = {b!r}\n"))
            out = tmp_path / repr(b)
            rc = cli.main(["--config", str(p), "--out", str(out), *argv,
                           "--size", "2"])
            assert rc == 0 and capsys.readouterr().err == ""
            lines = (out / summary).read_text().splitlines()[1:]
            cols = lines[0].split(",")
            columns.append([[float(row.split(",")[cols.index(name)])
                             for row in lines[1:]]
                            for name in ("mean_wsr_bps", "std_wsr_bps")])
        huge, plain = columns
        assert all(math.isfinite(v) and v > 0 for v in huge[1])
        assert huge == [[math.ldexp(v, shift) for v in col] for col in plain]

    @pytest.mark.parametrize("sigma2_dbm", ["4000", "-4000"])
    def test_unusable_noise_power_is_2(self, tmp_path, capsys, sigma2_dbm):
        # overflows a float, and underflows to 0 W
        p = tmp_path / "bad.ini"
        p.write_text(f"[system]\nsigma2_dbm = {sigma2_dbm}\n")
        out = tmp_path / "out"
        rc = cli.main(["--config", str(p), "--out", str(out), "eval"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: [system] sigma2_dbm = "
                              f"{sigma2_dbm}.0 is out of range")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_quant_exit_zero(self, micro, capsys):
        rc = cli.main(["--config", micro["cfg_path"], "--out", micro["out"],
                       "quant", "--size", "2"])
        assert rc == 0
        assert "ratio" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[system]\nk_sats = 0\n")
        rc = cli.main(["--config", str(p), "--out", str(tmp_path), "eval"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert cli.main(["--config", "/missing.ini", "eval"]) == 2

    @pytest.mark.parametrize("command,text", [
        ("latency", "[accel]\nsa_size = 0\n"),
        ("train", "[train]\nbatch_size = 7\n"),
        ("eval", "[fading]\nm = 0.1\n"),
        ("eval", "[system]\nphi_3db_deg = 100\n"),
        ("eval", "[system]\nphi_deg = 95\n"),
        ("eval", "[system]\np_dbw = nan\n"),
        ("eval", "[system]\nsigma2_dbm = inf\n"),
        # a zero divisor, and a power that overflows a float
        ("train", "[train]\nbatch_size = 0\n"),
        ("train", "[train]\nlr_decay_every = 0\n"),
        ("eval", "[system]\np_dbw = 4000\n"),
        ("eval", "[system]\np_dbw = -3235\n"),
    ])
    def test_out_of_range_is_2(self, tmp_path, capsys, command, text):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "out"
        rc = cli.main(["--config", str(p), "--out", str(out), command])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,run_key", [
        (["sweep", "--variable", "p_dbw", "--values=a,b"], ""),
        (["sweep", "--variable", "p_dbw", "--values=0,nan"], ""),
        (["sweep", "--variable", "p_dbw", "--values=0,4000"], ""),
        (["sweep", "--variable", "p_dbw", "--values=0,-4000"], ""),
        (["sweep", "--variable", "p_dbw", "--values=-3235,0",
          "--schemes", "mmse"], ""),
        (["sweep", "--variable", "k_sats", "--values=2,0"], ""),
        (["sweep", "--variable", "k_sats", "--values=1.5,2.9"], ""),
        (["sweep", "--variable", "p_dbw", "--values=0", "--size", "0"], ""),
        (["eval", "--size", "0"], ""),
        (["quant", "--size", "-3"], ""),
        (["latency", "--bits", "12"], ""),
        (["latency", "--m-list", "4,0"], ""),
        (["latency"], "latency_m_list = 0\n"),
        (["eval", "--schemes", "mrt,mrt_local"], ""),
        (["sweep", "--variable", "p_dbw", "--values=0",
          "--schemes", "zf,mmse,zf_local"], ""),
    ], ids=["values-not-numbers", "values-nan", "values-overflow",
            "values-underflow", "values-subnormal", "k-sats-zero",
            "k-sats-fractional", "sweep-size-0", "eval-size-0",
            "quant-size-negative", "latency-bits-12", "latency-m-list-0",
            "config-latency-m-list-0", "eval-repeated-scheme",
            "sweep-repeated-scheme"])
    def test_bad_values_rejected_before_work(self, tmp_path, capsys,
                                             monkeypatch, argv, run_key):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the values were "
                                 "checked")
        monkeypatch.setattr(experiments, "_sample_batch", no_work)
        monkeypatch.setattr(accel, "latency_model", no_work)
        p = tmp_path / "c.ini"
        p.write_text(MICRO_INI.replace("[run]\n", "[run]\n" + run_key))
        out = tmp_path / "out"
        rc = cli.main(["--config", str(p), "--out", str(out), *argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unknown_scheme_is_2(self, micro):
        rc = cli.main(["--config", micro["cfg_path"], "--out", micro["out"],
                       "eval", "--schemes", "alamouti", "--size", "2"])
        assert rc == 2

    def test_missing_artifact_is_4(self, micro, tmp_path, capsys):
        empty = tmp_path / "e"
        empty.mkdir()
        rc = cli.main(["--config", micro["cfg_path"], "--out", str(empty),
                       "quant", "--size", "2"])
        assert rc == 4
        assert "missing artifact" in capsys.readouterr().err

    def test_divergence_is_3(self, micro, tmp_path, capsys):
        p = tmp_path / "div.ini"
        p.write_text(MICRO_INI.replace("epochs = 2", "epochs = 1")
                     .replace("early_stop = false",
                              "early_stop = false\nlr0 = 1e200"))
        with np.errstate(all="ignore"):
            rc = cli.main(["--config", str(p), "--out", str(tmp_path),
                           "train"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_train_and_gnn_eval_roundtrip(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_text(MICRO_INI)
        out = str(tmp_path / "run")
        assert cli.main(["--config", str(p), "--out", out, "--seed", "5",
                         "train", "--epochs", "1"]) == 0
        assert "checkpoint:" in capsys.readouterr().out
        assert cli.main(["--config", str(p), "--out", out, "eval",
                         "--schemes", "gnn", "--size", "2"]) == 0

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


# the value drawn for a key, by the key's type; integer keys (dimensions,
# counts, sizes, seed, bits, tiles) draw from -1..3, so no example
# allocates much
_INTS = st.integers(-1, 3)
_FLOATS = st.floats().map(repr)
_FUZZ_VALUES = {
    "int": _INTS.map(str),
    "float": _FLOATS,
    "bool": st.sampled_from(["true", "false", "maybe"]),
    "str": st.sampled_from(["", "missing.ckpt"]),
    "tuple[int, ...]": st.lists(_INTS, max_size=3).map(
        lambda v: ",".join(map(str, v))),
    "tuple[float, ...]": st.lists(_FLOATS, max_size=3).map(",".join),
    "tuple[str, ...]": st.lists(
        st.sampled_from(ALL_SCHEMES + ("mrt", "bogus")), max_size=3).map(
            ",".join),
}
_FUZZ_COMMANDS = {
    "eval": ["eval", "--size", "4"],
    "latency": ["latency"],
    "sweep": ["sweep", "--variable", "p_dbw", "--values=0,5", "--size", "4"],
    "quant": ["quant", "--size", "4"],
}


class TestCliContract:
    """Any one config value, through `cli.main`: exit 0, 2, 3 or 4 with
    one stderr line and no traceback; exit 0 writes only finite CSV
    floats; any other exit leaves nothing behind."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
           case=st.sampled_from(sorted(experiments._KEYS)).flatmap(
               lambda key: st.tuples(st.just(key), _FUZZ_VALUES[
                   experiments._KEYS[key].type])))
    # cases found outside the contract: a negative seed, a Gram matrix
    # that underflows to singular, and a -0.0 scale that numpy rejects
    @example(command="eval", case=(("run", "seed"), "-1"))
    @example(command="eval",
             case=(("system", "carrier_freq_hz"), "2.3494948343216815e+165"))
    @example(command="eval", case=(("fading", "b"), "-0.0"))
    @example(command="quant", case=(("fading", "omega"), "-0.0"))
    # rates that overflow: exit 3, so the CSV guard is always exercised
    @example(command="sweep", case=(("system", "bandwidth_hz"), "1e308"))
    def test_one_value_keeps_the_contract(self, micro_ckpt, tmp_path, capsys,
                                          command, case):
        (section, key), value = case
        ini = configparser.ConfigParser(interpolation=None)
        ini.read_string(MICRO_INI)
        ini["run"]["checkpoint"] = micro_ckpt
        ini[section] = {**(ini[section] if section in ini else {}),
                        key: value}
        root = tmp_path / str(len(os.listdir(tmp_path)))
        root.mkdir()
        with open(root / "c.ini", "w") as fh:
            ini.write(fh)
        out = root / "out"
        capsys.readouterr()
        rc = cli.main(["--config", str(root / "c.ini"), "--out", str(out),
                       *_FUZZ_COMMANDS[command]])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if rc:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert os.listdir(root) == ["c.ini"]
            return
        for name in os.listdir(out):
            if not name.endswith(".csv"):
                continue
            for line in (out / name).read_text().splitlines()[2:]:
                for cell in line.split(","):
                    try:
                        v = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(v), (name, line)


class TestSvgPlot:
    def series(self):
        xs = [0.0, 1.0, 2.0]
        return [("alpha", xs, [1.0, 3.0, 2.0]),
                ("beta", xs, [2.0, 2.5, 4.0])]

    def test_deterministic(self):
        a = svgplot.line_plot(self.series(), title="t", xlabel="x",
                              ylabel="y")
        b = svgplot.line_plot(self.series(), title="t", xlabel="x",
                              ylabel="y")
        assert a == b

    def test_structure(self):
        svg = svgplot.line_plot(self.series(), title="demo", xlabel="load",
                                ylabel="rate")
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        for text in ("alpha", "beta", "demo", "load", "rate"):
            assert text in svg

    def test_degenerate_inputs(self):
        one = svgplot.line_plot([("p", [1.0], [5.0])])
        assert "<svg" in one
        empty = svgplot.line_plot([])
        assert "<svg" in empty

    def test_ticks_cover_range(self):
        ticks = svgplot._ticks(0.0, 10.0)
        assert len(ticks) >= 2
        assert min(ticks) >= 0.0 - 1e-9 and max(ticks) <= 10.0 + 1e-9
