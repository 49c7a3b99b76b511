"""Release gates: ten numbered end-to-end checks with pinned tolerances.

Each check prints one `[criterion NN] PASS/FAIL ...` line (forced past the
capture machinery) with the measured values and the tolerance it applied,
then asserts.  Two gates assert bounds that follow from the model rather
than orderings it does not obey:

* criterion 04: besides beating MRT and local ZF and reaching 0.95 of local
  MMSE, the network's WSR must stay under the interference-free
  water-filling bound on every held-out sample.  Any linear precoder within
  the total budget K*P meets it, since Cauchy-Schwarz gives
  |c[m,m]|^2 <= g_m q_m (channel gain times beam power), so only beams that
  overspend power can cross it.  Global MMSE is a heuristic for the
  weighted sum rate, not a ceiling, so net/mmse_global is reported only.
* criterion 06(b): split-power zf_local satisfies
  WSR(K-1) <= WSR(K) <= K * WSR(1).  Per-satellite nulled gains are real
  and positive, so they add coherently: the per-user SNR is
  (P/(M sigma2)) (sum_k a_km)^2 / K, whose mean
  (P/(M sigma2)) (E[a^2] + (K-1) E[a]^2) grows with K.  Since
  (sum_k a_km)^2 / K <= sum_k a_km^2 and log2(1 + sum x) <= sum log2(1 + x),
  each realization's rate is at most that of its K satellites alone at full
  power; the satellites are i.i.d., so the gain is at most K-fold in mean.
"""

import math
import os
import time

import numpy as np
import pytest

from leobeam import accel, beamform, channel, experiments, gnn, train

_REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DESK_INI = os.path.join(_REPO_ROOT, "configs", "desk.ini")


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="session")
def desk_ckpt(desk_training):
    """Path of the cached desk-scale checkpoint the fixture produced."""
    assert os.path.exists(desk_training.ckpt_path)
    return desk_training.ckpt_path


def test_criterion_01_gradient_correctness(capsys):
    # reduced dims (scale 32, K=2, M=2, N=2, float64): reverse-mode grads
    # vs central differences (step 1e-5), rel err <= 1e-5 on >= 50 params,
    # under 60 s
    t0 = time.monotonic()
    dims = gnn.scaled_dims(2, 32)
    params = gnn.init_params(dims, np.random.Generator(np.random.Philox(101)))
    sysp = train.SystemParams(k_sats=2, m_users=2, n_antennas=2, power=1.0,
                              sigma2=1.0, bandwidth=1.0, input_scale=1.0)
    rng = np.random.default_rng(102)
    batch = (rng.normal(size=(8, 2, 2, 2))
             + 1j * rng.normal(size=(8, 2, 2, 2))) / math.sqrt(2)
    grads = train.gradients(params, batch, sysp)
    step = 1e-5
    compared, worst = 0, 0.0
    for li, lay in enumerate(params.layers):
        for arr, garr, picks in ((lay.w, grads.layers[li].w, 6),
                                 (lay.b, grads.layers[li].b, 3)):
            for idx in {np.unravel_index(int(rng.integers(arr.size)),
                                         arr.shape) for _ in range(picks)}:
                orig = arr[idx]
                arr[idx] = orig + step
                lp = train.batch_loss(params, batch, sysp)
                arr[idx] = orig - step
                lm = train.batch_loss(params, batch, sysp)
                arr[idx] = orig
                fd = (lp - lm) / (2 * step)
                an = garr[idx]
                if abs(fd) < 1e-8 and abs(an) < 1e-8:
                    # dead or below the roundoff floor of the difference
                    # quotient itself; nothing to compare against
                    continue
                compared += 1
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    took = time.monotonic() - t0
    ok = compared >= 50 and worst <= 1e-5 and took < 60.0
    report(capsys, 1, ok,
           f"gradients vs finite differences: max rel err {worst:.3e} "
           f"<= 1e-05 on {compared} sampled params (>= 50) in {took:.1f} s "
           "(< 60 s)")
    assert compared >= 50
    assert worst <= 1e-5
    assert took < 60.0


def test_criterion_02_baseline_oracles(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(201)
    # (a) global nulling: interference-to-signal < 1e-8 per instance
    worst_is = 0.0
    for _ in range(1000):
        h = (rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4)))
        ws = beamform.zf_global(h, 2.0)
        c = beamform.stream_gains(h, ws.w)
        sig = np.sum(np.abs(np.diag(c)) ** 2)
        intf = np.sum(np.abs(c) ** 2) - sig
        worst_is = max(worst_is, intf / sig)
    # (b) K=M=1 matched filter closed form, 1e-10 relative
    worst_rate = 0.0
    for _ in range(50):
        h = (rng.normal(size=(1, 1, 4)) + 1j * rng.normal(size=(1, 1, 4)))
        got = beamform.wsr(h, beamform.mrt_local(h, 2.0).w, 0.5,
                           bandwidth=3.0).weighted_sum
        want = 3.0 * math.log2(1 + 2.0 * np.sum(np.abs(h) ** 2) / 0.5)
        worst_rate = max(worst_rate, abs(got - want) / want)
    # (c) regularized inverse limits: angles <= 1e-3 rad
    h = (rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4)))
    worst_angle = 0.0

    def angle(a, b):
        cos = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        return math.acos(min(1.0, cos))

    wm = beamform.mrt_local(h, 1.0).w
    wr_hi = beamform.mmse_local(h, 1.0, sigma2=1e9).w
    wz = beamform.zf_local(h, 1.0).w
    wr_lo = beamform.mmse_local(h, 1.0, sigma2=1e-12).w
    for k in range(2):
        for m in range(4):
            worst_angle = max(worst_angle, angle(wr_hi[k, m], wm[k, m]),
                              angle(wr_lo[k, m], wz[k, m]))
    took = time.monotonic() - t0
    ok = worst_is < 1e-8 and worst_rate <= 1e-10 and worst_angle <= 1e-3
    report(capsys, 2, ok,
           f"baseline oracles: worst I/S {worst_is:.2e} < 1e-08 on 1000 "
           f"instances; single-link rate rel err {worst_rate:.2e} <= 1e-10; "
           f"noise-limit angles {worst_angle:.2e} <= 1e-03 rad "
           f"({took:.1f} s)")
    assert worst_is < 1e-8
    assert worst_rate <= 1e-10
    assert worst_angle <= 1e-3


def test_criterion_03_channel_statistics(capsys):
    t0 = time.monotonic()
    fading = channel.FadingParams(b=0.063, m=2.0, omega=8.97e-4)
    rng = np.random.Generator(np.random.Philox(301))
    h = channel.sample_shadowed_rician(fading, 0.0, rng, size=10 ** 6)
    mean_p = float(np.mean(np.abs(h) ** 2))
    want = 2 * 0.063 + 8.97e-4
    rel = abs(mean_p - want) / want
    # series oracle: ascending series of the first-kind Bessel function
    xs = np.linspace(0.0, 5.0, 100)
    worst_bessel = 0.0
    for order in (1, 3):
        for x in xs:
            s, term = 0.0, 0.0
            for j in range(30):
                term = ((-1) ** j / (math.factorial(j)
                                     * math.factorial(j + order))
                        * (x / 2.0) ** (2 * j + order))
                s += term
            worst_bessel = max(worst_bessel,
                               abs(channel.bessel_j(order, float(x)) - s))
    took = time.monotonic() - t0
    ok = rel <= 0.02 and worst_bessel <= 1e-9 and took < 60.0
    report(capsys, 3, ok,
           f"channel statistics: mean power {mean_p:.6f} vs {want:.6f} "
           f"(rel {rel:.4f} <= 0.02 at 1e6 samples); Bessel grid vs series "
           f"{worst_bessel:.2e} <= 1e-09 ({took:.1f} s < 60 s)")
    assert rel <= 0.02
    assert worst_bessel <= 1e-9
    assert took < 60.0


def waterfill_bound(h, total_power, sigma2, bandwidth=1.0, weights=None):
    """Interference-free water-filling ceiling on the WSR of one realization.

    Holds for any linear precoder with sum_k ||w[k]||^2 <= total_power.
    Cauchy-Schwarz over the stacked antennas gives |c[m,m]|^2 <= g_m q_m
    with g_m = sum_k ||h[k,m]||^2 and q_m = sum_k ||w[k,m]||^2.  Dropping
    the interference leaves max(weights) B sum_m log2(1 + g_m q_m / sigma2),
    whose maximum over q >= 0, sum_m q_m <= total_power is water-filling.
    """
    floors = np.sort(sigma2 / np.sum(np.abs(h) ** 2, axis=(0, 2)))
    for active in range(floors.size, 0, -1):
        level = (total_power + floors[:active].sum()) / active
        if level > floors[active - 1]:
            break
    omega = 1.0 if weights is None else float(np.max(weights))
    return omega * bandwidth * float(np.sum(np.log2(level / floors[:active])))


def _check_waterfill_oracle():
    """Worst closed-form error and worst classical-scheme ratio to the bound.

    K=M=1: the bound is the single-link capacity B log2(1 + P|h|^2/sigma2),
    which mrt_local attains.  Random small systems, M=1 and K=1 included:
    no classical scheme may exceed the bound at total budget K*P.
    """
    rng = np.random.default_rng(401)
    worst_closed = 0.0
    for _ in range(50):
        h = rng.normal(size=(1, 1, 4)) + 1j * rng.normal(size=(1, 1, 4))
        want = 3.0 * math.log2(1 + 2.0 * np.sum(np.abs(h) ** 2) / 0.5)
        got = waterfill_bound(h, 2.0, 0.5, bandwidth=3.0)
        mrt = beamform.wsr(h, beamform.mrt_local(h, 2.0).w, 0.5,
                           bandwidth=3.0).weighted_sum
        worst_closed = max(worst_closed, abs(got - want) / want,
                           abs(mrt - want) / want)
    worst_ratio = 0.0
    for k, m, n in [(1, 1, 1), (1, 1, 3), (1, 3, 4), (2, 1, 2), (3, 2, 2),
                    (2, 4, 4), (4, 3, 3)]:
        for _ in range(40):
            h = (rng.normal(size=(k, m, n))
                 + 1j * rng.normal(size=(k, m, n))) * rng.uniform(0.1, 10)
            p, s2 = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            wt = rng.uniform(0.5, 2.0, size=m)
            bound = waterfill_bound(h, k * p, s2, weights=wt)
            for w in (beamform.mrt_local(h, p), beamform.zf_local(h, p),
                      beamform.mmse_local(h, p, s2),
                      beamform.zf_global(h, k * p),
                      beamform.mmse_global(h, k * p, s2)):
                rate = beamform.wsr(h, w, s2, weights=wt).weighted_sum
                worst_ratio = max(worst_ratio, rate / bound)
    return worst_closed, worst_ratio


def test_criterion_04_scheme_ordering_desk(capsys, desk_training, desk_eval):
    # the ceiling is the water-filling bound per sample, checked on each of
    # the 2000 held-out samples after the bound itself passes its oracle
    closed_err, oracle_ratio = _check_waterfill_oracle()
    means, rates = desk_eval["means"], desk_eval["rates"]
    sysp = desk_eval["system"]
    bounds = np.array([
        waterfill_bound(h, sysp.k_sats * sysp.power, sysp.sigma2,
                        bandwidth=sysp.bandwidth,
                        weights=sysp.weight_vector())
        for h in desk_eval["h_test"]])
    net_ratio = rates["gnn_local"] / bounds
    classical_ratio = max(float(np.max(r / bounds))
                          for name, r in rates.items() if name != "gnn_local")
    g = means["gnn_local"]
    mrt, zf = means["mrt_local"], means["zf_local"]
    mml, mmg = means["mmse_local"], means["mmse_global"]
    secs = desk_training.seconds
    under = bool(np.all(net_ratio <= 1 + 1e-9))
    gates = [g > mrt, g > zf, g >= 0.95 * mml, under, secs <= 7200.0,
             closed_err <= 1e-12, oracle_ratio <= 1 + 1e-9]
    ok = all(gates)
    report(capsys, 4, ok,
           "scheme ordering at desk scale (2000-sample test set): "
           f"net {g:.4e} vs mrt {mrt:.4e} (>), zf {zf:.4e} (>), "
           f"mmse_local {mml:.4e} (ratio {g / mml:.4f} >= 0.95; "
           f"aspirational >= 1 {'met' if g >= mml else 'not met'}, "
           f"non-gating), mmse_global {mmg:.4e} "
           f"(ratio {g / mmg:.4f}, non-gating); net / water-filling bound "
           f"per sample: mean {np.mean(net_ratio):.4f}, max "
           f"{np.max(net_ratio):.4f} <= 1 (rel slack 1e-9), classical max "
           f"{classical_ratio:.4f} (non-gating); oracle: K=M=1 closed form "
           f"err {closed_err:.1e} <= 1e-12, random small systems max ratio "
           f"{oracle_ratio:.4f} <= 1; "
           f"training wall time {secs:.0f} s <= 7200 s")
    assert closed_err <= 1e-12, (
        "water-filling bound misses the K=M=1 closed form by "
        f"{closed_err:.2e}")
    assert oracle_ratio <= 1 + 1e-9, (
        f"a classical scheme reaches {oracle_ratio:.6f} x the water-filling "
        "bound on a random small system; the bound is wrong")
    assert g > mrt, f"net {g:.6e} must beat mrt {mrt:.6e}"
    assert g > zf, f"net {g:.6e} must beat local zf {zf:.6e}"
    assert g >= 0.95 * mml, \
        f"net {g:.6e} must reach 0.95 x mmse_local {mml:.6e}"
    assert secs <= 7200.0
    assert under, (
        f"net / water-filling bound reaches {np.max(net_ratio):.6f} on "
        f"{int(np.sum(net_ratio > 1 + 1e-9))} of {net_ratio.size} samples; "
        "no precoder within the K*P total budget can exceed the bound, so "
        "the network's beams overspend power (mean ratio "
        f"{np.mean(net_ratio):.4f}, net/mmse_global {g / mmg:.4f}, "
        f"net/mmse_local {g / mml:.4f}, both non-gating)")


def test_criterion_05_convergence_shape(capsys, desk_training):
    hist = desk_training.result.history
    assert len(hist) == 200
    e50, e200 = hist[49].train_wsr, hist[199].train_wsr
    frac = e50 / e200
    gap = abs(hist[199].train_wsr - hist[199].test_wsr) / hist[199].test_wsr
    ok = frac >= 0.95 and gap <= 0.05
    report(capsys, 5, ok,
           f"convergence shape: train WSR at epoch 50 is {frac:.4f} of "
           f"epoch 200 (>= 0.95); final train/test gap {gap:.4f} <= 0.05")
    assert frac >= 0.95
    assert gap <= 0.05


def test_criterion_06_monotone_trends(capsys, desk_ckpt, tmp_path):
    config = experiments.load_config(
        DESK_INI, overrides={("run", "checkpoint"): desk_ckpt})
    # (a) mean WSR nondecreasing in transmit power for every scheme
    schemes = ["mrt_local", "zf_local", "mmse_local", "zf_global",
               "mmse_global", "gnn_local"]
    p_values = (-10.0, -5.0, 0.0, 5.0, 10.0)
    res = experiments.run_sweep(config, str(tmp_path), "p_dbw", p_values,
                                policy="fixed", schemes=schemes, size=150)
    p_ok, p_detail = True, []
    for scheme in schemes:
        ys = [y for _, y in res[scheme]]
        mono = all(b >= a * (1 - 1e-9) for a, b in zip(ys, ys[1:]))
        p_ok &= mono
        p_detail.append(f"{scheme}:{'up' if mono else 'NOT-MONOTONE'}")
    # (b) local-nulling WSR under split-total power: coherent per-satellite
    # gains make it nondecreasing in K, and Cauchy-Schwarz caps the gain at
    # K-fold, WSR(K) <= K * WSR(1)
    resk = experiments.run_sweep(config, str(tmp_path), "k_sats",
                                 (1, 2, 3, 4), policy="split",
                                 schemes=["zf_local"], size=200)
    ks = [y for _, y in resk["zf_local"]]
    caps = [k * ks[0] for k in range(1, len(ks) + 1)]
    k_up = all(b >= a * (1 - 1e-9) for a, b in zip(ks, ks[1:]))
    k_cap = all(y <= c * (1 + 1e-9) for y, c in zip(ks, caps))
    k_ok = k_up and k_cap
    ok = p_ok and k_ok
    band = "; ".join(
        f"K={k}: {lo:.3e} <= {y:.3e} <= {c:.3e} (cap ratio {y / c:.3f})"
        for k, lo, y, c in zip(range(2, len(ks) + 1), ks, ks[1:], caps[1:]))
    report(capsys, 6, ok,
           "monotone trends: WSR nondecreasing over -10..10 dBW (rel slack "
           f"1e-9) for {', '.join(p_detail)}; split-power zf_local over "
           f"K=1..4 must lie in WSR(K-1) <= WSR(K) <= K*WSR(1) (rel slack "
           f"1e-9), K=1: {ks[0]:.3e}; {band}"
           + ("" if k_up else " (DECREASING)")
           + ("" if k_cap else " (ABOVE K-FOLD)"))
    assert p_ok, "power sweep must be nondecreasing for every scheme"
    assert k_up, (
        "zf_local under the split policy must not fall with K, measured "
        + " -> ".join(f"{y:.4e}" for y in ks)
        + "; per-satellite nulled gains are real positive and add "
        "coherently, so the per-user SNR grows with K")
    assert k_cap, (
        "zf_local under the split policy must stay within K-fold of K=1, "
        "measured " + " -> ".join(f"{y:.4e}" for y in ks) + " vs caps "
        + ", ".join(f"{c:.4e}" for c in caps)
        + "; more than K-fold means the satellites overspend the split "
        "budget P/K")


def test_criterion_07_algorithm_equivalence(capsys):
    t0 = time.monotonic()
    dims = gnn.scaled_dims(2, 32)
    params = gnn.init_params(dims, np.random.Generator(np.random.Philox(701)))
    rng = np.random.default_rng(702)
    worst = 0.0
    for i in range(200):
        m = 1 + i % 5
        h_k = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        wa = gnn.forward_satellite(params, h_k, 2.0, algorithm="pairwise")
        wb = gnn.forward_satellite(params, h_k, 2.0, algorithm="refactored")
        denom = max(np.max(np.abs(wa)), 1e-300)
        worst = max(worst, float(np.max(np.abs(wa - wb)) / denom))
    c1, c2 = {}, {}
    m = 4
    h_k = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    gnn.forward_satellite(params, h_k, 1.0, algorithm="pairwise", counts=c1)
    gnn.forward_satellite(params, h_k, 1.0, algorithm="refactored",
                          counts=c2)
    counts_ok = (c1.get("mlp1_nodes", 0) == 2 * m * (m - 1)
                 and c2.get("mlp1_nodes", 0) == 2 * m)
    took = time.monotonic() - t0
    ok = worst <= 1e-12 and counts_ok
    report(capsys, 7, ok,
           f"algorithm equivalence: pairwise vs hoisted rel diff "
           f"{worst:.2e} <= 1e-12 on 200 instances; neighbor-MLP "
           f"invocations per conv M(M-1)={m * (m - 1)} vs M={m} "
           f"({took:.1f} s)")
    assert worst <= 1e-12
    assert counts_ok


def test_criterion_08_quantization_fidelity(capsys, desk_ckpt, tmp_path):
    t0 = time.monotonic()
    config = experiments.load_config(
        DESK_INI, overrides={("run", "checkpoint"): desk_ckpt})
    summary = experiments.run_quant_compare(config, str(tmp_path), size=500)
    took = time.monotonic() - t0
    ok = summary["ratio8"] >= 0.95
    report(capsys, 8, ok,
           f"quantization fidelity: 8-bit mean WSR ratio "
           f"{summary['ratio8']:.4f} >= 0.95 on the 500-sample seeded set "
           f"(16-bit ratio {summary['ratio16']:.4f}) ({took:.0f} s)")
    assert summary["ratio8"] >= 0.95


def test_criterion_09_latency_model_properties(capsys):
    # exact integer GEMM, effective = max(compute, memory), 16/8 cycle
    # ratio in [1.5, 2.1], big square layers memory-bound; absolute
    # milliseconds are never asserted
    rng = np.random.default_rng(901)
    gemm_ok = True
    for bits in (8, 16):
        cfg = accel.AcceleratorConfig(bits=bits)
        qmax = 2 ** (bits - 1) - 1
        dtype = np.int8 if bits == 8 else np.int16
        for m, k, n in [(17, 33, 9), (64, 64, 64)]:
            a = rng.integers(-qmax, qmax + 1, size=(m, k)).astype(dtype)
            b = rng.integers(-qmax, qmax + 1, size=(k, n)).astype(dtype)
            got, _ = accel.sa_gemm(accel.QuantizedTensor(a, 1.0),
                                   accel.QuantizedTensor(b, 1.0), cfg)
            oracle = np.zeros((m, n), dtype=np.int64)
            for i in range(m):
                for j in range(n):
                    s = 0
                    for p in range(k):
                        s += int(a[i, p]) * int(b[p, j])
                    oracle[i, j] = s
            gemm_ok &= bool(np.array_equal(got, oracle))
    dims = gnn.GnnDims(n_antennas=4)
    r8 = accel.latency_model(dims, 4, accel.AcceleratorConfig(bits=8))
    r16 = accel.latency_model(dims, 4, accel.AcceleratorConfig(bits=16))
    eff_ok = all(l.effective_cycles == max(l.compute_cycles, l.memory_cycles)
                 for r in (r8, r16) for l in r.layers)
    ratio = r16.total_cycles / r8.total_cycles
    ratio_ok = 1.5 <= ratio <= 2.1
    mb_ok = all(l.bound_tag == "memory-bound" for l in r8.layers
                if l.rows >= 512 and l.cols >= 512)
    ok = gemm_ok and eff_ok and ratio_ok and mb_ok
    report(capsys, 9, ok,
           f"latency model: integer GEMM equals the triple-loop oracle on "
           f"<= 64^3 instances ({gemm_ok}); per-layer effective = "
           f"max(compute, memory) ({eff_ok}); 16/8 total-cycle ratio "
           f"{ratio:.4f} in [1.5, 2.1]; big square layers memory-bound "
           f"({mb_ok}); absolute ms not asserted")
    assert gemm_ok and eff_ok and ratio_ok and mb_ok


def test_criterion_10_mac_accounting(capsys):
    cases = [(4, 4, gnn.scaled_dims(4, 8)), (2, 2, gnn.scaled_dims(2, 32)),
             (1, 2, gnn.scaled_dims(2, 32))]
    ok = True
    for m, n, dims in cases:
        mc = gnn.mac_count(m, n, dims)
        ok &= (mc.measured_pairwise == mc.total_pairwise
               and mc.measured_hoisted == mc.total_hoisted)
    mc = gnn.mac_count(4, 4, gnn.scaled_dims(4, 8))
    report(capsys, 10, ok,
           "complexity accounting: instrumented MAC counts equal the "
           f"analytic tallies exactly for both paths on {len(cases)} "
           f"configurations (desk scale: pairwise {mc.total_pairwise}, "
           f"hoisted {mc.total_hoisted})")
    assert ok
    assert mc.total_pairwise == 333_824
    assert mc.total_hoisted == 202_752
