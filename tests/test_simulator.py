import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from zicarq import simulator
from zicarq.analytic import d1_cmo, d2_cmo
from zicarq.core import COOP_SCHEMES, ParameterError, SchemeId, SystemParams
from zicarq.simulator import (
    SimConfig,
    _episode_batch,
    _trial_gains,
    estimate_diversity,
    estimate_outage,
    estimate_throughput,
    run_episode,
    wilson_interval,
)


def P(**kw):
    return SystemParams(**kw)


HK_P = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
SIM_SCHEMES = (SchemeId.HK, SchemeId.CMO, SchemeId.TIAN,
               SchemeId.COOP_CMO, SchemeId.COOP_TIAN, SchemeId.COOP_DD)


class TestRunEpisode:
    def test_huge_gains_no_outage(self):
        # direct and relay links boosted; the interferer stays at unit
        # gain, since joint-decoding constraints are ratio-limited when
        # every gain grows together
        g = (1e12, 1.0, 1e12, 1e12)
        for s in (SchemeId.HK, SchemeId.CMO, SchemeId.TIAN):
            assert run_episode(s, HK_P, 1000.0, g) == (False, False, 1)
        for s in (SchemeId.COOP_CMO, SchemeId.COOP_TIAN, SchemeId.COOP_DD):
            out = run_episode(s, P(r1=0.3, r2=0.4, beta=0.8, L=2), 1000.0, g)
            assert out == (False, False, 1)

    def test_strong_interference_can_pin_the_joint_constraint(self):
        # boosting the interferer alongside the direct link keeps the
        # round-1 sum rate finite, so the episode spills into round 2
        # without producing an error
        g = (1e18, 1e18, 1e18, 1e18)
        assert run_episode(SchemeId.HK, HK_P, 1000.0, g) == (False, False, 2)

    def test_dead_direct_link(self):
        g = (0.0, 1.0, 1.0, 1.0)
        for s in (SchemeId.HK, SchemeId.CMO, SchemeId.TIAN):
            assert run_episode(s, HK_P, 1000.0, g)[0]

    def test_rho_must_exceed_one(self):
        g = (1.0, 1.0, 1.0, 1.0)
        for rho in (0.5, math.nan):
            with pytest.raises(ParameterError, match="rho"):
                run_episode(SchemeId.CMO, HK_P, rho, g)

    def test_coop_requires_two_rounds(self):
        g = (1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError, match="L=2"):
            run_episode(SchemeId.COOP_CMO, P(r1=0.3, r2=0.3, L=3), 100.0, g)

    def test_analysis_only_schemes_rejected(self):
        g = (1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            run_episode(SchemeId.HK_STOP, HK_P, 100.0, g)
        with pytest.raises(ParameterError):
            run_episode(SchemeId.COOP_STATIC, P(r1=0.3, r2=0.3, L=2), 100.0, g)

    def test_link_snr_overflow_rejected(self):
        # rho and rho**beta are finite, but g11 * rho is not
        with pytest.raises(ParameterError, match="link SNR overflows"):
            run_episode(SchemeId.HK, HK_P, 1e10, (1e300, 1.0, 1.0, 1.0))
        assert run_episode(SchemeId.HK, HK_P, 1e10, (1e290, 1.0, 1.0, 1.0))[2] == 1

    def test_zeta_bounds(self):
        for g in _trial_gains(1, 0, 100, 0):
            err1, err2, zeta = run_episode(SchemeId.HK, HK_P, 50.0, g)
            assert 1 <= zeta <= HK_P.L
            # both ACKed strictly before the deadline implies no error
            if zeta < HK_P.L:
                assert not err1 and not err2


class TestProtocolSemantics:
    def test_cmo_keeps_transmitting_after_own_ack(self):
        # RX2 ACKs in round 1; RX1 needs the second joint round, which
        # only succeeds because TX2 keeps sending the same message
        p = P(r1=0.4, r2=0.1, beta=1.0, L=2)
        rho = 1000.0
        lg = math.log2(rho)
        # g11 tiny so own-rate needs 2 rounds; g21 carries the joint rate
        g11 = (2 ** (p.r1 * lg / 2) - 1) / rho * 1.01  # enough for 2 rounds only
        g22 = 10.0
        err1, _, zeta = run_episode(SchemeId.CMO, p, rho, (g11, 1.0, g22, 0.0))
        assert not err1
        assert zeta == 2

    def test_tian_interference_stops_after_rx2_ack(self):
        # huge interference, RX2 done in round 1; round 2 is clean and
        # rescues RX1, which the keep-interfering variants would fail
        p = P(r1=0.3, r2=0.1, beta=1.0, L=2)
        rho = 1000.0
        g21 = 1e6
        assert not run_episode(SchemeId.TIAN, p, rho, (1.0, g21, 100.0, 0.0))[0]

    def test_hk_reduces_to_tian_without_split_constant(self, monkeypatch):
        # with t2 = b = 0 and the finite-SNR power-split constant 1 + rho**b
        # forced to 1, the rate-splitting kernel is the noise-treating kernel
        p = P(r1=0.35, r2=0.45, t2=0.0, b=0.0, beta=0.9, L=3)
        g = _trial_gains(99, 0, 4000, 0)
        power = simulator._power
        monkeypatch.setattr(simulator, "_power", lambda rho, exponent, name:
                            0.0 if name == "b" else power(rho, exponent, name))
        hk = _episode_batch(SchemeId.HK, p, 200.0, g[:, 0], g[:, 1], g[:, 2], g[:, 3])
        ti = _episode_batch(SchemeId.TIAN, p, 200.0, g[:, 0], g[:, 1], g[:, 2], g[:, 3])
        for a, b in zip(hk, ti):
            assert np.array_equal(a, b)

    def test_coop_tx2_forfeits_own_retransmission(self):
        # RX1 NACKs round 1, so TX2 relays; RX2 failed its single shot and
        # must be in error even though a second round would have saved it
        p = P(r1=0.9, r2=0.2, beta=0.1, L=2)
        rho = 1000.0
        lg = math.log2(rho)
        g22 = (2 ** (p.r2 * lg) - 1) / rho * 0.9     # fails 1 round, passes 2
        g = (1e-4, 1.0, g22, 100.0)
        assert run_episode(SchemeId.COOP_CMO, p, rho, g)[1]
        # same draw under the non-cooperative protocol recovers in round 2
        assert not run_episode(SchemeId.CMO, p, rho, g)[1]

    def test_dd_errs_only_when_both_static_decoders_err(self):
        p = P(r1=0.4, r2=0.5, beta=0.9, L=2)
        g = _trial_gains(7, 0, 6000, 0)
        args = (g[:, 0], g[:, 1], g[:, 2], g[:, 3])
        e_cmo = _episode_batch(SchemeId.COOP_CMO, p, 100.0, *args)[0]
        e_tian = _episode_batch(SchemeId.COOP_TIAN, p, 100.0, *args)[0]
        e_dd = _episode_batch(SchemeId.COOP_DD, p, 100.0, *args)[0]
        assert np.array_equal(e_dd, e_cmo & e_tian)

    def test_scalar_matches_batch(self):
        for scheme, p in ((SchemeId.HK, HK_P), (SchemeId.TIAN, HK_P),
                          (SchemeId.COOP_DD, P(r1=0.3, r2=0.4, beta=0.8, L=2))):
            g = _trial_gains(42, 0, 150, 0)
            be1, be2, bz = _episode_batch(scheme, p, 100.0, g[:, 0], g[:, 1],
                                          g[:, 2], g[:, 3])
            for t in range(150):
                out = run_episode(scheme, p, 100.0, _trial_gains(42, t, 1, 0)[0])
                assert out == (bool(be1[t]), bool(be2[t]), int(bz[t]))


class TestEstimateOutage:
    def test_single_trial(self):
        est = estimate_outage(SchemeId.CMO, P(r1=0.9, r2=0.9, L=1), 10.0, 1, 0)
        assert est.p_out1 in (0.0, 1.0) and est.p_out2 in (0.0, 1.0)

    def test_zero_rate_outage_impossible(self):
        est = estimate_outage(SchemeId.CMO, P(r1=0.0, r2=0.0, beta=0.5, L=1),
                              100.0, 100_000, 3)
        assert est.p_out1 == 0.0 and est.p_out2 == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ParameterError, match="trials"):
            estimate_outage(SchemeId.CMO, HK_P, 100.0, 0, 0)

    def test_probability_bounds_and_ci(self):
        est = estimate_outage(SchemeId.HK, HK_P, 50.0, 5000, 1)
        for p, ci in ((est.p_out1, est.ci1), (est.p_out2, est.ci2)):
            assert 0.0 <= p <= 1.0
            assert ci[0] <= p <= ci[1]

    # at L = 4 the open-trial rounds run three times, not once
    @pytest.mark.parametrize("scheme,L", [
        *(pytest.param(s, 2, id=s.value) for s in SIM_SCHEMES),
        pytest.param(SchemeId.HK, 4, id="hk-L4"),
        pytest.param(SchemeId.TIAN, 4, id="tian-L4")])
    def test_partition_independent(self, scheme, L, monkeypatch):
        p = HK_P if scheme not in COOP_SCHEMES else P(r1=0.3, r2=0.4, beta=0.8, L=2)
        p = p.replace(L=L)
        kw = dict(scheme=scheme, params=p, rho=100.0, trials=30_000, seed=42)
        threads = []
        draw = simulator._trial_gains

        def traced_draw(*args):
            threads.append(threading.current_thread().name)
            return draw(*args)

        monkeypatch.setattr(simulator, "_trial_gains", traced_draw)
        monkeypatch.setattr(simulator, "_BLOCK", 977)
        # the pool runs even on a one-CPU machine
        monkeypatch.setattr(simulator, "_WORKERS", max(2, simulator._WORKERS))
        pooled = estimate_outage(**kw)
        assert len(threads) == 31
        assert all(t.startswith("zicarq-mc") for t in threads)
        monkeypatch.setattr(simulator, "_WORKERS", 1)
        serial = estimate_outage(**kw)
        assert set(threads[31:]) == {threading.current_thread().name}
        monkeypatch.setattr(simulator, "_BLOCK", 30_000)
        one_block = estimate_outage(**kw)
        assert pooled == serial == one_block

    def test_link_snr_overflow_rejected_per_point(self):
        # every drawn gain stays finite on the link at 3000 dB; at 3080 dB
        # g * rho overflows, which would count NaN tests as outage
        p = P(r1=0.3, r2=0.3, t2=0.1, b=0.1, beta=1.0, L=2)
        assert simulator.run_trials(SchemeId.HK, p, 1e300, 2000, 0).k1 == 0
        for scheme in (SchemeId.HK, SchemeId.TIAN, SchemeId.COOP_DD):
            with pytest.raises(ParameterError, match="link SNR overflows"):
                simulator.run_trials(scheme, p, 1e308, 2000, 0)

    def test_reproducible(self):
        a = estimate_outage(SchemeId.COOP_DD, P(r1=0.3, r2=0.4, beta=0.8, L=2),
                            100.0, 20_000, 9)
        b = estimate_outage(SchemeId.COOP_DD, P(r1=0.3, r2=0.4, beta=0.8, L=2),
                            100.0, 20_000, 9)
        assert a == b


class TestWorkerPool:
    @pytest.mark.parametrize("scheme,p", [
        pytest.param(SchemeId.HK, HK_P.replace(beta=400.0),
                     id="beta-overflow"),
        pytest.param(SchemeId.HK_KEEP, HK_P, id="hk-keep")])
    def test_worker_error_surfaces_as_in_one_block(self, scheme, p, monkeypatch):
        monkeypatch.setattr(simulator, "_BLOCK", 977)
        monkeypatch.setattr(simulator, "_WORKERS", max(2, simulator._WORKERS))
        with pytest.raises(ParameterError) as one:
            simulator.run_trials(scheme, p, 1e3, 977, 0)
        with pytest.raises(ParameterError) as pooled:
            simulator.run_trials(scheme, p, 1e3, 5 * 977, 0)
        assert str(pooled.value) == str(one.value)
        assert simulator._pool is not None

    def test_one_block_run_builds_no_pool(self, monkeypatch):
        monkeypatch.setattr(simulator, "_pool", None)
        monkeypatch.setattr(simulator, "_WORKERS", max(2, simulator._WORKERS))
        simulator.run_trials(SchemeId.CMO, HK_P, 100.0, simulator._BLOCK, 0)
        assert simulator._pool is None

    def test_counts_are_python_ints(self, monkeypatch):
        monkeypatch.setattr(simulator, "_BLOCK", 977)
        monkeypatch.setattr(simulator, "_WORKERS", max(2, simulator._WORKERS))
        c = simulator.run_trials(SchemeId.CMO, HK_P, 100.0, 3 * 977, 0)
        assert all(type(v) is int for v in dataclasses.astuple(c))

    def test_cli_import_leaves_thread_pool_module_unloaded(self):
        out = _python("import zicarq.cli; print('concurrent.futures' in sys.modules)")
        assert out == "False"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_blocks(self):
        # the child inherits a built pool whose threads did not survive the
        # fork; SIGALRM (status 14) ends it if it waits on them
        out = _python("""
import os, signal
from zicarq import simulator
from zicarq.core import SystemParams
simulator._BLOCK, simulator._WORKERS = 977, 2
run = lambda: simulator.run_trials("cmo", SystemParams(r1=.3, r2=.4, L=2),
                                   100.0, 5 * 977, 0)
want = run()
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if run() == want else 1)
print(os.waitpid(pid, 0)[1])
""")
        assert out == "0"


def _python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this zicarq."""
    src = str(Path(simulator.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in ((0, 10), (1, 10), (5, 10), (10, 10), (3, 1000)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_no_trials(self):
        with pytest.raises(ParameterError, match="trials must be >= 1"):
            wilson_interval(0, 0)


class TestEstimateDiversity:
    def test_monotone_in_snr_with_ci_overlap(self):
        cfg = SimConfig(rho_db_grid=(10, 15, 20, 25, 30), trials=200_000, seed=4)
        d1, d2 = estimate_diversity(SchemeId.CMO, P(r1=0.2, r2=0.2, beta=0.5, L=1), cfg)
        for est in (d1, d2):
            for a, b in zip(est.points, est.points[1:]):
                # allow CI overlap, flag only clear violations
                assert b.p_out <= a.ci_hi + 3 * (a.ci_hi - a.ci_lo)

    def test_zero_rates_raise(self):
        # zero rates never go out, so every point is dropped and no slope fits
        cfg = SimConfig(rho_db_grid=(10, 20, 30), trials=1000, seed=4)
        for est in estimate_diversity(SchemeId.CMO, P(r1=0.0, r2=0.0, L=1), cfg):
            assert est.slope is None and est.stderr is None
            assert est.dropped_rho_db == (10, 20, 30)
            assert [pt.rho_db for pt in est.points] == [10, 20, 30]

    def test_slope_approaches_analytic_with_wider_grids(self):
        p = P(r1=0.2, r2=0.2, beta=0.5, L=1)
        target = d1_cmo(p)[0]  # 0.7
        gaps = []
        for top in (20, 30, 40):
            grid = tuple(range(10, top + 1, 5))
            cfg = SimConfig(rho_db_grid=grid, trials=200_000, seed=12)
            d1, _ = estimate_diversity(SchemeId.CMO, p, cfg)
            gaps.append(abs(d1.slope - target))
        assert gaps[-1] < gaps[0]

    def test_grid_validation(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            SimConfig(rho_db_grid=(10, 10), trials=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, 7 - 2**64, 7.0, True])
    def test_seed_outside_64_bits(self, seed):
        # the key holds 64 bits, so these would alias seeds in [0, 2**64)
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SimConfig(rho_db_grid=(10,), trials=10, seed=seed)
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            simulator.run_trials(SchemeId.CMO, P(r1=0.2, r2=0.2), 100.0, 10, seed)


class TestEstimateThroughput:
    def test_single_round_ratio_is_one(self):
        p = P(r1=0.3, r2=0.3, t2=0.1, b=0.1, beta=0.8, L=1)
        est = estimate_throughput(SchemeId.HK, p, 1000.0, 10_000, 5)
        assert est.ratio1 == 1.0 and est.ratio2 == 1.0
        assert est.mean_zeta == 1.0

    def test_ratio_bounds(self):
        est = estimate_throughput(SchemeId.HK, HK_P, 100.0, 20_000, 5)
        assert 0.0 < est.ratio1 <= 1.0
        assert 1.0 <= est.mean_zeta <= HK_P.L
        assert est.eta1 == pytest.approx(HK_P.r1 * math.log2(100.0) * est.ratio1)

    def test_high_rate_low_snr_hurts(self):
        p = P(r1=0.9, r2=0.9, beta=1.0, L=2)
        est = estimate_throughput(SchemeId.CMO, p, 10.0, 20_000, 5)
        assert est.ratio1 < 1.0


class TestTrialGains:
    def test_trial_gains_are_unit_exponentials(self):
        g = _trial_gains(3, 0, 200_000, 0)
        assert g.shape == (200_000, 4)
        assert float(g.mean()) == pytest.approx(1.0, rel=0.02)
        assert float((g < 0).sum()) == 0
    def test_draw_is_philox_exp1_at_the_trial_offset(self):
        # the randomness contract: trial t's four uniforms are Philox
        # counter block t of key (seed, stream), mapped by -log1p(-u)
        seed, stream, trial0, n = 12345, 3, 70_001, 5000
        bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        bg.advance(trial0)
        u = np.random.Generator(bg).random((n, 4))
        g = _trial_gains(seed, trial0, n, stream)
        assert g.tobytes() == (-np.log1p(-u)).tobytes()


@pytest.mark.parametrize("scheme,L,dtype", [
    *[(s, L, np.uint8) for s in ("hk", "cmo", "tian") for L in (1, 4)],
    *[(s, 300, np.uint16) for s in ("hk", "cmo", "tian")],
    ("coop-dd", 2, np.uint8)])
def test_ack_rounds_keep_the_smallest_integer_type(scheme, L, dtype):
    # int64 minimum/maximum over a block cost several times as much
    p = P(r1=0.3, r2=0.4, t2=0.2 if scheme == "hk" else 0.0, beta=0.8, L=L)
    g = _trial_gains(3, 0, 500, 0)
    zeta = _episode_batch(SchemeId(scheme), p, 100.0, g[:, 0], g[:, 1], g[:, 2],
                          g[:, 3])[2]
    assert zeta.dtype == dtype


def test_ack_rounds_stop_once_every_trial_acks(monkeypatch):
    # each round the loop runs reduces its tests once; at L = 10**6 a loop
    # that ran on over empty index arrays took about 5 s, and here it fails
    # at its eleventh round instead
    rounds = []

    def counted(f, tests):
        rounds.append(len(rounds) + 1)
        assert len(rounds) <= 10, "round loop runs on after every trial ACKed"
        return functools.reduce(f, tests)

    monkeypatch.setattr(simulator, "reduce", counted)
    x = np.array([0.5, 1.0, 0.25, 2.0])
    ack = simulator._ack_rounds(10**6, [(x, None, 1.0)])
    assert ack.tolist() == [2, 1, 4, 1]
    assert rounds == [1, 2, 3, 4]


def test_ack_rounds_count_past_the_uint64_range():
    # from L = 2**64 - 1 on no fixed-width integer holds L + 1, so the ACK
    # rounds are Python ints in an object array; where every trial ACKs by
    # round 3, L = 2**64 must give the episodes of L = 8
    p = P(r1=0.2, r2=0.2, beta=0.5, L=8)
    g = _trial_gains(3, 0, 2000, 0)
    cols = (g[:, 0], g[:, 1], g[:, 2], g[:, 3])
    err1, err2, zeta = want = _episode_batch(SchemeId.CMO, p, 1e4, *cols)
    assert not (err1.any() or err2.any())
    assert set(zeta.tolist()) == {1, 2, 3}
    got = _episode_batch(SchemeId.CMO, p.replace(L=2**64), 1e4, *cols)
    assert got[2].dtype == object
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()


@pytest.mark.parametrize("scheme,gains,L,want", [
    ("cmo", (0.0, 1.0, 1.0, 1.0), 10**18, (True, False)),
    ("hk", (0.0, 1.0, 1.0, 1.0), 10**18, (True, False)),
    ("hk", (1.0, 1.0, 0.0, 1.0), 10**18, (False, True)),
    ("tian", (0.0, 1.0, 1.0, 1.0), 2**64, (True, False)),
], ids=["cmo-g11=0", "hk-g11=0", "hk-g22=0", "tian-g11=0-2**64"])
def test_never_ack_trials_leave_the_round_loop(scheme, gains, L, want, monkeypatch):
    # a zero direct gain leaves a positive rate with no information in any
    # round: the trial ends at L + 1 after round 1, where the loop used to
    # run one round per ARQ round and never return at these L.  The result
    # is the one the full loop gives: the receiver errs and zeta = L
    rounds = []

    def counted(f, tests):
        rounds.append(f)
        assert len(rounds) <= 10, "the round loop runs on for a trial that never ACKs"
        return functools.reduce(f, tests)

    monkeypatch.setattr(simulator, "reduce", counted)
    p = P(r1=0.3, r2=0.3, beta=0.5, L=L)
    assert run_episode(scheme, p, 100.0, gains) == (*want, L)
    monkeypatch.undo()
    assert run_episode(scheme, p.replace(L=6), 100.0, gains) == (*want, 6)


def _reference_listening(p, rho, grelay):
    """TX2's listening fraction: the whole symbols of a 1000-symbol round
    it needs to decode TX1's message, or the whole round."""
    R1 = p.r1 * math.log2(rho)
    clog = np.log2(1.0 + grelay * rho)
    with np.errstate(divide="ignore", over="ignore"):
        need = np.where(clog > 0.0, np.ceil(1000 * R1 / clog), np.inf)
    return np.minimum(1000.0, need) / 1000.0


def _reference_episodes(scheme, p, rho, g11, g21, g22, grelay):
    """Every round over every trial, written from the protocol definition.

    RX2's ACK round comes first, since RX1 sees TX2's interference only
    up to it; each later round retests every trial still without an ACK.
    """
    lg = math.log2(rho)
    R1, R2, T2 = p.r1 * lg, p.r2 * lg, p.t2 * lg
    A, B, C = g11 * rho, g21 * rho**p.beta, g22 * rho
    m1 = np.log2(1.0 + A)
    m1s = np.log2(1.0 + A + B)
    m1n = np.log2(1.0 + A / (1.0 + B))
    m2 = np.log2(1.0 + C)
    if scheme in COOP_SCHEMES:
        cmo_ok1 = (m1 >= R1) & (m1s >= R1 + R2)
        tian_ok1 = m1n >= R1
        ack1 = {SchemeId.COOP_CMO: cmo_ok1, SchemeId.COOP_TIAN: tian_ok1,
                SchemeId.COOP_DD: cmo_ok1 | tian_ok1}[scheme]
        f = _reference_listening(p, rho, grelay)
        o1 = (1.0 + f) * m1 + (1.0 - f) * m1s < R1
        o2 = m1s + f * m1 + (1.0 - f) * m1s < R1 + R2
        o3 = m1n + f * m1 + (1.0 - f) * m1s < R1
        err = {SchemeId.COOP_CMO: o1 | o2, SchemeId.COOP_TIAN: o3,
               SchemeId.COOP_DD: o3 & (o1 | o2)}[scheme]
        ok2 = m2 >= R2
        return (np.where(ack1, False, err), np.where(ack1, 2.0 * m2 < R2, ~ok2),
                np.where(ack1 & ok2, 1, 2))
    L = p.L
    if scheme is SchemeId.HK:
        div = 1.0 + rho**p.b
        m2p = np.log2(1.0 + C / div)
        Bn = B / div
        m1_int = np.log2(1.0 + A / (1.0 + Bn))
        m1s_int = np.log2(1.0 + (A + B) / (1.0 + Bn))

        def rx2_ok(l):
            return (l * m2 >= R2) & (l * m2p >= R2 - T2)

        def rx1_ok(l, i):
            return ((i * m1_int + (l - i) * m1 >= R1)
                    & (i * m1s_int + (l - i) * m1s >= R1 + T2))
    elif scheme is SchemeId.CMO:
        def rx2_ok(l):
            return l * m2 >= R2

        def rx1_ok(l, i):
            return (l * m1 >= R1) & (l * m1s >= R1 + R2)
    else:
        def rx2_ok(l):
            return l * m2 >= R2

        def rx1_ok(l, i):
            return i * m1n + (l - i) * m1 >= R1
    ack2 = np.full(A.shape, L + 1)
    for l in range(1, L + 1):
        ack2[rx2_ok(l) & (ack2 > L)] = l
    ack1 = np.full(A.shape, L + 1)
    for l in range(1, L + 1):
        ack1[rx1_ok(l, np.minimum(ack2, l)) & (ack1 > L)] = l
    return ack1 > L, ack2 > L, np.maximum(np.minimum(ack1, L), np.minimum(ack2, L))


def _reference_cases():
    # 60 random points, ten per scheme, with every sixth r1/r2 pushed to
    # an edge where nearly every trial, or none, stays open after round 1
    rng = np.random.default_rng(2015)
    edges = (0.0, 1e-3, 0.999, 1.0)
    cases = []
    for k in range(60):
        scheme = SIM_SCHEMES[k % 6]
        r1, r2 = rng.uniform(0.0, 1.0, 2)
        if k % 6 == k // 6 % 6:
            r1, r2 = rng.choice(edges, 2)
        t2 = rng.uniform(0.0, r2) if scheme is SchemeId.HK else 0.0
        b = rng.uniform(0.0, 1.5) if scheme is SchemeId.HK else 0.0
        L = 2 if scheme in COOP_SCHEMES else int(rng.integers(1, 7))
        p = P(r1=float(r1), r2=float(r2), t2=float(t2), b=float(b),
              beta=float(rng.uniform(0.0, 2.0)), L=L)
        cases.append((scheme, p, float(10.0 ** rng.uniform(0.3, 4.0)), k))
    return cases


REFERENCE_CASES = _reference_cases()


class TestKernelsMatchReference:
    @pytest.mark.parametrize("scheme,p,rho,stream", [
        pytest.param(*c, id=f"{c[0].value}-{c[3]}") for c in REFERENCE_CASES])
    def test_elementwise(self, scheme, p, rho, stream):
        g = _trial_gains(8, 0, 3000, stream)
        cols = (g[:, 0], g[:, 1], g[:, 2], g[:, 3])
        got = _episode_batch(scheme, p, rho, *cols)
        want = _reference_episodes(scheme, p, rho, *cols)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("db", (10, 20))
    @pytest.mark.parametrize("L", (8, 16))
    @pytest.mark.parametrize("scheme", (SchemeId.HK, SchemeId.CMO, SchemeId.TIAN))
    def test_late_rounds(self, scheme, L, db):
        # at r1 = r2 = 0.5 some trials first ACK after round 4, so the open
        # trials are gathered round after round
        split = scheme is SchemeId.HK
        p = P(r1=0.5, r2=0.5, t2=0.2 if split else 0.0, b=0.1 if split else 0.0,
              beta=0.8, L=L)
        rho = 10.0 ** (db / 10.0)
        g = _trial_gains(8, 0, 3000, db)
        cols = (g[:, 0], g[:, 1], g[:, 2], g[:, 3])
        got = _episode_batch(scheme, p, rho, *cols)
        want = _reference_episodes(scheme, p, rho, *cols)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        zeta = want[2]
        assert ((zeta > 4) & (zeta < L)).any()

    def test_reference_covers_all_and_none_open(self):
        # the edge points reach both ends: a block where every trial ACKs
        # in round 1 and one where none does
        first = set()
        for scheme, p, rho, stream in REFERENCE_CASES:
            g = _trial_gains(8, 0, 3000, stream)
            _, _, zeta = _reference_episodes(scheme, p, rho, g[:, 0], g[:, 1],
                                             g[:, 2], g[:, 3])
            first.add(float(np.mean(zeta == 1)))
        assert 0.0 in first and 1.0 in first

    def test_reference_reaches_both_listening_branches(self):
        # TX2 relays for part of round 2 (f < 1) where its link decodes
        # TX1's message within the round, and only listens (f = 1) elsewhere
        f = np.concatenate([_reference_listening(p, rho, _trial_gains(8, 0, 3000, stream)[:, 3])
                            for scheme, p, rho, stream in REFERENCE_CASES
                            if scheme in COOP_SCHEMES])
        assert (f == 1.0).any() and (f < 1.0).any()


POINTS = {"split": dict(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8),
          "plain": dict(r1=0.3, r2=0.4, beta=0.8)}
# run_trials(scheme, P(**POINTS[point], L=L), 10**(db/10), 70_000, seed=11)
# as (k1, k2, zeta_sum), counted by kernels that test every round on every
# trial; 70,000 trials cross one _BLOCK boundary
GOLDEN = [
    ("hk", "split", 1, 15, (28484, 6284, 70000)),
    ("hk", "split", 1, 35, (53662, 484, 70000)),
    ("hk", "plain", 1, 15, (24607, 12002, 70000)),
    ("hk", "plain", 1, 35, (35387, 1032, 70000)),
    ("cmo", "plain", 1, 15, (7392, 6284, 70000)),
    ("cmo", "plain", 1, 35, (1352, 484, 70000)),
    ("tian", "plain", 1, 15, (35354, 6284, 70000)),
    ("tian", "plain", 1, 35, (47055, 484, 70000)),
    ("hk", "split", 2, 15, (3369, 2165, 102212)),
    ("hk", "split", 2, 35, (293, 102, 123765)),
    ("hk", "plain", 2, 15, (4278, 4242, 102365)),
    ("hk", "plain", 2, 35, (412, 182, 105883)),
    ("cmo", "plain", 2, 15, (1689, 2165, 83018)),
    ("cmo", "plain", 2, 35, (52, 102, 71828)),
    ("tian", "plain", 2, 15, (4452, 2165, 108443)),
    ("tian", "plain", 2, 35, (387, 102, 117197)),
    ("hk", "split", 3, 15, (1501, 1357, 107418)),
    ("hk", "split", 3, 35, (53, 58, 124147)),
    ("hk", "plain", 3, 15, (1790, 2527, 110141)),
    ("hk", "plain", 3, 35, (66, 96, 106445)),
    ("cmo", "plain", 3, 15, (943, 1265, 86825)),
    ("cmo", "plain", 3, 35, (26, 50, 71982)),
    ("tian", "plain", 3, 15, (1806, 1265, 114465)),
    ("tian", "plain", 3, 35, (67, 50, 117652)),
    ("hk", "split", 4, 15, (915, 960, 110161)),
    ("hk", "split", 4, 35, (28, 41, 124255)),
    ("hk", "plain", 4, 15, (1059, 1797, 114177)),
    ("hk", "plain", 4, 35, (31, 64, 106599)),
    ("cmo", "plain", 4, 15, (682, 844, 89016)),
    ("cmo", "plain", 4, 35, (16, 27, 72058)),
    ("tian", "plain", 4, 15, (1047, 844, 117292)),
    ("tian", "plain", 4, 35, (32, 27, 117759)),
    ("coop-cmo", "plain", 2, 15, (612, 2603, 83018)),
    ("coop-cmo", "plain", 2, 35, (8, 110, 71828)),
    ("coop-tian", "plain", 2, 15, (446, 4248, 108443)),
    ("coop-tian", "plain", 2, 35, (2, 375, 117197)),
    ("coop-dd", "plain", 2, 15, (313, 2515, 81838)),
    ("coop-dd", "plain", 2, 35, (1, 110, 71733)),
]


@pytest.mark.parametrize("scheme,point,L,db,want", [
    pytest.param(*g, id=f"{g[0]}-{g[1]}-L{g[2]}-{g[3]}dB") for g in GOLDEN])
def test_golden_counts(scheme, point, L, db, want):
    c = simulator.run_trials(scheme, P(**POINTS[point], L=L),
                             10.0 ** (db / 10.0), 70_000, 11)
    assert (c.n, c.k1, c.k2, c.zeta_sum) == (70_000, *want)
