"""End-to-end acceptance suite: ten checks, one printed verdict line each.

Every check prints ``[PASS]``/``[FAIL] A<k> <title>`` before asserting, so a
``pytest tests/test_acceptance.py -v -s`` run shows one line per check.  The
checks cover, in order:

  A1   scalar rate formulas against hand closed forms
  A2   constraint flags against an independent plain-Python re-derivation
  A3   backpropagation against central finite differences at reference sizes
  A4   energy conservation of the passive surface split
  A5   exact monotonicity of the grid optimum in both power budgets
  A6   amplifying surface beats the passive one under a shared search budget
  A7   learning smoke test: all three agents beat the random-policy floor
  A8   byte-identical training traces under a fixed seed
  A9   literal reward arithmetic on crafted constraint reports
  A10  reference hyperparameters survive a config round trip field-for-field

The learning smoke test (A7) dominates the runtime; the whole module stays
within its printed budgets on a laptop-class machine.
"""

import cmath
import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest
import scalar_reference as ref

from srnoma.agents import random_policy_trace, train
from srnoma.env import SrEnv
from srnoma.harness import (
    default_config,
    dump_config,
    grid_oracle,
    load_config,
    random_search,
)
from srnoma.network import (
    ChannelRealization,
    SystemConfig,
    draw_realization,
    make_placement,
)
from srnoma.nn import Mlp
from srnoma.problem import (
    LITERAL,
    PENALTY,
    ConstraintReport,
    evaluate_constraints,
    reward,
)
from srnoma.rates import DecisionVariables, rate_report
from srnoma.ris import ACTIVE, PASSIVE, RisCoefficients, response_vector


def _verdict(tag: str, title: str, ok: bool, detail: str) -> None:
    """One human-readable line per acceptance check, printed before asserting
    so the verdict shows up even when the check fails."""
    print(f"[{'PASS' if ok else 'FAIL'}] {tag} {title}: {detail}")
    assert ok, f"{tag} {title}: {detail}"


# ===========================================================================
# A2 helper: an independent constraint checker, plain loops only
# ===========================================================================

_CLAMP = 1023.0  # largest exp2 exponent that stays finite in float64


def _independent_flags(ch, dv, cfg) -> list:
    """Re-derive the eleven constraint verdicts from their definitions.

    Everything is rebuilt with scalar Python arithmetic (math/cmath, list
    comprehensions): channel combining, decoding orders, interference sums,
    surface noise, the inverted rate thresholds.  No code is shared with the
    package beyond reading the input arrays element by element.
    """
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    two_pi = 2.0 * math.pi
    coeff = dv.ris
    beta_t = [float(b) for b in coeff.beta_t]
    beta_r = [float(b) for b in coeff.beta_r]
    theta_t = [float(t) for t in coeff.theta_t]
    theta_r = [float(t) for t in coeff.theta_r]
    eta = [float(e) for e in dv.eta]
    tau = [float(t) for t in dv.tau]
    power = [float(p) for p in dv.power]
    bandwidth = cfg.bandwidth_hz

    # C1 passive split / C2 amplification cap (each vacuous in the other mode)
    if coeff.mode == PASSIVE:
        c1 = all(bt + br == 1.0 for bt, br in zip(beta_t, beta_r))
        c2 = True
    else:
        c1 = True
        cap = cfg.p_asris_watts / 2.0
        c2 = all(b <= cap for b in beta_t + beta_r)
    # C3 phases, C4 transmit power, C5 power split, C6 time share
    c3 = all(0.0 <= t <= two_pi for t in theta_t + theta_r)
    c4 = all(0.0 <= p <= cfg.p_bs_max_watts for p in power)
    c5 = all(0.0 <= e <= 1.0 for e in eta)
    c6 = all(0.0 <= t <= 1.0 for t in tau)

    # C7 harvested energy per backscatter device
    c7 = True
    beam1 = []
    for i in range(users):
        amp = sum(complex(ch.h1[a, i]).conjugate() * complex(dv.w1[a, i])
                  for a in range(n))
        beam1.append(abs(amp) ** 2)
        harvested = (cfg.energy_conversion_efficiency * power[i]
                     * (1.0 - eta[i]) * (1.0 - tau[i]) * beam1[i])
        c7 = c7 and (harvested >= cfg.harvest_threshold_joules)

    def descending(values):
        return sorted(range(len(values)), key=lambda i: -values[i])

    def nonincreasing(values, order):
        return all((values[order[j]] - values[order[j + 1]]) >= 0.0
                   for j in range(len(order) - 1))

    def log_rate(share, sinr):
        grown = 1.0 + sinr
        return share * math.log2(grown) if grown > 0.0 else float("nan")

    # phase 1: backscatter strengths, strongest decoded first, the already
    # decoded users interfere with the later ones
    strengths1 = []
    for i in range(users):
        g_norm2 = sum(abs(complex(ch.g1[a, i])) ** 2 for a in range(n))
        strengths1.append(power[i] * eta[i] * g_norm2 * beam1[i])
    order1 = descending(strengths1)
    running = 0.0
    interference1 = [0.0] * users
    for idx in order1:
        interference1[idx] = running
        running += strengths1[idx]
    spread = float(cfg.symbols_per_bd_symbol)
    sinr1, rate1 = [], []
    for i in range(users):
        s = spread * strengths1[i] / (interference1[i] + bandwidth * cfg.noise_bs_watts)
        sinr1.append(s)
        rate1.append(log_rate(bandwidth * tau[i] / spread, s))
    c8 = nonincreasing(rate1, order1)

    # phase 2, one side at a time: cascaded rows, per-beam cross terms,
    # amplified thermal noise re-radiated by the surface
    def side(gmat, response, include_direct):
        rows = []
        for i in range(users):
            row = []
            for a in range(n):
                acc = 0j
                for e in range(m):
                    acc += complex(gmat[i, e]) * response[e] * complex(ch.h2[e, a])
                if include_direct:
                    acc += complex(ch.h3[a, i]).conjugate()
                row.append(acc)
            rows.append(row)
        c = [[sum(rows[i][a] * complex(dv.w2[a, j]) for a in range(n))
              for j in range(users)] for i in range(users)]
        strengths = [power[i] * abs(c[i][i]) ** 2 for i in range(users)]
        order = descending(strengths)
        mask = [0.0] * users
        interference = [0.0] * users
        for idx in order:
            interference[idx] = sum(
                (power[j] * abs(c[idx][j]) ** 2) * mask[j] for j in range(users)
            )
            mask[idx] = 1.0
        surface = sum(
            abs(sum(complex(gmat[i, e]) for i in range(users)) * response[e]) ** 2
            for e in range(m)
        ) * cfg.noise_asris_watts
        noise = bandwidth * (surface + cfg.noise_sue_watts)
        sinr = [strengths[i] / (interference[i] + noise) for i in range(users)]
        rates = [log_rate(bandwidth * (1.0 - tau[i]), sinr[i]) for i in range(users)]
        return sinr, rates, order

    response_r = [math.sqrt(beta_r[e]) * cmath.exp(1j * theta_r[e]) for e in range(m)]
    response_t = [math.sqrt(beta_t[e]) * cmath.exp(1j * theta_t[e]) for e in range(m)]
    sinr_r, rates_r, order_r = side(ch.g2r, response_r, True)
    sinr_t, rates_t, order_t = side(ch.g2t, response_t, False)
    c9 = nonincreasing(rates_r, order_r) and nonincreasing(rates_t, order_t)

    # C10/C11: every stream's SINR must support the common target rate
    def required(share):
        if dv.rate_target <= 0.0:
            return 0.0
        if share > 0.0:
            exponent = min(spread * dv.rate_target / (bandwidth * share), _CLAMP)
        else:
            exponent = _CLAMP
        return math.pow(2.0, exponent) - 1.0

    def required_downlink(share):
        if dv.rate_target <= 0.0:
            return 0.0
        if share > 0.0:
            exponent = min(1.0 * dv.rate_target / (bandwidth * share), _CLAMP)
        else:
            exponent = _CLAMP
        return math.pow(2.0, exponent) - 1.0

    c10 = all((sinr1[i] - required(tau[i])) >= 0.0 for i in range(users))
    c11 = all((sinr_r[i] - required_downlink(1.0 - tau[i])) >= 0.0 for i in range(users)) \
        and all((sinr_t[i] - required_downlink(1.0 - tau[i])) >= 0.0 for i in range(users))

    return [c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11]


def _random_decision(rng, cfg, mode, broken_split) -> DecisionVariables:
    """A decision drawn wide enough to land on both sides of every family."""
    n, users = cfg.n_bs_antennas, cfg.n_pairs
    m = cfg.n_ris_elements
    if mode == ACTIVE:
        beta_t = rng.uniform(0.0, 0.7 * cfg.p_asris_watts, m)
        beta_r = rng.uniform(0.0, 0.7 * cfg.p_asris_watts, m)
    elif broken_split:
        beta_t = rng.uniform(0.0, 1.2, m)
        beta_r = rng.uniform(0.0, 1.2, m)
    else:
        beta_t = rng.uniform(0.0, 1.0, m)
        beta_r = 1.0 - beta_t
    ris = RisCoefficients(
        beta_t, beta_r,
        rng.uniform(-0.5, 2.0 * math.pi + 0.5, m),
        rng.uniform(-0.5, 2.0 * math.pi + 0.5, m),
        mode=mode,
    )

    def beams():
        z = rng.normal(size=(n, users)) + 1j * rng.normal(size=(n, users))
        return z / np.linalg.norm(z, axis=0, keepdims=True)

    return DecisionVariables(
        rate_target=float(rng.uniform(0.0, 1.0)),
        eta=rng.uniform(-0.2, 1.2, users),
        tau=rng.uniform(-0.2, 1.2, users),
        power=rng.uniform(0.0, 1.2 * cfg.p_bs_max_watts, users),
        w1=beams(),
        w2=beams(),
        ris=ris,
    )


# ===========================================================================
# the ten checks
# ===========================================================================


class TestAcceptance:
    def test_a1_scalar_rates_match_hand_closed_forms(self):
        started = time.perf_counter()
        cfg = SystemConfig(
            n_bs_antennas=1, n_ris_elements=1, n_pairs=1,
            noise_bs_watts=2.0, noise_asris_watts=0.5, noise_sue_watts=1.0,
            harvest_threshold_joules=0.0,
        )
        ch = ChannelRealization(
            h1=np.array([[2.0 + 0j]]), g1=np.array([[1.5 + 0j]]),
            h2=np.array([[1.0 + 0j]]), h3=np.array([[0.3 + 0j]]),
            g2r=np.array([[0.8 + 0j]]), g2t=np.array([[0.6 + 0j]]), seed=0,
        )
        dv = DecisionVariables(
            rate_target=0.1, eta=[0.5], tau=[0.4], power=[2.0],
            w1=np.array([[1.0 + 0j]]), w2=np.array([[1.0 + 0j]]),
            ris=RisCoefficients([4.0], [2.25], [0.0], [0.0], mode=ACTIVE),
        )
        # backscatter: strength 2*0.5*1.5^2*|2|^2 = 9, sinr 100*9/2 = 450
        want_r1 = (0.4 / 100.0) * math.log2(451.0)
        # reflect: row 0.8*1.5 + 0.3 = 1.5, strength 2*1.5^2 = 4.5,
        # noise 0.8^2*1.5^2*0.5 + 1 = 1.72
        want_rr = 0.6 * math.log2(1.0 + 4.5 / 1.72)
        # transmit: row 0.6*2.0 = 1.2, strength 2*1.2^2 = 2.88, same noise
        want_rt = 0.6 * math.log2(1.0 + 2.88 / 1.72)
        got = rate_report(ch, dv, cfg)
        got_r1, got_s1 = got.phase1_rate[0], got.phase1_sinr[0]
        got_rr, got_sr = got.phase2_reflect_rate[0], got.phase2_reflect_sinr[0]
        got_rt, got_st = got.phase2_transmit_rate[0], got.phase2_transmit_sinr[0]
        pairs = [
            (got_r1, want_r1), (got_rr, want_rr), (got_rt, want_rt),
            (got_s1, 450.0), (got_sr, 4.5 / 1.72), (got_st, 2.88 / 1.72),
        ]
        worst = max(abs(g - w) / abs(w) for g, w in pairs)
        elapsed = time.perf_counter() - started
        _verdict(
            "A1", "scalar rate formulas match hand closed forms",
            worst < 1e-12 and elapsed < 1.0,
            f"max rel err {worst:.2e}, {elapsed:.2f} s (budget 1 s)",
        )

    def test_a2_constraint_flags_match_independent_recheck(self):
        started = time.perf_counter()
        cfg = SystemConfig(
            n_bs_antennas=2, n_ris_elements=3, n_pairs=3,
            harvest_threshold_joules=1e-12,
        )
        ch = draw_realization(cfg, make_placement(cfg, seed=3), seed=4)
        rng = np.random.Generator(np.random.Philox(123))
        mismatches = 0
        seen_true = np.zeros(11, dtype=int)
        seen_false = np.zeros(11, dtype=int)
        for point in range(1000):
            mode = ACTIVE if point % 2 == 0 else PASSIVE
            dv = _random_decision(rng, cfg, mode, broken_split=point % 4 == 1)
            # a uniform target is never supported at these path losses, so a
            # third of the points get a zero target and a third get half the
            # rate the decision actually achieves, putting the two target
            # families on both sides of their boundary
            if point % 3 == 1:
                dv = dataclasses.replace(dv, rate_target=0.0)
            elif point % 3 == 2:
                achieved = float(rate_report(ch, dv, cfg).min_rates)
                supported = 0.5 * achieved if math.isfinite(achieved) else 0.0
                dv = dataclasses.replace(dv, rate_target=max(supported, 0.0))
            report = evaluate_constraints(ch, dv, cfg, rate_report(ch, dv, cfg))
            independent = np.array(_independent_flags(ch, dv, cfg), dtype=bool)
            mismatches += int(np.any(report.flags != independent))
            seen_true += report.flags
            seen_false += ~report.flags
        both_sides = int(np.sum((seen_true > 0) & (seen_false > 0)))
        elapsed = time.perf_counter() - started
        _verdict(
            "A2", "constraint flags match an independent re-derivation",
            mismatches == 0 and both_sides == 11 and elapsed < 10.0,
            f"{mismatches} of 1000 points disagree, {both_sides}/11 families "
            f"exercised on both sides, {elapsed:.1f} s (budget 10 s)",
        )

    def test_a3_backward_matches_finite_differences_at_reference_sizes(self):
        started = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(7))
        worst = 0.0
        for sizes in ((72, 128, 128, 39), (111, 400, 300, 1)):
            net = Mlp(sizes, rng)
            x = rng.normal(size=(4, sizes[0]))
            upstream = rng.normal(size=(4, sizes[-1]))
            _, cache = net.forward_cached(x)
            grad, _ = net.backward(cache, upstream)

            def loss():
                return float(np.sum(net.forward(x) * upstream))

            h = 1e-5
            for par, part in zip(net.parameters(), ref.split(grad, net.shapes)):
                flat_par = par.reshape(-1)
                flat_grad = part.reshape(-1)
                picks = rng.choice(flat_par.size, size=min(20, flat_par.size),
                                   replace=False)
                for k in picks:
                    keep = flat_par[k]
                    flat_par[k] = keep + h
                    up = loss()
                    flat_par[k] = keep - h
                    down = loss()
                    flat_par[k] = keep
                    fd = (up - down) / (2.0 * h)
                    err = abs(flat_grad[k] - fd) / max(abs(fd), abs(flat_grad[k]), 1e-8)
                    worst = max(worst, err)
        elapsed = time.perf_counter() - started
        _verdict(
            "A3", "backward pass matches finite differences at reference sizes",
            worst < 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.2e} over sampled coordinates of "
            f"(128,128) and (400,300) nets, {elapsed:.1f} s (budget 30 s)",
        )

    def test_a4_passive_surface_conserves_energy(self):
        rng = np.random.Generator(np.random.Philox(11))
        m = 16
        worst = 0.0
        for _ in range(1000):
            beta_t = rng.uniform(0.0, 1.0, m)
            coeff = RisCoefficients(
                beta_t, 1.0 - beta_t,
                rng.uniform(0.0, 2.0 * math.pi, m),
                rng.uniform(0.0, 2.0 * math.pi, m),
                mode=PASSIVE,
            )
            s = rng.normal(size=m) + 1j * rng.normal(size=m)
            out = (
                np.linalg.norm(np.diag(response_vector(coeff, "transmit")) @ s) ** 2
                + np.linalg.norm(np.diag(response_vector(coeff, "reflect")) @ s) ** 2
            )
            total = np.linalg.norm(s) ** 2
            worst = max(worst, abs(out - total) / total)
        _verdict(
            "A4", "passive split conserves incident energy",
            worst < 1e-12,
            f"max rel imbalance {worst:.2e} over 1000 draws (tol 1e-12)",
        )

    def test_a5_grid_optimum_monotone_in_both_power_budgets(self):
        started = time.perf_counter()
        base = dict(n_bs_antennas=1, n_ris_elements=1, n_pairs=1,
                    harvest_threshold_joules=0.0)
        cfg0 = SystemConfig(**base)
        ch = draw_realization(cfg0, make_placement(cfg0, seed=11), seed=17)
        fixed = {"eta": [0.5], "theta_t": [0.0], "theta_r": [0.0]}

        # nested grids: every smaller budget's candidate set is a subset of
        # the larger one's, so the feasible optimum cannot decrease
        power_master = np.linspace(0.0, 32.0, 9)
        bs_curve = []
        for cap in (4.0, 8.0, 16.0, 32.0):
            cfg = SystemConfig(**base, p_bs_max_watts=cap)
            result = grid_oracle(cfg, ch, ACTIVE, grids={
                **fixed, "tau": [0.5], "beta_t": [1.0], "beta_r": [1.0],
                "power": power_master[power_master <= cap],
            })
            assert result.feasible, f"no feasible point at p_bs_max = {cap}"
            bs_curve.append(result.objective)

        # the backscatter phase gets almost the whole frame here: the thin
        # downlink slice is then the worst stream, so the amplification
        # budget is what the optimum is starved of
        beta_master = np.linspace(0.0, 8.0, 9)
        ris_curve = []
        for supply in (2.0, 4.0, 8.0, 16.0):
            cfg = SystemConfig(**base, p_asris_watts=supply)
            gains = beta_master[beta_master <= supply / 2.0]
            result = grid_oracle(cfg, ch, ACTIVE, grids={
                **fixed, "tau": [0.99999], "power": [1.0],
                "beta_t": gains, "beta_r": gains,
            })
            assert result.feasible, f"no feasible point at p_asris = {supply}"
            ris_curve.append(result.objective)

        bs_ok = all(b >= a for a, b in zip(bs_curve, bs_curve[1:]))
        ris_ok = all(b >= a for a, b in zip(ris_curve, ris_curve[1:]))
        # both budgets must actually buy rate, not merely never lose it
        moved = bs_curve[-1] > bs_curve[0] and ris_curve[-1] > ris_curve[0]
        elapsed = time.perf_counter() - started
        _verdict(
            "A5", "grid optimum nondecreasing in both power budgets",
            bs_ok and ris_ok and moved and elapsed < 120.0,
            f"p_bs curve {['%.3e' % v for v in bs_curve]}, "
            f"p_asris curve {['%.3e' % v for v in ris_curve]}, "
            f"{elapsed:.1f} s (budget 120 s)",
        )

    def test_a6_amplifying_surface_beats_passive_under_shared_budget(self):
        started = time.perf_counter()
        cfg = SystemConfig(
            n_bs_antennas=2, n_ris_elements=4, n_pairs=1,
            p_asris_watts=10.0, harvest_threshold_joules=1e-13,
        )
        placement = make_placement(cfg, seed=5)
        wins = 0
        for s in range(10):
            ch = draw_realization(cfg, placement, seed=900 + s)
            active = random_search(cfg, ch, ACTIVE, 10_000, seed=s)
            passive = random_search(cfg, ch, PASSIVE, 10_000, seed=s)
            assert active.feasible and passive.feasible, (
                f"seed {s}: search must find feasible points in both modes"
            )
            wins += int(active.objective >= passive.objective)
        elapsed = time.perf_counter() - started
        _verdict(
            "A6", "amplifying surface beats the passive one",
            wins >= 9 and elapsed < 300.0,
            f"active wins {wins}/10 seeds at 10^4 samples each, "
            f"{elapsed:.1f} s (budget 300 s)",
        )

    @pytest.mark.slow
    def test_a7_agents_beat_random_policy_on_tiny_instance(self):
        started = time.perf_counter()
        cfg = SystemConfig(
            n_bs_antennas=2, n_ris_elements=4, n_pairs=2,
            harvest_threshold_joules=1e-13,
        )
        fresh_env = lambda: SrEnv(cfg, episode_steps=25, normalize_obs=True, rate_cap=4.0)
        hyper = {
            "ppo": dict(hidden=(64, 64), minibatch=16, update_epochs=5,
                        actor_lr=0.0001, critic_lr=0.001, optimizer="adam"),
            "td3": dict(hidden=(32, 32), minibatch=16,
                        actor_lr=0.0001, critic_lr=0.001, optimizer="adam"),
            "a3c": dict(hidden=(64, 64), workers=1, k_steps=20,
                        actor_lr=0.0001, critic_lr=0.001, optimizer="adam"),
        }
        seeds = (0, 1, 2)
        summary = []
        all_ok = True
        for algo in ("ppo", "td3", "a3c"):
            wins = 0
            ratios = []
            for seed in seeds:
                floor_trace = random_policy_trace(fresh_env(), 100, seed)
                floor = float(np.mean(floor_trace.mean_rewards))
                _, trace = train(algo, fresh_env(), 2000, seed,
                                 hyper=hyper[algo])
                assert not trace.aborted, f"{algo} seed {seed} aborted"
                final = float(np.mean(trace.mean_rewards[-100:]))
                ratios.append(final / floor)
                wins += int(final >= 1.2 * floor)
            summary.append(
                f"{algo} {wins}/3 (ratios "
                + ", ".join(f"{r:.2f}" for r in ratios) + ")"
            )
            all_ok = all_ok and wins >= 2
        elapsed = time.perf_counter() - started
        _verdict(
            "A7", "agents beat the random floor by 1.2x on 2 of 3 seeds",
            all_ok and elapsed < 900.0,
            "; ".join(summary) + f"; {elapsed:.0f} s (budget 900 s)",
        )

    def test_a8_training_traces_are_byte_identical_across_runs(self, tmp_path):
        cfg = SystemConfig(
            n_bs_antennas=1, n_ris_elements=1, n_pairs=1,
            harvest_threshold_joules=1e-15,
        )
        fresh_env = lambda: SrEnv(cfg, episode_steps=4, rate_cap=2.0)
        hyper = {
            "ppo": dict(hidden=(8,), minibatch=8, update_epochs=2),
            "td3": dict(hidden=(8,), minibatch=8, buffer_size=500),
            "a3c": dict(hidden=(8,), workers=1, k_steps=3),
        }
        identical = []
        for algo in ("ppo", "td3", "a3c"):
            paths = []
            for run in range(2):
                _, trace = train(algo, fresh_env(), 3, seed=7, hyper=hyper[algo])
                path = tmp_path / f"{algo}_run{run}.csv"
                trace.to_csv(path, config_hash="acceptance", seed=7)
                paths.append(path)
            identical.append(filecmp.cmp(paths[0], paths[1], shallow=False))
        _verdict(
            "A8", "fixed-seed training traces are byte-identical",
            all(identical),
            ", ".join(f"{algo} {'ok' if ok else 'DIFFERS'}"
                      for algo, ok in zip(("ppo", "td3", "a3c"), identical)),
        )

    def test_a9_literal_reward_arithmetic_is_exact(self):
        all_good = ConstraintReport(np.ones(11, dtype=bool), np.zeros(11))
        five_good = ConstraintReport(
            np.arange(11) < 5, np.where(np.arange(11) < 5, 0.0, -1.0)
        )
        checks = [
            reward(2.0, all_good, LITERAL) == 24.0,
            reward(2.0, five_good, LITERAL) == 12.0,
            reward(0.0, all_good, LITERAL) == 0.0,
            reward(2.0, five_good, PENALTY, violation_cost=1.0) == -4.0,
        ]
        _verdict(
            "A9", "literal reward arithmetic is exact",
            all(checks),
            "rate 2.0 with 11 satisfied -> 24.0, with 5 satisfied -> 12.0, "
            "penalty mode 2.0 - 6 -> -4.0",
        )

    def test_a10_reference_hyperparameters_survive_config_round_trip(self, tmp_path):
        dump_config(default_config(), tmp_path / "defaults.yaml")
        loaded = load_config(tmp_path / "defaults.yaml")
        reference = {
            "ppo": {
                "hidden": [128, 128], "minibatch": 32,
                "actor_lr": 0.0001, "critic_lr": 0.001,
                "target_update": 0.0005, "discount": 0.99,
                "entropy_coef": 0.01, "episodes": 30000, "steps": 200,
            },
            "td3": {
                "hidden": [400, 300], "minibatch": 64,
                "actor_lr": 0.0001, "critic_lr": 0.001,
                "target_update": 0.0005, "discount": 0.99,
                "episodes": 30000, "steps": 200,
            },
            "a3c": {
                "hidden": [128, 128], "minibatch": 64, "workers": 3,
                "actor_lr": 0.0001, "critic_lr": 0.001,
                "target_update": 0.0005, "discount": 0.99,
                "entropy_coef": 0.01, "episodes": 30000, "steps": 200,
            },
        }
        wrong = [
            f"{algo}.{field}"
            for algo, fields in reference.items()
            for field, value in fields.items()
            if loaded["agents"][algo][field] != value
        ]
        checked = sum(len(fields) for fields in reference.values())
        _verdict(
            "A10", "reference hyperparameters survive a config round trip",
            not wrong,
            f"{checked} fields compared field-for-field"
            + ("" if not wrong else f", mismatches: {wrong}"),
        )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
