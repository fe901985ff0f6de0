import collections
import dataclasses
import hashlib
import math
import types
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lambertw as scipy_lambertw

from instance_tools import (full_variable_gap, group_information,
                            hover_moved_to_start, lead_price_reference,
                            stm_grid_oracle,
                            stm_instance, stm_sqp_reference, synthetic_coeffs)
from uavwpt.channel import GroupCoefficients
from uavwpt.config import ScenarioConfig
from uavwpt.errors import (AccuracyError, ConfigError, InfeasiblePlanError,
                           NumericDomainError)
from uavwpt import experiments, numerics, stm
from uavwpt.experiments import SweepSpec, generate_trial, run_sweep, trial_rng
from uavwpt.numerics import lambert_w0
from uavwpt.stm import (StmDiagnostics, StmProblem, TimeAllocation, _chain_q,
                        _halves, optimality_gap, solve_stm, stm_diag_row,
                        sum_throughput, throughput_gradient, STM_DIAG_HEADER)
from uavwpt.ttm import TtmProblem

METHODS = {"free-tau0", "free-zeta1", "pinned", "degenerate"}


# -------------------------------------------------- independent dual oracle

def _oracle_chain_q(gamma, a, mu):
    """Reference chain at budget price mu using scipy's Lambert W."""
    N = len(gamma)
    q = [0.0] * N
    r = mu
    for n in range(N - 1, -1, -1):
        q[n] = -float(scipy_lambertw(-math.exp(-2.0 * r - 1.0)).real)
        r = mu - 0.5 * gamma[n] * a[n] * q[n]
    return q


def _oracle_lead_gap(problem, mu):
    """Worth of the better-harvesting first-phase variable minus mu."""
    c = problem.coeffs
    q1 = _oracle_chain_q(c.gamma, c.a, mu)[0]
    return 0.5 * c.gamma[0] * max(c.a[0], c.b[0]) * q1 - mu


def _oracle_pinned_time(problem, mu):
    """Mission time at price mu with tau_0 = 0 and every leg at the cap:
    hover n lasts Y_n - 1 = (1 - q_n)/q_n units of gamma_n E_n."""
    c = problem.coeffs
    q = _oracle_chain_q(c.gamma, c.a, mu)
    zetas = [d / problem.v_max for d in problem.D]
    tau_prev, total = 0.0, math.fsum(zetas)
    for n in range(problem.N):
        energy = c.a[n] * tau_prev + c.b[n] * zetas[n]
        tau_prev = c.gamma[n] * energy * q[n] / (1.0 - q[n])
        total += tau_prev
    return total


def _assert_meets_oracle(problem, diag):
    """The solved price satisfies the KKT system of its structure."""
    gap = _oracle_lead_gap(problem, diag.mu)
    if diag.method == "pinned":
        assert gap <= 1e-10
        assert _oracle_pinned_time(problem, diag.mu) == pytest.approx(
            problem.T, rel=1e-9)
    else:
        assert abs(gap) <= 1e-10
        assert _oracle_pinned_time(problem, diag.mu) <= problem.T * (
            1.0 + 1e-12)


def _swept_problem(config, trial, baseline=False):
    """Trial `trial` of master seed 7 as an StmProblem: the grouped plan,
    or the hover-and-fly baseline's one-sensor groups."""
    geo = generate_trial(config, trial_rng(7, trial))
    return experiments.build_problem(config, geo, "stm", baseline)


def _mu_from_point(problem, alloc):
    """Budget shadow price implied by last-group stationarity at a point."""
    c = problem.coeffs
    E = c.a[-1] * alloc.tau[-2] + c.b[-1] * alloc.zeta[-1]
    Y = 1.0 + c.gamma[-1] * E / alloc.tau[-1]
    return 0.5 * (math.log(Y) - 1.0 + 1.0 / Y)


# -------------------------------------------------- dual root

def test_symmetric_instance_residual():
    coeffs = GroupCoefficients(
        a=(0.004, 0.004), b=(0.007, 0.007), gamma=(300.0, 300.0))
    problem = StmProblem(coeffs=coeffs, D=(25.0, 25.0), T=800.0, v_max=10.0)
    _, diag = solve_stm(problem)
    assert diag.method == "free-zeta1"
    _assert_meets_oracle(problem, diag)


def test_random_instance_residuals():
    seen = {}
    for seed in range(40):
        problem = stm_instance(seed, N=2)
        _, diag = solve_stm(problem)
        seen[diag.method] = seen.get(diag.method, 0) + 1
        _assert_meets_oracle(problem, diag)
    assert seen.get("free-zeta1", 0) >= 10


@pytest.mark.parametrize("N, K, baseline", [(4, 20, False), (9, 45, False),
                                            (4, 20, True)])
def test_swept_size_roots_meet_oracle(N, K, baseline):
    config = ScenarioConfig(K=K, N=N, pt_db=2.0)
    seen = {}
    for trial in range(12):
        problem = _swept_problem(config, trial, baseline)
        if baseline:
            assert problem.N == K
        _, diag = solve_stm(problem)
        seen[diag.method] = seen.get(diag.method, 0) + 1
        _assert_meets_oracle(problem, diag)
    if baseline:
        assert seen.get("free-tau0", 0) >= 3
    else:
        assert seen.get("free-zeta1", 0) >= 6


def test_swept_sizes_meet_sqp_reference():
    methods = set()
    for K, N, baseline in [(20, 4, False), (30, 6, False), (45, 9, False),
                           (20, 4, True), (45, 9, True)]:
        config = ScenarioConfig(K=K, N=N, pt_db=2.0)
        for trial in range(10):
            problem = _swept_problem(config, trial, baseline)
            assert problem.N == (K if baseline else N)
            _, diag = solve_stm(problem)
            _, ref = stm_sqp_reference(problem)
            methods.add(diag.method)
            assert diag.objective == pytest.approx(ref.objective, rel=1e-9)
            assert diag.optimality_gap <= 1e-9 * diag.objective
    assert methods == {"free-tau0", "free-zeta1", "pinned"}


def test_pinned_search_grows_its_bracket(monkeypatch):
    # 10 ms of slack: the pinned hovers still overrun it one unit of
    # price above mu+, so the search doubles its bracket before Newton
    base = stm_instance(0, N=3)
    problem = StmProblem(coeffs=base.coeffs, D=base.D,
                         T=base.travel_time + 0.01, v_max=base.v_max)
    brackets = []
    real = stm.bracketed_newton

    def recording(f, lo, hi, **kwargs):
        brackets.append(hi - lo)
        return real(f, lo, hi, **kwargs)

    monkeypatch.setattr(stm, "bracketed_newton", recording)
    _, diag = solve_stm(problem)
    assert diag.method == "pinned"
    assert brackets[-1] > 1.0
    _, ref = stm_sqp_reference(problem)
    assert diag.objective == pytest.approx(ref.objective, rel=1e-9)
    assert diag.optimality_gap <= 1e-9 * diag.objective
    _assert_meets_oracle(problem, diag)


# SHA-256 over float.hex of mu and every hover and flight time of 100
# trials, grouped and baseline, at pt_db 0 and 8 (K = 20) and at N = 9
# (K = 45), where 3 grouped and 22 baseline solves are pinned.  Pinned
# with glibc's libm on x86-64 Linux under CPython 3.11.
PINNED_STM_ALLOCATION_DIGEST = (
    "07c93eacf23e9a106cd6355904bf70ab63b61be123a688c3b7dc2a185855e9b8")


def test_stm_allocations_pinned_bitwise():
    digest = hashlib.sha256()
    methods = set()
    for config in (ScenarioConfig(pt_db=0.0), ScenarioConfig(pt_db=8.0),
                   ScenarioConfig(N=9, K=45)):
        for t in range(100):
            geo = generate_trial(config, trial_rng(config.seed, t))
            for baseline in (False, True):
                alloc, diag = solve_stm(
                    experiments.build_problem(config, geo, "stm", baseline))
                methods.add(diag.method)
                times = (diag.mu, *alloc.tau, *alloc.zeta)
                digest.update(
                    (" ".join(v.hex() for v in times) + "\n").encode())
    assert "pinned" in methods
    assert digest.hexdigest() == PINNED_STM_ALLOCATION_DIGEST


@pytest.mark.parametrize("trial", [9, 43])
def test_former_fallback_trials_solve_pinned(trial):
    # the mu_N closed form once found its root below its search floor
    # here and fell back to SQP; zeta_1 sits at the cap in the reference
    problem = _swept_problem(ScenarioConfig(K=45, N=9, pt_db=2.0), trial)
    alloc, diag = solve_stm(problem)
    assert diag.method == "pinned"
    ref_alloc, ref = stm_sqp_reference(problem)
    assert ref_alloc.zeta[0] == pytest.approx(alloc.zeta[0], rel=1e-9)
    assert diag.objective >= ref.objective * (1.0 - 1e-12)
    assert diag.optimality_gap <= 1e-9 * diag.objective


@pytest.mark.parametrize("N, K, baseline", [(4, 20, False), (9, 45, False),
                                            (4, 20, True)])
def test_chain_slope_matches_central_difference(N, K, baseline):
    config = ScenarioConfig(K=K, N=N, pt_db=2.0)
    for trial in range(12):
        problem = _swept_problem(config, trial, baseline)
        c = problem.coeffs
        halves = _halves(c.gamma, c.a)
        root = solve_stm(problem)[1].mu
        for mu in (root, root + 0.3, root + 2.0):
            # fourth-order stencil: baseline roots sit close enough to the
            # chain's square-root edge to spoil a two-point difference
            h = 1e-6 * (1.0 + abs(mu))
            q, dq, d2q = _chain_q(halves, mu)
            assert q == pytest.approx(_oracle_chain_q(c.gamma, c.a, mu),
                                      rel=1e-12)
            qs = [_chain_q(halves, mu + k * h)[0]
                  for k in (-2, -1, 1, 2)]
            for n in range(problem.N):
                fd = (qs[0][n] - 8.0 * qs[1][n] + 8.0 * qs[2][n]
                      - qs[3][n]) / (12.0 * h)
                assert dq[n] == pytest.approx(fd, rel=1e-6)
                fd2 = (-qs[0][n] + 16.0 * qs[1][n] - 30.0 * q[n]
                       + 16.0 * qs[2][n] - qs[3][n]) / (12.0 * h * h)
                assert d2q[n] == pytest.approx(fd2, rel=1e-3, abs=1e-6)


def test_chain_undefined_below_its_domain():
    c = stm_instance(3, N=3).coeffs
    halves = _halves(c.gamma, c.a)
    assert _chain_q(halves, 0.0) is None
    # with q_N <= 1, r_{N-1} >= 1 once mu exceeds every downstream weight
    mu = 1.0 + max(0.5 * g * a for g, a in zip(c.gamma, c.a))
    assert _chain_q(halves, mu) is not None


def test_chain_levels_are_lambert_w0_bit_for_bit():
    # one level: q_1 = -W0(-exp(-2 mu - 1)) at mu from the branch point
    # band (mu < 0.063, the series seed; below 2.5e-9 the series is the
    # answer) to the underflow of the argument to -0.0 (mu > 372.1)
    kinds = collections.Counter()
    for mu in map(float, np.logspace(-17.0, math.log10(400.0), 100_000)):
        x = -math.exp(-2.0 * mu - 1.0)
        w = lambert_w0(x)
        chain = _chain_q((1.0,), mu)
        if w <= -1.0:
            assert chain is None
            kinds["branch point"] += 1
            continue
        assert chain[0][0].hex() == (-w).hex()
        if x == 0.0:
            kinds["zero"] += 1
        elif x >= -0.3243:
            kinds["identity seed"] += 1
        elif math.sqrt(2.0 * (math.e * x + 1.0)) < 1e-4:
            kinds["series"] += 1
        else:
            kinds["series seed"] += 1
    assert len(kinds) == 5 and min(kinds.values()) >= 100


def test_chain_raises_as_lambert_w0(monkeypatch):
    # a NaN price reaches W0 as a NaN argument
    for solve in (lambda: lambert_w0(math.nan),
                  lambda: _chain_q((1.0,), math.nan)):
        with pytest.raises(NumericDomainError, match="argument is NaN"):
            solve()
    # below -1/e: a rounded exp is the only way there, so patch it in
    for over in (5e-16, 1e-9):
        e = numerics._INV_E + over
        monkeypatch.setattr(stm, "math", types.SimpleNamespace(
            exp=lambda y, e=e: e))
        if over < 1e-15:
            assert lambert_w0(-e) == -1.0
            assert _chain_q((1.0,), 0.5) is None
        else:
            for solve in (lambda: lambert_w0(-e),
                          lambda: _chain_q((1.0,), 0.5)):
                with pytest.raises(NumericDomainError, match="below -1/e"):
                    solve()
    monkeypatch.undo()
    # no convergence within the iteration cap: one Halley step allowed,
    # numerics' cap, which each chain level's lambert_w0 call reads
    monkeypatch.setattr(numerics, "_W_MAX_ITER", 1)
    raised = 0
    for mu in (1e-6, 0.01, 0.3, 2.0, 30.0):
        x = -math.exp(-2.0 * mu - 1.0)
        try:
            want = -lambert_w0(x)
        except AccuracyError:
            raised += 1
            with pytest.raises(AccuracyError, match="no convergence"):
                _chain_q((1.0,), mu)
        else:
            assert _chain_q((1.0,), mu)[0][0].hex() == want.hex()
    assert raised > 0


def _lead_key(problem):
    """The (gamma, a, c) a lead-price search of `problem` reads."""
    c = problem.coeffs
    lead = c.a[0] if c.a[0] > c.b[0] else c.b[0]
    return c.gamma, c.a, 0.5 * c.gamma[0] * lead


def _lead_searches(trials):
    """The lead-price searches of stm-power-shaped sweeps (pt_db 0..8),
    stm-groups-shaped ones (N = 6 and 9) at master seeds 1 and 9, and
    K = 45 baselines over pt_db 0..8, as (shape, trial, key): a point's
    baselines search once, as their shared price slot does (trial None)."""
    searches = {}
    for seed in (1, 9):
        base = ScenarioConfig(seed=seed)
        shaped = [("stm-power", experiments.apply_sweep_value(
            base, "pt_db", v)) for v in (0.0, 2.0, 4.0, 6.0, 8.0)]
        shaped += [("stm-groups", experiments.apply_sweep_value(
            base, "N", v)) for v in (6, 9)]
        for shape, cfg in shaped:
            for t in range(trials):
                geo = generate_trial(cfg, trial_rng(seed, t))
                for baseline in (False, True):
                    key = _lead_key(experiments.build_problem(
                        cfg, geo, "stm", baseline))
                    searches[key] = shape, None if baseline else t, key
    nine = experiments.apply_sweep_value(ScenarioConfig(), "N", 9)
    geo = generate_trial(nine, trial_rng(1, 0))
    for pt_db in np.arange(0.0, 8.01, 0.25):
        cfg = dataclasses.replace(nine, pt_db=float(pt_db))
        key = _lead_key(experiments.build_problem(cfg, geo, "stm", True))
        searches[key] = "K=45 baseline", None, key
    return list(searches.values())


def _state_hex(result):
    mu, state = result
    return mu.hex(), state and [[v.hex() for v in part] for part in state]


def test_lead_search_skips_its_bounded_upper_end(monkeypatch):
    # every search gives the bits of one that evaluates both ends, and
    # where lo lies in the chain's domain, 0 < f(lo) < 2.9, so hi is
    # never evaluated.  The grouped searches of the stm-power workload's
    # sweep (20 trials a point) at both seeds average at most 5.6 chain
    # evaluations, and those whose lo lies outside the domain, which
    # search up to the tight end, at most 8.5
    searches = _lead_searches(trials=70)
    assert len(searches) >= 1000
    seen = []

    def recorded_chain(halves, mu):
        seen.append(mu)
        return _chain_q(halves, mu)

    monkeypatch.setattr(stm, "_chain_q", recorded_chain)
    monkeypatch.setattr(stm, "bracketed_newton",
                        lambda f, lo, hi, tol, f_hi_max=None: (
                            numerics.bracketed_newton(f, lo, hi, tol)))
    both_ends = [_state_hex(stm._lead_price(*key))
                 for _, _, key in searches]
    monkeypatch.setattr(stm, "bracketed_newton", numerics.bracketed_newton)
    evals = collections.Counter()
    skipped = 0
    for (shape, trial, (gamma, a, c)), want in zip(searches, both_ends):
        seen.clear()
        assert _state_hex(stm._lead_price(gamma, a, c)) == want
        halves = _halves(gamma, a)
        t_lo, t_hi, _ = stm._lead_bracket(halves, c)
        lo = math.exp(t_lo)
        assert seen[0] == lo
        chain = _chain_q(halves, lo)
        if chain is not None:
            assert 0.0 < math.log(c * chain[0][0] / lo) < 2.9
            assert math.exp(t_hi) not in seen
            skipped += 1
        if shape == "stm-power" and trial is not None and trial < 20:
            side = "in" if chain is not None else "out"
            evals["searches", side] += 1
            evals["chain", side] += len(seen)
    assert skipped >= len(searches) // 3
    searched = evals["searches", "in"] + evals["searches", "out"]
    assert searched == 200
    assert (evals["chain", "in"] + evals["chain", "out"]) / searched <= 5.6
    assert evals["chain", "out"] / evals["searches", "out"] <= 8.5


_LOG_UNIFORM = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)


@given(st.lists(st.tuples(_LOG_UNIFORM, _LOG_UNIFORM), min_size=1,
                max_size=9), _LOG_UNIFORM)
def test_lead_gap_at_its_upper_end_is_below_the_bound(links, c):
    # weights up to 5e11 put 1 + top past the float limit of exp, where
    # hi is 1.55 + ln(top)/2; below it, hi = 1 + top.  Either way the
    # chain is defined at hi, q_1 reads above 0 and the gap is <= -2.9
    gamma, a = map(tuple, zip(*links))
    halves = _halves(gamma, a)
    t_lo, t_hi, t_tight = stm._lead_bracket(halves, c)
    assert t_lo < t_tight <= t_hi
    lo, hi = math.exp(t_lo), math.exp(t_hi)
    q = _chain_q(halves, hi)[0]
    assert q[0] > 0.0
    assert math.log(c * q[0] / hi) <= stm._LEAD_GAP_AT_HI


def test_float_limit_searches_are_short(monkeypatch):
    # an SNR scale of about 5e307 makes c and the weights about 1e306:
    # from 1 + top, where the chain reads q = 0, a lead search would
    # halve its way down to mu ~ 352 in about 1,030 chain evaluations
    cfg = ScenarioConfig(k0_db=20.0, pt_db=1530.0, sigma2_dbm=-1500.0)
    q1 = []

    def recorded_chain(halves, mu):
        chain = _chain_q(halves, mu)
        q1.append(chain and chain[0][0])
        return chain

    monkeypatch.setattr(stm, "_chain_q", recorded_chain)
    for t in range(5):
        geo = generate_trial(cfg, trial_rng(cfg.seed, t))
        problem = experiments.build_problem(cfg, geo, "stm", False)
        q1.clear()
        _, diag = solve_stm(problem)
        assert diag.method == "pinned"
        assert len(q1) <= 40
        assert 0.0 not in q1


def test_closed_form_chain_evaluations(monkeypatch):
    # the 40 default-config solves of test_sweep_rows_pinned's STM sweep,
    # each without a kept price so that the count measures the search
    counts = {"chain": 0, "solves": 0}

    def counted_chain(*args):
        counts["chain"] += 1
        return _chain_q(*args)

    kernel = stm._stm_allocation

    def counted_solve(*args):
        counts["solves"] += 1
        return kernel(*args[:-1], None)

    monkeypatch.setattr(stm, "_chain_q", counted_chain)
    monkeypatch.setattr(stm, "_stm_allocation", counted_solve)
    sweep = SweepSpec(param="pt_db", values=(0.0, 8.0), trials=10,
                      objective="stm")
    run_sweep(ScenarioConfig(), sweep)
    assert counts["solves"] == 40
    assert counts["chain"] / counts["solves"] <= 9.1


def _sweep_shaped_problems():
    """Grouped and baseline STM problems of stm-power-shaped (pt_db 0 and
    8) and stm-groups-shaped (N = 6 and 9) trials."""
    base = ScenarioConfig()
    configs = [experiments.apply_sweep_value(base, "pt_db", v)
               for v in (0.0, 8.0)]
    configs += [experiments.apply_sweep_value(base, "N", v) for v in (6, 9)]
    problems = []
    for cfg in configs:
        for t in range(4):
            geo = generate_trial(cfg, trial_rng(cfg.seed, t))
            for baseline in (False, True):
                problems.append(experiments.build_problem(
                    cfg, geo, "stm", baseline))
    return problems


def _kernel(problem, price):
    """The throughput kernel on `problem`'s tuples, with the slot `price`."""
    c = problem.coeffs
    return stm._stm_allocation(c.gamma, c.a, c.b, problem.floors, problem.T,
                               problem.slack, price)


def test_kept_lead_price_changes_no_bit(monkeypatch):
    # one slot carried through each config's four baselines in a row,
    # then through every plan by turns: a baseline after the first of its
    # config reads the kept state, any other solve searches and refills
    # the slot, and every solve has the bits of a fresh one, which are
    # solve_stm's
    problems = _sweep_shaped_problems()
    cold = [_kernel(p, None) for p in problems]
    for p, (tau, zeta, mu, method) in zip(problems, cold):
        alloc, diag = solve_stm(p)
        assert (alloc.tau, alloc.zeta, diag.mu, diag.method) == (
            tau, zeta, mu, method)
    order = [*range(1, len(problems), 2), *range(len(problems))]
    price = stm.LeadPrice()
    searches = []
    real = stm._lead_price

    def counted(*key):
        searches.append(key)
        return real(*key)

    monkeypatch.setattr(stm, "_lead_price", counted)
    warm = [_kernel(problems[i], price) for i in order]
    assert len(searches) == len(order) - 12
    assert warm == [cold[i] for i in order]
    assert isinstance(price.state, tuple) and len(price.state) == 3
    assert all(isinstance(part, tuple) for part in price.state)


def test_lead_price_slot_serves_baselines(monkeypatch):
    cfg = ScenarioConfig()
    baselines = []
    for t in range(5):
        geo = generate_trial(cfg, trial_rng(cfg.seed, t))
        baselines.append(experiments.build_problem(
            cfg, geo, "stm", baseline=True))
    calls = {"chain": 0}

    def counted_chain(*args):
        calls["chain"] += 1
        return _chain_q(*args)

    monkeypatch.setattr(stm, "_chain_q", counted_chain)
    price = stm.LeadPrice()
    _kernel(baselines[0], price)
    assert calls["chain"] > 0
    # the point's price state comes from the slot: no chain at all
    for problem in baselines[1:]:
        calls["chain"] = 0
        _kernel(problem, price)
        assert calls["chain"] == 0
    # a direct call searches afresh
    solve_stm(baselines[1])
    assert calls["chain"] > 0


def _baseline_searches(monkeypatch):
    """The keys of every lead-price search on a default-config baseline
    (K = 20 single-sensor groups; grouped plans have N = 4)."""
    searches = []
    real = stm._lead_price

    def counted(gamma, a, c):
        if len(gamma) == ScenarioConfig().K:
            searches.append((gamma, a, c))
        return real(gamma, a, c)

    monkeypatch.setattr(stm, "_lead_price", counted)
    return searches


def test_price_states_survive_a_seed_change(monkeypatch):
    # a baseline's price search reads K, A_m, k0, delta_m and its SNR
    # scale, not the draw: two stm-power-shaped sweeps at two master seeds in one
    # process search once per point in the first and never in the second
    searches = _baseline_searches(monkeypatch)
    sweep = SweepSpec(param="pt_db", values=(0.0, 2.0, 4.0, 6.0, 8.0),
                      trials=20, objective="stm")
    run_sweep(ScenarioConfig(seed=1), sweep)
    assert len(searches) == 5
    run_sweep(ScenarioConfig(seed=2), sweep)
    assert len(searches) == 5
    # only baselines fill the slots: grouped keys (N = 4) never enter
    slots = experiments._DRAWS.prices.values()
    assert len(slots) == 5
    assert all(len(slot.key[0]) == ScenarioConfig().K for slot in slots)


def test_draw_fields_a_baseline_ignores_share_its_price_slot(monkeypatch):
    # N at a fixed K, the leg and row ranges and the UAV's own array do
    # not change what a baseline's price search reads, so configs that
    # differ only there draw other trials but share one slot and search
    searches = _baseline_searches(monkeypatch)
    base = ScenarioConfig()
    for change in ({}, {"N": 5}, {"D_range_m": (15.0, 25.0)},
                   {"ytilde_range_m": (6.0, 8.0)}, {"M": 4}):
        cfg = dataclasses.replace(base, **change)
        for t in range(3):
            experiments.run_trial(cfg, t)
    assert len(searches) == 1
    assert len(experiments._DRAWS.prices) == 1


def test_price_slots_stay_bounded(monkeypatch):
    # a 40-point pt_db sweep keeps at most _PRICE_SLOTS slots, and each
    # point's baselines still share one search
    searches = _baseline_searches(monkeypatch)
    sweep = SweepSpec(param="pt_db",
                      values=tuple(0.25 * k for k in range(40)),
                      trials=3, objective="stm")
    results, failures = run_sweep(ScenarioConfig(), sweep)
    assert failures == []
    assert len(experiments._DRAWS.prices) == experiments._PRICE_SLOTS
    assert len(searches) == 40


def test_delivered_information_is_the_rate_formula_bitwise():
    # the swept allocations of both plans at stm-power's end points
    for seed in (1, 9):
        for pt_db in (0.0, 8.0):
            cfg = experiments.apply_sweep_value(
                ScenarioConfig(seed=seed), "pt_db", pt_db)
            for t in range(50):
                geo = generate_trial(cfg, trial_rng(cfg.seed, t))
                for baseline in (False, True):
                    problem = experiments.build_problem(cfg, geo, "stm",
                                                        baseline)
                    alloc, diag = solve_stm(problem)
                    coeffs, tau, zeta = problem.coeffs, alloc.tau, alloc.zeta
                    want = [group_information(coeffs, n, tau[n - 1],
                                              zeta[n - 1], tau[n])
                            for n in range(1, problem.N + 1)]
                    got = stm.delivered_information(coeffs, alloc)
                    assert [v.hex() for v in got] == [v.hex() for v in want]
                    total = 0.0
                    for v in want:
                        total += v
                    assert (sum_throughput(coeffs, alloc).hex()
                            == diag.objective.hex() == total.hex())


def test_rate_past_the_float_limit_is_finite():
    # an SNR scale of about 5e307: gamma_n E_n / tau_n overflows, so the
    # rate is taken in logs, which equals ln(1 + x) to float precision
    cfg = ScenarioConfig(k0_db=20.0, pt_db=1530.0, sigma2_dbm=-1500.0)
    overflowed = 0
    for t in range(5):
        geo = generate_trial(cfg, trial_rng(cfg.seed, t))
        for baseline in (False, True):
            problem = experiments.build_problem(cfg, geo, "stm", baseline)
            alloc, diag = solve_stm(problem)
            coeffs, tau, zeta = problem.coeffs, alloc.tau, alloc.zeta
            want = [group_information(coeffs, n, tau[n - 1], zeta[n - 1],
                                      tau[n])
                    for n in range(1, problem.N + 1)]
            got = stm.delivered_information(coeffs, alloc)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert math.isfinite(diag.objective)
            assert all(map(math.isfinite,
                           throughput_gradient(coeffs, tau, zeta)))
            assert math.isfinite(diag.optimality_gap)
            # the certificate keeps the downstream worth of an
            # overflowing Y_n: each solve is optimal to float precision
            assert diag.optimality_gap <= 1e-12 * diag.objective
            overflowed += sum(
                g * (a * tp + b * z) / tn == math.inf
                for g, a, b, tp, z, tn in zip(coeffs.gamma, coeffs.a,
                                              coeffs.b, tau, zeta, tau[1:]))
    assert overflowed > 0
    # in logs, a rate just past the limit continues the log1p branch
    c = GroupCoefficients(a=(0.01,), b=(0.01,), gamma=(1e307,))
    small = TimeAllocation(tau=(0.0, 1.0), zeta=(1000.0,))
    large = TimeAllocation(tau=(0.0, 1.0), zeta=(1e5,))
    assert stm.delivered_information(c, small)[0] == pytest.approx(
        0.5 * (math.log(1e307) + math.log(10.0)), rel=1e-15)
    assert stm.delivered_information(c, large)[0] == pytest.approx(
        0.5 * (math.log(1e307) + math.log(1000.0)), rel=1e-15)


def test_no_sweep_computes_the_optimality_gap(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return optimality_gap(*args)

    solves = []
    kernel = stm._stm_allocation

    def kept(*args):
        solves.append(args)
        return kernel(*args)

    monkeypatch.setattr(stm, "optimality_gap", counted)
    monkeypatch.setattr(stm, "_stm_allocation", kept)
    config = ScenarioConfig()
    experiments.run_trial(config, 0, "stm")
    run_sweep(config, SweepSpec(param="pt_db", values=(0.0, 8.0),
                                trials=5, objective="stm"))
    # no sweep computes the gap
    assert calls == [] and len(solves) == 2 + 2 * 2 * 5
    # solve_stm fills every field, once, with the bits of a direct read
    for problem in _sweep_shaped_problems():
        calls.clear()
        alloc, diag = solve_stm(problem)
        assert len(calls) == 1
        assert (diag.budget_residual.hex()
                == abs(alloc.total - problem.T).hex())
        assert (diag.optimality_gap.hex()
                == optimality_gap(problem, alloc).hex())
        assert diag.objective.hex() == sum_throughput(
            problem.coeffs, alloc).hex()
        # a plain record: its fields and nothing kept besides
        assert vars(diag).keys() == {"mu", "objective", "method",
                                     "budget_residual", "optimality_gap"}
    # a solve with no slack has nothing to optimize
    problem = stm_instance(4, N=2)
    tight = StmProblem(coeffs=problem.coeffs, D=problem.D,
                       T=problem.travel_time, v_max=problem.v_max)
    alloc, diag = solve_stm(tight)
    assert diag.optimality_gap == 0.0 == optimality_gap(tight, alloc)


def test_single_group_meets_sqp_reference():
    for seed in range(6):
        problem = stm_instance(seed, N=1, flight_dominant=bool(seed % 2))
        _, diag = solve_stm(problem)
        _assert_meets_oracle(problem, diag)
        assert diag.objective == pytest.approx(
            stm_sqp_reference(problem)[1].objective, rel=1e-9)


# -------------------------------------------------- coupling ratios

def test_coupling_identity_against_oracle_chain():
    for seed in (1, 5, 9):
        problem = stm_instance(seed, N=3)
        alloc, diag = solve_stm(problem)
        c = problem.coeffs
        q = _oracle_chain_q(c.gamma, c.a, diag.mu)
        for j in range(3):
            E = c.a[j] * alloc.tau[j] + c.b[j] * alloc.zeta[j]
            Y = 1.0 + c.gamma[j] * E / alloc.tau[j + 1]
            assert Y == pytest.approx(1.0 / q[j], rel=1e-9)


def test_last_coupling_ratio_rises_with_dual():
    # finite-difference sign probe on f_N = (1 - q_N)/(gamma_N q_N)
    c = stm_instance(7, N=2).coeffs
    halves = _halves(c.gamma, c.a)
    q0 = _chain_q(halves, 0.8)[0][-1]
    q1 = _chain_q(halves, 0.8 + 1e-5)[0][-1]
    assert (1.0 - q1) / q1 > (1.0 - q0) / q0


# -------------------------------------------------- budget closure

def test_first_leg_time_affine_in_budget():
    # mu+ does not depend on T, so the free zeta_1 closes it linearly
    base = stm_instance(9, N=2)
    zs = []
    for T in (600.0, 800.0, 1000.0):
        p = StmProblem(coeffs=base.coeffs, D=base.D, T=T, v_max=base.v_max)
        alloc, diag = solve_stm(p)
        assert diag.method == "free-zeta1"
        zs.append(alloc.zeta[0])
    assert zs[2] - zs[1] == pytest.approx(zs[1] - zs[0], rel=1e-9)


def test_budget_closes_exactly():
    for seed in range(25):
        problem = stm_instance(seed, N=2)
        alloc, diag = solve_stm(problem)
        assert abs(alloc.total - problem.T) <= 1e-8


def test_later_legs_pinned_at_speed_cap():
    problem = stm_instance(13, N=4)
    alloc, _ = solve_stm(problem)
    for n in range(2, 5):
        assert alloc.zeta[n - 1] == problem.D[n - 1] / problem.v_max


def test_first_leg_matches_grid_oracle():
    checked = 0
    for seed in (2, 6, 15):
        problem = stm_instance(seed, N=2)
        alloc, diag = solve_stm(problem)
        oracle_alloc, _ = stm_grid_oracle(problem, refinements=4)
        if oracle_alloc.zeta[0] <= problem.D[0] / problem.v_max * 1.01:
            continue  # clamped first leg has no 1% comparison to make
        checked += 1
        assert alloc.zeta[0] == pytest.approx(oracle_alloc.zeta[0], rel=0.01)
    assert checked >= 2


# -------------------------------------------------- full solve vs oracle

def test_objective_meets_grid_oracle():
    for seed in range(10):
        problem = stm_instance(seed, N=2)
        _, diag = solve_stm(problem)
        _, oracle_val = stm_grid_oracle(problem, refinements=3)
        assert diag.objective >= oracle_val * (1.0 - 1e-3)


def test_dual_price_matches_oracle_kkt():
    problem = stm_instance(21, N=2)
    _, diag = solve_stm(problem)
    oracle_alloc, _ = stm_grid_oracle(problem, refinements=5)
    assert diag.mu == pytest.approx(_mu_from_point(problem, oracle_alloc),
                                    abs=1e-3)


def test_closed_form_agrees_with_sqp():
    methods = set()
    for seed in range(30):
        problem = stm_instance(seed, N=int(2 + seed % 3))
        _, diag_a = solve_stm(problem)
        methods.add(diag_a.method)
        _, diag_b = stm_sqp_reference(problem)
        assert diag_a.objective == pytest.approx(diag_b.objective, rel=1e-6)
    assert "free-zeta1" in methods


def test_start_hover_structure_on_hover_dominant_instances():
    seen = 0
    for seed in range(20):
        problem = stm_instance(seed, N=2, flight_dominant=False)
        alloc, diag = solve_stm(problem)
        if diag.method != "free-tau0":
            continue
        seen += 1
        assert alloc.tau[0] > 0.0
        for n in range(1, 3):
            assert alloc.zeta[n - 1] == pytest.approx(
                problem.D[n - 1] / problem.v_max)
        alloc_b, diag_b = stm_sqp_reference(problem)
        assert diag.objective == pytest.approx(diag_b.objective, rel=1e-6)
    assert seen >= 10


def test_more_budget_never_hurts():
    problem = stm_instance(17, N=3)
    _, diag_small = solve_stm(problem)
    bigger = StmProblem(coeffs=problem.coeffs, D=problem.D,
                        T=problem.T + 150.0, v_max=problem.v_max)
    _, diag_big = solve_stm(bigger)
    assert diag_big.objective >= diag_small.objective


def test_power_scaling_raises_optimum():
    problem = stm_instance(19, N=2)
    _, diag = solve_stm(problem)
    c = problem.coeffs
    louder = GroupCoefficients(
        a=c.a, b=c.b, gamma=tuple(2.0 * g for g in c.gamma))
    _, diag2 = solve_stm(StmProblem(coeffs=louder, D=problem.D,
                                    T=problem.T, v_max=problem.v_max))
    assert diag2.objective > diag.objective


# -------------------------------------------------- stationarity checks

def test_gap_small_at_solution_grows_when_perturbed():
    problems = [stm_instance(23, N=2)]
    config = ScenarioConfig(K=30, N=6)
    problems += [_swept_problem(config, t, baseline) for t in range(3)
                 for baseline in (False, True)]
    for problem in problems:
        alloc, diag = solve_stm(problem)
        assert 0.0 <= diag.optimality_gap <= 1e-9 * diag.objective
        worse = optimality_gap(problem, hover_moved_to_start(alloc, 1.0))
        assert worse >= 10.0 * diag.optimality_gap and worse > 1e-9


def test_gap_bounds_grid_optimum_both_ways():
    # each side's gap bounds the other side's value from above
    problem = stm_instance(23, N=2)
    _, diag = solve_stm(problem)
    oracle_alloc, oracle_val = stm_grid_oracle(problem, refinements=5)
    assert oracle_val <= (diag.objective + diag.optimality_gap) * (1 + 1e-12)
    oracle_gap = optimality_gap(problem, oracle_alloc)
    assert diag.objective <= (oracle_val + oracle_gap) * (1 + 1e-12)
    # the grid's 1e-3 s steps leave its point 1e-3 nats/Hz per second of
    # slack from stationary, at most
    assert oracle_gap <= 1e-3 * problem.slack


@pytest.mark.parametrize("N, trials", [(4, 120), (6, 60), (9, 40)])
def test_gap_certifies_swept_solves(N, trials):
    # every grouped solve and its baseline is optimal for the model to
    # 1e-9; the full-variable gap adds legs 2..N, so it bounds the
    # model's gap from above, and on the baselines no pinned leg pays
    config = ScenarioConfig(K=5 * N, N=N)
    for trial in range(trials):
        for baseline in (False, True):
            problem = _swept_problem(config, trial, baseline)
            alloc, diag = solve_stm(problem)
            gap = diag.optimality_gap
            assert 0.0 <= gap <= 1e-9 * diag.objective
            full = full_variable_gap(problem, alloc)
            assert full >= gap
            if baseline:
                assert full == gap


def test_gap_flags_bound_coordinate_worth_more_than_price():
    # every hover stationary at a price below mu+, zeta_1 at the cap: the
    # free coordinates all read mu, but zeta_1 is worth more than mu, so
    # flying leg 1 slower would pay
    problem = stm_instance(23, N=2)
    mu = 0.9 * solve_stm(problem)[1].mu
    c = problem.coeffs
    q = _oracle_chain_q(c.gamma, c.a, mu)
    zetas = [d / problem.v_max for d in problem.D]
    taus = [0.0]
    for n in range(2):
        energy = c.a[n] * taus[-1] + c.b[n] * zetas[n]
        taus.append(c.gamma[n] * energy * q[n] / (1.0 - q[n]))
    alloc = TimeAllocation(tau=tuple(taus), zeta=tuple(zetas))
    pinned = StmProblem(coeffs=c, D=problem.D, T=alloc.total,
                        v_max=problem.v_max)
    d = throughput_gradient(c, alloc.tau, alloc.zeta)
    assert max(abs(d[n] - mu) for n in (1, 2)) <= 1e-9
    assert d[3] - mu > 0.01 and d[3] == max(d[:4])
    assert optimality_gap(pinned, alloc) == pytest.approx(
        taus[1] * (d[3] - d[1]) + taus[2] * (d[3] - d[2]), rel=1e-12)


@pytest.mark.parametrize("N", [1, 3, 9])
def test_gradient_matches_central_difference(N):
    rng = np.random.default_rng(50 + N)
    for _ in range(5):
        coeffs = synthetic_coeffs(rng, N)
        x = list(rng.uniform(2.0, 60.0, 2 * N + 1))

        def H(point):
            alloc = TimeAllocation(tau=tuple(point[:N + 1]),
                                   zeta=tuple(point[N + 1:]))
            return sum_throughput(coeffs, alloc)

        d = throughput_gradient(coeffs, x[:N + 1], x[N + 1:])
        assert len(d) == 2 * N + 1
        for idx in range(2 * N + 1):  # tau_0..tau_N, then zeta_1..zeta_N
            h = 1e-5 * x[idx]
            hi = x.copy()
            lo = x.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (H(hi) - H(lo)) / (2.0 * h)
            assert d[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


# -------------------------------------------------- throughput function

def test_zero_hover_zero_throughput():
    problem = stm_instance(2, N=2)
    alloc = TimeAllocation(tau=(0.0, 0.0, 0.0), zeta=(10.0, 10.0))
    assert sum_throughput(problem.coeffs, alloc) == 0.0
    # an allocation for another group count is refused, not cut short
    one_group = TimeAllocation(tau=(1.0, 2.0), zeta=(10.0,))
    for measure in (stm.delivered_information, sum_throughput):
        with pytest.raises(NumericDomainError, match="group count"):
            measure(problem.coeffs, one_group)


def test_single_group_concave_in_hover():
    rng = np.random.default_rng(31)
    coeffs = synthetic_coeffs(rng, 1)

    def H(tau):
        alloc = TimeAllocation(tau=(4.0, tau), zeta=(6.0,))
        return sum_throughput(coeffs, alloc)

    grid = np.linspace(0.2, 120.0, 80)
    for x, y in zip(grid[:-1:2], grid[2::2]):
        mid = 0.5 * (x + y)
        assert H(mid) >= 0.5 * (H(x) + H(y)) - 1e-9


# -------------------------------------------------- guards and edges

def test_low_snr_fallback_modes():
    # gamma_N b_N <= 1 once put the instance outside the closed form
    coeffs = GroupCoefficients(
        a=(0.004, 0.0005), b=(0.006, 0.0008), gamma=(200.0, 40.0))
    problem = StmProblem(coeffs=coeffs, D=(25.0, 25.0), T=500.0, v_max=10.0)
    assert coeffs.gamma[-1] * coeffs.b[-1] <= 1.0
    alloc, diag = solve_stm(problem)
    assert diag.method in METHODS - {"degenerate"}
    assert diag.objective > 0.0
    assert abs(alloc.total - problem.T) <= 1e-8
    _assert_meets_oracle(problem, diag)
    assert diag.objective >= stm_sqp_reference(problem)[1].objective * (
        1.0 - 1e-9)


def test_zero_slack_degenerates_to_flying():
    problem = stm_instance(4, N=2)
    tight = StmProblem(coeffs=problem.coeffs, D=problem.D,
                       T=problem.travel_time, v_max=problem.v_max)
    alloc, diag = solve_stm(tight)
    assert diag.method == "degenerate"
    assert diag.objective == 0.0
    assert all(t == 0.0 for t in alloc.tau)


def test_travel_beyond_budget_is_infeasible():
    rng = np.random.default_rng(41)
    coeffs = synthetic_coeffs(rng, 2)
    with pytest.raises(InfeasiblePlanError):
        StmProblem(coeffs=coeffs, D=(300.0, 300.0), T=50.0, v_max=10.0)


def test_problems_check_legs_alike():
    # one check for both modes: the same inputs, the same error type
    coeffs = synthetic_coeffs(np.random.default_rng(0), 2)
    for D, v_max in (((25.0, 25.0), 0.0), ((25.0, 25.0), -10.0),
                     ((25.0,), 10.0), ((25.0, 25.0, 25.0), 10.0),
                     ((25.0, 0.0), 10.0), ((-1.0, 25.0), 10.0)):
        with pytest.raises(ConfigError):
            StmProblem(coeffs=coeffs, D=D, T=1000.0, v_max=v_max)
        with pytest.raises(ConfigError):
            TtmProblem(coeffs=coeffs, D=D, v_max=v_max, I=(1.0, 1.0))
    with pytest.raises(ConfigError):
        StmProblem(coeffs=coeffs, D=(25.0, 25.0), T=0.0, v_max=10.0)


def test_problem_derives_floors_once():
    problem = stm_instance(3, N=3)
    floors = tuple(d / problem.v_max for d in problem.D)
    assert problem.floors == floors
    assert problem.travel_time == math.fsum(floors)
    same = StmProblem(coeffs=problem.coeffs, D=problem.D, T=problem.T,
                      v_max=problem.v_max)
    # derived fields stay out of equality, hashing and repr
    assert same == problem and hash(same) == hash(problem)
    assert "floors" not in repr(problem)
    assert "travel_time" not in repr(problem)
    ttm = TtmProblem(coeffs=problem.coeffs, D=problem.D,
                     v_max=problem.v_max, I=(1.0,) * 3)
    assert ttm.floors == floors and "floors" not in repr(ttm)


def test_allocation_validation():
    with pytest.raises(NumericDomainError):
        TimeAllocation(tau=(1.0, -2.0), zeta=(3.0,))
    with pytest.raises(NumericDomainError):
        TimeAllocation(tau=(1.0, 2.0), zeta=(math.nan,))
    with pytest.raises(NumericDomainError):
        TimeAllocation(tau=(1.0,), zeta=(1.0,))
    # each end of the check 0 <= v < inf, in a hover and in a leg
    for bad in (math.inf, -math.inf, -5e-324):
        with pytest.raises(NumericDomainError):
            TimeAllocation(tau=(1.0, bad), zeta=(3.0,))
        with pytest.raises(NumericDomainError):
            TimeAllocation(tau=(1.0, 2.0), zeta=(bad,))
    for zero in (-0.0, 0.0):
        alloc = TimeAllocation(tau=(zero, zero), zeta=(zero,))
        assert alloc.total == 0.0
    assert TimeAllocation(tau=(0.0, 1.7976931348623157e308),
                          zeta=(5e-324,)).zeta == (5e-324,)


@pytest.mark.parametrize("mu", [-1.0, -5e-324, -math.inf, math.nan])
def test_diagnostics_refuse_a_negative_price(mu):
    problem = stm_instance(1, N=2)
    alloc, diag = solve_stm(problem)
    with pytest.raises(NumericDomainError,
                       match="^budget price must be nonnegative$"):
        StmDiagnostics(mu=mu, objective=diag.objective, method=diag.method,
                       budget_residual=diag.budget_residual,
                       optimality_gap=diag.optimality_gap)


def test_diag_row_matches_header():
    problem = stm_instance(1, N=2)
    _, diag = solve_stm(problem)
    row = stm_diag_row(problem, diag)
    assert len(row.split(",")) == len(STM_DIAG_HEADER.split(","))
    assert row.split(",")[0] == "2"
    assert row.split(",")[3] == f"{diag.mu:.12g}"


@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=1, max_value=4))
def test_solver_invariants_hold(seed, N):
    problem = stm_instance(seed, N=N)
    alloc, diag = solve_stm(problem)
    assert abs(alloc.total - problem.T) <= 1e-8 * max(problem.T, 1.0)
    assert all(t >= 0.0 for t in alloc.tau)
    assert all(z >= problem.D[j] / problem.v_max * (1.0 - 1e-12)
               for j, z in enumerate(alloc.zeta))
    assert diag.objective >= 0.0
    assert diag.mu >= 0.0
    assert diag.method in METHODS
    assert diag.optimality_gap <= 1e-9 * diag.objective


def test_lead_prices_meet_the_50_digit_reference():
    # every lead price of the swept shapes (8 trials a grouped point,
    # one search a baseline point, master seeds 1 and 9; the baselines
    # of a pt_db share one key at both seeds) lies within
    # 1e-12 relative of the exact chain's root
    keys = {}
    for seed in (1, 9):
        base = ScenarioConfig(seed=seed)
        configs = [experiments.apply_sweep_value(base, "pt_db", v)
                   for v in (0.0, 4.0, 8.0)]
        configs.append(experiments.apply_sweep_value(base, "N", 9))
        for cfg in configs:
            for t in range(8):
                geo = generate_trial(cfg, trial_rng(seed, t))
                for baseline in (False, True):
                    key = _lead_key(experiments.build_problem(
                        cfg, geo, "stm", baseline))
                    keys[key] = len(key[0])
    assert sorted(collections.Counter(keys.values()).items()) == [
        (4, 48), (9, 16), (20, 3), (45, 1)]
    for gamma, a, c in keys:
        mu, state = stm._lead_price(gamma, a, c)
        assert state is not None
        ref = lead_price_reference(gamma, a, c, mu)
        assert abs(Decimal(mu) - ref) <= Decimal("1e-12") * ref
