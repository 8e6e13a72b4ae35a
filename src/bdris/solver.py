"""Distributed successive-approximation solver.

Every iteration runs one Jacobi sweep: each base station builds its local
surrogate against a shared read-only snapshot of the current point, solves
its three block subproblems (precoders, capacitances, switch selection),
and the candidates are merged with a diminishing step size.  The two
continuous blocks are blended convexly, which preserves feasibility; the
discrete selection block is accepted outright only when it improves the
local surrogate and kept otherwise.

Cooperation is expressed through pricing terms (gradients of other cells'
rates); the non-cooperative baselines force them to zero.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import capacitance, precoding, switches
from .errors import NumericalFailureError
from .rates import Iterate, snapshot

RIS_MODES = ("bd", "diagonal", "none")


@dataclass
class SolverConfig:
    """Algorithm knobs; defaults follow the evaluated setup."""

    tau: float = 0.80
    alpha0: float = 0.1
    epsilon: float = 1e-2
    max_iters: int = 500
    tol: float = 1e-4
    ris_mode: str = "bd"
    cooperative: bool = True
    switch_hold_iters: int = 0
    power_rel_tol: float = 1e-8
    power_max_doublings: int = 200

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if not (0 < self.alpha0 <= 1):
            raise ValueError("alpha0 must be in (0, 1]")
        if not (0 <= self.epsilon < 1):
            raise ValueError("epsilon must be in [0, 1)")
        if self.ris_mode not in RIS_MODES:
            raise ValueError(f"ris_mode must be one of {RIS_MODES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    @property
    def ris_enabled(self):
        return self.ris_mode != "none"


@dataclass
class Trace:
    """Per-iteration history of one solver run.

    The first recorded entries describe the initial point (step size 0);
    each executed iteration appends one entry.
    """

    sum_rates: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    surrogate_values: list = field(default_factory=list)  # per-BS lists
    power_slacks: list = field(default_factory=list)      # per-BS arrays
    wall_times: list = field(default_factory=list)

    @property
    def num_iterations(self):
        return max(len(self.sum_rates) - 1, 0)

    def append(self, sum_rate, alpha, surrogates, slack, wall):
        self.sum_rates.append(float(sum_rate))
        self.alphas.append(float(alpha))
        self.surrogate_values.append(list(surrogates))
        self.power_slacks.append(np.asarray(slack, dtype=float))
        self.wall_times.append(float(wall))

    def to_csv(self, path):
        """Write (iteration, sum_rate, alpha, per-BS power slack) rows."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            q_n = len(self.power_slacks[0]) if self.power_slacks else 0
            wr.writerow(["iteration", "sum_rate", "alpha"]
                        + [f"power_slack_bs{q}" for q in range(q_n)])
            for t, (sr, al, sl) in enumerate(zip(self.sum_rates, self.alphas,
                                                 self.power_slacks)):
                wr.writerow([t, repr(sr), repr(al)] + [repr(float(s)) for s in sl])


@dataclass
class Candidate:
    """Per-BS subproblem solution for one iteration."""

    precoders: np.ndarray       # (L, K, N)
    capacitances: np.ndarray    # (M,)
    selection: np.ndarray       # (M,) int permutation, as in Iterate
    reward: np.ndarray | None   # (M, M) assignment reward, None if no switch update
    surrogate_value: float


def step_size_schedule(t, alpha_prev, config):
    """Diminishing step size alpha_{t+1} = alpha_t (1 - epsilon alpha_t)."""
    if t == 0:
        return config.alpha0
    return alpha_prev * (1.0 - config.epsilon * alpha_prev)


def capacitance_tau(tau, circuit):
    """Proximal weight of the capacitance block in farad units.

    The configured weight is understood per normalized tuning units of half
    the range, so the proximal term costs ``tau/2`` when an element moves
    half of its tuning range; applying ``tau`` directly on the farad scale
    (range ~ 1e-12) would leave the block with no effective trust region at
    all, and a full-range normalization still overshoots the sharp response
    region around the element resonance.
    """
    half_width = 0.5 * (circuit.c_max - circuit.c_min)
    return tau / half_width**2


def initial_iterate(channels, power_budgets):
    """Feasible starting point.

    Precoders are matched filters to the direct channels with the power
    budget split equally over users and subcarriers; capacitances start at
    the middle of the tunable range; selections start at the identity.
    """
    q_n, u_n, k_n, n_n = channels.direct.shape
    m_n = channels.num_elements
    budgets = np.broadcast_to(np.asarray(power_budgets, float), (q_n,))
    w = np.zeros((u_n, k_n, n_n), dtype=complex)
    for u in range(u_n):
        q = channels.bs_of_user[u]
        share = budgets[q] / (len(channels.users_of_bs(q)) * k_n)
        h = channels.direct[q, u]
        norms = np.linalg.norm(h, axis=1, keepdims=True)
        direction = np.where(norms > 0, h / np.where(norms > 0, norms, 1.0),
                             1.0 / np.sqrt(n_n))
        w[u] = np.sqrt(share) * direction
    caps = np.full((q_n, m_n), channels.circuit.midpoint())
    sels = np.tile(np.arange(m_n), (q_n, 1))
    return Iterate(w, caps, sels)


def local_subproblem(q, iterate, channels, noise_power, power_budget, config,
                     snap=None, iteration=0):
    """Solve BS q's three block subproblems against the shared snapshot."""
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, config.ris_enabled)
    surrogates = precoding.build_surrogates(
        q, iterate, channels, noise_power, snap,
        cooperative=config.cooperative, ris_enabled=config.ris_enabled)
    _, w_hat = precoding.bisect_power_multiplier(
        surrogates, config.tau, power_budget,
        rel_tol=config.power_rel_tol, max_doublings=config.power_max_doublings)
    value = precoding.subproblem_objective(surrogates, w_hat, config.tau)

    c_prev = iterate.capacitances[q]
    s_prev = iterate.selections[q]
    c_hat, s_hat, reward = c_prev, s_prev, None
    if config.ris_enabled:
        grad_c = capacitance.rate_gradient(q, iterate, channels, noise_power, snap)
        if config.cooperative:
            price_c = capacitance.pricing_gradient(q, iterate, channels,
                                                   noise_power, snap)
        else:
            price_c = np.zeros_like(grad_c)
        tau_c = capacitance_tau(config.tau, channels.circuit)
        c_hat = capacitance.update_capacitances(c_prev, grad_c, price_c,
                                                tau_c, channels.circuit)
        dc = c_hat - c_prev
        value += float((grad_c + price_c) @ dc) - 0.5 * tau_c * float(dc @ dc)

    if config.ris_mode == "bd" and iteration >= config.switch_hold_iters:
        grad_s = switches.selection_gradient(q, iterate, channels, noise_power, snap)
        if config.cooperative:
            grad_s = grad_s + switches.selection_pricing(q, iterate, channels,
                                                         noise_power, snap)
        reward = switches.selection_reward(grad_s, s_prev, config.tau)
        s_hat = switches.solve_selection(reward)
        value += switches.reward_gain(reward, s_hat, s_prev)
    return Candidate(w_hat, c_hat, s_hat, reward, value)


def blend_step(iterate, candidates, alpha, channels):
    """Merge per-BS candidates into the next point.

    Precoders and capacitances move a fraction ``alpha`` toward their
    candidates; a candidate permutation replaces the current one only when
    its assignment reward strictly improves on it.
    """
    w = iterate.precoders.copy()
    caps = iterate.capacitances.copy()
    sels = iterate.selections.copy()
    for q, cand in enumerate(candidates):
        own = channels.users_of_bs(q)
        w[own] += alpha * (cand.precoders - w[own])
        caps[q] += alpha * (cand.capacitances - caps[q])
        if cand.reward is not None:
            if switches.reward_gain(cand.reward, cand.selection, sels[q]) > 0.0:
                sels[q] = cand.selection
    return Iterate(w, caps, sels)


def run(channels, power_budgets, noise_power, config):
    """Iterate until the sum rate stalls; return (best iterate, trace).

    The returned iterate is the best point visited as measured by the true
    sum rate, which guards against non-monotone effects of the discrete
    switch updates.  Raises :class:`NumericalFailureError` if an update
    leaves the feasible set.
    """
    q_n = channels.num_bs
    budgets = np.broadcast_to(np.asarray(power_budgets, float), (q_n,))
    iterate = initial_iterate(channels, budgets)
    snap = snapshot(iterate, channels, noise_power, config.ris_enabled)
    trace = Trace()
    trace.append(snap.sum_rate, 0.0, [0.0] * q_n,
                 budgets - iterate.bs_power(channels.bs_of_user), 0.0)
    best_iterate, best_rate = iterate.copy(), snap.sum_rate

    alpha = config.alpha0
    prev_rate = snap.sum_rate
    for t in range(config.max_iters):
        start = time.perf_counter()
        alpha = step_size_schedule(t, alpha, config)
        candidates = [local_subproblem(q, iterate, channels, noise_power,
                                       budgets[q], config, snap, iteration=t)
                      for q in range(q_n)]
        iterate = blend_step(iterate, candidates, alpha, channels)
        try:
            iterate.validate(channels, budgets)
        except ValueError as exc:
            raise NumericalFailureError(f"iterate infeasible after update: {exc}") from exc
        snap = snapshot(iterate, channels, noise_power, config.ris_enabled)
        trace.append(snap.sum_rate, alpha,
                     [c.surrogate_value for c in candidates],
                     budgets - iterate.bs_power(channels.bs_of_user),
                     time.perf_counter() - start)
        if snap.sum_rate > best_rate:
            best_iterate, best_rate = iterate.copy(), snap.sum_rate
        if abs(snap.sum_rate - prev_rate) <= config.tol:
            break
        prev_rate = snap.sum_rate
    return best_iterate, trace
