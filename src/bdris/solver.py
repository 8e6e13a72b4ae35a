"""Distributed successive-approximation solver.

Every iteration runs one Jacobi sweep: each base station builds its local
surrogate against a shared read-only snapshot of the current point, solves
its three block subproblems (precoders, capacitances, switch selection),
and the candidates are merged with a diminishing step size.  The two
continuous blocks are blended convexly, which preserves feasibility; the
discrete selection block is accepted outright only when it improves the
local surrogate and kept otherwise.

The per-BS updates are independent given the snapshot, so one batched
call, :func:`local_subproblems`, computes all of them from one assembly of
the :func:`bdris.rates.weighted_amplitudes` that every block reads: the
precoder blocks in one contraction and one lock-step Newton search of the
power multipliers, each started at the multiplier its BS found in the
previous sweep (at 0 in the first); both surface gradients of every BS from
the snapshot's routed channels, batched over all users
(:func:`bdris.rates.surface_gradients`, which skips the switch products in
``diagonal`` mode); and the switch rewards and gains around one assignment
per BS.  In ``bd`` mode the surfaces are screened at the proximal weight
``tau`` first, all in one pass: a BS whose norm bound certifies its current
permutation (:func:`bdris.rates.selection_bounds`) forms no switch
product, reward or assignment, and keeps that permutation at a switch gain
of exactly 0.0, as its full reward would give; the others run as stacked
(n, M, M) rewards and (n,) gains.  It returns one :class:`Candidate` of
per-BS arrays, which :func:`blend_step` merges with array expressions;
:func:`local_subproblem` is its one-BS slice.

A merged point is kept only if the true sum rate does not drop.  The
linearized pricing guarantees ascent only for small enough steps of the
continuous blocks, and the switch model is linear in a rate that is not, so
a rejected point is retried without the switch moves and then with halved
steps; if no trial ascends, the iteration takes step 0.  The trace is
therefore non-decreasing.  Every trial snapshot is handed the current one as
``previous`` and carries over what the trial did not change: the surfaces are
routed again only after a switch move, which the trace counts per BS, and a
surface-less run forms its composite rows, their per-stream gather and the
own channels once, at the initial point (see :func:`bdris.rates.snapshot`).
A block that does not move keeps its array in the trial, so its snapshot
reads the same arrays the current one did.

Every block linearizes the gradient of its own cell's rates plus
``cooperative`` times the other cells' rates, less the terms it models
exactly (:func:`bdris.rates.weighted_amplitudes`), so a non-cooperative
(``-pi0``) BS still prices the interference between its own users.
"""

from __future__ import annotations

import csv
import time
from array import array
from dataclasses import dataclass, fields, replace

import numpy as np

from . import capacitance, precoding, rates, switches
from .errors import ConfigError, NumericalFailureError
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

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be a finite number > 0")
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if not (0 < self.alpha0 <= 1):
            raise ValueError("alpha0 must be in (0, 1]")
        if not (0 <= self.epsilon < 1):
            raise ValueError("epsilon must be in [0, 1)")
        if self.ris_mode not in RIS_MODES:
            raise ValueError(f"ris_mode must be one of {RIS_MODES}")
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")

    @property
    def ris_enabled(self):
        return self.ris_mode != "none"


# named algorithm variants: (ris_mode, cooperative); ``-pi0`` prices no other cell
VARIANTS = {
    "bd": ("bd", True),
    "diag": ("diagonal", True),
    "none": ("none", True),
    "bd-pi0": ("bd", False),
    "diag-pi0": ("diagonal", False),
    "none-pi0": ("none", False),
}


def solver_config_for(base, variant):
    """Solver configuration of a named variant; :class:`ConfigError` for an unknown name."""
    try:
        ris_mode, cooperative = VARIANTS[variant]
    except KeyError:
        raise ConfigError(f"unknown variant {variant!r}; known: {sorted(VARIANTS)}")
    return replace(base, ris_mode=ris_mode, cooperative=cooperative)


@dataclass
class Trace:
    """Per-iteration history of one solver run, one field per ``trace.csv`` column.

    Row 0 describes the initial point (step size 0; wall time, trials,
    surrogate values, power multipliers, power steps and switch moves 0);
    each executed iteration adds one row, so a run of T iterations has T + 1
    rows.  ``sum_rates``, ``alphas`` and ``wall_times`` are ``array('d')``
    columns and ``trials`` a (T+1,) int32 array; ``surrogate_values``,
    ``power_slacks`` and ``power_multipliers`` are (T+1, Q) float64 arrays,
    and ``power_steps`` and ``switch_moves`` (T+1, Q) int32 arrays, so a row
    holds 28 + 32·Q bytes.  An ``array('d')`` takes 8 B a value where a float
    list takes 32, and unlike an ndarray it still compares with ``==`` to one
    ``bool`` and takes ``append`` and item assignment, as a list does.
    ``trials[t]`` counts the trial merges iteration t evaluated,
    ``power_steps[t, q]`` the steps BS q's multiplier search took in sweep
    t, and ``switch_moves[t, q]`` the elements of BS q whose routing the
    accepted step changed.  ``alphas`` holds the step actually taken: the
    scheduled one, a halved one after backtracking, or 0.0 when every trial
    lowered the sum rate and the point was kept.  A new column is one more
    field and one more entry of ``ENTRY_TYPES``.
    """

    sum_rates: array
    alphas: array
    wall_times: array
    trials: np.ndarray
    surrogate_values: np.ndarray
    power_slacks: np.ndarray
    power_multipliers: np.ndarray
    power_steps: np.ndarray
    switch_moves: np.ndarray

    # ``trace.csv`` names of the per-BS fields, each column suffixed ``_bs<q>``
    PER_BS_COLUMNS = ("surrogate_value", "power_slack", "power_multiplier", "power_steps",
                      "switch_moves")
    # the type of each field's entries, in field order
    ENTRY_TYPES = ("f8", "f8", "f8", "i4", "f8", "f8", "f8", "i4", "i4")

    @classmethod
    def records(cls, rows, q_n):
        """Zeroed buffer of ``rows`` rows: one record field per field, (Q,) if per BS."""
        names, per_bs = [f.name for f in fields(cls)], len(cls.PER_BS_COLUMNS)
        shapes = [()] * (len(names) - per_bs) + [(q_n,)] * per_bs
        return np.zeros(rows, list(zip(names, cls.ENTRY_TYPES, shapes)))

    @classmethod
    def from_records(cls, records):
        """Trace of every row of ``records``, each column copied at its exact length."""
        names = [f.name for f in fields(cls)]
        # built from bytes an array('d') keeps spare room; its slice does not
        return cls(*(array("d", records[name].tobytes())[:] for name in names[:3]),
                   *(records[name].copy() for name in names[3:]))

    @property
    def num_iterations(self):
        return len(self.sum_rates) - 1

    def to_csv(self, path):
        """Write one row per iteration: its index, then every field's values in order."""
        columns = [np.reshape(getattr(self, f.name), (len(self.sum_rates), -1)).tolist()
                   for f in fields(self)]
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["iteration", "sum_rate", "alpha", "wall_time_s", "trials"]
                        + [f"{name}_bs{q}" for name in self.PER_BS_COLUMNS
                           for q in range(self.power_slacks.shape[1])])
            for t, row in enumerate(zip(*columns)):
                wr.writerow([t, *(repr(v) for part in row for v in part)])


@dataclass
class Candidate:
    """One Jacobi sweep's subproblem solutions, every BS at once.

    ``switch_gains[q]`` is the assignment reward gain of BS q's proposed
    permutation over its current one, 0.0 where no assignment was solved.
    """

    target: Iterate                # proposed precoders, capacitances, selections
    switch_gains: np.ndarray       # (Q,)
    surrogate_values: np.ndarray   # (Q,)
    power_multipliers: np.ndarray  # (Q,)
    power_steps: np.ndarray        # (Q,) int, steps of each multiplier search


MAX_HALVINGS = 10  # step halvings an iteration tries before it takes step 0
TRACE_ROWS = 64  # trace rows ``run`` holds before it first doubles its record buffer


def step_size_schedule(t, alpha_prev, config):
    """Diminishing step size alpha_{t+1} = alpha_t (1 - epsilon alpha_t).

    ``run`` passes the last step it accepted as ``alpha_prev``, so a step
    shortened by backtracking is where the next iteration starts.
    """
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
    bs = channels.bs_of_user
    budgets = np.broadcast_to(np.asarray(power_budgets, float), (q_n,))
    shares = budgets[bs] / (np.bincount(bs, minlength=q_n)[bs] * k_n)
    h = channels.direct[bs, np.arange(u_n)]  # (U, K, N): each user's serving link
    norms = np.linalg.norm(h, axis=2, keepdims=True)
    direction = np.where(norms > 0, h / np.where(norms > 0, norms, 1.0),
                         1.0 / np.sqrt(n_n))
    w = np.sqrt(shares)[:, None, None] * direction
    caps = np.full((q_n, m_n), channels.circuit.midpoint())
    sels = np.tile(np.arange(m_n), (q_n, 1))
    return Iterate(w, caps, sels)


def local_subproblems(iterate, channels, noise_power, power_budgets, config, snap=None,
                      start_multipliers=None):
    """One Jacobi sweep: every BS's three block subproblems against the shared snapshot.

    ``start_multipliers`` (Q,) starts the power multiplier searches; they
    start at 0 if it is omitted.  Returns one :class:`Candidate` for all BSs.
    """
    if snap is None:
        snap = snapshot(iterate, channels, noise_power, config.ris_enabled)
    q_n = channels.num_bs
    bs = channels.bs_of_user
    budgets = np.full(q_n, power_budgets, float)
    # the surfaces read the weighted amplitudes too: then one assembly serves all blocks
    weighted = (rates.weighted_amplitudes(channels, snap, pricing=float(config.cooperative))
                if config.ris_enabled else None)
    surrogate = precoding.stacked_surrogates(iterate, channels, snap, config.cooperative,
                                             weighted)
    lams, w_hat, steps = precoding.solve_precoders(surrogate, bs, config.tau, budgets,
                                                   start_multipliers)
    values = np.bincount(bs, precoding.objective_values(surrogate, w_hat, config.tau),
                         minlength=q_n)

    c_prev, s_prev = iterate.capacitances, iterate.selections
    c_hat, s_hat, gains = c_prev, s_prev, np.zeros(q_n)
    if config.ris_enabled:
        grad_c, grad_s, uncertified = rates.surface_gradients(
            iterate, channels, snap, selection=config.ris_mode == "bd", tau=config.tau,
            weighted=weighted)
        tau_c = capacitance_tau(config.tau, channels.circuit)
        c_hat = capacitance.update_capacitances(c_prev, grad_c, tau_c, channels.circuit)
        dc = c_hat - c_prev
        values += np.sum(grad_c * dc, axis=1) - 0.5 * tau_c * np.sum(dc * dc, axis=1)

        if grad_s is not None:
            # a surface the norm bound certifies keeps its permutation, at gain 0.0
            if uncertified.any():
                prev = s_prev[uncertified]
                rewards = switches.selection_reward(grad_s, prev, config.tau)
                s_hat = s_prev.copy()
                s_hat[uncertified] = [switches.solve_selection(r) for r in rewards]
                gains[uncertified] = switches.reward_gain(rewards, s_hat[uncertified], prev)
            values += gains
    return Candidate(Iterate(w_hat, c_hat, s_hat), gains, values, lams, steps)


def local_subproblem(q, iterate, channels, noise_power, power_budget, config, snap=None):
    """BS q's one-BS slice of :func:`local_subproblems`, every BS at ``power_budget``."""
    c = local_subproblems(iterate, channels, noise_power, power_budget, config, snap)
    t = c.target
    return Candidate(Iterate(t.precoders[channels.users_of_bs(q)], t.capacitances[[q]],
                             t.selections[[q]]),
                     c.switch_gains[[q]], c.surrogate_values[[q]], c.power_multipliers[[q]],
                     c.power_steps[[q]])


def blend_step(iterate, candidate, alpha):
    """Merge a sweep's candidate into the next point.

    Precoders and capacitances move a fraction ``alpha`` toward the
    candidate; a BS's proposed permutation replaces its current one only
    where its switch gain is strictly positive.  Each capacitance is kept
    between its current and candidate values, which ``c + 1.0 (c_hat - c)``
    can round past, so a full step stays in the tunable range.  A block that
    does not move is returned as the same array: the capacitances when the
    candidate's are the iterate's (no surfaces), the selections when no
    switch gain is positive.  Whether the merged point is kept at all is
    decided by ``run`` on the true sum rate.
    """
    t, w, caps, sels = (candidate.target, iterate.precoders, iterate.capacitances,
                        iterate.selections)
    c_hat, moved = t.capacitances, candidate.switch_gains > 0.0
    if c_hat is not caps:
        caps = np.clip(caps + alpha * (c_hat - caps), np.minimum(caps, c_hat),
                       np.maximum(caps, c_hat))
    if moved.any():
        sels = np.where(moved[:, None], t.selections, sels)
    return Iterate(w + alpha * (t.precoders - w), caps, sels)


def run(channels, power_budgets, noise_power, config):
    """Iterate until the sum rate stalls; return (best iterate, trace).

    Each iteration solves the local subproblems once and then tries merged
    points until the true sum rate does not drop: the scheduled step, the
    same step with every switch move withheld, then up to ``MAX_HALVINGS``
    halvings of the continuous step.  If none ascends the point is kept
    (step 0), and the unchanged rate ends the run through the ``tol`` test.
    Each sweep's power multiplier searches start at the multipliers of the
    previous sweep (at 0 in the first); the search keeps a positive
    multiplier only once the power at 0 is known to exceed the budget, and
    its stopping band is the one of a start at 0, so the warm start saves
    power evaluations (see :func:`bdris.precoding.solve_precoders`).  The
    initial point and every iteration each write one row in place into a
    record buffer that doubles when full, and the :class:`Trace` copies the
    rows written on return; a row's power slack is read off the power that
    validating its point measured.  The trace never drops, so the last point
    is also the best one visited and its rate is ``max(trace.sum_rates)``.
    Raises ``ValueError`` on a budget that is not finite and > 0 before any
    work, and :class:`NumericalFailureError` if a trial point leaves the
    feasible set.
    """
    q_n = channels.num_bs
    budgets = np.broadcast_to(np.asarray(power_budgets, float), (q_n,))
    if not np.all((budgets > 0) & (budgets < np.inf)):  # a NaN budget fails too
        raise ValueError("power budget must be finite and > 0")
    iterate = initial_iterate(channels, budgets)
    snap = snapshot(iterate, channels, noise_power, config.ris_enabled)
    power = rates.bs_power(iterate.precoders, channels.bs_of_user, q_n)
    records = Trace.records(TRACE_ROWS, q_n)
    records[0] = (snap.sum_rate, 0.0, 0.0, 0, 0.0, budgets - power, 0.0, 0, 0)

    alpha, lams = config.alpha0, None
    for t in range(config.max_iters):
        start = time.perf_counter()
        alpha = step_size_schedule(t, alpha, config)
        candidate = local_subproblems(iterate, channels, noise_power, budgets, config,
                                      snap, start_multipliers=lams)
        lams = candidate.power_multipliers
        prev_rate, prev_sel = snap.sum_rate, iterate.selections
        step, trials, iterate, snap, power = _ascent_step(
            iterate, snap, power, candidate, alpha, channels, budgets, noise_power, config)
        elapsed = time.perf_counter() - start
        if step > 0.0:
            alpha = step
        if t + 1 == len(records):
            records = np.concatenate([records, np.zeros_like(records)])
        moves = (0 if iterate.selections is prev_sel
                 else np.count_nonzero(iterate.selections != prev_sel, axis=1))
        records[t + 1] = (snap.sum_rate, step, elapsed, trials, candidate.surrogate_values,
                          budgets - power, candidate.power_multipliers,
                          candidate.power_steps, moves)
        if abs(snap.sum_rate - prev_rate) <= config.tol:
            break
    return iterate, Trace.from_records(records[:t + 2])


def _ascent_step(iterate, snap, power, candidate, alpha, channels, budgets, noise_power,
                 config):
    """First trial merge whose sum rate does not drop below ``snap``'s.

    Returns (step, trials, iterate, snapshot, per-BS power) of the accepted
    point, or the given point with step 0.0 if every trial drops; ``trials``
    counts the merges tried.  A trial's permutations are validated only in
    the rows whose switch gain is positive: the others are the given point's.
    """
    cand, step, trials = candidate, alpha, 0
    while step >= alpha * 0.5**MAX_HALVINGS:
        trial = blend_step(iterate, cand, step)
        try:
            trial_power = trial.validate(channels, budgets, cand.switch_gains > 0.0)
        except ValueError as exc:
            raise NumericalFailureError(
                f"iterate infeasible after update: {exc}") from exc
        trial_snap = snapshot(trial, channels, noise_power, config.ris_enabled, previous=snap)
        trials += 1
        if trial_snap.sum_rate >= snap.sum_rate:
            return step, trials, trial, trial_snap, trial_power
        if cand is candidate and np.any(trial.selections != iterate.selections):
            cand = replace(candidate, switch_gains=np.zeros_like(candidate.switch_gains))
        else:
            step *= 0.5
    return 0.0, trials, iterate, snap, power
