"""Desk-scale double Q-learning with adaptively normalized targets.

The environment is a short chain: from each state the agent can advance
toward a terminal state or stay put, and the only reward is a single
(possibly huge) payoff on entering the terminal state.  Because the
bootstrapped targets inherit the reward's magnitude, this tiny problem
already exercises the scale-robustness the normalization is for: the
same hyperparameters should learn the value function whether the
terminal reward is 1 or 10**6.

``value_iteration`` gives the exact action values, used as the oracle
for accuracy checks.

The network's input is a state-action one-hot code, and the codes of
several states go through the network as one stack, whose rows equal the
per-code passes to the last bit.  A learned transition takes one such
pass: :meth:`DoubleQAgent.act` at ``s`` runs it over the actions of ``s``
and ``s + 1``, the only states a step from ``s`` can reach, and returns it
with the action it picks; learning that transition reads the bootstrap
action at the next state and its SGD step's activations from the same pass.
So a step's pass has the same size on a chain of any length.  Every input is one of
finitely many codes, so a copy of the online network is fully described
by its value table: the double-Q target network is that table, taken in
one stacked pass over all non-terminal states at each copy and frozen
until the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .network import Mlp
from .schedules import bias_corrected
from .stats import MAX_TARGET, Normalizer
from .training import OutputLayer, TrainStepReport, popart_sgd_step
from .values import check_setting, count, is_seed, real

@dataclass
class ChainMdp:
    """Linear chain with an absorbing terminal state at the right end.

    Action 0 advances one state, action 1 stays.  Entering the terminal
    state yields ``terminal_reward``; every other transition is free.
    """

    n_states: int = 5
    terminal_reward: float = 1000.0
    gamma: float = 0.99

    n_actions: ClassVar[int] = 2
    ADVANCE: ClassVar[int] = 0
    STAY: ClassVar[int] = 1

    def __post_init__(self) -> None:
        check_setting("n_states", self.n_states, lambda n: count(n) >= 2)
        check_setting(  # a target the normalizer takes; NaN fails the comparison
            "terminal_reward", self.terminal_reward, lambda r: abs(real(r)) <= MAX_TARGET
        )
        check_setting("gamma", self.gamma, lambda g: 0.0 < real(g) <= 1.0)

    @property
    def terminal(self) -> int:
        return self.n_states - 1

    def step(self, s: int, a: int) -> tuple[int, float, bool]:
        """``(next state, reward, done)``; at the terminal state, which is
        absorbing, ``(terminal, 0.0, True)``.  A state outside
        ``[0, n_states)`` or an action outside ``[0, n_actions)`` raises
        ``IndexError``."""
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} is outside [0, {self.n_states})")
        if not 0 <= a < self.n_actions:
            raise IndexError(f"action {a} is outside [0, {self.n_actions})")
        terminal = self.terminal
        if s == terminal:
            return s, 0.0, True
        s2 = s + 1 if a == self.ADVANCE else s
        return s2, self.terminal_reward if s2 == terminal else 0.0, s2 == terminal


def value_iteration(mdp: ChainMdp) -> np.ndarray:
    """Exact Q values for the non-terminal states, shape (n_states-1, n_actions).

    One sweep from right to left, one :meth:`ChainMdp.step` per state,
    since a state's values read only the next state's value.  A state is
    worth its advance value if that is above 0, else +0.0, the value of
    staying forever; staying is worth ``gamma`` times the state's value.
    """
    q = np.empty((mdp.n_states - 1, mdp.n_actions))
    v = 0.0  # the terminal state's
    for s in reversed(range(mdp.terminal)):
        _, r, done = mdp.step(s, mdp.ADVANCE)
        advance = r + (0.0 if done else mdp.gamma * v)
        v = advance if advance > 0.0 else 0.0
        q[s, mdp.ADVANCE], q[s, mdp.STAY] = advance, mdp.gamma * v
    return q


@dataclass
class EpisodeMetrics:
    steps: int
    total_reward: float


# an episode that has not reached the terminal state by then is cut off
MAX_EPISODE_STEPS = 100


class _Pass(NamedTuple):
    """A stacked forward pass over ``codes[lo:hi]``: its activations, one
    row per code in ``codes`` order, the values ``q[s - lo, a]``, the
    greedy action of each state and the agent's ``step_count`` when it ran."""

    lo: int
    hi: int
    acts: list[np.ndarray]
    q: np.ndarray
    greedy: list[int]
    step_count: int


class DoubleQAgent:
    """Online double Q-learning on a state-action one-hot encoding.

    The codes are built once, as ``codes[s, a]`` of shape
    ``(n_states, n_actions, n_states + n_actions)``, float64s whose ones are
    set in place, and may take at most 2 GiB: a longer chain than 11584
    states raises ``ValueError`` naming that limit before anything is
    built.  Every value the agent reads comes from one stacked forward
    pass over the codes of a run of states, ``codes[lo:hi]``, on the
    current parameters: the values ``q[s, a]`` and each state's greedy
    action, ties to the lowest index.

    The online network carries the adaptive normalization and picks the
    greedy action at the next state; the target network values it.  That
    network is a copy of the online one, taken at the start and every
    ``copy_period`` steps exactly, so it is kept as the value table it
    computes: ``target_q`` is :meth:`q_table` as of the last copy.

    :meth:`act` at ``s`` returns its action, greedy or random, with its pass
    over ``codes[s:s + 2]``, and :meth:`train_episode` hands that pass to
    :meth:`learn_transition`, which reads the greedy action at ``s2`` and row
    ``(s, a)`` of the activations from it in place of a pass of its own, with
    the same result to the last bit.  So a learned transition runs one
    forward pass of at most ``2 * n_actions`` rows, and the agent keeps none.
    """

    def __init__(
        self,
        mdp: ChainMdp,
        hidden=(20, 20),
        alpha: float = 3e-4,
        beta: float = 0.01,
        epsilon_greedy: float = 0.1,
        copy_period: int = 500,
        seed: int = 0,
    ):
        check_setting("hidden", hidden, lambda h: len(h) > 0 and min(map(count, h)) >= 1)
        check_setting("alpha", alpha, lambda a: 0.0 < real(a) < math.inf)
        check_setting("beta", beta, lambda b: 0.0 < real(b) <= 1.0)
        check_setting("epsilon_greedy", epsilon_greedy, lambda e: 0.0 <= real(e) <= 1.0)
        check_setting("copy_period", copy_period, lambda c: count(c) >= 1)
        check_setting("seed", seed, is_seed)
        # the one-hot codes, float64s filled at once below, may take at most
        # 2 GiB, as binreg's MAX_GRID_SAMPLES bounds a sweep's records.  Time
        # is not bounded by it: the pass over all states at each target copy
        # grows with the square of the length
        n_in = mdp.n_states + mdp.n_actions
        if 8 * mdp.n_states * mdp.n_actions * n_in > 2**31:
            raise ValueError(f"invalid n_states: {mdp.n_states} states' codes take over 2 GiB")
        self.mdp = mdp
        self.alpha = alpha
        self.epsilon_greedy = epsilon_greedy
        self.copy_period = copy_period
        self.rng = np.random.default_rng(seed)
        self.codes = np.zeros((mdp.n_states, mdp.n_actions, n_in))
        # the ones set in place: an identity of n_states**2 floats to copy
        # them from would take half as much memory again as the codes
        states = np.arange(mdp.n_states)
        self.codes[states, :, states] = 1.0
        self.codes[:, :, mdp.n_states :] = np.eye(mdp.n_actions)
        self.codes.flags.writeable = False
        self._all_codes = self.codes.reshape(-1, n_in)
        self.net = Mlp([n_in, *hidden], rng=self.rng)
        normalizer = Normalizer(k=1, schedule=bias_corrected(beta))
        self.layer = OutputLayer(1, hidden[-1], normalizer=normalizer, rng=self.rng)
        self.step_count = 0
        self.target_q = self.q_table()

    def _pass(self, lo: int, hi: int) -> _Pass:
        """One stacked forward pass over ``codes[lo:hi]``, on the current
        parameters; raises ``IndexError`` unless ``0 <= lo < hi <= n_states``.

        Each value ``q[s - lo, a]`` has the bytes that row's features give
        through :meth:`OutputLayer.unnormalized_output` alone, and each
        state's greedy action is ``argmax``'s: ties go to the lowest
        action, and a NaN value wins.
        """
        if not 0 <= lo < hi <= self.mdp.n_states:
            raise IndexError(f"states {lo}..{hi - 1} out of range for {self.mdp.n_states} states")
        n_actions = self.mdp.n_actions
        acts = self.net.forward_pass(self._all_codes[lo * n_actions : hi * n_actions])
        q = self.layer.unnormalized_output(acts[-1]).reshape(hi - lo, n_actions)
        # argmax breaks ties to the lowest index; a NaN value wins
        return _Pass(lo, hi, acts, q, q.argmax(axis=1).tolist(), self.step_count)

    def act(self, s: int) -> tuple[int, _Pass]:
        """An epsilon-greedy action at ``s`` and the pass it was read from."""
        # a step from s ends in s or s + 1: the pass covers both
        seen = self._pass(s, min(s + 2, self.mdp.n_states))
        explore = self.rng.random() < self.epsilon_greedy
        return (int(self.rng.integers(self.mdp.n_actions)) if explore else seen.greedy[0]), seen

    def double_q_target(self, transition, a_star: int) -> float:
        """Reward plus the discounted target-network value of ``a_star``, the
        online network's greedy action at ``s2``; ``done`` drops the bootstrap."""
        _, _, r, s2, done = transition
        return float(r if done else r + self.mdp.gamma * self.target_q[s2, a_star])

    def learn_transition(self, transition, seen: _Pass) -> TrainStepReport:
        """One SGD step on ``transition``, ``(s, a, r, s2, done)``, from
        ``seen``, a pass of the current parameters over ``s`` and ``s2``,
        whose row of ``(s, a)`` is the step's ``acts``.  A state or action
        off the chain raises ``IndexError``; a pass that does not cover both
        states, or that was made before the last learning step,
        ``ValueError``; neither moves a thing.
        """
        s, a, r, s2, done = transition
        lo, hi = min(s, s2), max(s, s2) + 1
        if not (0 <= a < self.mdp.n_actions and 0 <= lo and hi <= self.mdp.n_states):
            raise IndexError(f"transition {transition} is off the chain or its actions")
        if not (seen.lo <= lo and hi <= seen.hi and seen.step_count == self.step_count):
            raise ValueError(
                f"a pass over states {seen.lo}..{seen.hi - 1} made for step {seen.step_count + 1} "
                f"cannot serve step {self.step_count + 1}, on states {lo}..{hi - 1}"
            )
        y = self.double_q_target(transition, seen.greedy[s2 - seen.lo])
        if not -MAX_TARGET <= y <= MAX_TARGET:  # the target network's values overflowed
            raise FloatingPointError(
                f"training diverged at step {self.step_count + 1}: bootstrap target {y:g} "
                f"out of range (terminal reward {self.mdp.terminal_reward:g})"
            )
        row = (s - seen.lo) * self.mdp.n_actions + a
        acts = [stacked[row] for stacked in seen.acts]
        report = popart_sgd_step(self.net, self.layer, acts, y, self.alpha)
        self.step_count += 1
        if self.step_count % self.copy_period == 0:
            self.target_q = self.q_table()
        return report

    def train_episode(self, hook=None, max_steps: int = MAX_EPISODE_STEPS) -> EpisodeMetrics:
        """Run one episode, cut after ``min(max_steps, MAX_EPISODE_STEPS)`` steps,
        and pass each step's :class:`~popart.training.TrainStepReport` to ``hook``.

        Raises ``FloatingPointError`` at the first step whose squared loss
        or gradient norm is not finite: the network has diverged.  ``hook``
        sees that step's report before the error is raised.
        """
        metrics = EpisodeMetrics(steps=0, total_reward=0.0)
        s = 0
        for _ in range(min(max_steps, MAX_EPISODE_STEPS)):
            a, seen = self.act(s)
            s2, r, done = self.mdp.step(s, a)
            report = self.learn_transition((s, a, r, s2, done), seen)
            if hook is not None:
                hook(report)
            if not (math.isfinite(report.squared_loss) and math.isfinite(report.gradient_norm)):
                raise FloatingPointError(
                    f"training diverged at step {self.step_count}: non-finite loss or "
                    f"gradient norm (terminal reward {self.mdp.terminal_reward:g})"
                )
            metrics.steps += 1
            metrics.total_reward += r
            if done:
                break
            s = s2
        return metrics

    def q_table(self) -> np.ndarray:
        """Learned Q values for the non-terminal states, shape (n-1, 2),
        from one forward pass of the online network."""
        return self._pass(0, self.mdp.terminal).q


def exact_q_values(mdp: ChainMdp) -> np.ndarray:
    """:func:`value_iteration`'s values, as a relative Q error divides by
    them: ``ValueError`` if one is 0, as it is for a terminal reward of 0 or
    below, or one whose discounted values underflow."""
    if not (q_star := value_iteration(mdp)).all():
        raise ValueError(
            f"terminal_reward {mdp.terminal_reward:g} with gamma {mdp.gamma:g}: an exact "
            "Q value is then 0, so the relative Q error is undefined"
        )
    return q_star


CHECK_EVERY = 2000


def train(
    agent: DoubleQAgent, max_steps: int = 50_000, rel_tol: float | None = None, hook=None
) -> list[EpisodeMetrics]:
    """Train until ``agent.step_count`` reaches ``max_steps``, cutting the
    last episode short if need be.

    Each call starts a new episode at state 0, so training split across
    calls is a different run from one call to the same ``max_steps``: it
    cuts an episode at each call's end.  Agent seed 0 on a chain of
    terminal reward 1e3 runs 11,000 steps in one call without diverging,
    but diverges at step 10,834 when trained 250 steps per call.

    If ``rel_tol`` is given, training stops early once every learned
    state-action value is within that relative tolerance of the exact
    values from :func:`exact_q_values`, checked every :data:`CHECK_EVERY`
    steps; a chain one of whose values is 0 raises ``ValueError`` before the
    first step.  Training stops with ``FloatingPointError``, naming the step
    and the terminal reward, at the first step whose squared loss or
    gradient norm is not finite.

    ``hook``, if given, is called with the
    :class:`~popart.training.TrainStepReport` of every learning step, in
    order, the diverging step's included.

    ``max_steps`` must be a count, an int of at least 0 and not a bool, and
    ``rel_tol`` None or a positive finite number; any other value raises
    ``ValueError`` naming the setting before the first step.
    """
    check_setting("max_steps", max_steps, lambda n: count(n) >= 0)
    # NaN fails the comparison, so it is rejected too
    check_setting("rel_tol", rel_tol, lambda t: t is None or 0.0 < real(t) < math.inf)
    q_star = exact_q_values(agent.mdp) if rel_tol is not None else None
    history, next_check = [], CHECK_EVERY
    # an overflow shows as the non-finite loss that stops training
    with np.errstate(over="ignore", invalid="ignore"):
        while agent.step_count < max_steps:
            history.append(agent.train_episode(hook, max_steps - agent.step_count))
            if q_star is not None and agent.step_count >= next_check:
                next_check = agent.step_count + CHECK_EVERY
                if float((np.abs(agent.q_table() - q_star) / np.abs(q_star)).max()) <= rel_tol:
                    break
    return history
