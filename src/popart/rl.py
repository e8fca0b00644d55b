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

The agent evaluates all actions of a state in one forward pass: the
network's input is a state-action one-hot code, and the codes of a
state's actions go through the network as one stack, whose rows equal the
per-action predictions to the last bit.  Every input is one of finitely
many codes, so a copy of the online network is fully described by its
value table: the double-Q target network is that table, taken in one
stacked pass over all non-terminal states at each copy and frozen until
the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .network import Mlp
from .schedules import bias_corrected
from .stats import Normalizer, _check_setting, _count
from .training import OutputLayer, TrainStepReport, popart_sgd_step, predict


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
        _check_setting("n_states", self.n_states, lambda n: _count(n) >= 2)
        _check_setting("terminal_reward", self.terminal_reward, math.isfinite)
        _check_setting("gamma", self.gamma, lambda g: 0.0 < g <= 1.0)

    @property
    def terminal(self) -> int:
        return self.n_states - 1

    def step(self, s: int, a: int) -> tuple[int, float, bool]:
        s2 = s + 1 if a == self.ADVANCE else s
        r = self.terminal_reward if (s2 == self.terminal and s != self.terminal) else 0.0
        return s2, r, s2 == self.terminal


def value_iteration(mdp: ChainMdp, tol: float = 1e-12) -> np.ndarray:
    """Exact Q values for the non-terminal states, shape (n_states-1, n_actions)."""
    n = mdp.n_states - 1
    v = np.zeros(mdp.n_states)
    while True:
        q = np.empty((n, mdp.n_actions))
        for s in range(n):
            s2, r, done = mdp.step(s, mdp.ADVANCE)
            q[s, mdp.ADVANCE] = r + (0.0 if done else mdp.gamma * v[s2])
            q[s, mdp.STAY] = mdp.gamma * v[s]
        v_new = np.concatenate([q.max(axis=1), [0.0]])
        if np.max(np.abs(v_new - v)) < tol:
            return q
        v = v_new


@dataclass
class EpisodeMetrics:
    steps: int
    total_reward: float


# an episode that has not reached the terminal state by then is cut off
MAX_EPISODE_STEPS = 100


class DoubleQAgent:
    """Online double Q-learning on a state-action one-hot encoding.

    The codes are built once, as ``codes[s, a]`` of shape
    ``(n_states, n_actions, n_states + n_actions)``; ``codes[s]`` is the
    stack that evaluates every action of ``s`` in one forward pass.

    The online network carries the adaptive normalization and picks the
    greedy action at the next state; the target network values it.  That
    network is a copy of the online one, taken at the start and every
    ``copy_period`` steps exactly, so it is kept as the value table it
    computes: ``target_q`` is :meth:`q_table` as of the last copy.

    A greedy :meth:`act` keeps the activations of its stacked pass over
    ``codes[s]``, and the next :meth:`learn_transition` from ``s`` hands
    row ``a`` of them to its SGD step in place of the step's own forward
    pass, with the same result to the last bit.  They are used once at
    most: only a learning step moves the parameters, and it drops them
    first.
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
        _check_setting("hidden", hidden, lambda h: len(h) > 0 and min(map(_count, h)) >= 1)
        _check_setting("alpha", alpha, lambda a: 0.0 < a < math.inf)
        _check_setting("beta", beta, lambda b: 0.0 < b <= 1.0)
        _check_setting("epsilon_greedy", epsilon_greedy, lambda e: 0.0 <= e <= 1.0)
        _check_setting("copy_period", copy_period, lambda c: _count(c) >= 1)
        self.mdp = mdp
        self.alpha = alpha
        self.epsilon_greedy = epsilon_greedy
        self.copy_period = copy_period
        self.rng = np.random.default_rng(seed)
        n_in = mdp.n_states + mdp.n_actions
        self.codes = np.zeros((mdp.n_states, mdp.n_actions, n_in))
        self.codes[:, :, : mdp.n_states] = np.eye(mdp.n_states)[:, None, :]
        self.codes[:, :, mdp.n_states :] = np.eye(mdp.n_actions)
        self.codes.flags.writeable = False
        self.net = Mlp([n_in, *hidden], rng=self.rng)
        normalizer = Normalizer(k=1, schedule=bias_corrected(beta))
        self.layer = OutputLayer(1, hidden[-1], normalizer=normalizer, rng=self.rng)
        self.step_count = 0
        self.target_q = self.q_table()
        # (s, net.forward_pass(codes[s])) of the last greedy act(s), until used
        self._greedy_pass = None

    def q_values(self, s: int) -> np.ndarray:
        """Values of every action at ``s``, from one online forward pass."""
        return predict(self.net, self.layer, self.codes[s])[:, 0]

    def act(self, s: int) -> int:
        self._greedy_pass = None
        if self.rng.random() < self.epsilon_greedy:
            return int(self.rng.integers(self.mdp.n_actions))
        acts = self.net.forward_pass(self.codes[s])
        self._greedy_pass = (s, acts)
        return int(np.argmax(self.layer.unnormalized_output(acts[-1])[:, 0]))

    def double_q_target(self, transition) -> float:
        """Reward plus the discounted target-network value of the action
        the online network prefers at the next state; ties go to the
        lowest action index, terminal transitions drop the bootstrap.
        """
        s, a, r, s2, done = transition
        if done:
            return float(r)
        a_star = int(np.argmax(self.q_values(s2)))
        return float(r + self.mdp.gamma * self.target_q[s2, a_star])

    def learn_transition(self, transition) -> TrainStepReport:
        s, a, r, s2, done = transition
        greedy, self._greedy_pass = self._greedy_pass, None
        y = self.double_q_target(transition)
        x, acts = self.codes[s, a], None
        if greedy is not None and greedy[0] == s:
            # row a of act(s)'s pass, on the parameters this step starts from
            acts = [stacked[a] for stacked in greedy[1]]
            x = acts[0]
        report = popart_sgd_step(self.net, self.layer, x, y, self.alpha, acts=acts)
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
            a = self.act(s)
            s2, r, done = self.mdp.step(s, a)
            report = self.learn_transition((s, a, r, s2, done))
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
        codes = self.codes[: self.mdp.terminal]
        q = predict(self.net, self.layer, codes.reshape(-1, codes.shape[-1]))
        return q.reshape(codes.shape[:2])

    def greedy_policy(self) -> np.ndarray:
        return np.argmax(self.q_table(), axis=1)


CHECK_EVERY = 2000


def train(
    agent: DoubleQAgent, max_steps: int = 50_000, rel_tol: float | None = None, hook=None
) -> list[EpisodeMetrics]:
    """Train until ``agent.step_count`` reaches ``max_steps``, cutting the
    last episode short if need be.

    If ``rel_tol`` is given, training stops early once every learned
    state-action value is within that relative tolerance of the exact
    values from :func:`value_iteration`, checked every
    :data:`CHECK_EVERY` steps.  Training stops with
    ``FloatingPointError``, naming the step and the terminal reward, at
    the first step whose squared loss or gradient norm is not finite.

    ``hook``, if given, is called with the
    :class:`~popart.training.TrainStepReport` of every learning step, in
    order, the diverging step's included.
    """
    q_star = value_iteration(agent.mdp) if rel_tol is not None else None
    history: list[EpisodeMetrics] = []
    next_check = CHECK_EVERY
    # an overflow shows as the non-finite loss that stops training
    with np.errstate(over="ignore", invalid="ignore"):
        while agent.step_count < max_steps:
            history.append(agent.train_episode(hook, max_steps - agent.step_count))
            if q_star is not None and agent.step_count >= next_check:
                next_check = agent.step_count + CHECK_EVERY
                err = np.abs(agent.q_table() - q_star) / np.abs(q_star)
                if float(err.max()) <= rel_tol:
                    break
    return history
