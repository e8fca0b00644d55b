import dataclasses
import math

import numpy as np
import pytest

from popart.network import Mlp
from popart.rl import ChainMdp, DoubleQAgent, EpisodeMetrics, train, value_iteration
from popart.training import predict


def test_chain_dynamics():
    mdp = ChainMdp()
    assert mdp.step(0, mdp.ADVANCE) == (1, 0.0, False)
    assert mdp.step(2, mdp.STAY) == (2, 0.0, False)
    assert mdp.step(3, mdp.ADVANCE) == (4, 1000.0, True)


def test_value_iteration_closed_form():
    mdp = ChainMdp(n_states=5, terminal_reward=1000.0, gamma=0.99)
    q = value_iteration(mdp)
    # advancing from state s pays gamma^(3-s) * 1000 in expectation
    for s in range(4):
        assert q[s, mdp.ADVANCE] == pytest.approx(1000.0 * 0.99 ** (3 - s), rel=1e-10)
        # staying just discounts the state's own value
        assert q[s, mdp.STAY] == pytest.approx(0.99 * q[s, mdp.ADVANCE], rel=1e-10)


def test_value_iteration_scales_linearly_with_reward():
    q1 = value_iteration(ChainMdp(terminal_reward=1.0))
    q2 = value_iteration(ChainMdp(terminal_reward=10**6))
    np.testing.assert_allclose(q2, q1 * 10**6, rtol=1e-10)


def test_double_q_target_terminal_drops_bootstrap():
    agent = DoubleQAgent(ChainMdp(), seed=0)
    assert agent.double_q_target((3, 0, 1000.0, 4, True)) == 1000.0


def test_double_q_target_hand_example():
    # online prefers action 1 at s'; its value in the target table is 7
    agent = DoubleQAgent(ChainMdp(), seed=0)
    agent.q_values = lambda s: np.array([1.0, 2.0])
    agent.target_q = np.zeros((4, 2))
    agent.target_q[1] = [5.0, 7.0]
    assert agent.double_q_target((0, 0, 0.0, 1, False)) == pytest.approx(0.99 * 7.0)


def test_double_q_target_tie_breaks_to_lowest_action():
    agent = DoubleQAgent(ChainMdp(), seed=0)
    agent.q_values = lambda s: np.array([2.0, 2.0])
    agent.target_q = np.zeros((4, 2))
    agent.target_q[1] = [3.0, 9.0]
    assert agent.double_q_target((0, 0, 0.0, 1, False)) == pytest.approx(0.99 * 3.0)


def test_fresh_target_net_equals_online_net():
    agent = DoubleQAgent(ChainMdp(), seed=1)
    assert agent.target_q.shape == (4, 2)
    np.testing.assert_array_equal(agent.target_q, agent.q_table())


def test_target_copy_period_exact():
    # the table is the online q_table() right after each copy, and only then
    agent = DoubleQAgent(ChainMdp(), copy_period=3, seed=2)
    for i in range(1, 10):
        before = agent.target_q
        agent.learn_transition((0, 0, 0.0, 1, False))
        if i % 3 == 0:
            np.testing.assert_array_equal(agent.target_q, agent.q_table())
        else:
            assert agent.target_q is before
            assert not np.array_equal(agent.target_q, agent.q_table())


def _state_of(agent, x):
    """The one state whose actions a (stacked) forward-pass input codes."""
    states = np.argmax(np.atleast_2d(x)[:, : agent.mdp.n_states], axis=1)
    assert len(set(states.tolist())) == 1
    return int(states[0])


def test_double_q_target_one_forward_pass_per_state(monkeypatch):
    # one online pass for the argmax at s'; the target side is the table
    agent = DoubleQAgent(ChainMdp(), seed=0)
    nets = []
    forward_pass = Mlp.forward_pass

    def recorded(self, x):
        nets.append((self, _state_of(agent, x)))
        return forward_pass(self, x)

    monkeypatch.setattr(Mlp, "forward_pass", recorded)
    for s2 in (1, 1, 2):
        nets.clear()
        agent.double_q_target((0, 0, 0.0, s2, False))
        assert nets == [(agent.net, s2)]


@pytest.mark.parametrize("copy_period", [1, 3, 500])
def test_target_rows_evaluated_once_per_copy(copy_period, monkeypatch):
    # a step runs the online pass at s', the step's own pass on (s, a),
    # and, at a copy, one pass over every non-terminal state's actions;
    # no network is copied
    agent = DoubleQAgent(ChainMdp(), copy_period=copy_period, seed=4)
    inputs = []
    forward_pass = Mlp.forward_pass

    def recorded(self, x):
        assert self is agent.net
        inputs.append(np.asarray(x))
        return forward_pass(self, x)

    def no_copy(self):
        raise AssertionError("Mlp.copy called")

    monkeypatch.setattr(Mlp, "forward_pass", recorded)
    monkeypatch.setattr(Mlp, "copy", no_copy)
    every_code = agent.codes[: agent.mdp.terminal].reshape(-1, agent.codes.shape[-1])
    rng = np.random.default_rng(1)
    for step in range(1, 13):
        s, s2 = (int(v) for v in rng.integers(agent.mdp.terminal, size=2))
        inputs.clear()
        agent.learn_transition((s, 0, 0.0, s2, False))
        np.testing.assert_array_equal(inputs[0], agent.codes[s2])
        np.testing.assert_array_equal(inputs[1], agent.codes[s, 0])
        copies = inputs[2:]
        assert len(copies) == (step % copy_period == 0)
        for x in copies:
            np.testing.assert_array_equal(x, every_code)


def _frozen_values(net, layer, agent):
    return np.array(
        [[predict(net, layer, agent.codes[s, a])[0] for a in range(agent.mdp.n_actions)]
         for s in range(agent.mdp.n_states)]
    )


def test_codes_are_state_action_one_hots():
    agent = DoubleQAgent(ChainMdp(n_states=4), seed=0)
    for s in range(4):
        for a in range(2):
            expected = np.zeros(6)
            expected[[s, 4 + a]] = 1.0
            np.testing.assert_array_equal(agent.codes[s, a], expected)
    with pytest.raises(ValueError):
        agent.codes[0, 0, 0] = 2.0


def test_batched_values_equal_per_action_predictions():
    # one stacked pass per state gives the per-action predictions bit for bit
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), seed=7)
    train(agent, max_steps=600)
    online = _frozen_values(agent.net, agent.layer, agent)
    for s in range(agent.mdp.n_states):
        np.testing.assert_array_equal(agent.q_values(s), online[s])
    np.testing.assert_array_equal(
        agent.q_table(), np.array([agent.q_values(s) for s in range(agent.mdp.terminal)])
    )
    np.testing.assert_array_equal(agent.q_table(), online[:-1])


def test_target_table_frozen_between_copies():
    # the target values are the online network's at the last copy, to the
    # last bit, while the online values move at every step
    agent = DoubleQAgent(ChainMdp(), copy_period=5, seed=5)
    rng = np.random.default_rng(0)
    for step in range(1, 13):
        if step % 5 == 1:  # just after a copy (or at the start)
            frozen = agent.q_table()
            np.testing.assert_array_equal(agent.target_q, frozen)
        s = int(rng.integers(agent.mdp.terminal))
        a = int(rng.integers(2))
        s2, r, done = agent.mdp.step(s, a)
        agent.learn_transition((s, a, r, s2, done))
        if step % 5:
            assert not np.array_equal(agent.q_table(), frozen)
            np.testing.assert_array_equal(agent.target_q, frozen)


def test_greedy_step_reuses_the_action_pass(monkeypatch):
    # act(s)'s stacked pass stands in for the step's own pass on (s, a):
    # a step runs that pass and the argmax pass at s', a step into the
    # terminal state only the first
    agent = DoubleQAgent(ChainMdp(), epsilon_greedy=0.0, copy_period=10**6, seed=0)
    calls = []
    forward_pass = Mlp.forward_pass

    def counted(self, x):
        calls.append(_state_of(agent, x))
        return forward_pass(self, x)

    per_step = []

    def hook(report):
        per_step.append(len(calls))
        calls.clear()

    monkeypatch.setattr(Mlp, "forward_pass", counted)
    history = train(agent, max_steps=2000, hook=hook)
    expected = []
    for episode in history:
        terminal = int(episode.total_reward != 0.0)
        expected += [2] * (episode.steps - terminal) + [1] * terminal
    assert per_step == expected
    assert 1 in per_step and 2 in per_step


def _learned_bits(agent):
    layer, nrm = agent.layer, agent.layer.normalizer
    arrays = (agent.net.get_params(), layer.W, layer.b, layer.sigma, layer.mu, nrm.mu, nrm.nu)
    return [a.tobytes() for a in (*arrays, agent.target_q)]


@pytest.mark.parametrize(
    "script",
    [
        [(1, [0])],  # the step is from another state
        [(1, [1, 1])],  # the second step finds the pass used
        [(2, [2]), (1, [2])],  # only the last act's pass counts
        [(0, [0]), (0, [0, 1]), (3, [3, 3, 2])],
    ],
    ids=["other-state", "used-once", "last-act", "mixed"],
)
def test_reused_pass_leaves_parameters_bitwise_equal(script):
    # an agent that acts before learning against one that only learns,
    # which never has a pass to reuse; actions alternate, so the reused
    # row is not always the one act chose
    mdp = ChainMdp(terminal_reward=1e3)
    agent = DoubleQAgent(mdp, epsilon_greedy=0.0, copy_period=3, seed=3)
    plain = DoubleQAgent(mdp, epsilon_greedy=0.0, copy_period=3, seed=3)
    a = 0
    for acted, learned in script:
        agent.act(acted)
        for s in learned:
            s2, r, done = mdp.step(s, a)
            transition = (s, a, r, s2, done)
            agent.learn_transition(transition)
            plain.learn_transition(transition)
            assert _learned_bits(agent) == _learned_bits(plain)
            a = 1 - a


# step_count and q_table() after 3001 steps at reward 1e3, agent seed 0,
# recorded with the target network kept as a copied network, when
# train(max_steps=3000) still finished the episode it was in; any change to
# the arithmetic of the rl loop fails here
GOLDEN_RL_STEPS = 3001
GOLDEN_RL_Q = [
    [281.9455498848282, 230.36388710414425],
    [329.37866742185315, 272.9396537422699],
    [297.61225692817015, 244.66246002791888],
    [424.1357032239319, 365.56752086848013],
]


def test_rl_golden():
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), seed=0)
    train(agent, max_steps=GOLDEN_RL_STEPS)
    assert agent.step_count == GOLDEN_RL_STEPS
    np.testing.assert_array_equal(agent.q_table(), np.array(GOLDEN_RL_Q))


def test_divergence_stops_training_at_first_non_finite_step():
    # at reward 1, agent seed 6 overflows at step 5282; training on NaN
    # parameters used to go on until a bare ValueError at step 5500
    agent = DoubleQAgent(ChainMdp(terminal_reward=1.0), seed=6)
    reports = []
    with pytest.raises(FloatingPointError, match=r"step 5282\b.*terminal reward 1\b"):
        train(agent, max_steps=50_000, rel_tol=0.05, hook=reports.append)
    assert agent.step_count == 5282 == len(reports)
    last = reports[-1]
    assert not (math.isfinite(last.squared_loss) and math.isfinite(last.gradient_norm))
    assert all(math.isfinite(r.squared_loss) and math.isfinite(r.gradient_norm)
               for r in reports[:-1])


def test_train_episode_metrics_shape():
    # train(hook=) gets the report of every learned transition, in order,
    # and the episodes' steps add up to the agent's step count
    agent = DoubleQAgent(ChainMdp(), seed=3)
    learned = []
    learn_transition = agent.learn_transition

    def learn_and_keep(transition):
        report = learn_transition(transition)
        learned.append(report)
        return report

    agent.learn_transition = learn_and_keep
    reports = []
    history = train(agent, max_steps=300, hook=reports.append)
    assert [f.name for f in dataclasses.fields(EpisodeMetrics)] == ["steps", "total_reward"]
    assert all(m.steps >= 1 for m in history)
    assert sum(m.steps for m in history) == agent.step_count == 300
    assert len(reports) == len(learned) == agent.step_count
    assert all(seen is made for seen, made in zip(reports, learned))


def test_train_stops_at_max_steps_exactly():
    # the episode running at the budget is cut short, not finished
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), seed=0)
    history = train(agent, max_steps=3000)
    assert agent.step_count == 3000 == sum(m.steps for m in history)
    assert history[-1].total_reward == 0.0
    assert train(agent, max_steps=3000) == []


def test_normalized_targets_bounded_regardless_of_reward_scale():
    # per-step normalized targets obey the update-then-normalize bound
    # with the agent's beta, identically at reward 1 and reward 1000
    for reward in (1.0, 1000.0):
        mdp = ChainMdp(terminal_reward=reward)
        agent = DoubleQAgent(mdp, seed=4)
        beta = 0.01
        bound = np.sqrt((1.0 - beta) / beta)
        for _ in range(25):
            agent.train_episode()
        nrm = agent.layer.normalizer
        assert np.all(np.isfinite(nrm.sigma))
        y = agent.double_q_target((3, 0, reward, 4, True))
        nrm.update(y)
        assert abs(nrm.normalize(y)[0]) <= bound + 1e-9


def test_learns_chain_values_and_policy():
    # the ADVANCE/STAY gap is only 1% of Q*, so the policy check needs
    # tighter value accuracy than the 5% gate
    mdp = ChainMdp()
    agent = DoubleQAgent(mdp, seed=0)
    train(agent, max_steps=50_000, rel_tol=0.004)
    q_star = value_iteration(mdp)
    err = np.max(np.abs(agent.q_table() - q_star) / np.abs(q_star))
    assert err <= 0.004
    assert agent.step_count <= 50_000
    np.testing.assert_array_equal(agent.greedy_policy(), [mdp.ADVANCE] * 4)
