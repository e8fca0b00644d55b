import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popart.network import Mlp
from popart.rl import (
    ChainMdp,
    DoubleQAgent,
    EpisodeMetrics,
    _Pass,
    train,
    value_iteration,
)
from popart.stats import MAX_TARGET
from popart.training import predict


def test_chain_dynamics():
    mdp = ChainMdp()
    assert mdp.step(0, mdp.ADVANCE) == (1, 0.0, False)
    assert mdp.step(2, mdp.STAY) == (2, 0.0, False)
    assert mdp.step(3, mdp.ADVANCE) == (4, 1000.0, True)


def test_chain_terminal_is_absorbing_and_steps_stay_on_the_chain():
    # step(4, 0) went to state 5, past the end; action 2 acted as STAY, and
    # state 7 came back as it went in
    mdp = ChainMdp()
    for a in (mdp.ADVANCE, mdp.STAY):
        assert mdp.step(mdp.terminal, a) == (mdp.terminal, 0.0, True)
    for s in (-1, 5, 7):
        with pytest.raises(IndexError, match=rf"state {s} is outside \[0, 5\)"):
            mdp.step(s, mdp.ADVANCE)
    for a in (-1, 2):
        with pytest.raises(IndexError, match=rf"action {a} is outside \[0, 2\)"):
            mdp.step(0, a)


def test_value_iteration_closed_form():
    # the fixed point, bit for bit: each state one discount from the next,
    # staying one discount from itself; the long chain at gamma 0.5 reaches
    # values far below the reward, which a relative stop cut off as 0
    cases = [(5, 0.99, reward) for reward in (1.0, 1e3, 1e6)]
    cases += [(50, 0.5, 1e3), (50, 0.5, 1e-13), (5, 1e-4, 1.0)]
    for n_states, gamma, reward in cases:
        mdp = ChainMdp(n_states=n_states, terminal_reward=reward, gamma=gamma)
        v = [reward]
        for _ in range(n_states - 2):
            v.insert(0, gamma * v[0])
        expected = np.array([[value, gamma * value] for value in v])
        q = value_iteration(mdp)
        assert q.all()
        assert q.tobytes() == expected.tobytes(), (n_states, gamma, reward)


def test_value_iteration_scales_linearly_with_reward():
    q1 = value_iteration(ChainMdp(terminal_reward=1.0))
    for reward in (10**6, 1e-13):  # nothing is cut short below 1e-12
        q2 = value_iteration(ChainMdp(terminal_reward=reward))
        np.testing.assert_allclose(q2, q1 * reward, rtol=1e-10)


def _value_iteration_by_sweeps(mdp):
    """The reference: sweep every state from the values of the previous
    sweep, starting at 0, until no value moves at all."""
    n = mdp.n_states - 1
    v = np.zeros(mdp.n_states)
    while True:
        q = np.empty((n, mdp.n_actions))
        for s in range(n):
            s2, r, done = mdp.step(s, mdp.ADVANCE)
            q[s, mdp.ADVANCE] = r + (0.0 if done else mdp.gamma * v[s2])
            q[s, mdp.STAY] = mdp.gamma * v[s]
        v_new = np.concatenate([q.max(axis=1), [0.0]])
        if np.array_equal(v_new, v):
            return q
        v = v_new


EDGE_REWARDS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, MAX_TARGET, -MAX_TARGET]


@settings(deadline=None, max_examples=300)
@given(
    n_states=st.integers(2, 60),
    reward=st.one_of(st.sampled_from(EDGE_REWARDS), st.floats(-MAX_TARGET, MAX_TARGET)),
    gamma=st.one_of(st.sampled_from([5e-324, 0.5, 0.99, 1.0]), st.floats(5e-324, 1.0)),
)
def test_one_sweep_gives_the_values_of_sweeping_until_nothing_moves(n_states, reward, gamma):
    # a state's values read only the next state's value, so the sweeps of
    # the reference settle one state each, right to left, to the same bits
    mdp = ChainMdp(n_states=n_states, terminal_reward=reward, gamma=gamma)
    q, want = value_iteration(mdp), _value_iteration_by_sweeps(mdp)
    assert (q.shape, q.dtype) == (want.shape, want.dtype)
    assert q.tobytes() == want.tobytes(), (n_states, reward, gamma)


def test_value_iteration_steps_from_each_non_terminal_state_once(monkeypatch):
    # the sweeps until nothing moved made about 50 passes over 50 states
    steps = []
    step = ChainMdp.step

    def counted(self, s, a):
        steps.append((s, a))
        return step(self, s, a)

    monkeypatch.setattr(ChainMdp, "step", counted)
    value_iteration(ChainMdp(n_states=50))
    assert sorted(steps) == [(s, ChainMdp.ADVANCE) for s in range(49)]


def _fresh_pass(agent, transition):
    """A pass of the agent's current parameters over the states from
    ``min(s, s2)`` to ``max(s, s2)``, the ones ``transition`` reads."""
    s, _, _, s2, _ = transition
    return agent._pass(min(s, s2), max(s, s2) + 1)


def _learn(agent, transition):
    return agent.learn_transition(transition, _fresh_pass(agent, transition))


def test_double_q_target_terminal_drops_bootstrap():
    agent = DoubleQAgent(ChainMdp(), seed=0)
    for a_star in (0, 1):
        assert agent.double_q_target((3, 0, 1000.0, 4, True), a_star) == 1000.0


def test_double_q_target_hand_example():
    # the pass handed to the step prefers action 1 at s' = 2, its second
    # state; that action's value in the target table is 7
    agent = DoubleQAgent(ChainMdp(), seed=0)
    agent.target_q = np.zeros((4, 2))
    agent.target_q[2] = [5.0, 7.0]
    targets = []
    double_q_target = agent.double_q_target

    def recorded(transition, a_star):
        targets.append(double_q_target(transition, a_star))
        return targets[-1]

    agent.double_q_target = recorded
    seen = agent._pass(1, 3)._replace(greedy=[0, 1])
    agent.learn_transition((1, ChainMdp.ADVANCE, 0.0, 2, False), seen)
    assert targets == [pytest.approx(0.99 * 7.0)]
    assert agent.double_q_target((1, 0, 0.0, 2, False), 0) == pytest.approx(0.99 * 5.0)


def test_double_q_target_tie_breaks_to_lowest_action():
    # with W at 0 every value is the output bias's: a pass picks action 0
    # at every state, and the target is the table's value of that action
    agent = DoubleQAgent(ChainMdp(), seed=0)
    agent.layer.W[:] = 0.0
    seen = agent._pass(0, 5)
    assert (seen.q == seen.q[0, 0]).all() and seen.greedy == [0] * 5
    agent.target_q = np.zeros((4, 2))
    agent.target_q[1] = [3.0, 9.0]
    target = agent.double_q_target((0, 0, 0.0, 1, False), seen.greedy[1])
    assert target == pytest.approx(0.99 * 3.0)


def _act_pass_agent():
    """An agent whose act pass at state 0 has the shapes of every step's:
    4 rows (two states, two actions), 20 features, one output."""
    agent = DoubleQAgent(ChainMdp(), seed=0)
    assert agent.layer.W.shape == (1, 20)
    return agent


def test_a_nan_action_value_wins_the_greedy_choice_even_over_inf():
    # features 0 and 1 are tanh(1) and tanh(tanh(+-1)), the sign following
    # the action: with W = (inf, -inf, 0, ...) an ADVANCE row's value is
    # inf + inf and a STAY row's inf - inf, NaN
    agent = _act_pass_agent()
    n_states, stay = agent.mdp.n_states, ChainMdp.STAY
    for w, b in zip(agent.net.weights, agent.net.biases):
        w[...], b[...] = 0.0, 0.0
    agent.net.weights[0][0, n_states + stay] = 2.0
    agent.net.biases[0][0] = -1.0
    agent.net.biases[1][0] = 1.0
    agent.net.weights[1][1, 0] = 1.0
    agent.layer.W[...] = 0.0
    agent.layer.W[0, :2] = math.inf, -math.inf
    with np.errstate(invalid="ignore"):
        seen = agent._pass(0, 2)
    assert seen.q.shape == (2, 2)
    assert (seen.q[:, ChainMdp.ADVANCE] == math.inf).all() and np.isnan(seen.q[:, stay]).all()
    assert seen.greedy == [stay, stay]


def test_tied_action_values_go_to_the_lowest_action():
    agent = _act_pass_agent()
    agent.layer.W[...] = 0.0
    agent.layer.b[...] = 0.25
    seen = agent._pass(0, 2)
    assert (seen.q == seen.q[0, 0]).all() and seen.greedy == [0, 0]


# values that take a product or a sum to inf, NaN, a signed zero or rounding
special = st.one_of(
    st.sampled_from(
        [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1.5, 1e300, -1e308]
    ),
    st.floats(-4.0, 4.0),
)


@settings(max_examples=200, deadline=None)
@given(
    w=st.lists(special, min_size=20, max_size=20),
    b=special,
    sigma=st.one_of(st.sampled_from([5e-324, 1e-300, 1e300]), st.floats(1e-3, 1e3)),
    mu=st.one_of(st.sampled_from([0.0, -0.0, -1e308, 1e308]), st.floats(-1e3, 1e3)),
    hidden=st.lists(special, min_size=20, max_size=20),
)
def test_act_pass_values_equal_per_row_outputs_bytewise(w, b, sigma, mu, hidden):
    # the pass finishes sigma * (W h + b) + mu on the whole stack; each
    # row must give the bytes of that row's features through the layer
    # alone, NaN signs and signed zeros included.  The first feature's
    # weights take such values too, so that it holds NaN, +-1 or a zero
    agent = _act_pass_agent()
    agent.net.weights[-1][0] = hidden
    layer = agent.layer
    layer.W[0], layer.b[0], layer.sigma[0], layer.mu[0] = w, b, sigma, mu
    with np.errstate(all="ignore"):
        seen = agent._pass(0, 2)
        rows = [layer.unnormalized_output(h) for h in seen.acts[-1]]
    assert seen.q.tobytes() == np.concatenate(rows).tobytes()
    assert seen.greedy == [int(np.argmax(r)) for r in seen.q]


def test_fresh_target_net_equals_online_net():
    agent = DoubleQAgent(ChainMdp(), seed=1)
    assert agent.target_q.shape == (4, 2)
    np.testing.assert_array_equal(agent.target_q, agent.q_table())


def test_target_copy_period_exact():
    # the table is the online q_table() right after each copy, and only then
    agent = DoubleQAgent(ChainMdp(), copy_period=3, seed=2)
    for i in range(1, 10):
        before = agent.target_q
        _learn(agent, (0, 0, 0.0, 1, False))
        if i % 3 == 0:
            np.testing.assert_array_equal(agent.target_q, agent.q_table())
        else:
            assert agent.target_q is before
            assert not np.array_equal(agent.target_q, agent.q_table())


def _codes_of(agent, lo, hi):
    """The stack of the codes of states ``lo`` to ``hi - 1``."""
    return agent.codes[lo:hi].reshape(-1, agent.codes.shape[-1])


def _recorded_states(agent, calls):
    """A stand-in for ``Mlp.forward_pass`` that appends the first and
    last state of each stack it is given to ``calls``, and checks that the
    stack holds every action of each state in between, in order."""
    forward_pass = Mlp.forward_pass

    def recorded(self, x):
        assert self is agent.net
        lo = int(np.argmax(x[0, : agent.mdp.n_states]))
        hi = lo + len(x) // agent.mdp.n_actions
        np.testing.assert_array_equal(x, _codes_of(agent, lo, hi))
        calls.append((lo, hi))
        return forward_pass(self, x)

    return recorded


def test_double_q_target_runs_no_forward_pass(monkeypatch):
    # the bootstrap action is handed in, from the caller's pass, and the
    # target side is the table: valuing a transition passes no network
    agent = DoubleQAgent(ChainMdp(), seed=0)
    calls = []
    monkeypatch.setattr(Mlp, "forward_pass", _recorded_states(agent, calls))
    for transition in [(0, 0, 0.0, 1, False), (2, 1, 0.0, 2, False), (3, 0, 1000.0, 4, True)]:
        for a_star in (0, 1):
            agent.double_q_target(transition, a_star)
    assert calls == []


@pytest.mark.parametrize("copy_period", [1, 3, 500])
def test_target_rows_evaluated_once_per_copy(copy_period, monkeypatch):
    # a step handed a pass over the states from s to s' makes none of its
    # own: only a copy runs one, over every non-terminal state; no network
    # is copied
    agent = DoubleQAgent(ChainMdp(), copy_period=copy_period, seed=4)
    calls = []

    def no_copy(self):
        raise AssertionError("Mlp.copy called")

    monkeypatch.setattr(Mlp, "copy", no_copy)
    rng = np.random.default_rng(1)
    for step in range(1, 13):
        s, s2 = (int(v) for v in rng.integers(agent.mdp.terminal, size=2))
        transition = (s, 0, 0.0, s2, False)
        seen = _fresh_pass(agent, transition)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(Mlp, "forward_pass", _recorded_states(agent, calls))
            agent.learn_transition(transition, seen)
        assert calls == [(0, agent.mdp.terminal)] * (step % copy_period == 0)


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


@pytest.mark.parametrize("n_states", [2, 5, 50])
def test_codes_equal_the_codes_copied_from_identities(n_states):
    # the codes were copied from np.eye(n_states) and np.eye(n_actions)
    agent = DoubleQAgent(ChainMdp(n_states=n_states), seed=0)
    n, n_actions = n_states, agent.mdp.n_actions
    expected = np.zeros((n, n_actions, n + n_actions))
    expected[:, :, :n] = np.eye(n)[:, None, :]
    expected[:, :, n:] = np.eye(n_actions)
    assert agent.codes.shape == expected.shape
    assert agent.codes.tobytes() == expected.tobytes()


def test_building_the_codes_takes_no_identity_of_the_chain():
    # an identity of n_states**2 floats, 18 MB at 1500 states, was the
    # temporary the ones were copied from, half as much again as the codes.
    # A small agent first, so that what a first build loads once is not
    # counted; the rest of the 2 MiB is about 1.5 MB of q_table()'s pass
    DoubleQAgent(ChainMdp(n_states=3), seed=0)
    tracemalloc.start()
    try:
        agent = DoubleQAgent(ChainMdp(n_states=1500), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert agent.codes.nbytes == 1500 * 2 * 1502 * 8
    assert peak <= agent.codes.nbytes + 2 * 2**20


def test_batched_values_equal_per_action_predictions():
    # stacked passes give the per-action predictions bit for bit
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), seed=7)
    train(agent, max_steps=600)
    online = _frozen_values(agent.net, agent.layer, agent)
    np.testing.assert_array_equal(agent._pass(0, agent.mdp.n_states).q, online)
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
        _learn(agent, (s, a, r, s2, done))
        if step % 5:
            assert not np.array_equal(agent.q_table(), frozen)
            np.testing.assert_array_equal(agent.target_q, frozen)


def test_greedy_step_reuses_the_action_pass(monkeypatch):
    # act(s)'s pass over the actions of s and s + 1 stands in for the
    # step's own pass on (s, a) and for the argmax pass at s': each step
    # runs that one pass, into the terminal state or not
    agent = DoubleQAgent(ChainMdp(), epsilon_greedy=0.0, copy_period=10**6, seed=0)
    calls = []

    per_step = []

    def hook(report):
        per_step.append(len(calls))
        calls.clear()

    monkeypatch.setattr(Mlp, "forward_pass", _recorded_states(agent, calls))
    history = train(agent, max_steps=2000, hook=hook)
    assert per_step == [1] * agent.step_count
    assert any(episode.total_reward != 0.0 for episode in history)


@pytest.mark.parametrize("n_states", [5, 60])
def test_step_pass_does_not_grow_with_the_chain(n_states, monkeypatch):
    # every learned step, greedy action or random, runs one pass over the
    # actions of s and s + 1 (s alone at the end of the chain), whatever
    # the chain's length; only a copy passes over every non-terminal state
    mdp = ChainMdp(n_states=n_states)
    agent = DoubleQAgent(mdp, epsilon_greedy=0.5, copy_period=64, seed=2)
    calls, per_step = [], []

    def hook(report):
        per_step.append(list(calls))
        calls.clear()

    monkeypatch.setattr(Mlp, "forward_pass", _recorded_states(agent, calls))
    train(agent, max_steps=300, hook=hook)
    for step, passes in enumerate(per_step, start=1):
        (lo, hi), copies = passes[0], passes[1:]
        assert hi == min(lo + 2, n_states)
        assert copies == [(0, mdp.terminal)] * (step % agent.copy_period == 0)


def _learned_bits(agent):
    layer, nrm = agent.layer, agent.layer.normalizer
    arrays = (agent.net.get_params(), layer.W, layer.b, layer.sigma, layer.mu, nrm.mu, nrm.var)
    return [a.tobytes() for a in (*arrays, agent.target_q)]


def _untouched(agent):
    """What a learning step that raises must leave as it was."""
    return _learned_bits(agent), agent.step_count, agent.rng.bit_generator.state


@pytest.mark.parametrize(
    "script",
    [
        [(1, [(0, False)])],  # the step is from another state
        [(1, [(1, True), (1, False)])],  # the second step finds the pass used
        [(2, [(2, True)]), (1, [(2, True)])],  # the last act's pass covers both
        [(0, [(0, True)]), (0, [(0, True), (1, False)]), (3, [(3, True), (3, False), (2, False)])],
    ],
    ids=["other-state", "used-once", "last-act", "mixed"],
)
def test_reused_pass_leaves_parameters_bitwise_equal(script):
    # an agent handed the pass of its last act against one handed a fresh
    # pass at each step; actions alternate, so the reused row is not always
    # the one act chose.  Where act's pass does not serve (True marks where
    # it does), the step raises and nothing moves
    mdp = ChainMdp(terminal_reward=1e3)
    agent = DoubleQAgent(mdp, epsilon_greedy=0.0, copy_period=3, seed=3)
    plain = DoubleQAgent(mdp, epsilon_greedy=0.0, copy_period=3, seed=3)
    a = 0
    for acted, learned in script:
        _, seen = agent.act(acted)
        for s, serves in learned:
            s2, r, done = mdp.step(s, a)
            transition = (s, a, r, s2, done)
            if serves:
                agent.learn_transition(transition, seen)
                _learn(plain, transition)
            else:
                before = _untouched(agent)
                with pytest.raises(ValueError, match="cannot serve step"):
                    agent.learn_transition(transition, seen)
                assert _untouched(agent) == before
            assert _learned_bits(agent) == _learned_bits(plain)
            a = 1 - a


@pytest.mark.parametrize(
    ("acted", "transition"),
    [(1, (0, 0, 0.0, 1, False)), (0, (1, 0, 0.0, 2, False)), (2, (3, 0, 1e3, 4, True))],
    ids=["below", "above", "terminal"],
)
def test_a_pass_that_does_not_cover_the_step_raises_and_nothing_moves(acted, transition):
    agent = DoubleQAgent(ChainMdp(), seed=0)
    _, seen = agent.act(acted)
    before = _untouched(agent)
    s, _, _, s2, _ = transition
    match = rf"over states {acted}..{acted + 1} made for step 1 cannot serve step 1, on states "
    with pytest.raises(ValueError, match=match + rf"{min(s, s2)}..{max(s, s2)}$"):
        agent.learn_transition(transition, seen)
    assert _untouched(agent) == before


@pytest.mark.parametrize("made_by", ["act", "_pass"])
def test_a_pass_reused_after_a_learning_step_raises_and_nothing_moves(made_by):
    # the parameters moved since the pass was made: its activations and
    # greedy actions are stale, so the step refuses it, at a target copy too
    agent = DoubleQAgent(ChainMdp(), copy_period=1, seed=0)
    seen = agent.act(0)[1] if made_by == "act" else agent._pass(0, 2)
    transition = (0, ChainMdp.ADVANCE, 0.0, 1, False)
    agent.learn_transition(transition, seen)
    before = _untouched(agent)
    with pytest.raises(ValueError, match=r"made for step 1 cannot serve step 2, on states 0..1"):
        agent.learn_transition(transition, seen)
    assert _untouched(agent) == before


_N_STATES = 4
_OPS = st.one_of(
    st.tuples(st.just("act"), st.integers(0, _N_STATES - 1)),
    # a learn from a given state, or, with None, from the last act's state
    # and action on the last act's pass
    st.tuples(st.just("learn"), st.none() | st.integers(0, _N_STATES - 2), st.integers(0, 1)),
    st.tuples(st.just("q_table")),
)


@settings(deadline=None, max_examples=60)
@given(epsilon=st.sampled_from([0.0, 0.5, 1.0]), script=st.lists(_OPS, max_size=25))
def test_a_step_on_acts_pass_equals_a_step_on_a_fresh_pass(epsilon, script):
    # an agent that acts, reads its values and learns from act's pass,
    # against one that only learns the same transitions, each from a fresh
    # pass over the states from min(s, s2) to max(s, s2): they stay equal
    # to the last bit.  A learn from act's pass after another learn raises
    # and moves nothing.  Where the script makes them diverge (the same
    # terminal transition six times in a row from the fresh agent
    # overflows), under train()'s errstate, they diverge alike: to the same
    # error.  The agent keeps no pass between calls
    mdp = ChainMdp(n_states=_N_STATES, terminal_reward=1e3)
    agent = DoubleQAgent(mdp, epsilon_greedy=epsilon, copy_period=3, seed=3)
    plain = DoubleQAgent(mdp, epsilon_greedy=epsilon, copy_period=3, seed=3)
    acted = None
    with np.errstate(over="ignore", invalid="ignore"):
        for op, *args in script:
            if op == "act":
                s = args[0]
                acted = (s, *agent.act(s))
            elif op == "learn":
                s, a = args
                seen = None
                if s is None:
                    if acted is None or acted[0] == mdp.terminal:
                        continue
                    s, a, seen = acted
                s2, r, done = mdp.step(s, a)
                transition = (s, a, r, s2, done)
                if seen is not None and seen.step_count != agent.step_count:
                    before = _untouched(agent)
                    with pytest.raises(ValueError, match="cannot serve step"):
                        agent.learn_transition(transition, seen)
                    assert _untouched(agent) == before
                    continue
                if seen is None:
                    seen = _fresh_pass(agent, transition)
                errors = []
                for learner, handed in ((agent, seen), (plain, _fresh_pass(plain, transition))):
                    try:
                        learner.learn_transition(transition, handed)
                    except FloatingPointError as exc:
                        errors.append(str(exc))
                assert len(errors) in (0, 2) and len(set(errors)) <= 1, errors
                if errors:
                    break
            else:
                assert agent.q_table().tobytes() == plain.q_table().tobytes()
            assert _learned_bits(agent) == _learned_bits(plain)
            assert not [v for v in vars(agent).values() if isinstance(v, _Pass)]
    assert _learned_bits(agent) == _learned_bits(plain)
    assert agent.step_count == plain.step_count


@pytest.mark.parametrize(
    "transition",
    [(0, 2, 0.0, 1, False), (0, -1, 0.0, 1, False), (4, 0, 0.0, 5, False), (-1, 0, 0.0, 0, False)],
    ids=["action-2", "action-minus-1", "next-state", "state"],
)
def test_learn_transition_rejects_an_action_or_state_out_of_range(transition):
    # the pass's rows run over (s, a) in order, so a bare row index would
    # take (0, 2) for (1, 0); the step raises instead, and nothing moves
    agent = DoubleQAgent(ChainMdp(), seed=0)
    _, seen = agent.act(0)
    before = _untouched(agent)
    with pytest.raises(IndexError, match=r"is off the chain or its actions"):
        agent.learn_transition(transition, seen)
    assert _untouched(agent) == before


@pytest.mark.parametrize("value", [math.inf, math.nan, 1.5e154])
def test_learn_transition_rejects_a_bootstrap_target_out_of_range(value):
    # target network values past the normalizer's limit mean the network
    # diverged: the step says so instead of the normalizer's ValueError
    agent = DoubleQAgent(ChainMdp(terminal_reward=1.0), seed=0)
    agent.target_q[1] = value
    before = _learned_bits(agent)
    match = r"step 1: bootstrap target .* \(terminal reward 1\)"
    with pytest.raises(FloatingPointError, match=match):
        _learn(agent, (0, ChainMdp.ADVANCE, 0.0, 1, False))
    assert _learned_bits(agent) == before and agent.step_count == 0


@pytest.mark.parametrize("reward", [1.5e154, -1.5e154, math.inf, math.nan])
def test_chain_rejects_a_terminal_reward_the_normalizer_cannot_take(reward):
    with pytest.raises(ValueError, match="invalid terminal_reward"):
        ChainMdp(terminal_reward=reward)


def test_chain_too_long_for_the_agent_codes_is_rejected_naming_the_limit(monkeypatch):
    # n_states had no upper limit: an agent on 100,000 states would fill
    # about 160 GB of one-hot codes.  The agent, which fills them, rejects a
    # chain whose codes, 16 * n * (n + 2) bytes, take over 2 GiB (11584
    # states fit), before it builds anything; the chain and its exact values
    # take any length
    assert 16 * 11584 * 11586 <= 2**31 < 16 * 11585 * 11587

    class Allocated(Exception):
        pass

    zeros = np.zeros

    def zeros_up_to_a_gigabyte(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape)) > 2**27:
            raise Allocated(shape)
        return zeros(shape, *args, **kwargs)

    # 11584 states pass the check and reach the codes, which are not built
    monkeypatch.setattr(np, "zeros", zeros_up_to_a_gigabyte)
    with pytest.raises(Allocated) as got:
        DoubleQAgent(ChainMdp(n_states=11584))
    assert got.value.args == ((11584, 2, 11586),)
    monkeypatch.undo()
    for n in (11585, 100_000):
        mdp = ChainMdp(n_states=n, terminal_reward=1.0, gamma=1.0)
        message = f"invalid n_states: {n} states' codes take over 2 GiB"
        with pytest.raises(ValueError, match=message):
            DoubleQAgent(mdp)
    np.testing.assert_array_equal(value_iteration(mdp), np.ones((n - 1, 2)))


# step_count and q_table() after 3001 steps at reward 1e3, agent seed 0,
# recorded with the target network kept as a copied network, when
# train(max_steps=3000) still finished the episode it was in, and re-recorded
# when the normalizer came to store the variance; any change to the
# arithmetic of the rl loop fails here
GOLDEN_RL_STEPS = 3001
GOLDEN_RL_Q = [
    [281.9455498848282, 230.3638871041507],
    [329.3786674218528, 272.9396537422758],
    [297.61225692816924, 244.66246002792434],
    [424.1357032239312, 365.56752086848564],
]


def test_rl_golden():
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), seed=0)
    train(agent, max_steps=GOLDEN_RL_STEPS)
    assert agent.step_count == GOLDEN_RL_STEPS
    np.testing.assert_array_equal(agent.q_table(), np.array(GOLDEN_RL_Q))


# q_table() after GOLDEN_RL_STEPS steps, agent seed 0, at the gate's other
# two rewards: at reward 1 the statistics stay within two decades of the
# epsilon floor, at 1e6 they are three decades above the 1e3 run's
GOLDEN_RL_Q_AT = {
    1.0: [
        [0.46401408321545956, 0.19483469156547834],
        [0.5825474176231891, 0.32658793540873793],
        [0.6377299556184793, 0.35912698887845795],
        [0.8656796890753709, 0.5753601727552886],
    ],
    1e6: [
        [282355.5511280979, 230756.5905585562],
        [329713.2431231481, 273247.4191746784],
        [297979.0950819384, 245006.99285219336],
        [424747.83773761056, 366139.191942258],
    ],
}


@pytest.mark.parametrize("reward", sorted(GOLDEN_RL_Q_AT))
def test_rl_golden_at_the_gate_rewards(reward):
    agent = DoubleQAgent(ChainMdp(terminal_reward=reward), seed=0)
    train(agent, max_steps=GOLDEN_RL_STEPS)
    assert agent.step_count == GOLDEN_RL_STEPS
    np.testing.assert_array_equal(agent.q_table(), np.array(GOLDEN_RL_Q_AT[reward]))


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

    def learn_and_keep(transition, seen):
        report = learn_transition(transition, seen)
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


@pytest.mark.parametrize(
    ("setting", "value"),
    [
        # True ran one step, 2.5 raised a bare TypeError from range
        ("max_steps", True),
        ("max_steps", 2.5),
        ("max_steps", -1),
        # none of these ever stopped training early, and nothing warned
        ("rel_tol", math.nan),
        ("rel_tol", 0.0),
        ("rel_tol", -1.0),
        ("rel_tol", math.inf),
        ("rel_tol", True),
    ],
)
def test_train_rejects_a_bad_setting_by_name_before_any_step(setting, value):
    agent = DoubleQAgent(ChainMdp(terminal_reward=1e3), seed=0)
    before = _untouched(agent)
    kwargs = {"max_steps": 10, "rel_tol": 0.05, setting: value}
    with pytest.raises(ValueError, match=rf"^invalid {setting}: "):
        train(agent, **kwargs)
    assert _untouched(agent) == before


@pytest.mark.parametrize(
    ("reward", "gamma"), [(0.0, 0.99), (-0.0, 0.99), (-1.0, 0.99), (5e-324, 0.5)]
)
def test_train_to_a_tolerance_refuses_a_chain_with_an_exact_value_of_0(reward, gamma):
    # the relative error divides by the exact values: numpy warned of a
    # division by zero at step 2000, and the tolerance never stopped training
    agent = DoubleQAgent(ChainMdp(terminal_reward=reward, gamma=gamma), seed=0)
    before = _untouched(agent)
    match = rf"^terminal_reward {reward:g} with gamma {gamma:g}: an exact Q value is then 0"
    with pytest.raises(ValueError, match=match):
        train(agent, max_steps=4000, rel_tol=0.05)
    assert _untouched(agent) == before
    # with no tolerance there is nothing to divide
    train(agent, max_steps=10)
    assert agent.step_count == 10


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
        y = agent.double_q_target((3, 0, reward, 4, True), 0)
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
    np.testing.assert_array_equal(agent.q_table().argmax(axis=1), [mdp.ADVANCE] * 4)
