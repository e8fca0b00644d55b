"""Double Q-learning on the chain, at three reward scales.

The same agent configuration learns the action values whether the
terminal payoff is 1, 1000, or a million, because the bootstrapped
targets are normalized before they ever reach the optimizer.

Run:  python3 demos/chain_values.py
"""

from popart.rl import ChainMdp, DoubleQAgent, relative_q_error, train, value_iteration

for reward in (1.0, 1000.0, 1e6):
    mdp = ChainMdp(terminal_reward=reward)
    agent = DoubleQAgent(mdp, seed=0)
    train(agent, max_steps=50_000, rel_tol=0.05)
    err = relative_q_error(agent.q_table(), value_iteration(mdp))
    print(
        f"terminal reward {reward:>9g}: max relative Q error {err:6.3f} "
        f"after {agent.step_count:>6d} steps "
        f"(normalizer scale = {agent.layer.normalizer.sigma[0]:.3g})"
    )
