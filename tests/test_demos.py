"""The demos run as their docstrings say, and print what they printed
when recorded: byte for byte, with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_STDOUT = {
    "spike_safety": """\
alpha=0.0001, beta=0.01, error traces around the step-1000 spike

  step          sgd          art       popart
   997        129.5        16.78        460.2
   998          178        125.1        359.4
   999        353.8        382.6        822.2
  1000    6.489e+04    6.503e+04    6.548e+04
  1001    3.259e+05        64.44        939.8
  1002    1.704e+09        577.5        942.7
  1005   3.807e+152         1216        81.43
  1050          inf        114.2        795.7

     sgd: DIVERGED
     art: area under error curve = 388,471
  popart: area under error curve = 586,487
""",
    "rescaling_walkthrough": """\
constant step size beta=0.01: bound on |normalized target| = 9.95

      target           mu        sigma  normalized
           3         0.03       0.2987      9.9444
          -1       0.0197       0.3143     -3.2439
           4       0.0595       0.5046      7.8085
       1e+09        1e+07     9.95e+07      9.9499
           2      9.9e+06      9.9e+07     -0.1000
           5    9.801e+06    9.851e+07     -0.0995

rescale from (sigma=1, mu=0) to (sigma=123.4, mu=-56.7):
  prediction before=-1.213068185165  after=-1.213068185165  drift=4.44e-15
  prediction before=+0.461051581210  after=+0.461051581210  drift=1.11e-15
  prediction before=+0.657865750997  after=+0.657865750997  drift=1.78e-15
""",
    "chain_values": """\
terminal reward         1: max relative Q error  0.007 after   8019 steps (normalizer scale = 0.017)
terminal reward      1000: max relative Q error  0.027 after  10053 steps (normalizer scale = 20.1)
terminal reward     1e+06: max relative Q error  0.012 after  10053 steps (normalizer scale = 1.39e+04)
""",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_STDOUT))
def test_demo_output_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert proc.stdout == EXPECTED_STDOUT[name]
