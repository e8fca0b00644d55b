import hashlib
import json
import os

import pytest

from popart.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from popart.binreg import RESULTS_HEADER

TINY_BINREG = {
    "methods": ["popart"],
    "alphas": [1e-2],
    "betas": [0.1],
    "n_samples": 40,
    "n_repetitions": 2,
}
# every method at two cells; all four sgd runs diverge
GOLDEN_BINREG = {
    "methods": ["sgd", "art", "popart", "normalized_sgd"],
    "alphas": [1e-2, 1.0],
    "betas": [0.1],
    "n_samples": 60,
    "n_repetitions": 2,
}
# what `popart binreg --sort` wrote for GOLDEN_BINREG before `results.csv`
# had a reader of its own
GOLDEN_BINREG_SHA256 = {
    "results.csv": "a4f7f00c9f0070491960144ccf1c8058980a5d0c5f2e6301587b0818843b4f89",
    "summary.json": "43010dae20a5e018e7c10f4f5a763fbf1846b0f7434a0c1087aa8d66851ba717",
}
# sgd over 1100 samples: one of five runs finishes, four diverge at the spike
MIXED_BINREG = {
    "methods": ["sgd"],
    "alphas": [3e-5],
    "betas": [0.01],
    "n_samples": 1100,
    "n_repetitions": 5,
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_binreg_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    code = main(
        ["binreg", "--config", _write_config(tmp_path, TINY_BINREG), "--out", str(out)]
    )
    assert code == EXIT_OK
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == ",".join(RESULTS_HEADER)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["popart"]["alpha"] == 1e-2


def test_binreg_svg_and_sort(tmp_path):
    out = tmp_path / "run2"
    code = main(
        [
            "binreg",
            "--config",
            _write_config(tmp_path, TINY_BINREG),
            "--out",
            str(out),
            "--svg",
            "--sort",
        ]
    )
    assert code == EXIT_OK
    svg = (out / "popart.svg").read_text()
    assert svg.startswith("<svg")


def test_binreg_missing_config_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = main(["binreg", "--config", missing, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert missing in capsys.readouterr().err


def test_binreg_unknown_config_key(tmp_path):
    cfg = _write_config(tmp_path, {"n_sampels": 10})
    code = main(["binreg", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_binreg_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["binreg", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_binreg_unwritable_out_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(
        [
            "binreg",
            "--config",
            _write_config(tmp_path, TINY_BINREG),
            "--out",
            str(blocker / "sub"),
        ]
    )
    assert code == EXIT_IO


def test_binreg_worker_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("POPART_WORKERS", "not-a-number")
    code = main(
        [
            "binreg",
            "--config",
            _write_config(tmp_path, TINY_BINREG),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == EXIT_CONFIG


def test_binreg_golden(tmp_path):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, GOLDEN_BINREG)
    assert main(["binreg", "--config", cfg, "--out", str(out), "--sort"]) == EXIT_OK
    for name, digest in GOLDEN_BINREG_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert sorted(os.listdir(out)) == ["results.csv", "summary.json"]


def test_binreg_deterministic_with_sort(tmp_path):
    cfg = _write_config(tmp_path, TINY_BINREG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["binreg", "--config", cfg, "--out", str(out), "--sort"]) == EXIT_OK
        outs.append((out / "results.csv").read_text())
    assert outs[0] == outs[1]


def test_rl_demo_steps_zero_header_only(tmp_path):
    out = tmp_path / "rl"
    code = main(["rl-demo", "--out", str(out), "--steps", "0"])
    assert code == EXIT_OK
    lines = (out / "rl_metrics.csv").read_text().splitlines()
    assert lines == ["step,episode,reward,grad_norm,normalized_error"]
    summary = json.loads((out / "rl_summary.json").read_text())
    assert summary == {"steps": 0}


def test_rl_demo_short_run(tmp_path):
    out = tmp_path / "rl2"
    code = main(["rl-demo", "--out", str(out), "--steps", "400", "--seed", "0"])
    assert code == EXIT_OK
    rows = (out / "rl_metrics.csv").read_text().splitlines()
    assert rows[0] == "step,episode,reward,grad_norm,normalized_error"
    assert len(rows) > 100
    summary = json.loads((out / "rl_summary.json").read_text())
    assert "max_relative_q_error" in summary
    assert summary["terminal_reward"] == 1000.0


# what `popart rl-demo --steps 400 --seed 0` wrote before the agent batched
# its forward passes (the metrics hash re-recorded when the step column
# became 1..N); any change to the arithmetic of the rl loop fails here
GOLDEN_RL_SUMMARY = """{
  "steps": 403,
  "terminal_reward": 1000.0,
  "max_relative_q_error": 0.9689454844175097,
  "greedy_policy": [
    0,
    0,
    0,
    0
  ]
}
"""
GOLDEN_RL_METRICS_SHA256 = "756cbf30c37636e7057331faff58c685eb27ed765a0945cff340bb14d82b2e89"
GOLDEN_RL_METRICS_LAST_ROW = "403,94,1000.0,3.064480285811849,2.2164777188427816"


def test_rl_demo_golden(tmp_path):
    out = tmp_path / "rl"
    assert main(["rl-demo", "--out", str(out), "--steps", "400", "--seed", "0"]) == EXIT_OK
    assert (out / "rl_summary.json").read_text() == GOLDEN_RL_SUMMARY
    metrics = (out / "rl_metrics.csv").read_bytes()
    assert metrics.decode().splitlines()[-1] == GOLDEN_RL_METRICS_LAST_ROW
    assert hashlib.sha256(metrics).hexdigest() == GOLDEN_RL_METRICS_SHA256


def test_rl_demo_steps_count_from_one(tmp_path):
    out = tmp_path / "rl"
    assert main(["rl-demo", "--out", str(out), "--steps", "400", "--seed", "0"]) == EXIT_OK
    rows = [line.split(",") for line in (out / "rl_metrics.csv").read_text().splitlines()[1:]]
    summary = json.loads((out / "rl_summary.json").read_text())
    assert [int(r[0]) for r in rows] == list(range(1, summary["steps"] + 1))
    episodes = [int(r[1]) for r in rows]
    assert episodes[0] == 1
    assert all(0 <= b - a <= 1 for a, b in zip(episodes, episodes[1:]))


def test_rl_demo_divergence_is_one_line_and_exit_code(tmp_path, capsys):
    # reward 1 (scale 1e-3), agent seed 6: the loss turns non-finite at step 5282
    out = tmp_path / "rl"
    args = ["rl-demo", "--out", str(out), "--steps", "6000", "--seed", "6"]
    assert main([*args, "--reward-scale", "0.001"]) == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: training diverged at step 5282: non-finite loss or gradient norm "
        "(terminal reward 1)"
    ]
    assert os.listdir(out) == []


def test_rl_demo_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "rl.json"
    path.write_text(json.dumps({"copyperiod": 7}))
    code = main(["rl-demo", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_plot_from_existing_results(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, TINY_BINREG)
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    plots = tmp_path / "plots"
    code = main(
        ["plot", "--results", str(out / "results.csv"), "--out", str(plots)]
    )
    assert code == EXIT_OK
    assert (plots / "popart.svg").read_text().startswith("<svg")


def _svgs(path):
    return {p.name: p.read_bytes() for p in sorted(path.glob("*.svg"))}


@pytest.mark.parametrize(
    "config, methods",
    [
        (TINY_BINREG, ["popart.svg"]),
        (MIXED_BINREG, []),
        (GOLDEN_BINREG, ["art.svg", "normalized_sgd.svg", "popart.svg"]),
    ],
    ids=["tiny", "mixed", "golden"],
)
def test_plot_charts_what_binreg_svg_charts(tmp_path, config, methods):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, config)
    assert main(["binreg", "--config", cfg, "--out", str(out), "--svg", "--sort"]) == EXIT_OK
    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(out / "results.csv"), "--out", str(plots)]) == EXIT_OK
    assert sorted(_svgs(plots)) == methods
    assert _svgs(plots) == _svgs(out)


_HEADER = ",".join(RESULTS_HEADER)
MALFORMED_RESULTS = {
    "bad_header": ("method,alpha\n", 1),
    "short_row": (_HEADER + "\npopart,0.01,0.1,2,1,1.5\n", 2),
    "non_numeric": (_HEADER + "\npopart,0.01,0.1,2,1,1.5,2.5\npopart,0.01,0.1,2,2,x,2.5\n", 3),
    "step_out_of_order": (_HEADER + "\npopart,0.01,0.1,2,2,1.5,2.5\n", 2),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_RESULTS))
def test_plot_malformed_results_is_config_error(tmp_path, capsys, kind):
    text, line = MALFORMED_RESULTS[kind]
    results = tmp_path / "results.csv"
    results.write_text(text)
    plots = tmp_path / "plots"
    code = main(["plot", "--results", str(results), "--out", str(plots)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"{results}, line {line}: " in err[0]
    assert not plots.exists()


def test_plot_missing_results_is_io_error(tmp_path):
    code = main(
        ["plot", "--results", str(tmp_path / "none.csv"), "--out", str(tmp_path / "p")]
    )
    assert code == EXIT_IO


def test_verify_ci_profile_passes(capsys):
    code = main(["verify", "--profile", "ci"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") == 9


def test_no_partial_files_on_failure(tmp_path):
    # a run that errors before finishing must not leave partial outputs
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, {"methods": ["bogus"]})
    code = main(["binreg", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "results.csv").exists()
    assert not (out / "summary.json").exists()
