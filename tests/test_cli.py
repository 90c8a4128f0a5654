import json
import os
import resource
import subprocess
import sys

import pytest

from supertroesch import cli
from supertroesch.cli import main
from supertroesch.resolutions import epsilon_prime_1

RUN = [sys.executable, "-m", "supertroesch.cli"]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, env=full_env
    )


def test_cohomology_text_output():
    res = run_cli("cohomology", "--p", "3", "--r", "1", "--n", "1", "--space", "k^{1|1}")
    assert res.returncode == 0
    assert "H_[1]^0 = (1, 0)" in res.stdout
    assert "H_[1]^3 = (0, 1)" in res.stdout
    assert "normal: True" in res.stdout


def test_cohomology_zero_space():
    res = run_cli("cohomology", "--p", "3", "--r", "1", "--n", "1", "--space", "k^{0|0}")
    assert res.returncode == 0
    assert "H_[" not in res.stdout
    assert "normal: True" in res.stdout


def test_cohomology_r2_even_space():
    res = run_cli("cohomology", "--p", "3", "--r", "2", "--n", "1", "--space", "k^{0|1}")
    assert res.returncode == 0
    assert "H_[1]^36 = (0, 1)" in res.stdout


def test_decompose_output():
    res = run_cli("decompose", "--p", "3", "--r", "1", "--n", "1", "--space", "k^{0|1}")
    assert res.returncode == 0
    assert "block shift=3 length=1 parity=1 x1" in res.stdout
    assert "normal: True" in res.stdout
    res = run_cli(
        "decompose", "--p", "3", "--r", "1", "--n", "1", "--space", "k^{0|1}",
        "--format", "json",
    )
    payload = json.loads(res.stdout)
    assert payload["schema"] == 1
    assert payload["blocks"] == [
        {"shift": 3, "length": 1, "parity": 1, "multiplicity": 1}
    ]


def test_ext_table_json():
    res = run_cli(
        "ext-table", "--p", "3", "--r", "1", "--max-deg", "7", "--format", "json"
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["schema"] == 1
    dims = {d["s"]: d["dim"] for d in payload["dims"]}
    assert [dims[s] for s in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]


def test_ext_table_negative_max_degree_is_a_usage_error():
    res = run_cli("ext-table", "--p", "3", "--r", "1", "--max-deg", "-1")
    assert res.returncode == 64
    assert res.stdout == ""
    assert res.stderr == "error: max degree must be >= 0, got -1\n"


@pytest.mark.parametrize("r", ["0", "-1", "-2"])
def test_ring_r_below_one_is_a_usage_error(r):
    # r is checked before any p ** r, which is a float for r < 0
    res = run_cli("ring", "--p", "3", "--r", r)
    assert res.returncode == 64
    assert res.stdout == ""
    assert res.stderr == "error: r must be >= 1\n"


def test_ring_output_contains_sign_line():
    res = run_cli("ring", "--p", "3", "--r", "1")
    assert res.returncode == 0
    assert "e(1)^3 = -1 * c∘cΠ" in res.stdout
    assert "FAIL" not in res.stdout


@pytest.mark.parametrize(
    "p, r, size",
    [
        (3, 3, "73150076108819990448"),
        (5, 2, "209938418109640350"),
        (5, 3, "6492153808579349135272080124982967008535190964421503737302910771604215253108695672560326421600"),
    ],
)
def test_ring_past_the_differential_cap_exits_on_budget(p, r, size):
    # an upper bound on the term count of d (not the count itself) is checked
    # before any bigraded piece is enumerated; at p = 5, r = 3 the base
    # step's piece enumeration would otherwise recurse once per unit of
    # Hom(Sh_3, Sh_3) (15,625 units)
    env = {k: v for k, v in os.environ.items() if k != "SUPERTROESCH_BUDGET"}
    res = subprocess.run(RUN + ["ring", "--p", str(p), "--r", str(r)], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "mu: not computed (budget)\n"
    assert res.stderr == f"budget exceeded: formal differential expansion: size {size} exceeds budget 1000000\n"


def test_ring_p3_r2_exits_on_the_differential_power():
    # d(3, 2) fits the term cap and is built (245,388 terms); the odd-step
    # block d^(p-1) of the splice is then refused on its estimate
    env = {k: v for k, v in os.environ.items() if k != "SUPERTROESCH_BUDGET"}
    res = subprocess.run(RUN + ["ring", "--p", "3", "--r", "2"], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "mu: not computed (budget)\n"
    assert res.stderr == "budget exceeded: formal differential power: size 60215270544 exceeds budget 1000000\n"


def test_ring_differential_power_is_held_to_the_term_cap():
    # the odd-step block is refused against ELEMENT_TERM_CAP, not --budget,
    # so a budget above its size changes nothing
    env = {k: v for k, v in os.environ.items() if k != "SUPERTROESCH_BUDGET"}
    argv = RUN + ["ring", "--p", "3", "--r", "2", "--budget", "100000000000"]
    res = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 2
    assert res.stdout == "mu: not computed (budget)\n"
    assert res.stderr == "budget exceeded: formal differential power: size 60215270544 exceeds budget 1000000\n"


def test_verify_suite_kunneth():
    res = run_cli("verify", "--p", "3", "--suite", "kunneth")
    assert res.returncode == 0
    assert "PASS" in res.stdout
    assert "FAIL" not in res.stdout


def test_exit_codes():
    # usage error: malformed space
    res = run_cli("cohomology", "--p", "3", "--space", "nope")
    assert res.returncode == 64
    # usage error: unknown flag placement
    res = run_cli("cohomology", "--nope", "3")
    assert res.returncode == 64
    # budget exceeded
    res = run_cli(
        "cohomology", "--p", "3", "--n", "2", "--space", "k^{1|1}", "--budget", "2"
    )
    assert res.returncode == 2
    assert "budget" in res.stderr


def test_space_literal_checked_against_budget():
    # each space would take minutes and gigabytes to build; the timeout makes
    # a missing check fail the test instead of hanging it
    cases = [
        (("cohomology", "--p", "3", "--n", "1", "--space", "Sh(25)"), "test space: size 3^25 exceeds budget 20000"),
        (("decompose", "--p", "5", "--space", "PiSh(20)"), "test space: size 5^20 exceeds budget 20000"),
        (("cohomology", "--p", "3", "--space", "k^{1000000000000|0}"), "test space: size 1000000000000 exceeds"),
    ]
    env = {k: v for k, v in os.environ.items() if k != "SUPERTROESCH_BUDGET"}
    for argv, message in cases:
        res = subprocess.run(RUN + list(argv), capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 2, argv
        assert message in res.stderr
    # Sh(9) at p = 3 fits the budget (19,683 <= 20,000); its complex does not
    res = subprocess.run(
        RUN + ["cohomology", "--p", "3", "--n", "1", "--space", "Sh(9)"], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 2
    assert res.stderr == "budget exceeded: total symmetric power dimension: size 34316932094325 exceeds budget 1181060000\n"


def test_budget_env_var():
    res = run_cli(
        "cohomology", "--p", "3", "--n", "2", "--space", "k^{1|1}",
        env={"SUPERTROESCH_BUDGET": "2"},
    )
    assert res.returncode == 2


@pytest.mark.parametrize("value", ["-5", "0", "abc", "1.5"])
@pytest.mark.parametrize("source", ["--budget", "SUPERTROESCH_BUDGET"])
def test_budget_must_be_positive_integer(source, value, monkeypatch, capsys):
    argv = ["cohomology", "--p", "3", "--n", "1", "--space", "k^{1|1}"]
    if source == "--budget":
        monkeypatch.delenv("SUPERTROESCH_BUDGET", raising=False)
        argv += ["--budget", value]
    else:
        monkeypatch.setenv("SUPERTROESCH_BUDGET", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{source} must be a positive integer, got {value!r}" in captured.err


def test_deterministic_output():
    args = ["ext-table", "--p", "3", "--r", "1", "--max-deg", "9", "--format", "json"]
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    assert a == b
    args = ["cohomology", "--p", "3", "--n", "2", "--space", "k^{1|1}", "--format", "csv"]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_main_inprocess_exit():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "3", "--suite", "epsilon"])
    assert exc.value.code == 0


def test_verify_epsilon_fails_on_a_zero_component(monkeypatch, capsys):
    # every component J reads must be nonzero; zero one and the row fails
    def with_a_zero(p):
        comps = epsilon_prime_1(p)
        comps[p] = comps[p].scaled(0)
        return comps

    monkeypatch.setattr(cli, "epsilon_prime_1", with_a_zero)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "3", "--suite", "epsilon"])
    assert exc.value.code == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL  epsilon components present p=3" in out
    assert "PASS  epsilon chain p=3" in out and out[-1] == "FAIL"


def _limit_cpu_time():
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))


def test_ext_table_time_is_linear_in_max_degree():
    # a degree holds at most two terms of the resolution; scanning every
    # shift index per degree took minutes here, and the CPU cap kills that
    argv = RUN + ["ext-table", "--p", "3", "--r", "1", "--max-deg", "100000", "--format", "csv"]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=120, preexec_fn=_limit_cpu_time)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "s,dim" and len(lines) == 100_002
    assert lines[-2:] == ["99999,0", "100000,1"]


def _limit_address_space():
    limit = 2 * 1024**3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_ext_table_checks_shift_space_against_budget():
    # the Frobenius premise check builds dense p^r x p^r maps on Sh_r: 26 GiB
    # for r = 10 at p = 3, which the address-space cap turns into a fast failure
    cases = [
        (("--r", "10"), "shift space Sh_r: size 3^10 exceeds budget 20000"),
        (("--r", "7", "--budget", "100"), "shift space Sh_r: size 3^7 exceeds budget 100"),
    ]
    env = {k: v for k, v in os.environ.items() if k != "SUPERTROESCH_BUDGET"}
    for extra, message in cases:
        argv = RUN + ["ext-table", "--p", "3", "--max-deg", "4", *extra]
        res = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space
        )
        assert res.returncode == 2, (extra, res.stderr)
        assert res.stderr == f"budget exceeded: {message}\n"
