"""Smoke tests: every example script runs (at reduced scale).

These import the example modules from ``examples/`` and exercise their
building blocks with short durations, so a broken example fails CI
without costing minutes.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Every shipped example; CI's examples job runs the same glob.
ALL_EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports_and_has_main(name):
    module = load_example(name)
    assert callable(module.main)
    assert module.__doc__


def test_quickstart_describe(capsys):
    module = load_example("quickstart")
    module.describe(2000)
    out = capsys.readouterr().out
    assert "ldlp" in out and "speedup" in out


def test_signalling_switch_run():
    module = load_example("signalling_switch")
    from repro.core import LDLPScheduler

    switch, scheduler, outcome = module.run(
        LDLPScheduler, pair_rate=2000, duration=0.05
    )
    assert switch.stats.setups > 0
    assert outcome.completed > 0
    assert scheduler.drops == 0


def test_web_server_run():
    module = load_example("web_server")
    from repro.core import LDLPScheduler

    stack, scheduler, outcome, offered = module.run(
        LDLPScheduler, rate=3000, duration=0.05
    )
    assert stack.stats.delivered == offered
    assert outcome.completed > 0


def test_dns_server_run():
    module = load_example("dns_server")
    from repro.core import ConventionalScheduler

    server, scheduler, outcome = module.run(
        ConventionalScheduler, rate=3000, duration=0.05
    )
    assert len(server.responses) > 0
    assert server.bad_queries == 0


def test_ip_router_run():
    module = load_example("ip_router")
    from repro.core import LDLPScheduler

    path, scheduler, outcome = module.run(LDLPScheduler, rate=4000,
                                          duration=0.05)
    assert path.stats.forwarded > 0
    assert path.stats.no_route == 0
    assert path.table.misses == 0


def test_gossip_swarm_run():
    module = load_example("gossip_swarm")

    session = module.run("session", 4, duration=0.02, num_peers=500)
    sessionless = module.run("sessionless", 4, duration=0.02, num_peers=500)
    assert session.run.offered == session.run.completed + session.run.dropped
    assert (
        session.header_bytes_per_message
        < sessionless.header_bytes_per_message
    )


def test_checksum_study_correctness(capsys):
    module = load_example("checksum_study")
    module.correctness_demo()
    out = capsys.readouterr().out
    assert "OK" in out


def test_tcp_receive_path_main(capsys):
    # This one is cheap enough to run end to end.
    module = load_example("tcp_receive_path")
    module.main()
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Call tree" in out
