"""The CLI's contract, one table over all 16 subcommands.

Exit codes, ``--json`` that parses, usage errors that exit 2 with one line
on stderr, and -- for the commands whose code moved under them (the canned
scenarios becoming campaigns, the federation's signature log becoming the
crowd repository) -- stdout held byte for byte to
``fixtures/cli_parent_stdout.json``, captured on the tree before each move.
The ``demo`` entries were re-recorded once, when each paper figure's home
became one ``arm_*`` in ``repro.faults.scenario``: the demos now print the
figure's measure dict and a report for both arms.

Packet, alert, rule, message and signature ids come from process-wide
counters, so what a command prints depends on what the process ran before.
Each pinned command runs with those counters fresh (:func:`fresh_ids`), as
it was recorded.
"""

import importlib
import itertools
import json
from pathlib import Path

import pytest

from repro.cli import main

PARENT = json.loads((Path(__file__).parent / "fixtures" / "cli_parent_stdout.json").read_text())

#: argv -> (exit code, stdout is JSON).  At least one row per subcommand.
COMMANDS = {
    "demo fig3": (0, False),
    "demo fig4": (0, False),
    "demo fig5": (0, False),
    "demo thermal": (0, False),
    "table1": (0, False),
    "model-audit": (0, False),
    "audit --json": (0, True),
    "incident --json": (0, True),
    "incident --chaos --site": (0, False),
    "incident nosuch": (1, False),
    "report": (0, False),
    "metrics --json": (0, True),
    "health --plan controller --json": (0, True),
    "trace --json": (0, True),
    "trace plug": (1, False),
    "policy": (0, True),
    "federation --sites 2": (0, False),
    "fleet --sites 2": (0, False),
    "campaign --name plug-backdoor-blast --json": (0, True),
    "chaos --json": (0, True),
    "chaos --no-resilience --duration 12": (0, False),
    "failover --json": (0, True),
    "failover --storm --json": (0, True),
    "dlq --json": (0, True),
}

#: argv whose input is wrong: exit 2, nothing on stdout, one line on stderr.
USAGE_ERRORS = (
    "metrics --watch 0",
    "health --watch -1",
    "health --plan nosuch",
    "chaos --plan {missing}",
    "chaos --plan {malformed}",
    "campaign --file {missing}",
    "campaign --file {malformed}",
    "campaign --name nosuch",
    "federation --sites 1",
    "federation --scale -5",
    "fleet --sites 0",
    "chaos --duration 0",
    "chaos --drop 2",
    "chaos --jitter -1",
    "chaos --random --duration 0",
    "metrics --watch nan",
    "health --watch nan",
)


#: The process-wide id counters: (module, attribute).
ID_COUNTERS = (
    ("repro.netsim.packet", "_PACKET_IDS"),
    ("repro.mboxes.base", "_ALERT_IDS"),
    ("repro.policy.fsm", "_RULE_IDS"),
    ("repro.sdn.flowrule", "_RULE_IDS"),
    ("repro.sdn.channel", "_MSG_IDS"),
    ("repro.learning.signatures", "_SIG_IDS"),
)


@pytest.fixture
def fresh_ids(monkeypatch):
    """Every id counter restarted at 1, as in a fresh process."""
    for module, name in ID_COUNTERS:
        module = importlib.import_module(module)
        assert hasattr(module, name)
        monkeypatch.setattr(module, name, itertools.count(1))


def run(capsys, line):
    try:
        code = main(line.split())
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_table_covers_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    subcommands = usage[usage.index("{") + 1 : usage.index("}")].split(",")
    assert len(subcommands) == 16
    assert {line.split()[0] for line in COMMANDS} == set(subcommands)


@pytest.mark.parametrize("line", sorted(COMMANDS))
def test_exit_code_and_json(capsys, line):
    want_code, is_json = COMMANDS[line]
    code, out, err = run(capsys, line)
    assert code == want_code
    assert out and not err
    if is_json:
        json.loads(out)


@pytest.mark.parametrize("line", USAGE_ERRORS)
def test_usage_errors_exit_2_with_one_line(capsys, tmp_path, line):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"events": [{"at": 1.0}], "stages": [{"name": "x"}]}')
    line = line.format(missing=tmp_path / "missing.json", malformed=malformed)
    code, out, err = run(capsys, line)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_an_error_mid_run_is_not_a_usage_error(capsys, monkeypatch):
    """Only building a scenario from the command line's values can fail as
    a usage error: a ``ValueError`` out of the run or the measure is a bug,
    and keeps its traceback."""
    from repro.faults import scenario

    def broken(dep, runner):
        raise ValueError("a bug in the measure")

    monkeypatch.setattr(scenario, "measure_failover", broken)
    with pytest.raises(ValueError, match="a bug in the measure"):
        main(["failover"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "line",
    [
        "chaos",
        "chaos --drop 0.1 --jitter 0.01",
        "failover",
        "failover --storm",
        "health",
        "federation",
        "fleet",
        "fleet --sites 2",
        "demo fig3",
        "demo fig4",
        "demo fig5",
        "demo thermal",
        "report",
        "metrics",
        "metrics --json",
        "trace",
        "trace --json",
        "audit",
        "incident",
        "incident --json",
        "incident --chaos --site",
        "dlq",
        "dlq --json",
        "campaign --name plug-backdoor-blast",
        "campaign --name plug-backdoor-blast --json",
        "campaign --list",
        "campaign --class automation-abuse",
        "policy",
        "table1",
        "model-audit",
        "health --plan controller",
        "health --plan controller --json",
        "chaos --json",
        "chaos --random --seed 3",
        "chaos --plan controller",
        "failover --json",
        "failover --storm --json",
    ],
)
def test_stdout_is_byte_identical_to_the_parent(capsys, fresh_ids, line):
    assert run(capsys, line) == (0, PARENT[line], "")


def test_audit_differs_only_by_the_campaign_entries(capsys):
    def evidence(entries):
        return [
            (e["at"], e["kind"], e["device"], {k: v for k, v in e["fields"].items() if k != "pkt"})
            for e in entries
            if not e["kind"].startswith("campaign-")
        ]

    code, out, __ = run(capsys, "audit --json")
    now, then = json.loads(out), json.loads(PARENT["audit --json"])
    assert code == 0 and evidence(now) == evidence(then)
    assert [e["kind"] for e in now if e["kind"].startswith("campaign-")] == [
        "campaign-start",
        "campaign-stage",
    ]


def frames(out):
    """``--watch`` output as (header, body) pairs."""
    chunks = out.split("--- t=")[1:]
    return [tuple(chunk.split(" ---\n", 1)) for chunk in chunks]


def test_watching_health_prints_the_parents_frames(capsys):
    assert run(capsys, "health --watch 7") == (0, PARENT["health --watch 7"], "")


def test_a_watched_run_is_the_run_it_reports_on(capsys):
    __, unwatched, __ = run(capsys, "metrics")
    code, out, __ = run(capsys, "metrics --watch 7")
    watched = frames(out)
    assert code == 0
    assert [header for header, __ in watched] == [f"{7.0 * i:.1f}s" for i in range(1, 9)] + [
        "60.0s (final)"
    ]
    # Slicing the run added no event: the last frame is the unwatched export.
    assert watched[-1][1] == unwatched

    def events(body):
        (line,) = [ln for ln in body.splitlines() if ln.startswith("sim_events_processed ")]
        return int(line.split()[1])

    counts = [events(body) for __, body in watched]
    assert counts == sorted(counts) and 0 < counts[0] < counts[-1]
