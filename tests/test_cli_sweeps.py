"""The ``run-*`` sweep subcommands: parsed defaults, printed tables, exports, bad values.

Each sweep is defined by its ``run_*_sweep`` function; the CLI only parses flags
into that function's keyword arguments.  These tests pin what a user sees: the
parsed namespace of every bare command, the title and comparison table each
command prints, an ``--out`` JSON equal to calling the function directly, and an
exit status of 2 naming any unknown comma-list item.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments as E
from repro.analysis.export import export_json
from repro.cli import _build_parser, main
from repro.engine.autoscale import AUTOSCALER_KINDS

_MECHANICS = {"workers": None, "parallel": False, "out": None, "save_artifact": None}

#: The parsed namespace of each bare command, written out literally.
PARSED_DEFAULTS: dict[str, dict] = {
    "run-load": {
        "command": "run-load",
        "rounds": 12,
        "requests": 120,
        "seed": 7,
        "model": "efficientnet_v2_small",
        "processes": "poisson,bursty,diurnal",
        "utilizations": "0.5,1.0,2.0",
        **_MECHANICS,
    },
    "run-shard-sweep": {
        "command": "run-shard-sweep",
        "rounds": 12,
        "requests": 120,
        "seed": 7,
        "model": "efficientnet_v2_small",
        "process": "bursty",
        "shards": "1,2,4",
        "utilizations": "0.5,1.0,2.0",
        "max_queue_depth": 8,
        "shed_policy": "drop",
        "router": "consistent-hash",
        "replication_factor": 1,
        "replication_policy": "none",
        **_MECHANICS,
    },
    "run-autoscale": {
        "command": "run-autoscale",
        "rounds": 12,
        "requests": 160,
        "seed": 7,
        "model": "efficientnet_v2_small",
        "process": "diurnal",
        "policies": "none,reactive,predictive,slo",
        "utilizations": "2.5",
        "max_queue_depth": 6,
        "shed_policy": "drop",
        "start_shards": 1,
        "control_interval": 5.0,
        **_MECHANICS,
    },
    "run-faults": {
        "command": "run-faults",
        "rounds": 8,
        "requests": 96,
        "seed": 7,
        "model": "efficientnet_v2_small",
        "kinds": "shard-crash,reclamation-storm,slow-shard,network-spike",
        "utilization": 0.7,
        "start_shards": 3,
        "max_queue_depth": 8,
        "shed_policy": "drop",
        "control_interval": 5.0,
        "shadow_requests": 36,
        **_MECHANICS,
    },
    "run-tenants": {
        "command": "run-tenants",
        "rounds": 8,
        "seed": 7,
        "disciplines": "fifo,wfq,drr",
        "steady_weights": "1.0,2.0,4.0",
        "bursty_utilization": 1.0,
        "tenant_requests": None,
        **_MECHANICS,
    },
}

#: command -> (tiny argv, sweep function, the keyword arguments that argv means,
#: printed title, comparison-table title or None).  ``run-autoscale`` runs every
#: policy by default, so its direct call names all of ``AUTOSCALER_KINDS``.
TINY_RUNS: dict[str, tuple] = {
    "run-load": (
        "--rounds 4 --requests 12 --processes poisson,bursty --utilizations 0.5,2.0".split(),
        E.run_load_sweep,
        {
            "processes": ("poisson", "bursty"),
            "utilizations": (0.5, 2.0),
            "num_rounds": 4,
            "num_requests": 12,
        },
        "Open-loop load sweep (engine)",
        None,
    ),
    "run-shard-sweep": (
        "--rounds 4 --requests 12 --shards 1,2 --utilizations 2.0 --max-queue-depth 3".split(),
        E.run_shard_sweep,
        {
            "shard_counts": (1, 2),
            "utilizations": (2.0,),
            "num_rounds": 4,
            "num_requests": 12,
            "max_queue_depth": 3,
        },
        "Shard sweep (routed serving tier)",
        None,
    ),
    "run-autoscale": (
        "--rounds 4 --requests 24 --utilizations 2.5".split(),
        E.run_autoscale_sweep,
        {
            "policies": AUTOSCALER_KINDS,
            "utilizations": (2.5,),
            "num_rounds": 4,
            "num_requests": 24,
        },
        "Autoscale sweep (resizable serving tier)",
        "Predictive vs reactive (same offered load)",
    ),
    "run-faults": (
        "--rounds 4 --requests 36 --kinds shard-crash".split(),
        E.run_fault_recovery_sweep,
        {"kinds": ("shard-crash",), "num_rounds": 4, "num_requests": 36},
        "Fault-recovery sweep (fault kind x remediation controller)",
        "Controller on vs off (same fault, same capacity)",
    ),
    "run-tenants": (
        "--rounds 3 --tenant-requests 12 --disciplines fifo,wfq --steady-weights 2.0".split(),
        E.run_tenant_sweep,
        {
            "disciplines": ("fifo", "wfq"),
            "steady_weights": (2.0,),
            "bursty_utilization": 1.0,
            "num_rounds": 3,
            "num_requests": 12,
        },
        "Tenant sweep (queue discipline x steady weight, noisy-neighbor)",
        "Weighted fairness vs FIFO (steady tenant)",
    ),
}


def _exit_code(argv: list[str]) -> int:
    """Run the CLI, counting an argparse-style ``SystemExit`` as a return."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_bare_command_parses_to_the_documented_defaults(command):
    assert vars(_build_parser().parse_args([command])) == PARSED_DEFAULTS[command]


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_tiny_run_prints_and_exports_the_sweep_function_result(command, tmp_path, capsys):
    argv, sweep_fn, kwargs, title, comparison_title = TINY_RUNS[command]
    out = tmp_path / "cli.json"
    assert main([command, *argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert title in printed
    if comparison_title is not None:
        assert comparison_title in printed
    direct = export_json(sweep_fn(**kwargs), tmp_path / "direct.json")
    assert out.read_text() == direct.read_text()


@pytest.mark.parametrize(
    "argv, item",
    [
        (["run-autoscale", "--policies", "none,bogus-policy"], "bogus-policy"),
        (["run-faults", "--kinds", "shard-crash,meteor-strike"], "meteor-strike"),
        (["run-tenants", "--disciplines", "fifo,lottery"], "lottery"),
    ],
)
def test_unknown_comma_list_item_exits_2_and_names_it(argv, item, capsys):
    assert _exit_code(argv) == 2
    assert item in capsys.readouterr().err
