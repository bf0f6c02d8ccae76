"""Start-up contract, checked in fresh processes: ``import trilie`` loads no
submodule, parsing and configuring a command loads only the modules that
need (no check module), a check loads only its own modules, and every
check and table gives the same stdout and exit status from
``python -m trilie.cli`` as from ``run_command`` in process, so no handler
depends on an import another handler made."""

import json
import os
import subprocess
import sys

import pytest

from trilie.cli import CHECKS, TABLES, run_command

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CHECK_MODULES = {"trilie.analysis", "trilie.nambu", "trilie.operators", "trilie.relations"}


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _loaded_after(code):
    """The trilie modules loaded after running code in a fresh interpreter."""
    probe = code + "\nimport sys, json\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('trilie'))))"
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded_after(
        "import trilie\nassert set(trilie.__all__) <= set(dir(trilie)), 'dir misses a public name'"
    )
    assert loaded == {"trilie"}


def test_a_public_name_loads_only_its_module():
    assert _loaded_after("from trilie import Window") == {"trilie", "trilie.report"}


def test_configuring_a_command_loads_no_check_module():
    loaded = _loaded_after(
        "import trilie.cli as cli\n"
        "cli.make_config(cli.build_parser().parse_args(['verify', 'fundamental-identity']))"
    )
    assert loaded == {
        "trilie",
        "trilie.brackets",
        "trilie.cli",
        "trilie.elements",
        "trilie.linalg",
        "trilie.parsing",
        "trilie.polys",
        "trilie.report",
    }


def test_an_operator_check_loads_neither_analysis_nor_nambu():
    loaded = _loaded_after(
        "from trilie.cli import run_command\nassert run_command(['verify', 'table-5-1', '--window=-2..2'])[0] == 0"
    )
    assert loaded & CHECK_MODULES == {"trilie.operators", "trilie.relations"}


COMMANDS = [["verify", name] for name in sorted(CHECKS)] + [["table", name] for name in TABLES]


@pytest.mark.parametrize("command", COMMANDS, ids="-".join)
def test_a_fresh_process_prints_what_the_check_prints_in_process(command):
    argv = [*command, "--window=-2..2", "--samples", "3"]
    status, out = run_command(argv)
    proc = _python("-m", "trilie.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, "")
