"""What scripts/artifact_digest.py runs."""

import importlib.util
import sys
from pathlib import Path

from sagrs import harness

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digest.py"


def test_run_commands_cover_every_system(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the checkout's src/ first
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    commands = dict(module.COMMANDS)
    for system in harness.SYSTEMS:
        argv = commands[f"run-{system}"]
        assert argv[argv.index("--system") + 1] == system
