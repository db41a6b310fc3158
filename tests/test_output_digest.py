"""``tests/output_digest.py`` covers every pinned CLI invocation."""

import importlib.util
import json
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _digest():
    spec = importlib.util.spec_from_file_location("_output_digest", TESTS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_covers_every_cli_golden():
    golden = json.loads((TESTS / "data" / "cli_golden.json").read_text())
    assert set(golden) <= set(_digest().INVOCATIONS)

