"""The names that ``bench/spans.py`` traces stay defined in the library.

``Tracer.targets`` looks each traced name up with ``getattr``, so a name
deleted from the library would crash every traced benchmark run.  The
module is loaded from its file, read-only, and nothing is installed.
"""

import importlib.util
from pathlib import Path

import pytest

import adamskit
import adamskit.cli  # noqa: F401  (imports every submodule, as the benchmark does)


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = _spans()


def _piece_kinds() -> set[str]:
    kinds, classes = set(), [adamskit.profiles.Piece]
    while classes:
        cls = classes.pop()
        kinds.add(cls.kind)
        classes.extend(cls.__subclasses__())
    return kinds


@pytest.mark.parametrize(
    "module, name",
    list(SPANS.TRACED) + [("constants", name) for name in SPANS.CONSTANTS],
    ids=lambda v: v,
)
def test_traced_name_is_callable(module, name):
    assert callable(getattr(getattr(adamskit, module), name))


@pytest.mark.parametrize("kind", sorted(SPANS.TAIL_KEYS))
def test_tail_key_is_a_piece_kind(kind):
    assert kind in _piece_kinds()
