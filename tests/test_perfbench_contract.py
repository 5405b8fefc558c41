"""The benchmark harness in ``perfbench/`` reaches into the library by name.

``perfbench/spans.py`` wraps each of its ``TARGETS`` and reads two private
names of ``polysplit.arrangements`` to classify table sources.  A rename in
the library would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for modname, attr, _name in spans.TARGETS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (modname, attr)


def test_table_source_names_resolve():
    from polysplit import arrangements

    spans = _load_spans()
    assert isinstance(arrangements._memory_tables, dict)
    assert callable(arrangements._cache_path)
    assert spans._table_source((2, "a"), {}) in ("memory", "disk", "computed")
    assert spans._table_source((2, "a", False), {}) in ("memory", "computed")
