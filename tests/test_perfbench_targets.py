"""The benchmark's layer tracer finds every entry point it patches.

``perfbench/spans.py`` wraps named attributes of the package's modules for
a traced run; a renamed or deleted entry point would only surface there as a
``KeyError`` at run time.  This checks the list against the package.
"""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_layer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._layer_targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing, missing
