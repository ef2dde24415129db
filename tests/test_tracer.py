"""The benchmark tracer's lookup sites exist in the package.

perfbench/tracer.py wraps functions at the names their callers look them up
by, so a renamed or deleted name breaks the traced benchmark run.  Installing
and removing the patches, without running a workload, finds that in seconds.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_site_resolves_and_is_restored():
    t = tracer.Tracer()
    try:
        t.install_program()
        patched = list(t._undo)
    finally:
        t.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
