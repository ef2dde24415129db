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


def test_every_inference_layer_is_traced():
    """One predict_proba under the tracer records the forward_logits span and
    an inference span for every kind of layer in the network: a fused forward
    beside Layer.forward would leave the per-layer inference metrics at 0."""
    import numpy as np
    from flowsentry import pipeline

    net = pipeline.CnnLstmModel(pipeline.ModelConfig(), 22, 7)
    kinds = {tracer._LAYER_KINDS[type(layer).__name__] for _, layer in net.layers}
    t = tracer.Tracer()
    try:
        t.install_program()
        net.predict_proba(np.zeros((3, 22)))
    finally:
        t.uninstall()
    recorded = {t.names[i] for i in t.name_id}
    assert "pipeline.forward" in recorded
    assert {f"nncore.{kind}.fwd_infer" for kind in kinds} <= recorded
    assert kinds == set(tracer._LAYER_KINDS.values())


def test_every_tracer_only_import_is_a_traced_site():
    """An import that `src/flowsentry` keeps only for the tracer names an
    attribute the tracer patches on that same module, so the import goes
    when its site does."""
    t = tracer.Tracer()
    try:
        t.install_program()
        patched = {(owner.__name__, attr) for owner, attr, _ in t._undo}
    finally:
        t.uninstall()
    marked = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "flowsentry").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if "perfbench/tracer.py wraps it here" in line:
                names = line.split(" import ", 1)[1].split("#", 1)[0]
                marked += [(f"flowsentry.{path.stem}", n.strip()) for n in names.split(",")]
    assert all(name.isidentifier() for _, name in marked), marked
    assert [m for m in marked if m not in patched] == []
