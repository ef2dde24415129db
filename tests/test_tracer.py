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

    net = pipeline.build_cnn_lstm(pipeline.ModelConfig(), 22, 7)
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
