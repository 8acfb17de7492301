"""The benchmark's tracer still finds every name it rebinds.

``perfbench/tracing.py`` wraps projfeas's layer boundaries by looking them
up with ``getattr`` (``<Variant>.project``, ``AlternatingProjections.step``,
``sets.complement_basis``, ...).  A refactor that moves one of those names
would otherwise show only in a traced benchmark run.
"""

from pathlib import Path

import projfeas

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_rebinds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rebound = []

    class RecordingTracer(tracing.Tracer):
        def _rebind(self, owner, attr, make):
            rebound.append((owner, attr, _current(owner, attr)))
            super()._rebind(owner, attr, make)

    with RecordingTracer(projfeas):
        assert rebound
        assert all(_current(owner, attr) is not original for owner, attr, original in rebound)
    assert [(owner, attr) for owner, attr, original in rebound if _current(owner, attr) is not original] == []
