"""The benchmark's tracer and microbenchmarks still find every name they use.

``perfbench/tracing.py`` wraps projfeas's layer boundaries by looking them
up with ``getattr`` (``<Variant>.project``, ``AlternatingProjections.step``,
``sets.complement_basis``, ...), and ``perfbench/micro.py`` calls
``<Variant>.project(x).distance`` and ``op.apply(x).selected``.  A refactor
that moves one of those names would otherwise show only in a traced
benchmark run.
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


def test_microbenchmarks_run_and_pass_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import micro

    monkeypatch.setattr(micro, "POINTS", 4)
    monkeypatch.setattr(micro, "ROWS", 8)
    _, ops = micro.run(projfeas, 7)
    assert ops and [op for op in ops if not op.ok] == []
