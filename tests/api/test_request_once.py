"""A compile request is resolved once and carried whole.

``Session.resolve`` returns a :class:`Request` (source, backend, validated
options, cache key); ``Session.lower`` lowers one as it is, a
:class:`CompileService` request hands the one it resolved to the session, and
the compiled handle holds it.  The shared :class:`CompiledArtifact` is only
what was compiled, so handles with other runtime options share it without
seeing each other's options.
"""

import dataclasses

import pytest

from repro.api import CompiledArtifact, OptionError, Request, Session
from repro.apps import gauss_seidel
from repro.serve import CompileService

SOURCE = gauss_seidel.generate_source(6)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``Session.resolve`` and ``Session.lower`` calls."""
    counts = {"resolve": 0, "lower": 0}
    for name in counts:
        real = getattr(Session, name)

        def spy(self, *args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Session, name, spy)
    return counts


@pytest.mark.parametrize("request_kind", ["run", "submit_compile"])
def test_a_service_request_resolves_once(calls, request_kind):
    with CompileService(workers=1) as service:
        for _ in range(2):  # cold, then a memory hit
            before = dict(calls)
            if request_kind == "run":
                service.run(SOURCE, "gauss_seidel",
                            [gauss_seidel.initial_condition(6)])
            else:
                service.submit_compile(SOURCE).result()
            assert calls["resolve"] - before["resolve"] == 1
            assert calls["lower"] - before["lower"] == 1
        metrics = service.metrics()
    assert (metrics.misses, metrics.memory_hits) == (1, 1)


def test_a_resolved_request_is_lowered_as_it_is(calls):
    session = Session()
    request = session.resolve(SOURCE, "cpu", lower_to_scf=True, threads=2)
    assert isinstance(request, Request)
    assert request.backend.name == "cpu" and request.options.threads == 2
    compiled = session.lower(request)
    assert calls["resolve"] == 1
    assert compiled.source is request.source
    assert compiled.backend is request.backend
    assert compiled.options is request.options
    with pytest.raises(OptionError, match="carries its own options"):
        session.lower(request, threads=4)


def test_handles_with_other_runtime_options_share_one_bare_artifact():
    session = Session()
    first = session.lower(SOURCE, "cpu", execution_mode="vectorize",
                          threads=3)
    second = first.with_options(execution_mode="interpret", threads=1)
    assert second.artifact is first.artifact
    assert session.cache_stats["misses"] == 1
    assert (first.options.execution_mode, first.options.threads) == (
        "vectorize", 3)
    assert (second.options.execution_mode, second.options.threads) == (
        "interpret", 1)
    assert [f.name for f in dataclasses.fields(CompiledArtifact)] == [
        "fir_module", "stencil_module", "discovered_stencils",
        "extracted_functions", "pass_statistics"]
    for name in ("source", "backend", "options"):
        assert not hasattr(first.artifact, name)

