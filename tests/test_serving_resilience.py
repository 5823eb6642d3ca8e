"""Tests of serving-side resilience: the per-model circuit breaker and the
client's retry handling of shed/unavailable responses.

No sockets anywhere — everything runs through the transport-agnostic
:class:`RequestCore`, with failures injected via the ``REPRO_FAULTS``
harness (:mod:`repro.faults`).
"""

import time

import pytest

from repro.faults import FaultPlan, clear_plan, install_plan
from repro.generators import generate_rmat
from repro.ease import EASE, GraphProfiler
from repro.serving import (
    CircuitBreaker,
    ModelRouter,
    RequestCore,
    SelectionClient,
    SelectionService,
)
from repro.serving.client import SelectionServiceError

PARTITIONERS = ("2d", "dbh")


@pytest.fixture(autouse=True)
def disarm():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(scope="module")
def trained_system():
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(3)]
    return EASE(partitioner_names=PARTITIONERS).train(
        profiler.profile(graphs, graphs))


def _graph_payload(seed):
    graph = generate_rmat(128, 900, seed=seed)
    return {"graph": {"src": graph.src.tolist(),
                      "dst": graph.dst.tolist(),
                      "num_vertices": graph.num_vertices},
            "algorithm": "pagerank", "num_partitions": 2,
            "goal": "end_to_end"}


# --------------------------------------------------------------------------- #
# CircuitBreaker unit behaviour
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_at_the_failure_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=60.0)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() == (True, None)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        allowed, retry_after = breaker.allow()
        assert not allowed
        assert isinstance(retry_after, int) and retry_after >= 1

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.05)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        time.sleep(0.06)
        assert breaker.allow() == (True, None)  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()[0]
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()[0]

    def test_as_dict_reports_the_retry_window_when_open(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0)
        snapshot = breaker.as_dict()
        assert snapshot["state"] == "closed"
        assert "retry_after_seconds" not in snapshot
        breaker.record_failure()
        snapshot = breaker.as_dict()
        assert snapshot["state"] == "open"
        assert 0.0 < snapshot["retry_after_seconds"] <= 60.0
        assert snapshot["failure_threshold"] == 1

    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0},
        {"reset_seconds": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


# --------------------------------------------------------------------------- #
# Breaker wired through the request core
# --------------------------------------------------------------------------- #
class TestBreakerIntegration:
    def _core(self, trained_system, **kwargs):
        service = SelectionService(trained_system, **kwargs)
        return service, RequestCore(ModelRouter({"default": service}))

    def test_repeated_internal_errors_open_the_breaker(self, trained_system):
        service, core = self._core(trained_system, breaker_threshold=3,
                                   breaker_reset_seconds=60.0)
        install_plan(FaultPlan.parse("serving.resolve_properties:error:*"))
        try:
            statuses = []
            for seed in range(6):
                response = core.handle("POST", "/v1/select",
                                       body=_graph_payload(seed=50 + seed))
                statuses.append(response.status)
            assert statuses == [500, 500, 500, 503, 503, 503]
            tripped = core.handle("POST", "/v1/select",
                                  body=_graph_payload(seed=60))
            assert dict(tripped.headers)["Retry-After"].isdigit()
            assert tripped.payload["breaker"]["state"] == "open"
            assert tripped.payload["retry_after"] >= 1
            assert "circuit breaker is open" in tripped.payload["error"]
        finally:
            service.stop()

    def test_breaker_recovers_after_the_reset_window(self, trained_system):
        service, core = self._core(trained_system, breaker_threshold=1,
                                   breaker_reset_seconds=0.05)
        install_plan(FaultPlan.parse("serving.resolve_properties:error:1"))
        try:
            assert core.handle("POST", "/v1/select",
                               body=_graph_payload(seed=70)).status == 500
            assert service.breaker.state == CircuitBreaker.OPEN
            assert core.handle("POST", "/v1/select",
                               body=_graph_payload(seed=71)).status == 503
            time.sleep(0.06)
            # The half-open probe succeeds (the one-shot fault already
            # fired) and closes the breaker.
            response = core.handle("POST", "/v1/select",
                                   body=_graph_payload(seed=72))
            assert response.status == 200
            assert service.breaker.state == CircuitBreaker.CLOSED
        finally:
            service.stop()

    def test_bad_requests_do_not_trip_the_breaker(self, trained_system):
        service, core = self._core(trained_system, breaker_threshold=1)
        try:
            response = core.handle("POST", "/v1/select",
                                   body={"algorithm": "pagerank"})
            assert response.status == 400
            assert service.breaker.state == CircuitBreaker.CLOSED
        finally:
            service.stop()

    def test_metrics_expose_breaker_state_and_transitions(
            self, trained_system):
        service, core = self._core(trained_system, breaker_threshold=1,
                                   breaker_reset_seconds=60.0)
        install_plan(FaultPlan.parse("serving.resolve_properties:error:1"))
        try:
            core.handle("POST", "/v1/select", body=_graph_payload(seed=80))
            text = core.handle("GET", "/metrics").text
            assert "serving_breaker_open" in text
            assert 'serving_breaker_transitions_total{' in text
            assert f'service="{service.breaker.instance}",state="open"' \
                in text
            assert "serving_degraded_total" not in text
        finally:
            service.stop()


# --------------------------------------------------------------------------- #
# Client retry edge cases (no sockets: _request_once is stubbed)
# --------------------------------------------------------------------------- #
class TestClientRetryEdgeCases:
    def _scripted_client(self, responses, retries):
        """A client whose transport replays ``responses`` (exceptions are
        raised, everything else returned)."""
        client = SelectionClient("http://unused", retries=retries)
        calls = []
        sleeps = []

        def fake_request_once(path, payload):
            calls.append(path)
            outcome = responses[min(len(calls) - 1, len(responses) - 1)]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = fake_request_once
        client._sleep = sleeps.append
        return client, calls, sleeps

    @staticmethod
    def _error(status, retry_after=None):
        error = SelectionServiceError(status, f"status {status}")
        error.retry_after = retry_after
        return error

    def test_503_with_retry_after_is_retried_with_jitter(self):
        client, calls, sleeps = self._scripted_client(
            [self._error(503, "2"), self._error(503, "2"), {"ok": True}],
            retries=3)
        assert client.health() == {"ok": True}
        assert len(calls) == 3
        # jittered within [hint/2, hint]
        assert all(1.0 <= s <= 2.0 for s in sleeps)

    def test_429_without_retry_after_backs_off_exponentially(self):
        client, calls, sleeps = self._scripted_client(
            [self._error(429), self._error(429), {"ok": True}], retries=2)
        assert client.health() == {"ok": True}
        assert len(sleeps) == 2
        # attempt 0: base 0.1s, attempt 1: base 0.2s, both jittered to
        # [base/2, base]
        assert 0.05 <= sleeps[0] <= 0.1
        assert 0.1 <= sleeps[1] <= 0.2

    def test_malformed_retry_after_falls_back_to_backoff(self):
        client, calls, sleeps = self._scripted_client(
            [self._error(503, "soon"), {"ok": True}], retries=1)
        assert client.health() == {"ok": True}
        assert 0.05 <= sleeps[0] <= 0.1

    def test_retries_exhausted_surfaces_the_last_error(self):
        client, calls, sleeps = self._scripted_client(
            [self._error(503, "1")], retries=2)
        with pytest.raises(SelectionServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 503
        assert len(calls) == 3  # initial + 2 retries
        assert len(sleeps) == 2

    def test_non_retryable_statuses_surface_immediately(self):
        client, calls, sleeps = self._scripted_client(
            [self._error(400), {"ok": True}], retries=5)
        with pytest.raises(SelectionServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 400
        assert calls == ["/healthz"]
        assert sleeps == []

    def test_retry_wait_is_capped(self):
        client = SelectionClient("http://unused", retries=1,
                                 max_retry_wait=0.5)
        wait = client._retry_wait(self._error(503, "3600"), 0, "3600")
        assert wait == 0.5
