"""Tests for the layered serving stack: the transport-agnostic RequestCore,
ModelRouter (multi-model routing + registry tag watcher), admission control
(429 + Retry-After shedding), client retries, the prefork frontend, and the
serving package's no-dependency import lint."""

import ast
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.generators import generate_rmat
from repro.graph import GraphStore, compute_properties
from repro.ease import EASE, GraphProfiler
from repro.ease.persistence import save_ease
from repro.serving import (
    AdmissionGate,
    GraphResolver,
    ModelRegistry,
    ModelRouter,
    PreforkFrontend,
    RequestCore,
    SelectionClient,
    SelectionHTTPServer,
    SelectionService,
    parse_model_spec,
)
from repro.serving.client import SelectionServiceError

PARTITIONERS = ("2d", "dbh", "ne")


@pytest.fixture(scope="module")
def small_profile():
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(3)]
    return profiler.profile(graphs, graphs)


@pytest.fixture(scope="module")
def trained_system(small_profile):
    return EASE(partitioner_names=PARTITIONERS).train(small_profile)


@pytest.fixture(scope="module")
def alt_system(small_profile):
    # A distinct trained system (different feature set -> different bundle
    # bytes -> different registry version) for promote/rollout tests.
    return EASE(partitioner_names=PARTITIONERS,
                feature_set="simple").train(small_profile)


@pytest.fixture(scope="module")
def query_graph():
    return generate_rmat(128, 900, seed=33)


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(str(tmp_path / "registry"))


def _select_payload(graph, **overrides):
    payload = {"properties": compute_properties(
        graph, exact_triangles=False).as_dict(),
        "algorithm": "pagerank", "num_partitions": 2, "goal": "end_to_end"}
    payload.update(overrides)
    return payload


# --------------------------------------------------------------------------- #
# RequestCore: the full endpoint surface with no socket anywhere
# --------------------------------------------------------------------------- #
class TestRequestCore:
    @pytest.fixture()
    def core(self, registry, trained_system):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        service = SelectionService.from_registry(registry, "ease")
        return RequestCore(ModelRouter({"default": service}),
                           registry=registry)

    def test_healthz(self, core):
        response = core.handle("GET", "/healthz")
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["model"]["name"] == "ease"
        assert response.payload["admission"]["in_flight"] == 0
        assert response.payload["queue_depth"] == 0
        assert "default" in response.payload["models"]
        json.loads(response.body())  # payload is JSON-serializable

    def test_healthz_ignores_unknown_query(self, core):
        # the do_GET exact-match regression: a query string must not 404
        assert core.handle("GET", "/healthz", query="probe=1").status == 200

    def test_healthz_unknown_model_query_is_400(self, core):
        response = core.handle("GET", "/healthz", query="model=nope")
        assert response.status == 400
        assert "nope" in response.payload["error"]

    def test_models(self, core):
        response = core.handle("GET", "/v1/models")
        assert response.status == 200
        assert response.payload["loaded"]["name"] == "ease"
        assert response.payload["default_model"] == "default"
        assert response.payload["routes"]["default"]["name"] == "ease"
        assert len(response.payload["models"]) == 1

    def test_select_with_dict_body(self, core, query_graph):
        response = core.handle("POST", "/v1/select",
                               body=_select_payload(query_graph))
        assert response.status == 200
        assert response.payload["selected"] in PARTITIONERS
        assert response.payload["model"] == "default"

    def test_select_with_bytes_body(self, core, query_graph):
        body = json.dumps(_select_payload(query_graph)).encode("utf-8")
        response = core.handle("POST", "/v1/select", body=body)
        assert response.status == 200
        assert response.payload["selected"] in PARTITIONERS

    def test_predict(self, core, query_graph):
        """The per-candidate predictions are the scores of a select answer;
        there is no second endpoint for them."""
        response = core.handle("POST", "/v1/select",
                               body=_select_payload(query_graph))
        assert response.status == 200
        assert [s["partitioner"] for s in response.payload["scores"]] == \
            list(PARTITIONERS)
        for score in response.payload["scores"]:
            assert set(score["predicted_quality"]) == {
                "replication_factor", "edge_balance", "vertex_balance",
                "source_balance", "destination_balance"}
        gone = core.handle("POST", "/v1/predict",
                           body=_select_payload(query_graph))
        assert gone.status == 404

    def test_malformed_bodies_are_400(self, core):
        for body in (None, b"{not json", [1, 2], {"algorithm": "pagerank"}):
            response = core.handle("POST", "/v1/select", body=body)
            assert response.status == 400, body
            assert "error" in response.payload

    def test_unknown_paths_are_404(self, core):
        assert core.handle("GET", "/nope").status == 404
        assert core.handle("POST", "/v1/nope", body={}).status == 404

    def test_unknown_method_is_405(self, core):
        assert core.handle("DELETE", "/v1/select").status == 405

    def test_unknown_model_names_available_tags(self, core, query_graph):
        response = core.handle(
            "POST", "/v1/select",
            body=_select_payload(query_graph, model="canary"))
        assert response.status == 400
        assert "canary" in response.payload["error"]
        assert "default" in response.payload["error"]


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmissionGate:
    def test_unlimited_gate_counts_in_flight(self):
        gate = AdmissionGate(None)
        assert all(gate.try_acquire() for _ in range(100))
        assert gate.in_flight == 100
        assert gate.shed_total == 0
        for _ in range(100):
            gate.release()
        assert gate.in_flight == 0

    def test_bounded_gate_sheds_overflow(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        assert gate.as_dict() == {"limit": 2, "in_flight": 2,
                                  "admitted_total": 2, "shed_total": 1}
        gate.release()
        assert gate.try_acquire()

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionGate().release()

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)
        with pytest.raises(ValueError):
            AdmissionGate(1, retry_after_seconds=0)

    def test_one_slot_gate_is_deterministic_through_core(
            self, registry, trained_system, query_graph):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        service = SelectionService.from_registry(registry, "ease",
                                                 max_inflight=1)
        core = RequestCore(ModelRouter({"default": service}))
        body = _select_payload(query_graph)
        # Occupy the single slot: every request is now deterministically shed.
        assert service.admission.try_acquire()
        try:
            for _ in range(3):
                response = core.handle("POST", "/v1/select", body=body)
                assert response.status == 429
                assert dict(response.headers)["Retry-After"] == "1"
                assert response.payload["retry_after"] == 1
                assert response.payload["model"] == "default"
            health = core.handle("GET", "/healthz").payload
            assert health["admission"]["shed_total"] == 3
            assert health["admission"]["in_flight"] == 1
        finally:
            service.admission.release()
        # Slot free again: the same request is admitted and answered.
        response = core.handle("POST", "/v1/select", body=body)
        assert response.status == 200
        assert service.admission.in_flight == 0


# --------------------------------------------------------------------------- #
# ModelRouter: specs, routing, shared resolver, tag watcher
# --------------------------------------------------------------------------- #
class TestModelSpecs:
    def test_parse_model_spec(self):
        assert parse_model_spec("prod=ease@production") == \
            ("prod", "ease@production")
        assert parse_model_spec("canary=bundle.pkl") == \
            ("canary", "bundle.pkl")

    @pytest.mark.parametrize("spec", ["", "noequals", "=x", "tag="])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError, match="TAG="):
            parse_model_spec(spec)


class TestModelRouter:
    def _two_tag_registry(self, registry, trained_system, alt_system):
        prod = registry.publish(trained_system, "ease")
        canary = registry.publish(alt_system, "ease")
        assert prod.version != canary.version
        registry.promote("ease", prod.version, tag="production")
        registry.promote("ease", canary.version, tag="canary")
        return prod, canary

    def test_from_specs_routes_by_field_and_header(
            self, registry, trained_system, alt_system, query_graph):
        prod, canary = self._two_tag_registry(registry, trained_system,
                                              alt_system)
        router = ModelRouter.from_specs(
            [("prod", "ease@production"), ("canary", "ease@canary")],
            registry=registry)
        assert router.tags() == ["canary", "prod"]
        assert router.default_tag == "prod"
        assert router.route().model_info["version"] == prod.version
        assert router.route("canary").model_info["version"] == canary.version
        with pytest.raises(KeyError, match="available"):
            router.route("nope")

        core = RequestCore(router, registry=registry)
        body = _select_payload(query_graph)
        assert core.handle("POST", "/v1/select",
                           body=body).payload["model"] == "prod"
        assert core.handle(
            "POST", "/v1/select",
            body=dict(body, model="canary")).payload["model"] == "canary"
        # header routing, case-insensitively
        assert core.handle(
            "POST", "/v1/select", headers={"x-repro-model": "canary"},
            body=body).payload["model"] == "canary"
        # the body field wins over the header
        assert core.handle(
            "POST", "/v1/select", headers={"X-Repro-Model": "canary"},
            body=dict(body, model="prod")).payload["model"] == "prod"

    def test_services_share_one_graph_resolver(
            self, tmp_path, registry, trained_system, alt_system,
            query_graph):
        self._two_tag_registry(registry, trained_system, alt_system)
        store = GraphStore(str(tmp_path / "store"))
        fingerprint = store.save(query_graph)
        router = ModelRouter.from_specs(
            [("prod", "ease@production"), ("canary", "ease@canary")],
            registry=registry, graph_store=str(tmp_path / "store"))
        resolvers = {id(s.graph_resolver)
                     for s in router.services.values()}
        assert len(resolvers) == 1
        core = RequestCore(router)
        for tag in ("prod", "canary"):
            response = core.handle(
                "POST", "/v1/select",
                body={"graph_fingerprint": fingerprint,
                      "algorithm": "pagerank", "num_partitions": 2,
                      "goal": "end_to_end", "model": tag})
            assert response.status == 200
        # both tags resolved through the same LRU entry
        assert len(router.default_service.graph_resolver) == 1

    def test_duplicate_tags_rejected(self, registry, trained_system):
        registry.publish(trained_system, "ease")
        with pytest.raises(ValueError, match="duplicate"):
            ModelRouter.from_specs([("m", "ease"), ("m", "ease")],
                                   registry=registry)

    def test_default_tag_validated(self, registry, trained_system):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        service = SelectionService.from_registry(registry, "ease")
        with pytest.raises(ValueError, match="default tag"):
            ModelRouter({"prod": service}, default="nope")

    def test_check_tags_follows_promote(self, registry, trained_system,
                                        alt_system):
        prod, canary = self._two_tag_registry(registry, trained_system,
                                              alt_system)
        router = ModelRouter.from_specs([("prod", "ease@production")],
                                        registry=registry)
        assert router.check_tags() == 0  # tag unchanged -> no reload
        registry.promote("ease", canary.version, tag="production")
        assert router.check_tags() == 1
        assert router.route("prod").model_info["version"] == canary.version
        assert router.watch_reloads == 1

    def test_check_tags_survives_corrupt_registry(self, registry,
                                                  trained_system):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        router = ModelRouter.from_specs([("prod", "ease@production")],
                                        registry=registry)
        tags_path = os.path.join(registry.root, "tags", "ease.json")
        with open(tags_path, "w", encoding="utf-8") as handle:
            handle.write("{broken json")
        assert router.check_tags() == 0  # swallowed, not raised
        assert router.watch_checks == 1

    def test_watcher_rolls_out_under_concurrent_traffic(
            self, registry, trained_system, alt_system, query_graph):
        prod, canary = self._two_tag_registry(registry, trained_system,
                                              alt_system)
        router = ModelRouter.from_specs(
            [("prod", "ease@production")], registry=registry,
            watch_interval=0.01,
            batch_wait_seconds=0.001)
        core = RequestCore(router)
        body = _select_payload(query_graph)
        failures = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                response = core.handle("POST", "/v1/select", body=body)
                if response.status != 200:
                    failures.append(response.payload)

        with router:
            assert router.health()["tag_watcher"]["running"] is True
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                registry.promote("ease", canary.version, tag="production")
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if router.route("prod").model_info["version"] == \
                            canary.version:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("promote never rolled out")
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        assert not failures
        assert router.watch_reloads >= 1
        assert router.health()["tag_watcher"]["running"] is False

    def test_start_stop_idempotent(self, registry, trained_system):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        service = SelectionService.from_registry(registry, "ease")
        router = ModelRouter({"default": service}, watch_interval=0.01)
        router.start()
        router.start()
        assert service.running
        worker = service._worker
        router.start()
        assert service._worker is worker  # no second batcher thread
        router.stop()
        router.stop()
        assert not service.running
        # restartable after stop
        router.start()
        assert service.running
        router.stop()


# --------------------------------------------------------------------------- #
# Live-socket tests: healthz query, keep-alive hygiene, 503 guard, retries
# --------------------------------------------------------------------------- #
@pytest.fixture()
def live_server(registry, trained_system):
    entry = registry.publish(trained_system, "ease")
    registry.promote("ease", entry.version)
    service = SelectionService.from_registry(registry, "ease",
                                             batch_wait_seconds=0.001,
                                             max_inflight=4)
    server = SelectionHTTPServer(service, registry=registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    with server:
        thread.start()
        yield server
        server.shutdown()
    thread.join(timeout=5)


def _raw_exchange(server, request_bytes):
    """Send raw bytes on one connection and read every response the server
    writes before it closes the connection: ``[(status, headers, body)]``."""
    replies = []
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        stream = sock.makefile("rb")
        while True:
            status_line = stream.readline()
            if not status_line:
                return replies
            headers = {}
            for line in iter(stream.readline, b"\r\n"):
                if not line:
                    raise ConnectionError("connection closed inside headers")
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = stream.read(int(headers["content-length"]))
            replies.append((int(status_line.split()[1]), headers, body))


class TestHTTPAdapter:
    def test_healthz_with_query_string(self, live_server):
        # regression: exact-path matching 404ed GET /healthz?probe=1
        with urllib.request.urlopen(f"{live_server.url}/healthz?probe=1",
                                    timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"

    def test_healthz_model_query_routes(self, live_server):
        with urllib.request.urlopen(
                f"{live_server.url}/healthz?model=default",
                timeout=10) as response:
            assert json.loads(response.read())["model"]["name"] == "ease"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{live_server.url}/healthz?model=nope",
                                   timeout=10)
        assert excinfo.value.code == 400

    def test_keep_alive_survives_invalid_json(self, live_server,
                                              query_graph):
        import http.client

        host, port = live_server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # A fully-framed but invalid body: the server answers 400 and
            # keeps the connection; the next request on the same socket
            # must not desync.
            connection.request("POST", "/v1/select", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            body = json.dumps(_select_payload(query_graph)).encode("utf-8")
            connection.request("POST", "/v1/select", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["selected"] in PARTITIONERS
        finally:
            connection.close()

    def test_bad_framing_closes_connection(self, live_server):
        import http.client

        host, port = live_server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # No Content-Length: unread wire bytes would desync keep-alive,
            # so the server must answer 400 *and* close the connection.
            connection.putrequest("POST", "/v1/select",
                                  skip_accept_encoding=True)
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            connection.close()

    def test_get_body_is_read_off_the_keep_alive_stream(self, live_server):
        # A body on a GET is read and discarded; left on the wire it would
        # be parsed as the start of the next request.
        replies = _raw_exchange(
            live_server,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
            b"\r\nhello"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert [status for status, _, _ in replies] == [200, 200]
        assert all(json.loads(body)["status"] == "ok"
                   for _, _, body in replies)

    @pytest.mark.parametrize("method,path", [("POST", "/v1/select"),
                                             ("GET", "/healthz")])
    def test_transfer_encoding_is_refused_and_closes(self, live_server,
                                                     method, path):
        # Framing a chunked body by its Content-Length would leave the rest
        # of the chunks on the wire as the next request.
        chunked = b"5\r\nhello\r\n0\r\n\r\n"
        replies = _raw_exchange(
            live_server,
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n"
            .encode("ascii") + chunked
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        [(status, headers, body)] = replies
        assert status == 400
        assert "Transfer-Encoding" in json.loads(body)["error"]
        assert headers["connection"] == "close"

    def test_corrupt_registry_is_503_not_dead_thread(self, live_server,
                                                     registry):
        client = SelectionClient(live_server.url)
        [entry] = registry.list_models()
        manifest = os.path.join(entry.path, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write("{broken json")
        with pytest.raises(SelectionServiceError) as excinfo:
            client.models()
        assert excinfo.value.status == 503
        assert "registry listing" in excinfo.value.message
        # handler threads survived: the server still answers
        assert client.health()["status"] == "ok"


class TestClientRetries:
    def test_retry_after_429_until_slot_frees(self, live_server,
                                              query_graph):
        service = live_server.service
        client = SelectionClient(live_server.url, retries=3)
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            # second shed -> free the gate so the third attempt succeeds
            if len(sleeps) == 2:
                for _ in range(occupied):
                    service.admission.release()

        client._sleep = fake_sleep
        occupied = 0
        while service.admission.try_acquire():
            occupied += 1
        try:
            response = client.select(_select_payload(query_graph),
                                     "pagerank", 2)
        finally:
            # fake_sleep released them on the second retry
            assert service.admission.in_flight == 0
        assert response["selected"] in PARTITIONERS
        assert len(sleeps) == 2
        # jittered Retry-After: within [hint/2, hint] of the 1s hint
        assert all(0.5 <= s <= 1.0 for s in sleeps)

    def test_no_retries_surfaces_429(self, live_server, query_graph):
        service = live_server.service
        client = SelectionClient(live_server.url)  # retries=0
        occupied = 0
        while service.admission.try_acquire():
            occupied += 1
        try:
            with pytest.raises(SelectionServiceError) as excinfo:
                client.select(_select_payload(query_graph), "pagerank", 2)
        finally:
            for _ in range(occupied):
                service.admission.release()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == "1"

    def test_retries_exhausted_surfaces_429(self, live_server, query_graph):
        service = live_server.service
        client = SelectionClient(live_server.url, retries=2)
        client._sleep = lambda seconds: None
        occupied = 0
        while service.admission.try_acquire():
            occupied += 1
        try:
            with pytest.raises(SelectionServiceError) as excinfo:
                client.select(_select_payload(query_graph), "pagerank", 2)
        finally:
            for _ in range(occupied):
                service.admission.release()
        assert excinfo.value.status == 429
        assert service.admission.shed_total >= 3  # initial + 2 retries

    def test_connection_error_wrapped(self):
        # bind-then-close guarantees a refused port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = SelectionClient(f"http://127.0.0.1:{port}", timeout=2)
        with pytest.raises(SelectionServiceError) as excinfo:
            client.health()
        assert excinfo.value.status is None
        assert "connection error" in str(excinfo.value)

    def test_model_header_sent(self, live_server, query_graph):
        client = SelectionClient(live_server.url, model="default")
        response = client.select(_select_payload(query_graph), "pagerank", 2)
        assert response["model"] == "default"
        with pytest.raises(SelectionServiceError) as excinfo:
            SelectionClient(live_server.url, model="nope").select(
                _select_payload(query_graph), "pagerank", 2)
        assert excinfo.value.status == 400


# --------------------------------------------------------------------------- #
# Prefork frontend (in-process pool + full CLI subprocess)
# --------------------------------------------------------------------------- #
class TestPreforkFrontend:
    def test_validation(self, registry, trained_system):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        service = SelectionService.from_registry(registry, "ease")
        with pytest.raises(ValueError, match="workers"):
            PreforkFrontend(service, workers=0, port=0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_workers_share_listener_and_models(
            self, tmp_path, registry, trained_system, alt_system,
            query_graph):
        prod = registry.publish(trained_system, "ease")
        canary = registry.publish(alt_system, "ease")
        registry.promote("ease", prod.version, tag="production")
        registry.promote("ease", canary.version, tag="canary")
        store = GraphStore(str(tmp_path / "store"))
        fingerprint = store.save(query_graph)
        bundle = str(tmp_path / "ease.pkl")
        save_ease(trained_system, bundle)

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--registry", registry.root,
             "--model", "prod=ease@production",
             "--model", "canary=ease@canary",
             "--graph-store", str(tmp_path / "store"),
             "--workers", "2", "--port", "0",
             "--batch-wait-ms", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        url = [None]

        def find_url():
            for line in process.stdout:
                if " on http://" in line:
                    url[0] = line.rsplit(" on ", 1)[1].strip()
                    return

        reader = threading.Thread(target=find_url, daemon=True)
        reader.start()
        reader.join(timeout=60)
        try:
            assert url[0], "server never announced its URL"
            client = SelectionClient(url[0], timeout=30)
            # Both tags answer concurrently from one port, resolving the
            # same stored graph; answers must match the tag's model.
            for tag, system in (("prod", trained_system),
                                ("canary", alt_system)):
                response = SelectionClient(url[0], timeout=30,
                                           model=tag).select(
                    fingerprint, "pagerank", 2)
                expected = system.select_partitioner(
                    query_graph, "pagerank", 2)
                assert response["model"] == tag
                assert response["selected"] == expected.selected
            # Repeated healthz hits land on >1 worker pid (the kernel
            # round-robins accepts; give it a bounded number of tries).
            pids = set()
            for _ in range(60):
                pids.add(client.health()["pid"])
                if len(pids) >= 2:
                    break
            assert len(pids) >= 2, f"only saw worker pids {pids}"
            assert all(pid != process.pid for pid in pids)
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert process.returncode == 0


# --------------------------------------------------------------------------- #
# Import lint: serving stays stdlib + numpy + repro
# --------------------------------------------------------------------------- #
class TestServingImportLint:
    def test_serving_imports_only_stdlib_numpy_repro(self):
        import repro.serving

        package_dir = os.path.dirname(repro.serving.__file__)
        allowed_roots = set(sys.stdlib_module_names) | {"numpy", "repro"}
        offenders = []
        for filename in sorted(os.listdir(package_dir)):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(package_dir, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=filename)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0]
                             for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    if node.level > 0:  # relative import: inside repro
                        continue
                    roots = [(node.module or "").split(".")[0]]
                else:
                    continue
                for root in roots:
                    if root and root not in allowed_roots:
                        offenders.append(f"{filename}:{node.lineno}: {root}")
        assert not offenders, \
            "serving must stay dependency-free, found: " + str(offenders)
