"""Tests for the serving subsystem: batched selection, model registry,
SelectionService micro-batching, and the HTTP frontend (live sockets)."""

import dataclasses
import json
import os
import threading

import numpy as np
import pytest

from repro.generators import generate_rmat
from repro.graph import GraphProperties, GraphStore, compute_properties
from repro.ease import (
    EASE,
    GraphProfiler,
    SelectionRequest,
    graph_feature_matrix,
    graph_feature_vector,
)
from repro.ease.persistence import load_dataset, save_dataset, save_ease
from repro.serving import (
    ModelRegistry,
    SelectionClient,
    SelectionHTTPServer,
    SelectionService,
    dataset_fingerprint,
)
from repro.serving.client import SelectionServiceError
from repro.cli import main

PARTITIONERS = ("2d", "dbh", "ne")

#: A well-formed ``properties`` payload; malformed rows override one field.
VALID_PROPERTIES = {"num_edges": 800, "num_vertices": 128,
                    "mean_degree": 12.5, "density": 0.0492,
                    "in_degree_skewness": 0.4, "out_degree_skewness": 0.6,
                    "mean_triangles": 3.0, "mean_local_clustering": 0.1}


@pytest.fixture(scope="module")
def small_profile():
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(4)]
    return profiler.profile(graphs, graphs)


@pytest.fixture(scope="module")
def trained_system(small_profile):
    return EASE(partitioner_names=PARTITIONERS).train(small_profile)


@pytest.fixture(scope="module")
def query_graphs():
    return [generate_rmat(128, 800 + 120 * s, seed=20 + s) for s in range(4)]


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(str(tmp_path / "registry"))


# --------------------------------------------------------------------------- #
# Batched feature extraction and prediction
# --------------------------------------------------------------------------- #
class TestBatchedFeatures:
    def test_matrix_matches_per_row_vectors(self, query_graphs):
        properties = [compute_properties(g, exact_triangles=False)
                      for g in query_graphs]
        for feature_set in ("simple", "basic", "advanced"):
            matrix = graph_feature_matrix(properties, feature_set)
            expected = np.vstack([graph_feature_vector(p, feature_set)
                                  for p in properties])
            np.testing.assert_array_equal(matrix, expected)

    def test_matrix_broadcasts_shared_instances(self, query_graphs):
        props = compute_properties(query_graphs[0], exact_triangles=False)
        matrix = graph_feature_matrix([props] * 5, "basic")
        assert matrix.shape == (5, 6)
        np.testing.assert_array_equal(
            matrix, np.tile(graph_feature_vector(props, "basic"), (5, 1)))

    def test_empty_batch(self):
        assert graph_feature_matrix([], "basic").shape == (0, 6)

    def test_unknown_feature_set(self, query_graphs):
        props = compute_properties(query_graphs[0], exact_triangles=False)
        with pytest.raises(ValueError):
            graph_feature_matrix([props], "bogus")


class TestBatchedPredictors:
    def test_quality_predict_batch_matches_singles(self, trained_system,
                                                   query_graphs):
        predictor = trained_system.quality_predictor
        properties = [compute_properties(g, exact_triangles=False)
                      for g in query_graphs]
        partitioners = [PARTITIONERS[i % len(PARTITIONERS)]
                        for i in range(len(properties))]
        counts = [2 + i for i in range(len(properties))]
        batch = predictor.predict_metric_columns(properties, partitioners,
                                                 counts)
        for row, (props, partitioner, k) in enumerate(zip(
                properties, partitioners, counts)):
            single = predictor.predict_metric_columns([props], [partitioner],
                                                      [k])
            assert ({name: column[0] for name, column in single.items()}
                    == {name: column[row] for name, column in batch.items()})

    def test_processing_batch_matches_singles(self, trained_system,
                                              query_graphs):
        predictor = trained_system.processing_time_predictor
        properties = [compute_properties(g, exact_triangles=False)
                      for g in query_graphs]
        metrics = [{"replication_factor": 1.5, "edge_balance": 1.1,
                    "vertex_balance": 1.2, "source_balance": 1.1,
                    "destination_balance": 1.3}] * len(properties)
        iterations = [None, 5, 20, None]
        batch = predictor.predict_total_seconds_batch(
            ["pagerank"] * len(properties), properties,
            [2] * len(properties), metrics, num_iterations=iterations)
        for row, props in enumerate(properties):
            single = predictor.predict_total_seconds_batch(
                ["pagerank"], [props], [2], [metrics[row]],
                num_iterations=[iterations[row]])
            assert batch[row] == single[0]

    def test_selector_batch_matches_sequential(self, trained_system,
                                               query_graphs):
        selector = trained_system.selector
        requests = [SelectionRequest(
            graph=compute_properties(g, exact_triangles=False),
            algorithm="pagerank", num_partitions=2 + (i % 2),
            goal="end_to_end" if i % 2 == 0 else "processing")
            for i, g in enumerate(query_graphs)]
        batch_results = selector.select_batch(requests)
        for request, batched in zip(requests, batch_results):
            single = selector.select_batch([request])[0]
            assert batched.selected == single.selected
            for lhs, rhs in zip(batched.scores, single.scores):
                assert lhs.partitioner == rhs.partitioner
                assert (lhs.predicted_end_to_end_seconds
                        == rhs.predicted_end_to_end_seconds)

    def test_select_batch_empty(self, trained_system):
        assert trained_system.selector.select_batch([]) == []

    def test_select_batch_validates_goal(self, trained_system, query_graphs):
        props = compute_properties(query_graphs[0], exact_triangles=False)
        with pytest.raises(ValueError):
            trained_system.selector.select_batch([SelectionRequest(
                graph=props, algorithm="pagerank", num_partitions=2,
                goal="bogus")])


# --------------------------------------------------------------------------- #
# Model registry
# --------------------------------------------------------------------------- #
class TestModelRegistry:
    def test_publish_promote_load_roundtrip(self, registry, trained_system,
                                            small_profile, query_graphs):
        entry = registry.publish(trained_system, "ease",
                                 dataset=small_profile,
                                 metrics={"mape": 0.2})
        assert entry.manifest["partitioners"] == list(PARTITIONERS)
        assert entry.manifest["algorithms"] == ["pagerank"]
        assert entry.manifest["dataset"]["fingerprint"] == \
            dataset_fingerprint(small_profile)
        assert entry.manifest["metrics"] == {"mape": 0.2}

        registry.promote("ease", entry.version)
        assert registry.tags("ease") == {"production": entry.version}

        loaded = registry.load("ease", "production")
        props = compute_properties(query_graphs[0], exact_triangles=False)
        original = trained_system.select_partitioner(
            props, algorithm="pagerank", num_partitions=2)
        restored = loaded.select_partitioner(
            props, algorithm="pagerank", num_partitions=2)
        assert restored.selected == original.selected
        for lhs, rhs in zip(restored.scores, original.scores):
            # same bundle bytes loaded back -> bit-identical predictions
            assert lhs.predicted_partitioning_seconds == \
                rhs.predicted_partitioning_seconds
            assert lhs.predicted_processing_seconds == \
                rhs.predicted_processing_seconds
            assert lhs.predicted_quality == rhs.predicted_quality

    def test_publish_is_idempotent_by_content(self, registry, trained_system,
                                              small_profile, query_graphs,
                                              tmp_path):
        bundle = str(tmp_path / "ease.pkl")
        save_ease(trained_system, bundle)
        first = registry.publish(bundle, "ease")
        second = registry.publish(bundle, "ease")
        assert first.version == second.version
        assert len(registry.versions("ease")) == 1
        # A bundle holds model state only: nothing a prediction derives and
        # nothing a fit leaves behind reaches its bytes.
        system = EASE(partitioner_names=PARTITIONERS).train(small_profile)
        before = registry.publish(system, "ease")
        system.select_partitioner(query_graphs[0], algorithm="pagerank",
                                  num_partitions=2)
        after = registry.publish(system, "ease")
        retrained = registry.publish(
            EASE(partitioner_names=PARTITIONERS).train(small_profile), "ease")
        assert {before.version, after.version,
                retrained.version} == {first.version}
        assert len(registry.versions("ease")) == 1

    def test_resolve_prefix_tag_and_latest(self, registry, trained_system):
        entry = registry.publish(trained_system, "ease")
        assert registry.resolve("ease").version == entry.version  # latest
        assert registry.resolve("ease", entry.version[:6]).version == \
            entry.version  # prefix
        registry.promote("ease", entry.version, tag="staging")
        assert registry.resolve("ease", "staging").version == entry.version

    def test_resolve_production_tag_wins_over_latest(self, registry,
                                                     trained_system,
                                                     small_profile):
        first = registry.publish(trained_system, "ease")
        retrained = EASE(partitioner_names=PARTITIONERS,
                         random_state=1).train(small_profile)
        second = registry.publish(retrained, "ease")
        assert second.version != first.version
        registry.promote("ease", first.version)
        assert registry.resolve("ease").version == first.version

    def test_same_second_publishes_resolve_to_newest(self, registry,
                                                     trained_system,
                                                     small_profile):
        first = registry.publish(trained_system, "ease")
        retrained = EASE(partitioner_names=PARTITIONERS,
                         random_state=1).train(small_profile)
        second = registry.publish(retrained, "ease")
        # created_at has 1s resolution; the ns counterpart must order these
        assert registry.resolve("ease").version == second.version
        assert [e.version for e in registry.versions("ease")] == \
            [first.version, second.version]

    def test_missing_manifest_is_repaired_on_republish(self, registry,
                                                       trained_system):
        entry = registry.publish(trained_system, "ease")
        os.remove(os.path.join(entry.path, "manifest.json"))
        repaired = registry.publish(trained_system, "ease")
        assert repaired.version == entry.version
        assert repaired.manifest["partitioners"] == list(PARTITIONERS)

    def test_errors(self, registry, trained_system):
        with pytest.raises(KeyError):
            registry.resolve("ease")  # nothing published
        registry.publish(trained_system, "ease")
        with pytest.raises(KeyError):
            registry.get("ease", "doesnotexist")
        with pytest.raises(KeyError):
            registry.resolve("ease", "doesnotexist")
        for bad_name in ("../escape", "a/b", ".", "..", ".hidden", ""):
            with pytest.raises(ValueError):
                registry.publish(trained_system, bad_name)

    def test_publish_rejects_non_ease_file(self, registry, tmp_path,
                                           small_profile):
        path = str(tmp_path / "profile.pkl")
        save_dataset(small_profile, path)
        with pytest.raises(ValueError):
            registry.publish(path, "ease")


# --------------------------------------------------------------------------- #
# SelectionService
# --------------------------------------------------------------------------- #
class TestSelectionService:
    def test_inline_service_matches_selector(self, trained_system,
                                             query_graphs):
        service = SelectionService(trained_system)
        graph = query_graphs[0]
        result = service.select(graph, "pagerank", 2)
        expected = trained_system.select_partitioner(graph, "pagerank", 2)
        assert result.selected == expected.selected

    def test_property_memoization(self, trained_system, query_graphs):
        service = SelectionService(trained_system)
        graph = query_graphs[0]
        first = service.select(graph, "pagerank", 2)
        second = service.select(graph, "pagerank", 2)
        assert service.stats.property_cache_misses == 1
        assert service.stats.property_cache_hits == 1
        assert first.selected == second.selected
        # same memoized properties object -> bit-identical scores
        for lhs, rhs in zip(first.scores, second.scores):
            assert lhs.predicted_quality == rhs.predicted_quality

    def test_property_cache_eviction(self, trained_system, query_graphs,
                                     monkeypatch):
        import repro.serving.service as service_module

        monkeypatch.setattr(service_module, "PROPERTY_CACHE_SIZE", 2)
        service = SelectionService(trained_system)
        for graph in query_graphs:
            service.resolve_properties(graph)
        assert len(service._properties) == 2

    def test_validation_fails_fast(self, trained_system, query_graphs):
        service = SelectionService(trained_system)
        with pytest.raises(ValueError):
            service.select(query_graphs[0], "not_an_algorithm", 2)
        with pytest.raises(ValueError):
            service.select(query_graphs[0], "pagerank", 0)
        with pytest.raises(ValueError):
            service.select(query_graphs[0], "pagerank", 2, goal="bogus")

    def test_concurrent_requests_are_batched_and_identical(
            self, trained_system, query_graphs):
        properties = [compute_properties(g, exact_triangles=False)
                      for g in query_graphs]
        jobs = [(properties[i % len(properties)], 2 + (i % 3))
                for i in range(16)]
        sequential = [trained_system.select_partitioner(props, "pagerank", k)
                      for props, k in jobs]

        service = SelectionService(trained_system, max_batch_size=8,
                                   batch_wait_seconds=0.2)
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def worker(index: int) -> None:
            props, k = jobs[index]
            barrier.wait()
            results[index] = service.select(props, "pagerank", k)

        with service:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert service.stats.requests == len(jobs)
        assert service.stats.max_batch_size <= 8
        assert service.stats.batches < len(jobs)  # coalescing happened
        for result, expected in zip(results, sequential):
            assert result.selected == expected.selected
            for lhs, rhs in zip(result.scores, expected.scores):
                assert lhs.predicted_end_to_end_seconds == pytest.approx(
                    rhs.predicted_end_to_end_seconds, rel=1e-9)

    def test_malformed_properties_never_poison_a_batch(self, trained_system,
                                                       query_graphs):
        good = compute_properties(query_graphs[0], exact_triangles=False)
        bad = dataclasses.replace(good, mean_degree=float("nan"))
        expected = trained_system.select_partitioner(good, "pagerank", 2)
        service = SelectionService(trained_system, max_batch_size=2,
                                   batch_wait_seconds=0.05)
        # Fail fast: the whole call raises before anything is predicted.
        with pytest.raises(ValueError, match="mean_degree"):
            service.submit_many([SelectionRequest(good, "pagerank", 2),
                                 SelectionRequest(bad, "pagerank", 2)])
        outcomes = [None, None]
        barrier = threading.Barrier(2)

        def worker(index: int, props: GraphProperties) -> None:
            barrier.wait()
            try:
                outcomes[index] = service.select(props, "pagerank", 2)
            except ValueError as error:
                outcomes[index] = error

        with service:
            threads = [threading.Thread(target=worker, args=(i, props))
                       for i, props in enumerate((good, bad))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert outcomes[0].selected == expected.selected
        assert isinstance(outcomes[1], ValueError)
        assert "'mean_degree'" in str(outcomes[1])

    def test_stop_answers_stragglers(self, trained_system, query_graphs):
        service = SelectionService(trained_system)
        service.start()
        service.stop()
        # inline path still works after stop
        result = service.select(query_graphs[0], "pagerank", 2)
        assert result.selected in PARTITIONERS

    def test_from_registry_and_health(self, registry, trained_system):
        entry = registry.publish(trained_system, "ease")
        registry.promote("ease", entry.version)
        service = SelectionService.from_registry(registry, "ease")
        health = service.health()
        assert health["status"] == "ok"
        assert health["model"]["version"] == entry.version
        assert health["algorithms"] == ["pagerank"]


# --------------------------------------------------------------------------- #
# HTTP frontend (live sockets)
# --------------------------------------------------------------------------- #
@pytest.fixture()
def live_server(registry, trained_system):
    entry = registry.publish(trained_system, "ease")
    registry.promote("ease", entry.version)
    service = SelectionService.from_registry(registry, "ease",
                                             batch_wait_seconds=0.001)
    server = SelectionHTTPServer(service, registry=registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    with server:
        thread.start()
        yield server
        server.shutdown()
    thread.join(timeout=5)


class TestHTTPServer:
    def test_healthz(self, live_server):
        client = SelectionClient(live_server.url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["batching"] is True
        assert health["model"]["name"] == "ease"

    def test_models_endpoint(self, live_server):
        models = SelectionClient(live_server.url).models()
        assert models["loaded"]["name"] == "ease"
        assert len(models["models"]) == 1
        assert models["models"][0]["tags"] == ["production"]
        assert models["models"][0]["manifest"]["partitioners"] == \
            list(PARTITIONERS)

    def test_select_matches_in_process(self, live_server, trained_system,
                                       query_graphs):
        client = SelectionClient(live_server.url)
        for goal in ("end_to_end", "processing"):
            for graph in query_graphs[:2]:
                response = client.select(graph, "pagerank", 2, goal=goal)
                expected = trained_system.select_partitioner(
                    graph, "pagerank", 2, goal=goal)
                assert response["selected"] == expected.selected
                assert response["ranking"][0] == expected.selected
                by_name = {s["partitioner"]: s for s in response["scores"]}
                for score in expected.scores:
                    assert by_name[score.partitioner][
                        "predicted_end_to_end_seconds"] == pytest.approx(
                            score.predicted_end_to_end_seconds, rel=1e-9)

    def test_select_with_precomputed_properties(self, live_server,
                                                trained_system, query_graphs):
        client = SelectionClient(live_server.url)
        props = compute_properties(query_graphs[0], exact_triangles=False)
        response = client.select(props, "pagerank", 2)
        expected = trained_system.select_partitioner(props, "pagerank", 2)
        assert response["selected"] == expected.selected

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "exactly one of"),
        ({"graph": {"src": [0]}, "algorithm": "pagerank",
          "num_partitions": 2}, "'graph'"),
        ({"graph": {"src": [0], "dst": [1]},
          "num_partitions": 2}, "'algorithm'"),
        ({"graph": {"src": [0], "dst": [1]}, "algorithm": "pagerank",
          "num_partitions": 0}, "num_partitions"),
        ({"graph": {"src": [0], "dst": [1]}, "algorithm": "pagerank",
          "num_partitions": 2, "goal": "bogus"}, "goal"),
        ({"properties": {"num_edges": 1}, "algorithm": "pagerank",
          "num_partitions": 2}, "properties"),
        ({"graph": {"src": [0], "dst": [1]}, "algorithm": "sssp",
          "num_partitions": 2}, "no trained model"),
        ({"properties": {**VALID_PROPERTIES, "num_edges": -5},
          "algorithm": "pagerank", "num_partitions": 2}, "'num_edges'"),
        ({"properties": {**VALID_PROPERTIES, "num_vertices": 95.7},
          "algorithm": "pagerank", "num_partitions": 2}, "'num_vertices'"),
        ({"properties": {**VALID_PROPERTIES, "mean_degree": float("nan")},
          "algorithm": "pagerank", "num_partitions": 2}, "'mean_degree'"),
        ({"graph": {"src": [0.7, 1.9], "dst": [1, 2]},
          "algorithm": "pagerank", "num_partitions": 2}, "integer arrays"),
        ({"graph": {"src": ["0", "1"], "dst": [1, 2]},
          "algorithm": "pagerank", "num_partitions": 2}, "integer arrays"),
        ({"graph": {"src": [0, 1], "dst": [True, False]},
          "algorithm": "pagerank", "num_partitions": 2}, "integer arrays"),
        ({"graph": {"src": [0, 1], "dst": [1, 2], "num_vertices": 3.9},
          "algorithm": "pagerank", "num_partitions": 2}, "'num_vertices'"),
        ({"graph": {"src": [0, 1], "dst": [1, 2], "num_vertices": True},
          "algorithm": "pagerank", "num_partitions": 2}, "'num_vertices'"),
        ({"graph": {"src": [0, 1], "dst": [1, 2]}, "algorithm": "pagerank",
          "num_partitions": 2, "properties_mode": "approximate"},
         "approximate property extraction is not served"),
    ])
    def test_malformed_select_is_4xx(self, live_server, payload, fragment):
        client = SelectionClient(live_server.url)
        with pytest.raises(SelectionServiceError) as excinfo:
            client._request("/v1/select", payload)
        assert excinfo.value.status == 400
        assert fragment in excinfo.value.message

    def test_client_does_not_mutate_payload_fragments(self, live_server,
                                                      trained_system,
                                                      query_graphs):
        client = SelectionClient(live_server.url)
        props = compute_properties(query_graphs[0], exact_triangles=False)
        fragment = {"properties": props.as_dict()}
        client.select(fragment, "pagerank", 2, num_iterations=5)
        assert fragment == {"properties": props.as_dict()}

    def test_missing_content_length_is_400(self, live_server):
        import http.client

        host, port = live_server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/select",
                                  skip_accept_encoding=True)
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            connection.close()

    def test_invalid_json_is_400(self, live_server):
        import urllib.request

        request = urllib.request.Request(
            f"{live_server.url}/v1/select", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, live_server):
        client = SelectionClient(live_server.url)
        with pytest.raises(SelectionServiceError) as excinfo:
            client._request("/v1/nope")
        assert excinfo.value.status == 404

    def test_multithreaded_clients_match_sequential(self, live_server,
                                                    trained_system,
                                                    query_graphs):
        properties = [compute_properties(g, exact_triangles=False)
                      for g in query_graphs]
        jobs = [(properties[i % len(properties)], 2 + (i % 3))
                for i in range(12)]
        sequential = [trained_system.select_partitioner(p, "pagerank", k)
                      for p, k in jobs]
        responses = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def worker(index: int) -> None:
            client = SelectionClient(live_server.url)
            props, k = jobs[index]
            barrier.wait()
            responses[index] = client.select(props, "pagerank", k)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for response, expected in zip(responses, sequential):
            assert response["selected"] == expected.selected
        assert live_server.service.stats.requests >= len(jobs)


# --------------------------------------------------------------------------- #
# GraphProperties JSON roundtrip
# --------------------------------------------------------------------------- #
class TestGraphPropertiesDict:
    def test_roundtrip(self, query_graphs):
        props = compute_properties(query_graphs[0], exact_triangles=False)
        assert GraphProperties.from_dict(props.as_dict()) == props

    def test_rejects_unknown_and_missing_keys(self, query_graphs):
        props = compute_properties(query_graphs[0], exact_triangles=False)
        values = props.as_dict()
        with pytest.raises(ValueError):
            GraphProperties.from_dict({**values, "bogus": 1.0})
        values.pop("num_edges")
        with pytest.raises(ValueError):
            GraphProperties.from_dict(values)


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestServingCLI:
    def test_models_publish_list_promote(self, tmp_path, trained_system,
                                         small_profile, capsys):
        bundle = str(tmp_path / "ease.pkl")
        profile_path = str(tmp_path / "profile.pkl")
        registry_dir = str(tmp_path / "registry")
        save_ease(trained_system, bundle)
        save_dataset(small_profile, profile_path)

        assert main(["models", "publish", "--registry", registry_dir,
                     "--model", bundle, "--name", "ease",
                     "--profile", profile_path]) == 0
        version = ModelRegistry(registry_dir).versions("ease")[-1].version
        assert version in capsys.readouterr().out

        assert main(["models", "promote", "--registry", registry_dir,
                     "--name", "ease", "--version", version[:6]]) == 0
        assert ModelRegistry(registry_dir).tags("ease") == {
            "production": version}

        assert main(["models", "list", "--registry", registry_dir]) == 0
        output = capsys.readouterr().out
        assert "production" in output and version in output

    def test_select_with_properties_json(self, tmp_path, trained_system,
                                         query_graphs, capsys):
        bundle = str(tmp_path / "ease.pkl")
        save_ease(trained_system, bundle)
        props = compute_properties(query_graphs[0], exact_triangles=False)
        props_path = str(tmp_path / "props.json")
        with open(props_path, "w", encoding="utf-8") as handle:
            json.dump(props.as_dict(), handle)

        assert main(["select", "--model", bundle,
                     "--properties", props_path,
                     "--algorithm", "pagerank", "--partitions", "2"]) == 0
        output = capsys.readouterr().out
        expected = trained_system.select_partitioner(props, "pagerank", 2)
        assert f"selected partitioner: {expected.selected}" in output

    def test_select_requires_exactly_one_input(self, tmp_path,
                                               trained_system):
        bundle = str(tmp_path / "ease.pkl")
        save_ease(trained_system, bundle)
        with pytest.raises(SystemExit):
            main(["select", "--model", bundle, "--algorithm", "pagerank"])

    def test_profile_extend_profiles_only_new_graphs(self, tmp_path, capsys):
        store = GraphStore(str(tmp_path / "graphs"))
        for seed in range(2):
            store.save(generate_rmat(96, 600 + 100 * seed, seed=seed))
        dataset_path = str(tmp_path / "profile.pkl")
        base_args = ["--graph-store", store.root, "--output", dataset_path,
                     "--partitioners", "2d", "dbh",
                     "--algorithms", "pagerank",
                     "--partition-counts", "2",
                     "--processing-partitions", "2"]
        assert main(["profile"] + base_args) == 0
        first = load_dataset(dataset_path)
        assert len(first.graph_names()) == 2

        store.save(generate_rmat(96, 900, seed=7))
        capsys.readouterr()
        assert main(["profile"] + base_args
                    + ["--extend", dataset_path]) == 0
        output = capsys.readouterr().out
        assert "2 graphs already profiled, 1 new" in output
        extended = load_dataset(dataset_path)
        assert len(extended.graph_names()) == 3
        # old records are preserved (merged, canonically sorted)
        assert len(extended.quality) == len(first.quality) * 3 // 2

        # extending again with no new graphs is a no-op profile
        assert main(["profile"] + base_args
                    + ["--extend", dataset_path]) == 0
        assert "0 new" in capsys.readouterr().out
        assert load_dataset(dataset_path).summary() == extended.summary()

    def test_extend_missing_dataset_fails(self, tmp_path):
        store = GraphStore(str(tmp_path / "graphs"))
        store.save(generate_rmat(96, 600, seed=0))
        with pytest.raises(SystemExit):
            main(["profile", "--graph-store", store.root,
                  "--output", str(tmp_path / "p.pkl"),
                  "--extend", str(tmp_path / "missing.pkl")])


# --------------------------------------------------------------------------- #
# Model reload
# --------------------------------------------------------------------------- #
class TestModelReload:
    def test_reload_swaps_model_and_keeps_properties(self, trained_system,
                                                     small_profile,
                                                     query_graphs):
        service = SelectionService(trained_system)
        service.select(query_graphs[0], "pagerank", 2)
        retrained = EASE(partitioner_names=PARTITIONERS,
                         feature_set="simple").train(small_profile)
        service.reload(retrained, model_info={"name": "swapped"})
        assert service.model_info == {"name": "swapped"}
        # the next answer comes from the new model
        result = service.select(query_graphs[0], "pagerank", 2)
        assert result == retrained.select_partitioner(
            query_graphs[0], "pagerank", 2)
        # properties stay cached across reloads (model-independent)
        assert len(service._properties) == 1
        assert service.stats.property_cache_hits == 1

    def test_reload_from_registry_on_promote(self, registry, trained_system,
                                             small_profile, query_graphs):
        first = registry.publish(trained_system, "ease")
        registry.promote("ease", first.version, tag="production")
        service = SelectionService.from_registry(registry, "ease",
                                                 "production")
        baseline = service.select(query_graphs[0], "pagerank", 2)
        assert service.reload_from_registry() is False
        assert service.model_info["version"] == first.version

        # publish a differently-trained system and promote it
        retrained = EASE(partitioner_names=PARTITIONERS,
                         feature_set="simple").train(small_profile)
        second = registry.publish(retrained, "ease")
        registry.promote("ease", second.version, tag="production")
        assert service.reload_from_registry() is True
        assert service.model_info["version"] == second.version
        result = service.select(query_graphs[0], "pagerank", 2)
        assert result == retrained.select_partitioner(
            query_graphs[0], "pagerank", 2)
        assert result != baseline

    def test_reload_from_registry_requires_registry(self, trained_system):
        service = SelectionService(trained_system)
        with pytest.raises(RuntimeError):
            service.reload_from_registry()


@pytest.fixture(scope="module")
def two_algorithm_system():
    """A system that also serves ``connected_components``, whose processing
    model is the polynomial (ridge) family rather than a tree ensemble."""
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank", "connected_components"))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(4)]
    return EASE(partitioner_names=PARTITIONERS).train(
        profiler.profile(graphs, graphs))


class TestBatchSubmission:
    def test_select_many_matches_singles(self, two_algorithm_system):
        graphs = [generate_rmat(128, 800 + 120 * s, seed=20 + s)
                  for s in range(8)]
        requests = [SelectionRequest(graph=g, algorithm=algorithm,
                                     num_partitions=k, goal=goal)
                    for g in graphs
                    for algorithm in ("pagerank", "connected_components")
                    for k, goal in ((2, "end_to_end"), (4, "processing"))]
        reference = SelectionService(two_algorithm_system)
        expected = [reference.select(r.graph, r.algorithm, r.num_partitions,
                                     goal=r.goal) for r in requests]
        service = SelectionService(two_algorithm_system)
        assert service.select_many(requests) == expected

    def test_cold_batch_is_one_property_engine_pass(self, trained_system,
                                                    query_graphs,
                                                    monkeypatch):
        import repro.ease.selector as selector_module

        calls = []
        real = selector_module.compute_properties_batch

        def counting(graphs, **kwargs):
            calls.append(len(graphs))
            return real(graphs, **kwargs)

        monkeypatch.setattr(selector_module, "compute_properties_batch",
                            counting)
        service = SelectionService(trained_system)
        service.select_many([
            SelectionRequest(graph=g, algorithm="pagerank", num_partitions=2)
            for g in query_graphs])
        assert calls == [len(query_graphs)]
        assert service.stats.property_cache_misses == len(query_graphs)

    def test_cold_batch_hashes_each_graph_once(self, trained_system,
                                               monkeypatch):
        """The property cache's key and the property engine's content
        deduplication share one fingerprint per raw graph: a cold batch of
        four graphs constructs four SHA-256 hashers, not eight."""
        import hashlib
        from types import SimpleNamespace

        import repro.graph.graph as graph_module

        graphs = [generate_rmat(128, 800 + 120 * s, seed=40 + s)
                  for s in range(4)]
        hashers = []

        def counting_sha256(*args):
            hashers.append(1)
            return hashlib.sha256(*args)

        monkeypatch.setattr(graph_module, "hashlib",
                            SimpleNamespace(sha256=counting_sha256))
        service = SelectionService(trained_system)
        service.select_many([
            SelectionRequest(graph=g, algorithm="pagerank", num_partitions=2)
            for g in graphs])
        assert len(hashers) == len(graphs)

    def test_batch_with_cache_hits_and_misses(self, trained_system,
                                              query_graphs):
        """A batch mixing a property-cache hit and a miss answers both."""
        service = SelectionService(trained_system)
        warm = service.select(query_graphs[0], "pagerank", 2)
        results = service.select_many([
            SelectionRequest(graph=g, algorithm="pagerank", num_partitions=2)
            for g in query_graphs[:2]])
        assert results[0].selected == warm.selected
        assert service.stats.property_cache_hits == 1
        assert service.stats.property_cache_misses == 2
        assert service.stats.requests == 3

    def test_batch_validation_fails_before_enqueue(self, trained_system,
                                                   query_graphs):
        service = SelectionService(trained_system)
        with pytest.raises(ValueError):
            service.submit_many([
                SelectionRequest(graph=query_graphs[0], algorithm="pagerank",
                                 num_partitions=2),
                SelectionRequest(graph=query_graphs[1], algorithm="bogus",
                                 num_partitions=2)])
        assert service.stats.requests == 0


def test_graph_payload_accepts_empty_edge_lists():
    """Empty JSON lists decode as float arrays and must still parse."""
    from repro.serving.core import parse_graph_payload

    empty = parse_graph_payload({"graph": {"src": [], "dst": [],
                                           "num_vertices": 3}})
    assert empty.num_vertices == 3 and empty.src.size == 0
