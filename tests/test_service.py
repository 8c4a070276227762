"""Tests for the async evaluation service (repro.service)."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import ExperimentJob, ResultStore
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    start_in_thread,
)
from repro.warehouse import Warehouse

from test_warehouse import make_payload


class CountingRunner:
    """A stand-in for ``execute_job_payload`` that counts invocations.

    Thread-safe (it runs on executor threads) and slow enough (``delay``)
    that concurrent submissions genuinely overlap in flight.
    """

    def __init__(self, delay=0.0, fail=False):
        self.delay = delay
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, job_data):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        job = ExperimentJob.from_dict(job_data)
        if self.fail:
            return {
                "schema": 1,
                "job": job_data,
                "status": "error",
                "elapsed_s": self.delay,
                "evaluation": None,
                "error": "synthetic failure",
            }
        _job, payload = make_payload(
            benchmark=job.benchmark,
            scale=job.scale,
            options=job.options,
        )
        return dict(payload, elapsed_s=self.delay)


def make_manager(runner, store=None, warehouse=None, threads=8):
    return JobManager(
        store=store,
        warehouse=warehouse,
        executor=JobManager.inline_executor(max_workers=threads),
        run_payload=runner,
        max_workers=threads,
    )


def run_async(coroutine_factory):
    """Run an async test body on a fresh loop."""
    return asyncio.run(coroutine_factory())


class TestJobManagerDedup:
    def test_64_concurrent_identical_evaluates_compute_once(self):
        # The acceptance bar: >= 64 concurrent identical requests, one
        # underlying computation, verified by executor-invocation count.
        runner = CountingRunner(delay=0.05)

        async def body():
            manager = make_manager(runner)
            jobs = [
                manager.submit_evaluate(
                    {"benchmark": "171.swim", "scale": 0.01, "simulate": False}
                )
                for _ in range(64)
            ]
            assert len({job.id for job in jobs}) == 1
            finished = await manager.wait(jobs[0].id, timeout=30)
            assert finished.status == "done"
            assert finished.submissions == 64
            assert manager.stats["submitted"] == 64
            assert manager.stats["deduped"] == 63
            assert manager.stats["computed"] == 1
            await manager.close()

        run_async(body)
        assert runner.calls == 1

    def test_distinct_requests_share_overlapping_points(self):
        # An evaluate and a suite covering the same point: the point
        # computes once (experiment-level dedup, not just request-level).
        runner = CountingRunner(delay=0.05)

        async def body():
            manager = make_manager(runner)
            single = manager.submit_evaluate(
                {"benchmark": "171.swim", "scale": 0.01, "simulate": False}
            )
            suite = manager.submit_suite({"scale": 0.01, "simulate": False})
            await manager.wait(single.id, timeout=30)
            finished = await manager.wait(suite.id, timeout=60)
            assert finished.status == "done"
            assert finished.result["summary"]["points"] == 10
            await manager.close()

        run_async(body)
        assert runner.calls == 10  # not 11: the swim point was shared

    def test_completed_jobs_dedupe_later_submissions(self):
        runner = CountingRunner()

        async def body():
            manager = make_manager(runner)
            request = {"benchmark": "171.swim", "scale": 0.01}
            first = manager.submit_evaluate(request)
            await manager.wait(first.id, timeout=30)
            again = manager.submit_evaluate(request)
            assert again is manager.job(first.id)
            assert again.submissions == 2
            await manager.close()

        run_async(body)
        assert runner.calls == 1

    def test_store_answers_across_manager_lifetimes(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        runner = CountingRunner()

        async def first():
            manager = make_manager(runner, store=store)
            job = manager.submit_evaluate({"benchmark": "171.swim", "scale": 0.01})
            await manager.wait(job.id, timeout=30)
            await manager.close()

        async def second():
            manager = make_manager(runner, store=store)
            job = manager.submit_evaluate({"benchmark": "171.swim", "scale": 0.01})
            finished = await manager.wait(job.id, timeout=30)
            assert finished.status == "done"
            assert manager.stats["store_hits"] == 1
            await manager.close()

        run_async(first)
        run_async(second)
        assert runner.calls == 1  # the second service run hit the store

    def test_failed_jobs_are_not_cached(self):
        runner = CountingRunner(fail=True)

        async def body():
            manager = make_manager(runner)
            request = {"benchmark": "171.swim", "scale": 0.01}
            job = manager.submit_evaluate(request)
            finished = await manager.wait(job.id, timeout=30)
            assert finished.status == "failed"
            assert "synthetic failure" in finished.error
            runner.fail = False
            retry = manager.submit_evaluate(request)
            assert retry is not finished  # fresh record, not the failure
            finished_retry = await manager.wait(retry.id, timeout=30)
            assert finished_retry.status == "done"
            await manager.close()

        run_async(body)
        assert runner.calls == 2


class TestJobManagerEvents:
    def test_events_replay_then_stream(self):
        runner = CountingRunner(delay=0.05)

        async def body():
            manager = make_manager(runner)
            job = manager.submit_evaluate({"benchmark": "171.swim", "scale": 0.01})
            queue = job.subscribe()
            names = []
            while True:
                record = await asyncio.wait_for(queue.get(), timeout=30)
                if record is None:
                    break
                names.append(record["event"])
            assert names == ["submitted", "started", "completed"]
            # late subscription replays the full history
            late = job.subscribe()
            replay = []
            while True:
                record = late.get_nowait()
                if record is None:
                    break
                replay.append(record["event"])
            assert replay == names
            await manager.close()

        run_async(body)

    def test_campaign_emits_progress_per_point(self):
        runner = CountingRunner()

        async def body():
            manager = make_manager(runner)
            job = manager.submit_campaign(
                {
                    "benchmarks": ["171.swim", "172.mgrid"],
                    "scale": 0.01,
                    "buses_grid": [1, 2],
                    "simulate": False,
                }
            )
            finished = await manager.wait(job.id, timeout=60)
            assert finished.status == "done"
            progress = [e for e in finished.events if e["event"] == "progress"]
            assert len(progress) == 4
            assert progress[-1]["completed"] == 4
            assert finished.result["summary"]["points"] == 4
            assert "mean_ed2_ratio" in finished.result["summary"]
            await manager.close()

        run_async(body)

    def test_same_campaign_under_new_label_records_both(self, tmp_path):
        # Resubmitting a grid under a fresh label must not dedup the
        # label away: every point answers from the store, but the new
        # campaign still lands in the warehouse (enabling label-vs-label
        # diffs of identical grids).
        runner = CountingRunner()
        store = ResultStore(tmp_path / "cache")
        warehouse = Warehouse()

        async def body():
            manager = make_manager(runner, store=store, warehouse=warehouse)
            request = {
                "benchmarks": ["171.swim"],
                "scale": 0.01,
                "simulate": False,
            }
            first = manager.submit_campaign(dict(request, label="a"))
            await manager.wait(first.id, timeout=30)
            second = manager.submit_campaign(dict(request, label="b"))
            assert second.id != first.id
            await manager.wait(second.id, timeout=30)
            assert manager.stats["store_hits"] == 1  # no recompute
            await manager.close()

        run_async(body)
        assert runner.calls == 1
        assert [c["label"] for c in warehouse.campaigns()] == ["a", "b"]
        warehouse.close()

    def test_campaign_records_warehouse_campaign(self, tmp_path):
        runner = CountingRunner()
        store = ResultStore(tmp_path / "cache")
        warehouse = Warehouse()

        async def body():
            manager = make_manager(runner, store=store, warehouse=warehouse)
            job = manager.submit_campaign(
                {
                    "benchmarks": ["171.swim"],
                    "scale": 0.01,
                    "simulate": False,
                    "label": "my-campaign",
                }
            )
            finished = await manager.wait(job.id, timeout=30)
            assert finished.status == "done"
            assert finished.result["campaign"] == "my-campaign"
            await manager.close()

        run_async(body)
        (campaign,) = warehouse.campaigns()
        assert campaign["label"] == "my-campaign"
        assert campaign["n_jobs"] == 1
        warehouse.close()


class TestRequestValidation:
    def test_evaluate_needs_benchmark(self):
        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(ServiceError):
                manager.submit_evaluate({"scale": 0.01})
            await manager.close()

        run_async(body)

    def test_unknown_benchmark_rejected(self):
        from repro.errors import WorkloadError

        async def body():
            manager = make_manager(CountingRunner())
            with pytest.raises(WorkloadError):
                manager.submit_evaluate({"benchmark": "183.equake"})
            await manager.close()

        run_async(body)


@pytest.fixture(scope="class")
def service():
    """A live service (threads, counting runner, warehouse) + client."""
    runner = CountingRunner(delay=0.05)
    store = {"runner": runner}

    def factory():
        manager = make_manager(runner, warehouse=Warehouse())
        store["manager"] = manager
        return manager

    with start_in_thread(factory) as handle:
        client = ServiceClient(host=handle.host, port=handle.port, timeout=30)
        yield client, store


@pytest.mark.usefixtures("service")
class TestHttpService:
    def test_health_and_stats(self, service):
        client, _ = service
        assert client.health()["status"] == "ok"
        stats = client.stats()
        assert "jobs" in stats and "warehouse" in stats

    def test_evaluate_over_http_dedupes_64_concurrent(self, service):
        client, state = service
        before = state["runner"].calls
        request = {"benchmark": "172.mgrid", "scale": 0.013, "simulate": False}
        with ThreadPoolExecutor(max_workers=64) as pool:
            ids = list(
                pool.map(
                    lambda _: client.submit_evaluate(**request)["id"],
                    range(64),
                )
            )
        assert len(set(ids)) == 1
        job = client.wait(ids[0], timeout=60)
        assert job["status"] == "done"
        assert job["submissions"] == 64
        assert state["runner"].calls == before + 1
        result = client.result(ids[0])["result"]
        assert result["summary"]["ed2_ratio"] == pytest.approx(
            0.8 * 1.1**2
        )

    def test_event_stream_over_http(self, service):
        client, _ = service
        job = client.submit_evaluate(
            benchmark="173.applu", scale=0.017, simulate=False
        )
        events = [record["event"] for record in client.events(job["id"])]
        assert events[0] == "submitted"
        assert events[-1] == "completed"

    def test_jobs_listing(self, service):
        client, _ = service
        job = client.submit_evaluate(
            benchmark="171.swim", scale=0.019, simulate=False
        )
        client.wait(job["id"], timeout=30)
        assert job["id"] in {j["id"] for j in client.jobs()}

    def test_query_endpoints(self, service):
        client, _ = service
        job = client.submit_evaluate(
            benchmark="171.swim", scale=0.023, simulate=False
        )
        client.wait(job["id"], timeout=30)
        best = client.query_best()
        assert any(row["benchmark"] == "171.swim" for row in best)
        assert client.query_pareto()
        assert client.query_campaigns() == []

    def test_metrics_scrape(self, service):
        client, _ = service
        request = {
            "benchmark": "178.galgel", "scale": 0.029, "simulate": False
        }
        job = client.submit_evaluate(**request)
        client.wait(job["id"], timeout=30)
        duplicate = client.submit_evaluate(**request)
        assert duplicate["id"] == job["id"]
        text = client.metrics()
        assert "# TYPE repro_service_requests_total counter" in text
        assert 'endpoint="/v1/evaluate"' in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'repro_service_request_seconds_bucket{endpoint=' in text
        assert "repro_service_dedup_hits_total" in text
        assert "repro_service_jobs_total" in text

    def test_metrics_content_type(self, service):
        client, _ = service
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            response.read()
        finally:
            connection.close()

    def test_query_spans_endpoint(self, service):
        client, _ = service
        # The counting runner returns no trace, so the span table is
        # empty — but the endpoint must round-trip cleanly.
        assert client.query_spans() == []

    def test_http_errors(self, service):
        client, _ = service
        status, document = client.request("GET", "/v1/jobs/ffffffffffffffff")
        assert status == 404
        assert document["error"]["code"] == "not_found"
        assert "no such job" in document["error"]["message"]
        status, document = client.request("PUT", "/v1/evaluate")
        assert status == 405
        assert document["error"]["code"] == "method_not_allowed"
        status, document = client.request("POST", "/v1/evaluate", body={})
        assert status == 400
        assert document["error"]["code"] == "bad_request"
        status, document = client.request("GET", "/nope")
        assert status == 404
        assert document["error"]["code"] == "not_found"

    def test_malformed_json_body(self, service):
        client, _ = service
        import http.client
        import json as json_module

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        try:
            connection.request(
                "POST",
                "/v1/evaluate",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            document = json_module.loads(response.read())
            assert document["error"]["code"] == "bad_request"
            assert "not valid JSON" in document["error"]["message"]
        finally:
            connection.close()

    def test_oversized_body_rejected(self, service):
        client, _ = service
        import http.client
        import json as json_module

        from repro.service.http import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            # Declare an oversized body without uploading it: the
            # server must refuse from the Content-Length alone.
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            document = json_module.loads(response.read())
            assert document["error"]["code"] == "payload_too_large"
        finally:
            connection.close()

    def test_negative_content_length_is_a_400_not_a_500(self, service):
        client, _ = service
        import http.client
        import json as json_module

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            document = json_module.loads(response.read())
            assert document["error"]["code"] == "bad_request"
        finally:
            connection.close()


def read_request(head: bytes, body: bytes = b"{}"):
    """Drive the HTTP request parser over one fed request."""
    from repro.service.http import _read_request

    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(b"POST /v1/evaluate HTTP/1.1\r\n" + head + body)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(parse())


class TestContentLength:
    """RFC 9112 §6.3: ``Content-Length`` is ASCII ``1*DIGIT``, one value."""

    @pytest.mark.parametrize(
        "value",
        [
            b"-1",
            b"+2",
            b"0_2",
            b"\x0b2",  # whitespace int() skips, but not field OWS
            b"\xa02",
            "\uff12".encode(),  # fullwidth digit two
            b"2, 2",
            b"",
        ],
    )
    def test_rejects_anything_but_ascii_digits(self, value):
        from repro.service.http import _HttpError

        with pytest.raises(_HttpError) as excinfo:
            read_request(b"Content-Length: " + value + b"\r\n\r\n")
        assert excinfo.value.status == 400

    def test_rejects_conflicting_duplicates(self):
        from repro.service.http import _HttpError

        with pytest.raises(_HttpError) as excinfo:
            # The last value alone would frame the two-byte body.
            read_request(b"Content-Length: 3\r\nContent-Length: 2\r\n\r\n")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "head",
        [
            b"Content-Length: 2\r\n\r\n",
            b"Content-Length: \t 2 \r\n\r\n",  # optional whitespace
            b"Content-Length: 2\r\ncontent-length: 2\r\n\r\n",
        ],
    )
    def test_accepts_a_single_digit_string(self, head):
        method, path, _query, _headers, body = read_request(head)
        assert (method, path, body) == ("POST", "/v1/evaluate", {})


class TestRealPipelineOverHttp:
    def test_real_evaluate_and_warehouse_sync(self, tmp_path):
        # One genuinely computed experiment through the whole stack:
        # HTTP -> manager -> executor -> store -> warehouse -> query.
        from repro.campaign.executor import execute_job_payload

        def factory():
            store = ResultStore(tmp_path / "cache")
            return JobManager(
                store=store,
                warehouse=Warehouse.for_store(store),
                executor=JobManager.inline_executor(max_workers=2),
                run_payload=execute_job_payload,
            )

        with start_in_thread(factory) as handle:
            client = ServiceClient(
                host=handle.host, port=handle.port, timeout=60
            )
            job = client.submit_evaluate(
                benchmark="171.swim", scale=0.01, simulate=False
            )
            finished = client.wait(job["id"], timeout=300)
            assert finished["status"] == "done"
            summary = client.result(job["id"])["result"]["summary"]
            assert 0 < summary["ed2_ratio"] < 2
            (best,) = client.query_best()
            assert best["key"] == job["id"]
        # The store entry and warehouse row both survive the service.
        store = ResultStore(tmp_path / "cache")
        assert job["id"] in store
        with Warehouse(tmp_path / "cache" / "warehouse.sqlite") as warehouse:
            assert warehouse.job_count() == 1


class TestInlineRunnerCaches:
    def test_concurrent_real_evaluates_on_threads_share_the_store(
        self, tmp_path
    ):
        # Distinct evaluates running at once on executor threads: the
        # caches' disk attachment must hold for all of them at once and
        # be handed back untouched when the manager closes.
        from repro.campaign.executor import execute_job_payload
        from repro.pipeline.cache import LOOP_CACHE, STAGE_CACHE
        from repro.telemetry import disable_tracing
        from repro.workloads.spec_profiles import SPEC2000_PROFILES

        # In-process fleet workers in other tests switch tracing on for
        # the whole process; the trace check below needs it off.
        disable_tracing()
        attached = (STAGE_CACHE.store_dir, LOOP_CACHE.store_dir)
        store = ResultStore(tmp_path / "cache")

        async def body():
            manager = JobManager(
                store=store,
                executor=JobManager.inline_executor(4),
                run_payload=execute_job_payload,
                max_workers=4,
            )
            jobs = [
                manager.submit_evaluate(
                    {"benchmark": name, "scale": 0.02, "simulate": False}
                )
                for name in SPEC2000_PROFILES
            ]
            assert len({job.id for job in jobs}) == 10
            try:
                for job in jobs:
                    finished = await manager.wait(job.id, timeout=120)
                    assert finished.status == "done", finished.error
            finally:
                await manager.close()

        run_async(body)
        assert len(store) == 10
        assert (STAGE_CACHE.store_dir, LOOP_CACHE.store_dir) == attached
        # A job's root span never makes worker-thread spans live: the
        # executor threads start with an empty span chain.
        assert all(store.get(key)["trace"] is None for key in store.keys())


class TestServeCLI:
    def test_version_flag(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_serve_help_mentions_runner(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--runner" in capsys.readouterr().out
