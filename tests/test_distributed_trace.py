"""Tests for distributed tracing and the flight recorder.

Covers the flight-recorder ring buffer's properties (capacity bound,
drop counting, trace-id filtering), the lease queue's normalized
observer event schema and trace threading, the warehouse traces table
and span-stats provenance columns, the timeline renderer's clock-skew
clamping, and the end-to-end property: a fleet-executed job whose
first lease holder dies yields ONE trace containing both attempts on
both workers, with the completing worker's span tree re-parented
byte-stably.  Single-process service timelines place every lifecycle
span at or after the root and show open spans while the job runs.
"""

import asyncio
import threading
import time

import pytest

from repro.fleet import FleetWorker, LeaseQueue
from repro.pipeline.serialization import canonical_json
from repro.reporting import render_timeline, timeline_attribution
from repro.service import JobManager, ServiceClient
from repro.telemetry import (
    FlightRecorder,
    Span,
    configure_flight_recorder,
    flight_recorder,
    record_event,
    render_prometheus,
)
from repro.warehouse import Warehouse

from test_fleet import FakeClock, fleet_service, job_dict, ok_payload
from test_warehouse import make_payload


# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_capacity_bound_drops_oldest_and_counts(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        assert len(recorder) == 4
        events = recorder.events()
        assert [event["index"] for event in events] == [6, 7, 8, 9]
        stats = recorder.stats()
        assert stats == {
            "capacity": 4, "size": 4, "dropped": 6, "recorded": 10,
        }

    def test_drop_counter_feeds_the_prometheus_metric(self):
        recorder = FlightRecorder(capacity=1)
        recorder.record("a")
        recorder.record("b")  # drops "a"
        assert "repro_flightrecorder_dropped_total" in render_prometheus()

    def test_trace_and_kind_filtering(self):
        recorder = FlightRecorder(capacity=64)
        recorder.record("lease.granted", trace="t1", worker="w1")
        recorder.record("lease.granted", trace="t2", worker="w2")
        recorder.record("lease.expired", trace="t1", worker="w1")
        recorder.record("chaos.worker_crash", worker="w3")
        t1 = recorder.events(trace="t1")
        assert [event["kind"] for event in t1] == [
            "lease.granted", "lease.expired",
        ]
        assert all(event["trace"] == "t1" for event in t1)
        granted = recorder.events(kind="lease.granted")
        assert [event["trace"] for event in granted] == ["t1", "t2"]
        both = recorder.events(trace="t1", kind="lease.expired")
        assert len(both) == 1

    def test_limit_keeps_the_most_recent_after_filtering(self):
        recorder = FlightRecorder(capacity=64)
        for index in range(6):
            recorder.record("tick", trace="t", index=index)
            recorder.record("noise", index=index)
        tail = recorder.events(trace="t", limit=2)
        assert [event["index"] for event in tail] == [4, 5]

    def test_events_are_copies_and_seq_is_authoritative(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("tick", seq=999, payload={"a": 1})
        [event] = recorder.events()
        assert event["seq"] == 1  # recorder-assigned, not caller-spoofed
        event["kind"] = "tampered"
        assert recorder.events()[0]["kind"] == "tick"
        assert event["t_wall"] > 0 and event["t_mono"] > 0

    def test_global_recorder_configurable(self):
        original = flight_recorder()
        try:
            recorder = configure_flight_recorder(capacity=16)
            assert flight_recorder() is recorder
            record_event("test.global", trace="tg")
            assert recorder.events(trace="tg")[0]["kind"] == "test.global"
        finally:
            # Put a fresh default back so other tests see a clean ring.
            configure_flight_recorder(capacity=original.stats()["capacity"])

    def test_clear_resets_contents_but_not_history_counters(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("tick")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.stats()["recorded"] == 1


# ----------------------------------------------------------------------
class TestLeaseEventSchema:
    BASE_KEYS = {"worker", "token", "attempt", "trace", "t"}

    def collect(self, queue):
        seen = []
        queue.add_observer(lambda event, key, info: seen.append((event, info)))
        return seen

    def test_every_event_carries_the_normalized_base_shape(self):
        clock = FakeClock()
        queue = LeaseQueue(ttl=5, clock=clock, max_attempts=2)
        seen = self.collect(queue)
        key, data = job_dict()
        queue.submit(key, data, trace={"trace_id": "abc123", "parent": key})
        [grant] = queue.lease("w1")
        clock.advance(6)
        queue.expire()
        [again] = queue.lease("w2")
        queue.complete("w2", again.token, ok_payload(data))
        events = [event for event, _info in seen]
        assert events == [
            "submitted", "granted", "expired", "requeued", "granted",
            "completed",
        ]
        for event, info in seen:
            assert self.BASE_KEYS <= set(info), event
            assert info["trace"] == "abc123", event
            assert info["t"] >= 100.0, event
        by_name = dict(seen)  # last info per event name
        assert by_name["submitted"]["class"] == "batch"
        assert by_name["submitted"]["worker"] is None
        # The expiry names the worker whose lease lapsed, captured
        # before the transition cleared the holder.
        expired = next(info for e, info in seen if e == "expired")
        assert expired["worker"] == "w1"
        assert expired["token"] == grant.token
        assert by_name["completed"]["worker"] == "w2"
        assert by_name["completed"]["duration"] >= 0.0

    def test_trace_context_rides_the_lease_grant(self):
        queue = LeaseQueue(ttl=5)
        key, data = job_dict()
        context = {"trace_id": "feedface", "parent": key}
        queue.submit(key, data, trace=context)
        [grant] = queue.lease("w1")
        assert grant.trace == context
        assert grant.to_dict()["trace"] == context

    def test_untraced_grants_serialize_without_a_trace_key(self):
        queue = LeaseQueue(ttl=5)
        key, data = job_dict()
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        assert grant.trace is None
        assert "trace" not in grant.to_dict()


# ----------------------------------------------------------------------
class TestSpanWallClock:
    def test_to_dict_round_trips_start_s_byte_stably(self):
        span = Span("pipeline", {"loop": "l0"})
        span.elapsed_s = 0.25
        span.start_s = 1700000000.125
        child = Span("schedule")
        child.elapsed_s = 0.1  # no start_s: key must stay absent
        span.children.append(child)
        data = span.to_dict()
        assert data["start_s"] == 1700000000.125
        assert "start_s" not in data["children"][0]
        assert canonical_json(Span.from_dict(data).to_dict()) == (
            canonical_json(data)
        )

    def test_span_context_manager_stamps_wall_start(self):
        from repro.telemetry import enable_tracing, disable_tracing, span

        enable_tracing()
        try:
            before = time.time()
            with span("timed") as timed:
                pass
            assert timed.start_s is not None
            assert timed.start_s >= before
        finally:
            disable_tracing()


# ----------------------------------------------------------------------
class TestTimelineRenderer:
    def tree(self, lease_start):
        return {
            "name": "submit",
            "elapsed_s": 2.0,
            "start_s": 1000.0,
            "attributes": {"kind": "evaluate", "job": "j1", "trace_id": "t1"},
            "children": [
                {"name": "admission", "elapsed_s": 0.0, "start_s": 1000.0},
                {
                    "name": "experiment",
                    "elapsed_s": 1.95,
                    "start_s": 1000.02,
                    "children": [
                        {
                            "name": "lease",
                            "elapsed_s": 1.5,
                            "start_s": lease_start,
                            "attributes": {
                                "worker": "w2",
                                "outcome": "completed",
                                "attempt": 2,
                            },
                        },
                    ],
                },
            ],
        }

    def test_renders_offsets_and_attribution(self):
        text = render_timeline(
            {"trace": "t1", "job": "j1", "tree": self.tree(1000.4)}
        )
        assert "timeline trace t1" in text
        assert "worker=w2" in text and "outcome=completed" in text
        assert "attributed to lifecycle spans: 97.5%" in text
        assert "clock skew" not in text

    def test_clamps_and_flags_cross_process_clock_skew(self):
        # The worker's wall clock ran behind the service's: the lease
        # span appears to start before the submit.  Clamp, don't crash.
        text = render_timeline({"tree": self.tree(999.2)})
        assert "clock skew: 1 span offset(s) clamped" in text
        assert "+-" not in text  # no negative offsets rendered

    def test_attribution_helper_matches_the_footer(self):
        assert timeline_attribution(self.tree(1000.4)) == pytest.approx(
            1.95 / 2.0
        )

    def test_document_without_a_tree_raises(self):
        with pytest.raises(ValueError):
            render_timeline({"trace": "t1"})


# ----------------------------------------------------------------------
class TestWarehouseTraces:
    def test_record_trace_round_trips_by_both_ids(self):
        tree = {"name": "submit", "elapsed_s": 1.0, "start_s": 123.0}
        with Warehouse() as warehouse:
            warehouse.record_trace(
                trace_id="t1", job_id="j1", kind="evaluate",
                created_at=42.0, tree=tree,
            )
            by_trace = warehouse.trace("t1")
            by_job = warehouse.trace("j1")
            assert by_trace == by_job
            assert by_trace["tree"] == tree
            assert by_trace["kind"] == "evaluate"
            assert warehouse.trace("nope") is None

    def test_record_trace_upserts_by_trace_id(self):
        with Warehouse() as warehouse:
            for elapsed in (1.0, 2.0):
                warehouse.record_trace(
                    trace_id="t1", job_id="j1", kind="evaluate",
                    created_at=42.0,
                    tree={"name": "submit", "elapsed_s": elapsed},
                )
            assert warehouse.trace("t1")["tree"]["elapsed_s"] == 2.0

    def test_span_stats_carry_distributed_provenance(self):
        _job, payload = make_payload()
        payload["trace"] = {
            "name": "pipeline",
            "elapsed_s": 0.5,
            "children": [{"name": "schedule", "elapsed_s": 0.4}],
        }
        payload["trace_id"] = "t9"
        payload["worker"] = "w7"
        payload["attempt"] = 2
        with Warehouse() as warehouse:
            key = warehouse.record_payload(payload)
            rows = warehouse._conn.execute(
                "SELECT span, trace_id, worker, attempt FROM span_stats"
                " WHERE job_key = ? ORDER BY span",
                (key,),
            ).fetchall()
            assert [tuple(row) for row in rows] == [
                ("pipeline", "t9", "w7", 2),
                ("schedule", "t9", "w7", 2),
            ]

    def test_untraced_payloads_leave_provenance_null(self):
        _job, payload = make_payload()
        payload["trace"] = {"name": "pipeline", "elapsed_s": 0.5}
        with Warehouse() as warehouse:
            key = warehouse.record_payload(payload)
            (row,) = warehouse._conn.execute(
                "SELECT trace_id, worker, attempt FROM span_stats"
                " WHERE job_key = ?",
                (key,),
            ).fetchall()
            assert tuple(row) == (None, None, None)


# ----------------------------------------------------------------------
def run_inline_job(run_payload, while_running=None):
    """One evaluate on an inline single-thread manager; returns timelines.

    ``while_running(manager, job)`` (a coroutine function) runs after
    submission, before the job settles; the settled timeline follows.
    """
    executor = JobManager.inline_executor(1)

    async def body():
        manager = JobManager(executor=executor, run_payload=run_payload)
        try:
            job = manager.submit_evaluate(
                {"benchmark": "171.swim", "scale": 0.01, "simulate": False}
            )
            live = None
            if while_running is not None:
                live = await while_running(manager, job)
            finished = await manager.wait(job.id, timeout=15)
            assert finished.status == "done", finished.error
            return live, manager.timeline(job.id)
        finally:
            await manager.close()

    try:
        return asyncio.run(body())
    finally:
        executor.shutdown(wait=True)


def named(node, name):
    return [child for child in node.get("children", ()) if child["name"] == name]


class TestServiceTimeline:
    def test_single_process_timeline_has_no_clock_skew(self):
        _live, timeline = run_inline_job(ok_payload)
        tree = timeline["tree"]
        assert "clock skew" not in render_timeline(timeline)
        root_start = tree["start_s"]
        stack = list(tree.get("children", ()))
        while stack:
            node = stack.pop()
            assert node["start_s"] >= root_start, node["name"]
            stack.extend(node.get("children", ()))
        admission = tree["children"][0]
        assert admission["name"] == "admission"
        assert admission["start_s"] == root_start  # offset 0
        [experiment] = named(tree, "experiment")
        assert named(experiment, "queue_wait") and named(experiment, "lease")
        assert tree["attributes"]["status"] == "done"

    def test_live_timeline_shows_the_open_experiment(self):
        release = threading.Event()

        def blocking(job_data):
            release.wait(10)
            return ok_payload(job_data)

        async def peek(manager, job):
            await asyncio.sleep(0.05)
            try:
                return manager.timeline(job.id)
            finally:
                release.set()

        live, settled = run_inline_job(blocking, while_running=peek)
        assert live["status"] == "running"
        assert live["tree"]["elapsed_s"] > 0.0
        [experiment] = named(live["tree"], "experiment")
        assert experiment["elapsed_s"] == 0.0  # still open
        [experiment] = named(settled["tree"], "experiment")
        assert experiment["elapsed_s"] > 0.0


# ----------------------------------------------------------------------
def traced_execute(job_data):
    """An injectable worker runner that ships back a span tree."""
    payload = ok_payload(job_data)
    payload["trace"] = {
        "name": "pipeline",
        "elapsed_s": 0.125,
        "start_s": time.time(),
        "attributes": {"benchmark": job_data["benchmark"]},
        "children": [
            {"name": "schedule_loop", "elapsed_s": 0.1, "counters": {"loops": 3}}
        ],
    }
    return payload


class TestDistributedTraceEndToEnd:
    def test_crash_retry_yields_one_trace_with_both_attempts(self, tmp_path):
        service, _store, warehouse = fleet_service(tmp_path, lease_ttl=1.0)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            # Submit with caller-supplied trace context via the header.
            status, _headers, document = client._roundtrip(
                "POST",
                "/v1/evaluate",
                body={
                    "benchmark": "171.swim", "scale": 0.01, "simulate": False,
                },
                headers={"X-Repro-Trace": "cafe0123deadbeef"},
            )
            assert status == 202
            job = document["job"]
            assert job["trace"] == "cafe0123deadbeef"

            # Attempt 1: w1 takes the lease and dies (never completes,
            # never renews); the sweeper requeues the job at TTL.
            deadline = time.monotonic() + 10
            leases = []
            while not leases and time.monotonic() < deadline:
                leases = client.fleet_lease("w1", ttl=1.0)["leases"]
                if not leases:
                    time.sleep(0.05)
            [grant] = leases
            assert grant["trace"]["trace_id"] == "cafe0123deadbeef"

            # Attempt 2: a real worker picks up the steal and completes.
            worker = FleetWorker(
                client,
                worker_id="w2",
                execute=traced_execute,
                ttl=5.0,
                poll=0.05,
                max_jobs=1,
                exit_on_drain=False,
            )
            stats = worker.run()
            assert stats.completed == 1

            finished = client.wait(job["id"], timeout=15)
            assert finished["status"] == "done"

            timeline = client.timeline(job["id"])
            assert timeline["trace"] == "cafe0123deadbeef"
            tree = timeline["tree"]
            assert tree["name"] == "submit"
            assert tree["attributes"]["trace_id"] == "cafe0123deadbeef"

            [experiment] = [
                child for child in tree["children"]
                if child["name"] == "experiment"
            ]
            lease_spans = [
                child for child in experiment.get("children", ())
                if child["name"] == "lease"
            ]
            assert [span["attributes"]["attempt"] for span in lease_spans] == [
                1, 2,
            ]
            assert [span["attributes"]["worker"] for span in lease_spans] == [
                "w1", "w2",
            ]
            assert lease_spans[0]["attributes"]["outcome"] == "expired"
            assert lease_spans[1]["attributes"]["outcome"] == "completed"
            assert any(
                child["name"] == "queue_wait"
                for child in experiment["children"]
            )

            # The worker's span tree re-parented byte-stably under the
            # completing attempt.
            result = client.result(job["id"])
            assert result["job"]["status"] == "done"
            [worker_tree] = lease_spans[1]["children"]
            assert worker_tree["name"] == "pipeline"
            assert worker_tree["children"][0]["counters"] == {"loops": 3}
            assert canonical_json(
                Span.from_dict(worker_tree).to_dict()
            ) == canonical_json(worker_tree)

            # >= 95% of submit->settle wall time attributed to spans.
            assert timeline_attribution(tree) >= 0.95
            assert "timeline trace cafe0123deadbeef" in (
                render_timeline(timeline)
            )

            # The flight recorder correlates the whole story by trace id.
            debug = client.debug_events(trace="cafe0123deadbeef")
            kinds = {event["kind"] for event in debug["events"]}
            assert "queue.submitted" in kinds
            assert "lease.granted" in kinds
            assert "lease.expired" in kinds
            assert "lease.completed" in kinds
            assert "admission.admitted" in kinds
            assert all(
                event["trace"] == "cafe0123deadbeef"
                for event in debug["events"]
            )
            assert debug["stats"]["capacity"] > 0
        finally:
            service.stop()
            warehouse.close()

    def test_settled_trace_lands_in_the_warehouse(self, tmp_path):
        service, _store, warehouse = fleet_service(tmp_path)
        try:
            client = ServiceClient(host=service.host, port=service.port)
            job = client.submit_evaluate(
                benchmark="171.swim", scale=0.01, simulate=False,
                trace="aaaa1111bbbb2222",
            )
            worker = FleetWorker(
                client,
                worker_id="w1",
                execute=traced_execute,
                ttl=5.0,
                poll=0.05,
                max_jobs=1,
                exit_on_drain=False,
            )
            worker.run()
            finished = client.wait(job["id"], timeout=15)
            assert finished["status"] == "done"
            # The trace write is fire-and-forget off the loop; poll.
            deadline = time.monotonic() + 10
            stored = None
            while stored is None and time.monotonic() < deadline:
                stored = warehouse.trace("aaaa1111bbbb2222")
                if stored is None:
                    time.sleep(0.05)
            assert stored is not None
            assert stored["job"] == job["id"]
            assert stored["tree"]["attributes"]["status"] == "done"
            assert warehouse.trace(job["id"])["trace"] == "aaaa1111bbbb2222"
        finally:
            service.stop()
            warehouse.close()

    def test_untraced_results_stay_byte_identical(self):
        # The stamping gate: grants without trace context must yield
        # payloads with no trace_id/worker/attempt keys at all, so
        # fleet results stay byte-identical to direct execution.
        queue = LeaseQueue(ttl=5)
        key, data = job_dict(buses=3)
        queue.submit(key, data)
        [grant] = queue.lease("w1")
        payload = ok_payload(data)
        accepted, _reason = queue.complete("w1", grant.token, payload)
        assert accepted
        assert "trace_id" not in payload and "worker" not in payload
