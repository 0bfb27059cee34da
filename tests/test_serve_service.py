"""Service-level tests: ReproServer + ServeClient over a real TCP socket.

Most tests drive the daemon against a *fake* session whose ``run`` blocks
on an event the test controls, so queueing, deduplication, backpressure and
cancellation are exercised deterministically.  The final tests use a real
:class:`~repro.api.session.Session` at tiny scale to prove the remote
result is byte-identical to a local run.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.session import Session
from repro.api.spec import RunResult, RunSpec
from repro.parallel.resilience import TaskFailedError
from repro.serve.client import (
    RemoteError,
    RemoteRunError,
    ServeBusyError,
    ServeClient,
    wait_until_ready,
)
from repro.serve.server import ReproServer
from repro.store.result_store import _strip_volatile


def _spec(name: str) -> dict:
    return {"kind": "simulate", "name": name}


class FakeSession:
    """Session stand-in with a controllable, observable ``run``."""

    def __init__(self, gate: threading.Event | None = None) -> None:
        self.gate = gate  # run() blocks here when set
        self.ran: list[str] = []
        self.fail_names: dict[str, Exception] = {}
        self.closed = 0
        self.store = None

    def run(self, spec: RunSpec) -> RunResult:
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "test gate never opened"
        self.ran.append(spec.name)
        error = self.fail_names.get(spec.name)
        if error is not None:
            raise error
        return RunResult(spec=spec, rows=[{"name": spec.name, "value": 1.5}])

    def close(self) -> None:
        self.closed += 1


@pytest.fixture()
def gated():
    """A started server whose evaluation thread blocks until gate.set()."""
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = ReproServer(session, port=0, queue_limit=4)
    server.start()
    try:
        yield server, session, gate
    finally:
        gate.set()
        server.stop()
        server.join(timeout=30.0)


def _client(server: ReproServer, client_id: str = "test") -> ServeClient:
    return ServeClient(host="127.0.0.1", port=server.port, timeout=30.0, client_id=client_id)


def _wait_state(client: ServeClient, job_id: str, state: str, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["state"] == state:
            return status
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {state!r} (last: {status})")


# ---------------------------------------------------------------- liveness


def test_ping_reports_versions(gated):
    server, _, _ = gated
    from repro import package_version
    from repro.serve.protocol import PROTOCOL_VERSION

    with _client(server) as client:
        info = client.ping()
    assert info["server_version"] == package_version()
    assert info["protocol_version"] == PROTOCOL_VERSION
    assert info["uptime_seconds"] >= 0
    assert info["store_attached"] is False


def test_wait_until_ready_and_timeout(gated):
    server, _, _ = gated
    assert wait_until_ready(f"127.0.0.1:{server.port}", timeout=10.0)["ok"]
    with pytest.raises(TimeoutError):
        wait_until_ready("127.0.0.1:1", timeout=0.3)


def test_unknown_verb_is_rejected(gated):
    server, _, _ = gated
    with _client(server) as client:
        with pytest.raises(RemoteError) as excinfo:
            client._checked(client._request({"verb": "frobnicate"}))
    assert excinfo.value.code == "bad_frame"


# ------------------------------------------------------------- submit/queue


def test_submit_queue_run_result_cycle(gated):
    server, session, gate = gated
    with _client(server) as client:
        response = client.submit(_spec("cycle"))
        assert response["state"] == "queued" and response["source"] == "queue"
        job_id = response["job_id"]
        _wait_state(client, job_id, "running")
        gate.set()
        result = client.wait(job_id)
    assert isinstance(result, RunResult)
    assert result.rows == [{"name": "cycle", "value": 1.5}]
    assert session.ran == ["cycle"]


def test_run_blocking_mirror(gated):
    server, _, gate = gated
    gate.set()
    with _client(server) as client:
        result = client.run(_spec("mirror"))
    assert result.spec.name == "mirror"


def test_invalid_spec_rejected_without_queueing(gated):
    server, session, _ = gated
    with _client(server) as client:
        with pytest.raises(RemoteError) as excinfo:
            client._checked(client._request({
                "verb": "submit", "spec": {"kind": "simulate", "config": "no_such_config"},
            }))
        assert excinfo.value.code == "invalid_spec"
        with pytest.raises(RemoteError) as excinfo:
            client._checked(client._request({"verb": "submit", "spec": "not a dict"}))
        assert excinfo.value.code == "invalid_spec"
    assert session.ran == []


@pytest.mark.parametrize("overrides", [{"rob_entries": 0}, {"l2": {"line_bytes": 0}}])
def test_invalid_machine_config_rejected_before_journal(tmp_path, overrides):
    """A spec whose machine config cannot be built never reaches the journal."""
    from repro.serve.journal import JobJournal

    journal_path = tmp_path / "journal.jsonl"
    session = FakeSession()
    server = ReproServer(session, port=0, journal=JobJournal(journal_path))
    server.start()
    try:
        with _client(server) as client:
            with pytest.raises(RemoteError) as excinfo:
                client._checked(client._request({
                    "verb": "submit",
                    "spec": {"kind": "simulate", "config_overrides": overrides},
                }))
            assert excinfo.value.code == "invalid_spec"
            assert "invalid config_overrides" in str(excinfo.value)
            assert client.stats()["counters"]["submitted"] == 0
    finally:
        server.stop()
        server.join(timeout=30.0)
    assert session.ran == []
    assert not journal_path.exists() or "submit" not in journal_path.read_text()


def test_inflight_dedup_one_evaluation(gated):
    server, session, gate = gated
    with _client(server, "one") as first, _client(server, "two") as second:
        blocker = first.submit(_spec("blocker"))
        _wait_state(first, blocker["job_id"], "running")
        response_a = first.submit(_spec("same"))
        response_b = second.submit(_spec("same"))
        assert response_a["job_id"] == response_b["job_id"]
        assert response_b["source"] == "inflight"
        gate.set()
        result_a = first.wait(response_a["job_id"])
        result_b = second.wait(response_b["job_id"])
    assert result_a.to_json_dict() == result_b.to_json_dict()
    assert session.ran.count("same") == 1
    with _client(server) as client:
        assert client.stats()["counters"]["dedup_hits"] == 1


def test_backpressure_queue_full_retry_after(gated):
    server, _, gate = gated  # queue_limit=4
    with _client(server) as client:
        blocker = client.submit(_spec("blocker"))
        _wait_state(client, blocker["job_id"], "running")
        for index in range(4):
            client.submit(_spec(f"fill-{index}"))
        with pytest.raises(ServeBusyError) as excinfo:
            client.submit(_spec("overflow"))
        assert excinfo.value.retry_after > 0
        gate.set()
        # run() retries through the backpressure window and completes.
        result = client.run(_spec("overflow"), busy_deadline=30.0)
    assert result.spec.name == "overflow"


def test_cancel_queued_job_and_result_error(gated):
    server, session, gate = gated
    with _client(server) as client:
        blocker = client.submit(_spec("blocker"))
        _wait_state(client, blocker["job_id"], "running")
        queued = client.submit(_spec("victim"))
        response = client.cancel(queued["job_id"])
        assert response["cancelled"] and response["state"] == "cancelled"
        with pytest.raises(RemoteRunError) as excinfo:
            client.result(queued["job_id"])
        assert excinfo.value.code == "job_cancelled"
        gate.set()
        client.wait(blocker["job_id"])
    assert "victim" not in session.ran


def test_cancel_deduplicated_job_keeps_other_waiter(gated):
    server, session, gate = gated
    with _client(server, "one") as first, _client(server, "two") as second:
        blocker = first.submit(_spec("blocker"))
        _wait_state(first, blocker["job_id"], "running")
        shared_a = first.submit(_spec("shared"))
        second.submit(_spec("shared"))
        response = first.cancel(shared_a["job_id"])
        assert not response["cancelled"]
        gate.set()
        result = second.wait(shared_a["job_id"])
    assert result.spec.name == "shared"
    assert session.ran.count("shared") == 1


def test_round_robin_fairness_across_clients(gated):
    server, session, gate = gated
    with _client(server, "hog") as hog, _client(server, "small") as small:
        blocker = hog.submit(_spec("blocker"))
        _wait_state(hog, blocker["job_id"], "running")
        hog_jobs = [hog.submit(_spec(f"hog-{i}")) for i in range(3)]
        small_job = small.submit(_spec("small-1"))
        # The small client's single job runs right after the hog's first:
        # live positions (via status) reflect the round-robin deal.
        assert small.status(small_job["job_id"])["position"] == 1
        assert [hog.status(j["job_id"])["position"] for j in hog_jobs] == [0, 2, 3]
        gate.set()
        small.wait(small_job["job_id"])
    assert session.ran.index("small-1") < session.ran.index("hog-1")


# --------------------------------------------------------------- failures


def test_failed_job_raises_remote_run_error(gated):
    server, session, gate = gated
    session.fail_names["doomed"] = ValueError("synthetic failure")
    gate.set()
    with _client(server) as client:
        with pytest.raises(RemoteRunError) as excinfo:
            client.run(_spec("doomed"))
        assert excinfo.value.code == "job_failed"
        assert "synthetic failure" in str(excinfo.value)
        assert client.stats()["counters"]["failed"] == 1
    # The daemon survives the failure and keeps serving.
    with _client(server) as client:
        assert client.run(_spec("after")).spec.name == "after"


def test_quarantined_job_maps_to_its_own_code(gated):
    server, session, gate = gated
    session.fail_names["toxic"] = TaskFailedError("every retry failed")
    gate.set()
    with _client(server) as client:
        with pytest.raises(RemoteRunError) as excinfo:
            client.run(_spec("toxic"))
        assert excinfo.value.code == "job_quarantined"
        assert excinfo.value.state == "quarantined"


def test_unknown_job_code(gated):
    server, _, _ = gated
    with _client(server) as client:
        with pytest.raises(RemoteError) as excinfo:
            client.status("job-404")
        assert excinfo.value.code == "unknown_job"


# --------------------------------------------------------------- shutdown


def test_shutdown_cancels_queue_and_closes_session():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = ReproServer(session, port=0)
    server.start()
    with _client(server) as client:
        blocker = client.submit(_spec("blocker"))
        _wait_state(client, blocker["job_id"], "running")
        queued = client.submit(_spec("queued"))
        assert client.shutdown()["stopping"]
        # New work is refused while stopping.
        with pytest.raises(RemoteError) as excinfo:
            client.submit(_spec("late"))
        assert excinfo.value.code == "shutting_down"
    gate.set()
    server.join(timeout=30.0)
    assert session.closed == 1  # idempotent close ran exactly once
    table_job = server.table.get(queued["job_id"])
    assert table_job.state == "cancelled"
    assert session.ran == ["blocker"]  # the running job finished cleanly


def test_stats_includes_store_hits_counter(gated):
    server, _, gate = gated
    gate.set()
    with _client(server) as client:
        client.run(_spec("one"))
        stats = client.stats()
    assert stats["counters"]["store_hits"] == 0
    assert stats["counters"]["completed"] == 1
    assert stats["queue_limit"] == 4


# ------------------------------------------------ durability: journal+replay


class FakeStore:
    """Digest-keyed store stand-in (only what the server touches)."""

    def __init__(self) -> None:
        self.results: dict[str, RunResult] = {}

    def get(self, digest: str):
        return self.results.get(digest)

    def __len__(self) -> int:
        return len(self.results)


def _digest(spec: dict) -> str:
    return RunSpec.from_json_dict(spec).digest


def test_journal_replay_reenqueues_lost_jobs(tmp_path):
    from repro.serve.journal import JobJournal

    journal = JobJournal(tmp_path / "journal.jsonl")
    # The previous daemon died with one job running and one queued.
    for name in ("lost-running", "lost-queued"):
        spec = RunSpec.from_json_dict(_spec(name)).to_json_dict()
        journal.append_submit(_digest(_spec(name)), spec, "crashed-client")
    journal.append_start(_digest(_spec("lost-running")))

    session = FakeSession()
    server = ReproServer(session, port=0, journal=journal)
    server.start()
    try:
        assert server.restored_jobs == 2
        deadline = time.monotonic() + 10.0
        while set(session.ran) != {"lost-running", "lost-queued"}:
            assert time.monotonic() < deadline, f"replayed jobs never ran: {session.ran}"
            time.sleep(0.01)
        with _client(server) as client:
            assert client.stats()["counters"]["restored"] == 2
    finally:
        server.stop()
        server.join(timeout=30.0)
    # Everything terminal again: a restart now replays nothing.
    assert journal.outstanding() == []


def test_journal_replay_short_circuits_store_hits(tmp_path):
    from repro.serve.journal import JobJournal

    journal = JobJournal(tmp_path / "journal.jsonl")
    done_spec = RunSpec.from_json_dict(_spec("already-done"))
    journal.append_submit(done_spec.digest, done_spec.to_json_dict(), "c")
    session = FakeSession()
    session.store = FakeStore()
    session.store.results[done_spec.digest] = RunResult(spec=done_spec, rows=[])
    server = ReproServer(session, port=0, journal=journal)
    server.start()
    try:
        assert server.restored_jobs == 0  # answered from the store, not re-run
        assert journal.outstanding() == []
    finally:
        server.stop()
        server.join(timeout=30.0)
    assert session.ran == []


def test_submit_is_journaled_before_ack_and_drain_persists_queue(tmp_path):
    from repro.serve.journal import JobJournal

    journal = JobJournal(tmp_path / "journal.jsonl")
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = ReproServer(session, port=0, queue_limit=8, journal=journal)
    server.start()
    try:
        with _client(server) as client:
            blocker = client.submit(_spec("blocker"))
            _wait_state(client, blocker["job_id"], "running")
            for index in range(3):
                client.submit(_spec(f"drain-{index}"))
            # Acknowledged work is already durable, pre-drain.
            assert len(journal.outstanding()) == 4
            client.shutdown(drain=True)
    finally:
        gate.set()
        server.join(timeout=30.0)
    # The running blocker finished (journaled terminal); the queued three
    # survive as outstanding for the next daemon.
    outstanding = {entry.digest for entry in journal.outstanding()}
    assert outstanding == {_digest(_spec(f"drain-{i}")) for i in range(3)}

    # A fresh daemon on the same journal replays exactly those jobs.
    gate2 = threading.Event()
    gate2.set()
    session2 = FakeSession(gate=gate2)
    server2 = ReproServer(session2, port=0, journal=journal)
    server2.start()
    try:
        assert server2.restored_jobs == 3
        deadline = time.monotonic() + 10.0
        while len(session2.ran) < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert sorted(session2.ran) == [f"drain-{i}" for i in range(3)]
    finally:
        server2.stop()
        server2.join(timeout=30.0)
    assert journal.outstanding() == []


def test_shutdown_without_drain_cancels_and_journals(tmp_path):
    from repro.serve.journal import JobJournal

    journal = JobJournal(tmp_path / "journal.jsonl")
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = ReproServer(session, port=0, journal=journal)
    server.start()
    try:
        with _client(server) as client:
            blocker = client.submit(_spec("blocker"))
            _wait_state(client, blocker["job_id"], "running")
            client.submit(_spec("victim"))
            client.shutdown(drain=False)
    finally:
        gate.set()
        server.join(timeout=30.0)
    # Cancelled queue + finished blocker are all terminal: nothing replays.
    assert journal.outstanding() == []


# ------------------------------------------------------ watchdog + deadlines


class HangingSession(FakeSession):
    """Run hangs forever for marked names (watchdog fodder)."""

    def __init__(self) -> None:
        super().__init__(gate=None)
        self.hang_names: set[str] = set()
        self.hung = threading.Event()

    def run(self, spec: RunSpec) -> RunResult:
        if spec.name in self.hang_names:
            self.hung.set()
            time.sleep(3600.0)
        return super().run(spec)


def test_watchdog_quarantines_hung_eval_and_loop_survives():
    session = HangingSession()
    session.hang_names.add("wedged")
    server = ReproServer(session, port=0, job_timeout=0.4)
    server.start()
    try:
        with _client(server) as client:
            with pytest.raises(RemoteRunError) as excinfo:
                client.run(_spec("wedged"))
            assert excinfo.value.code == "job_quarantined"
            assert "watchdog" in str(excinfo.value)
            # The eval loop survived the abandoned thread: next job runs.
            assert client.run(_spec("healthy")).spec.name == "healthy"
            assert client.stats()["counters"]["watchdog_fired"] == 1
    finally:
        server.stop()
        server.join(timeout=30.0)
    assert server.watchdog_fired == 1


def test_spec_task_timeout_beats_server_job_timeout():
    session = HangingSession()
    session.hang_names.add("slow-spec")
    # Server-wide deadline is generous; the spec's own task_timeout is not.
    server = ReproServer(session, port=0, job_timeout=3600.0)
    server.start()
    try:
        with _client(server) as client:
            spec = dict(_spec("slow-spec"), task_timeout=0.4)
            start = time.monotonic()
            with pytest.raises(RemoteRunError) as excinfo:
                client.run(spec)
            assert excinfo.value.code == "job_quarantined"
            assert time.monotonic() - start < 30.0  # not the 3600s default
    finally:
        server.stop()
        server.join(timeout=30.0)


# --------------------------------------------------- heartbeats + failover


def test_watch_emits_heartbeats_while_nothing_changes(gated):
    server, _, gate = gated
    server.heartbeat_seconds = 0.2
    from repro.serve.protocol import recv_frame, send_frame

    with _client(server) as client:
        blocker = client.submit(_spec("blocker"))
        _wait_state(client, blocker["job_id"], "running")
        queued = client.submit(_spec("parked"))
        sock = client._connection()
        send_frame(sock, {"verb": "watch", "job_id": queued["job_id"]})
        frames = [recv_frame(sock) for _ in range(4)]
        heartbeats = [f for f in frames if f.get("heartbeat")]
        assert heartbeats, f"no heartbeat among {frames}"
        assert all(f["ok"] and not f["final"] for f in heartbeats)
        client._drop_connection()  # abandon the stream mid-watch
        gate.set()
        assert client.wait(queued["job_id"]).spec.name == "parked"


def test_wait_reopens_dropped_watch_stream(gated):
    server, _, gate = gated
    with _client(server) as client:
        blocker = client.submit(_spec("blocker"))
        _wait_state(client, blocker["job_id"], "running")
        queued = client.submit(_spec("resumed"))
        job_id = queued["job_id"]

        def sever_then_release() -> None:
            time.sleep(0.3)
            # Sever the client's live watch socket out from under it.  (No
            # lock here: _watch_stream holds it for the whole stream.)
            sock = client._sock
            if sock is not None:
                import socket as socketlib
                try:
                    sock.shutdown(socketlib.SHUT_RDWR)
                except OSError:
                    pass
            time.sleep(0.1)
            gate.set()

        saboteur = threading.Thread(target=sever_then_release, daemon=True)
        saboteur.start()
        result = client.wait(job_id)  # survives the severed stream
        saboteur.join(timeout=10.0)
    assert result.spec.name == "resumed"


def test_client_fails_over_to_second_endpoint():
    gate = threading.Event()
    gate.set()
    session = FakeSession(gate=gate)
    server = ReproServer(session, port=0)
    server.start()
    try:
        # A dead endpoint first: connect fails over to the live daemon.
        dead = "127.0.0.1:1"
        with ServeClient(f"{dead},127.0.0.1:{server.port}", timeout=10.0) as client:
            assert client.run(_spec("failover")).spec.name == "failover"
            assert client.port == server.port  # rotated to the live endpoint
    finally:
        server.stop()
        server.join(timeout=30.0)


def test_wait_resubmits_by_digest_after_daemon_restart(tmp_path):
    # Daemon A dies with the job queued; the client's wait() fails over to
    # daemon B (same store+journal semantics via resubmit-by-digest).
    gate_a = threading.Event()
    session_a = FakeSession(gate=gate_a)
    server_a = ReproServer(session_a, port=0)
    server_a.start()

    gate_b = threading.Event()
    gate_b.set()
    session_b = FakeSession(gate=gate_b)
    server_b = ReproServer(session_b, port=0)
    server_b.start()
    try:
        spec = _spec("resubmitted")
        with ServeClient(f"127.0.0.1:{server_a.port},127.0.0.1:{server_b.port}",
                         timeout=10.0) as client:
            blocker = client.submit(_spec("blocker"))
            _wait_state(client, blocker["job_id"], "running")
            queued = client.submit(spec)
            # Kill daemon A abruptly: its listener dies, queue is lost.
            server_a._listener.close()
            server_a._stopping.set()
            result = client.wait(str(queued["job_id"]), spec=spec)
        assert result.spec.name == "resubmitted"
        assert session_b.ran == ["resubmitted"]
    finally:
        gate_a.set()
        for server in (server_a, server_b):
            server.stop()
            server.join(timeout=30.0)


# ------------------------------------------------- real session, real store


@pytest.fixture(scope="module")
def tiny_spec() -> dict:
    return {
        "kind": "simulate",
        "name": "serve-tiny",
        "workloads": ["403.gcc_proxy"],
        "scale": "quick",
        "scale_overrides": {"workload_instructions": 1500},
    }


def test_remote_result_byte_identical_to_local(tmp_path, tiny_spec):
    server = ReproServer(Session(store=tmp_path / "store"), port=0)
    with server:
        with _client(server) as client:
            remote_first = client.run(tiny_spec)
            remote_again = client.run(tiny_spec)  # served from the store
            stats = client.stats()
    assert stats["counters"]["store_hits"] == 1
    assert stats["counters"]["submitted"] == 1  # the duplicate never queued
    with Session() as session:
        local = session.run(dict(tiny_spec))
    stripped = _strip_volatile(local.to_json_dict())
    assert _strip_volatile(remote_first.to_json_dict()) == stripped
    # Store answers are the *original* result verbatim, timing included.
    assert remote_again.to_json_dict() == remote_first.to_json_dict()


def test_store_hit_submit_returns_result_inline(tmp_path, tiny_spec):
    server = ReproServer(Session(store=tmp_path / "store"), port=0)
    with server:
        with _client(server) as client:
            client.run(tiny_spec)
            response = client.submit(tiny_spec)
    assert response["source"] == "store"
    assert response["job_id"] is None
    assert response["result"]["rows"]
