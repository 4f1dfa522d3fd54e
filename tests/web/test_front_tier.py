"""The front tier: write forwarding, read fan-out, session guarantees,
and backend health — driven with in-process backends and a manually
pumped replica so lag is fully controlled.
"""

import random
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.repository import Repository
from repro.corpus.seed import seed_ontologies
from repro.db import Database, database_to_dict
from repro.replication import ReplicaApplier, frames_message, snapshot_message
from repro.web import BackendError, CarCsApi, Client, FrontTier, LocalBackend
from repro.web.front import BACKEND_HEADER, SESSION_HEADER, VERSION_HEADER
from repro.web.http import json_response


class DownBackend:
    """A backend whose node is unreachable."""

    def __init__(self, name: str) -> None:
        self.name = name

    def request(self, request):
        raise BackendError(f"{self.name}: connection refused")


class FlakyBackend(LocalBackend):
    """A LocalBackend with a kill switch."""

    def __init__(self, name, app):
        super().__init__(name, app)
        self.down = False

    def request(self, request):
        if self.down:
            raise BackendError(f"{self.name}: injected outage")
        return super().request(request)


@pytest.fixture()
def fleet():
    """A primary + one replica behind a FrontTier, with manual pumping.

    The replica's applier is never connected to a socket; committed
    frames are captured off the primary's commit hook and delivered on
    demand via ``pump(n)`` — so tests decide exactly how far the replica
    lags at any moment.
    """
    primary_repo = Repository()
    seed_ontologies(primary_repo)
    primary_api = CarCsApi(primary_repo)

    bootstrap = database_to_dict(primary_repo.db)
    frames = []
    primary_repo.db.add_commit_listener(frames.append)

    replica_db = Database("replica")
    applier = ReplicaApplier(replica_db, ("127.0.0.1", 1))  # never dialled
    applier.handle_message(snapshot_message(bootstrap, 0.0))
    replica_repo = Repository(replica_db)
    applier.on_snapshot = replica_repo.refresh_bindings
    replica_api = CarCsApi(
        replica_repo, replication=applier, read_only=True,
        primary_url="http://primary.example:8080",
    )

    front = FrontTier(
        LocalBackend("primary", primary_api),
        [LocalBackend("replica-0", replica_api)],
        probe_cooldown=0.05,
    )
    cursor = [len(frames)]

    def pump(n=None):
        end = len(frames) if n is None else min(cursor[0] + n, len(frames))
        if end > cursor[0]:
            applier.handle_message(frames_message(
                frames[cursor[0]:end], primary_repo.db.version, time.time(),
            ))
            cursor[0] = end

    return SimpleNamespace(
        client=Client(front, root="/api/v1"),
        front=front,
        primary_repo=primary_repo,
        replica_db=replica_db,
        replica_client=Client(replica_api, root="/api/v1"),
        pump=pump,
    )


class TestWriteForwarding:
    def test_writes_land_on_the_primary(self, fleet):
        created = fleet.client.post("/assignments", body={"title": "W"})
        assert created.status == 201
        assert created.headers[BACKEND_HEADER] == "primary"
        # ...and never on the replica until pumped.
        assert fleet.replica_db.version < fleet.primary_repo.db.version
        fleet.pump()
        assert fleet.replica_db.version == fleet.primary_repo.db.version

    def test_replica_refuses_direct_writes_with_a_pointer_home(self, fleet):
        refused = fleet.replica_client.post("/assignments", body={"title": "X"})
        assert refused.status == 403
        assert refused.headers["x-carcs-primary"] == "http://primary.example:8080"
        assert "read replica" in refused.json()["error"]["message"]
        assert "http://primary.example:8080" in refused.json()["error"]["message"]


class TestSessionGuarantees:
    def test_session_read_falls_back_to_primary_while_replica_lags(self, fleet):
        session = {SESSION_HEADER: "s-1"}
        created = fleet.client.post(
            "/assignments", body={"title": "Mine"}, headers=session,
        )
        mid = created.json()["id"]
        # Replica never pumped: its version sits below the session floor.
        got = fleet.client.get(f"/assignments/{mid}", headers=session)
        assert got.status == 200
        assert got.headers[BACKEND_HEADER] == "primary"
        assert fleet.front.stale_retries >= 1
        assert int(got.headers[VERSION_HEADER]) >= int(
            created.headers[VERSION_HEADER]
        )

    def test_session_read_comes_from_replica_after_catch_up(self, fleet):
        session = {SESSION_HEADER: "s-2"}
        created = fleet.client.post(
            "/assignments", body={"title": "Mine"}, headers=session,
        )
        fleet.pump()
        got = fleet.client.get(
            f"/assignments/{created.json()['id']}", headers=session,
        )
        assert got.status == 200
        assert got.headers[BACKEND_HEADER] == "replica-0"

    def test_sessionless_reads_take_the_replica_even_when_stale(self, fleet):
        fleet.client.post("/assignments", body={"title": "Unseen"})
        listed = fleet.client.get("/assignments")
        assert listed.headers[BACKEND_HEADER] == "replica-0"
        assert int(listed.headers[VERSION_HEADER]) < fleet.primary_repo.db.version

    def test_read_your_writes_under_concurrent_writers(self, fleet):
        """Noise writers + a pump thread delivering frames in random
        chunks: a session that writes then immediately reads must always
        see its own write (200, same id), wherever the read lands."""
        stop = threading.Event()
        failures = []

        def noise(tag):
            i = 0
            while not stop.is_set():
                r = fleet.client.post(
                    "/assignments", body={"title": f"noise-{tag}-{i}"},
                )
                if r.status != 201:
                    failures.append(("write", tag, r.status))
                i += 1

        rng = random.Random(0xF0)

        def pumper():
            while not stop.is_set():
                fleet.pump(rng.randint(0, 3))
                time.sleep(0.001)

        threads = [
            threading.Thread(target=noise, args=(t,), daemon=True)
            for t in ("a", "b")
        ] + [threading.Thread(target=pumper, daemon=True)]
        for thread in threads:
            thread.start()
        session = {SESSION_HEADER: "s-ryw"}
        backends = set()
        try:
            for i in range(40):
                created = fleet.client.post(
                    "/assignments", body={"title": f"mine-{i}"},
                    headers=session,
                )
                assert created.status == 201
                mid = created.json()["id"]
                got = fleet.client.get(f"/assignments/{mid}", headers=session)
                assert got.status == 200, (
                    f"write {i} (id {mid}) invisible to its own session"
                )
                assert got.json()["id"] == mid
                assert got.json()["title"] == f"mine-{i}"
                backends.add(got.headers[BACKEND_HEADER])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not failures
        # The guarantee must have come from the floor check, not from
        # the replica accidentally keeping up — the primary served at
        # least one read (and under heavy lag, most of them).
        assert "primary" in backends

    def test_session_floor_table_is_bounded(self, fleet):
        from repro.web import front as front_mod

        for i in range(front_mod.MAX_SESSIONS + 50):
            response = json_response(None)
            response.headers[VERSION_HEADER] = str(i)
            fleet.front._raise_floor(f"s-{i}", response)
        assert len(fleet.front._sessions) == front_mod.MAX_SESSIONS


class TestPrimaryDown:
    def test_writes_503_with_retry_after_while_reads_serve(self, fleet):
        fleet.pump()
        fleet.front.primary = DownBackend("primary")
        refused = fleet.client.post("/assignments", body={"title": "X"})
        assert refused.status == 503
        assert refused.headers["retry-after"] == "1"
        assert "primary unavailable" in refused.json()["error"]["message"]
        # Reads keep flowing from the replica.
        listed = fleet.client.get("/assignments")
        assert listed.status == 200
        assert listed.headers[BACKEND_HEADER] == "replica-0"
        assert fleet.front.status()["primary_errors"] >= 1

    def test_everything_down_is_a_read_503(self, fleet):
        fleet.front.primary = DownBackend("primary")
        fleet.front._slots[0].backend = DownBackend("replica-0")
        response = fleet.client.get("/assignments")
        assert response.status == 503
        assert response.headers["retry-after"] == "1"


class _StubReplicaApp:
    """Answers the health probe with a scriptable replication status."""

    def __init__(self):
        self.replication = {"role": "replica", "connected": True,
                           "lag_frames": 0}
        self.requests = 0

    def __call__(self, request):
        self.requests += 1
        if request.path == "/api/v2/replication":
            return json_response(dict(self.replication))
        return json_response({"ok": True})


class TestReplicaHealth:
    def _front(self, **kwargs):
        stub = _StubReplicaApp()
        flaky = FlakyBackend("replica-0", stub)
        primary = LocalBackend("primary", _StubReplicaApp())
        front = FrontTier(primary, [flaky], probe_cooldown=0.05, **kwargs)
        return front, flaky, stub, Client(front, root="/api/v1")

    def test_failed_replica_is_evicted_then_readmitted(self, fleet_=None):
        front, flaky, _stub, client = self._front()
        assert client.get("/x").headers[BACKEND_HEADER] == "replica-0"
        flaky.down = True
        # Transport failure: evicted mid-read, primary answers instead.
        assert client.get("/x").headers[BACKEND_HEADER] == "primary"
        status = front.status()
        assert status["healthy_replicas"] == 0
        assert status["replicas"][0]["evictions"] == 1
        # Heal the node; after the cooldown the next read probes its
        # replication status and puts it straight back in rotation.
        flaky.down = False
        time.sleep(0.06)
        assert client.get("/x").headers[BACKEND_HEADER] == "replica-0"
        assert front.status()["replicas"][0]["readmissions"] == 1

    def test_lagging_replica_is_not_readmitted_until_caught_up(self):
        front, flaky, stub, client = self._front(max_lag_frames=8)
        flaky.down = True
        client.get("/x")  # evicts
        flaky.down = True
        flaky.down = False
        stub.replication["lag_frames"] = 500
        time.sleep(0.06)
        assert client.get("/x").headers[BACKEND_HEADER] == "primary"
        assert front.status()["healthy_replicas"] == 0
        stub.replication["lag_frames"] = 3
        time.sleep(0.06)
        assert client.get("/x").headers[BACKEND_HEADER] == "replica-0"

    def test_disconnected_replica_is_not_readmitted(self):
        front, flaky, stub, client = self._front()
        flaky.down = True
        client.get("/x")
        flaky.down = False
        stub.replication["connected"] = False
        time.sleep(0.06)
        assert client.get("/x").headers[BACKEND_HEADER] == "primary"
        stub.replication["connected"] = True
        time.sleep(0.06)
        assert client.get("/x").headers[BACKEND_HEADER] == "replica-0"


class TestFleetStatus:
    def test_fleet_endpoint_answers_from_the_front_tier(self, fleet):
        fleet.client.post("/assignments", body={"title": "X"},
                          headers={SESSION_HEADER: "s"})
        fleet.client.get("/assignments")
        status = fleet.client.get("/fleet").json()
        assert status["role"] == "router"
        assert status["primary"] == "primary"
        assert [r["name"] for r in status["replicas"]] == ["replica-0"]
        assert status["writes"] == 1
        assert status["reads"] == 1
        assert status["sessions"] == 1
