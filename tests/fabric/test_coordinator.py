"""Coordinator lease lifecycle, dedup, idempotence, and checkpointing."""

import json
import math

import pytest

from repro.fabric.coordinator import Coordinator
from repro.fabric.protocol import (
    WIRE_VERSION,
    ProtocolError,
    UnknownLeaseError,
    task_to_wire,
)
from repro.runner.cache import pack_entry
from repro.runner.executor import _task_cache_key
from repro.runner.plan import RunTask, replicate_plan
from repro.utils.errors import InvalidParameterError


class FakeClock:
    """Injectable time source: lease expiry becomes deterministic."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def wire(seed: int = 1, experiment: str = "E1") -> dict:
    return task_to_wire(RunTask(experiment_id=experiment, seed=seed))


def payload_for(seed: int, tag: str = "A") -> dict:
    """A synthetic (but wire-shaped) result payload."""
    return {"experiment_id": "E1", "seed": seed, "tag": tag}


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def coordinator(tmp_path, clock):
    return Coordinator(tmp_path / "cache", lease_ttl=10.0, clock=clock)


def complete_one(coordinator, worker="w", tag="A"):
    """Lease one task and complete it; returns (key, lease_id)."""
    granted = coordinator.lease(worker)["lease"]
    assert granted is not None
    seed = granted["task"]["seed"]
    coordinator.submit_result(
        granted["lease_id"], worker, payload_for(seed, tag), 1.5
    )
    return granted["key"], granted["lease_id"]


class TestSubmit:
    def test_keys_are_canonical_cache_keys(self, coordinator):
        tasks = [RunTask(experiment_id="E1", seed=s) for s in (1, 2)]
        response = coordinator.submit([task_to_wire(t) for t in tasks])
        assert response["keys"] == [_task_cache_key(t) for t in tasks]
        assert response["cached"] == [False, False]

    def test_resubmission_dedups_without_requeueing(self, coordinator):
        coordinator.submit([wire(1)])
        again = coordinator.submit([wire(1)])
        assert again["cached"] == [False]  # pending, not done
        status = coordinator.status()
        assert status["tasks"] == 1
        assert status["pending"] == 1

    def test_prewarmed_cache_serves_without_leasing(self, coordinator):
        key = _task_cache_key(RunTask(experiment_id="E1", seed=1))
        coordinator.cache.put(key, pack_entry(payload_for(1), 2.0))
        response = coordinator.submit([wire(1)])
        assert response["cached"] == [True]
        assert coordinator.lease("w")["lease"] is None
        outcome = coordinator.collect([key])["outcomes"][key]
        assert outcome["report"] == payload_for(1)
        assert outcome["worker"] is None

    def test_invalid_task_rejected_before_any_queuing(self, coordinator):
        with pytest.raises(ProtocolError, match="rejected task"):
            coordinator.submit([wire(1), wire(2, experiment="E999")])
        assert coordinator.status()["tasks"] == 0

    def test_submit_plan_preloads_every_task(self, tmp_path, clock):
        coordinator = Coordinator(tmp_path / "cache", clock=clock)
        plan = replicate_plan("E1", replicates=3)
        coordinator.submit_plan(plan)
        assert coordinator.status()["pending"] == 3

    def test_lease_carries_resolved_canonical_params(self, coordinator):
        from repro.experiments.base import get_spec

        coordinator.submit([wire(1)])
        granted = coordinator.lease("w")["lease"]
        expected = get_spec("E1").resolve("fast", {}).canonical()
        assert granted["resolved"] == expected
        assert granted["ttl"] == 10.0


class TestLeaseLifecycle:
    def test_lease_then_result_then_collect(self, coordinator):
        [key] = coordinator.submit([wire(1)])["keys"]
        response = coordinator.lease("w1")
        granted = response["lease"]
        assert granted["key"] == key
        assert response["done"] is False
        assert coordinator.collect([key])["outcomes"][key] is None

        verdict = coordinator.submit_result(
            granted["lease_id"], "w1", payload_for(1), 1.5
        )
        assert verdict == {"accepted": True, "stored": True, "duplicate": False}
        outcome = coordinator.collect([key])["outcomes"][key]
        assert outcome["report"] == payload_for(1)
        assert outcome["worker"] == "w1"
        status = coordinator.status()
        assert status["done"] == 1
        assert status["executed"] == 1
        assert coordinator.lease("w1")["done"] is True

    def test_single_task_leased_once(self, coordinator):
        coordinator.submit([wire(1)])
        assert coordinator.lease("w1")["lease"] is not None
        assert coordinator.lease("w2")["lease"] is None

    def test_heartbeat_on_active_lease(self, coordinator):
        coordinator.submit([wire(1)])
        granted = coordinator.lease("w")["lease"]
        assert coordinator.heartbeat(granted["lease_id"]) == {
            "ok": True,
            "state": "active",
        }

    def test_release_requeues_the_task(self, coordinator):
        coordinator.submit([wire(1)])
        granted = coordinator.lease("w1")["lease"]
        coordinator.release(granted["lease_id"], error="boom")
        regranted = coordinator.lease("w2")["lease"]
        assert regranted is not None
        assert regranted["key"] == granted["key"]
        assert regranted["lease_id"] != granted["lease_id"]

    def test_result_without_experiment_id_rejected(self, coordinator):
        coordinator.submit([wire(1)])
        granted = coordinator.lease("w")["lease"]
        with pytest.raises(ProtocolError, match="experiment_id"):
            coordinator.submit_result(
                granted["lease_id"], "w", {"rows": []}, 1.0
            )

    def test_unknown_lease_is_loud_everywhere(self, coordinator):
        with pytest.raises(UnknownLeaseError):
            coordinator.heartbeat("never-issued")
        with pytest.raises(UnknownLeaseError, match="restarted"):
            coordinator.submit_result("never-issued", "w", payload_for(1), 1.0)
        with pytest.raises(UnknownLeaseError):
            coordinator.release("never-issued")

    def test_collect_of_unsubmitted_key_is_loud(self, coordinator):
        with pytest.raises(ProtocolError, match="unsubmitted"):
            coordinator.collect(["deadbeef"])

    def test_collect_requeues_when_cache_entry_vanishes(self, coordinator):
        [key] = coordinator.submit([wire(1)])["keys"]
        complete_one(coordinator)
        coordinator.cache.clear()
        assert coordinator.collect([key])["outcomes"][key] is None
        assert coordinator.status()["pending"] == 1
        # The requeued task is leasable again and completes normally.
        complete_one(coordinator, worker="w2")
        assert coordinator.collect([key])["outcomes"][key]["worker"] == "w2"


class TestExpiry:
    def test_expired_lease_requeues_for_another_worker(
        self, coordinator, clock
    ):
        coordinator.submit([wire(1)])
        first = coordinator.lease("w1")["lease"]
        clock.advance(10.1)
        second = coordinator.lease("w2")["lease"]
        assert second is not None
        assert second["key"] == first["key"]
        assert second["lease_id"] != first["lease_id"]
        assert coordinator.heartbeat(first["lease_id"]) == {
            "ok": False,
            "state": "expired",
        }

    def test_unexpired_lease_is_not_reaped(self, coordinator, clock):
        coordinator.submit([wire(1)])
        coordinator.lease("w1")
        clock.advance(9.9)
        assert coordinator.lease("w2")["lease"] is None

    def test_heartbeat_extends_the_deadline(self, coordinator, clock):
        coordinator.submit([wire(1)])
        granted = coordinator.lease("w1")["lease"]
        clock.advance(8.0)
        coordinator.heartbeat(granted["lease_id"])
        clock.advance(8.0)  # past the original deadline, not the extended
        assert coordinator.lease("w2")["lease"] is None
        assert coordinator.heartbeat(granted["lease_id"])["ok"] is True

    def test_late_result_after_replacement_wins_is_duplicate(
        self, coordinator, clock
    ):
        [key] = coordinator.submit([wire(1)])["keys"]
        slow = coordinator.lease("w1")["lease"]
        clock.advance(10.1)
        fast = coordinator.lease("w2")["lease"]
        coordinator.submit_result(
            fast["lease_id"], "w2", payload_for(1, tag="fast"), 1.0
        )
        verdict = coordinator.submit_result(
            slow["lease_id"], "w1", payload_for(1, tag="slow"), 9.0
        )
        assert verdict == {
            "accepted": True,
            "stored": False,
            "duplicate": True,
        }
        # First write won: the stored report is the fast worker's.
        outcome = coordinator.collect([key])["outcomes"][key]
        assert outcome["report"]["tag"] == "fast"
        assert outcome["worker"] == "w2"
        assert coordinator.status()["executed"] == 1

    def test_expired_worker_finishing_first_still_stores(
        self, coordinator, clock
    ):
        [key] = coordinator.submit([wire(1)])["keys"]
        slow = coordinator.lease("w1")["lease"]
        clock.advance(10.1)
        coordinator.lease("w2")  # re-leased, still running
        verdict = coordinator.submit_result(
            slow["lease_id"], "w1", payload_for(1, tag="slow"), 9.0
        )
        assert verdict["stored"] is True
        outcome = coordinator.collect([key])["outcomes"][key]
        assert outcome["worker"] == "w1"
        # The re-leased copy completing later is a harmless duplicate.
        assert coordinator.status()["done"] == 1


class TestCheckpoint:
    def submit_three(self, coordinator):
        return coordinator.submit([wire(s) for s in (1, 2, 3)])["keys"]

    def test_restart_restores_done_and_pending(self, tmp_path, clock):
        checkpoint = tmp_path / "fabric.json"
        coordinator = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        keys = self.submit_three(coordinator)
        complete_one(coordinator)

        revived = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        status = revived.status()
        assert status["done"] == 1
        assert status["pending"] == 2
        assert status["executed"] == 1
        # Queue order survives: the next lease is the second task.
        assert revived.lease("w")["lease"]["key"] == keys[1]

    def test_in_flight_lease_requeues_on_restart(self, tmp_path, clock):
        checkpoint = tmp_path / "fabric.json"
        coordinator = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        [key] = coordinator.submit([wire(1)])["keys"]
        coordinator.lease("w1")  # in flight at the moment of the "crash"

        revived = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        assert revived.status()["pending"] == 1
        assert revived.lease("w2")["lease"]["key"] == key

    def test_survivor_result_after_restart_stays_idempotent(
        self, tmp_path, clock
    ):
        checkpoint = tmp_path / "fabric.json"
        coordinator = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        [key] = coordinator.submit([wire(1)])["keys"]
        old = coordinator.lease("w1")["lease"]

        revived = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        # The surviving worker pushes its result using the pre-restart
        # lease id: accepted (stored — nothing else computed it yet),
        # never a 409.
        verdict = revived.submit_result(
            old["lease_id"], "w1", payload_for(1), 2.0
        )
        assert verdict["accepted"] is True
        assert verdict["stored"] is True
        assert revived.collect([key])["outcomes"][key]["worker"] == "w1"

    def test_cleared_cache_demotes_done_entries(self, tmp_path, clock):
        checkpoint = tmp_path / "fabric.json"
        coordinator = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        self.submit_three(coordinator)
        complete_one(coordinator)
        coordinator.cache.clear()

        revived = Coordinator(
            tmp_path / "cache", checkpoint=checkpoint, clock=clock
        )
        status = revived.status()
        assert status["done"] == 0
        assert status["pending"] == 3

    def test_version_mismatch_is_loud(self, tmp_path, clock):
        checkpoint = tmp_path / "fabric.json"
        checkpoint.write_text(
            json.dumps({"version": WIRE_VERSION + 1, "entries": []})
        )
        with pytest.raises(InvalidParameterError, match="wire"):
            Coordinator(tmp_path / "cache", checkpoint=checkpoint, clock=clock)

    def test_corrupt_checkpoint_is_loud(self, tmp_path, clock):
        checkpoint = tmp_path / "fabric.json"
        checkpoint.write_text("{not json")
        with pytest.raises(InvalidParameterError, match="unreadable"):
            Coordinator(tmp_path / "cache", checkpoint=checkpoint, clock=clock)

    def test_checkpoint_disabled_without_path(self, tmp_path, clock):
        coordinator = Coordinator(tmp_path / "cache", clock=clock)
        coordinator.submit([wire(1)])
        assert not list(tmp_path.glob("*.json"))


class TestValidation:
    @pytest.mark.parametrize("ttl", [0.0, math.nan, math.inf])
    def test_lease_ttl_must_be_positive(self, tmp_path, ttl):
        # A NaN deadline expires every lease at its next request; an
        # infinite one never frees a dead worker's task.
        with pytest.raises(InvalidParameterError, match="lease_ttl"):
            Coordinator(tmp_path / "cache", lease_ttl=ttl)

    def test_shutdown_flag_propagates(self, coordinator):
        assert coordinator.lease("w")["shutting_down"] is False
        coordinator.request_shutdown()
        assert coordinator.lease("w")["shutting_down"] is True
        assert coordinator.status()["shutting_down"] is True
