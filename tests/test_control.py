"""End-to-end tests for the repro.control plane (the PR's acceptance bar).

The load-bearing claims:

- an injected replica death plus a synthetic p99 breach drive the
  controller through revive → scale R→R+1 → (cooldown) → scale back to R,
  with **byte-identical, non-degraded** answers at every step and zero
  cold builds on revived/added replicas;
- a canary mismatch during an epoch rollout rolls the cluster back to the
  previous epoch, marks the control plane ``degraded:true``, and bumps
  ``control.rollbacks``;
- ``repro control run --dry-run`` / ``plan`` over a probe fixture emit a
  byte-identical JSON action plan on every invocation.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
from pathlib import Path

import pytest

import repro.cli as cli
from repro import telemetry
from repro.control import (
    AdmissionConfig,
    AdmissionPolicy,
    AutoscaleConfig,
    AutoscalePolicy,
    Controller,
    ControllerConfig,
    EpochRollout,
    HealthProbe,
    HealthSample,
    ReplicaHealth,
    SelfHealPolicy,
)
from repro.dynamic import DynamicService
from repro.dynamic.delta import EdgeUpdate
from repro.errors import ParameterError
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.resilience import FaultPlan
from repro.shard import ShardCluster, ShardPlan

from test_gateway import FakeEngine
from test_shard import THETA, small_graph, spec_for
from test_shard_router import SEED, query

SHM_DIR = Path("/dev/shm")


def make_controller(cluster, policies, **kw):
    """A controller on virtual time: the clock steps once per call."""
    steps = itertools.count()
    return Controller(
        HealthProbe(cluster=cluster),
        policies,
        cluster=cluster,
        clock=lambda: float(next(steps)),
        sleep=lambda _s: None,
        **kw,
    )


class TestControllerEndToEnd:
    def test_heal_then_scale_up_then_scale_down(self):
        """The acceptance scenario: revive a killed replica, scale 1→2 on a
        sustained synthetic p99 breach, scale 2→1 once idle past the
        cooldown — answers byte-identical and non-degraded throughout."""
        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=1)
        with telemetry.session() as tel, ShardCluster(plan) as cluster:
            cluster.install_graph("synth", g)
            cluster.build(spec_for())
            ref = cluster.query(query(k=6))
            assert ref.ok and not ref.degraded

            controller = make_controller(
                cluster,
                [
                    SelfHealPolicy(),
                    AutoscalePolicy(
                        AutoscaleConfig(
                            p99_slo_s=0.5, breach_ticks=2, idle_ticks=2,
                            cooldown_ticks=2, min_replicas=1, max_replicas=2,
                        )
                    ),
                ],
            )

            def check_identical():
                resp = cluster.query(query(k=6))
                assert resp.ok and not resp.degraded
                assert resp.seeds == ref.seeds

            def breach():
                hist = tel.registry.histogram("gateway.request_latency_s")
                for _ in range(20):
                    hist.observe(2.0)

            # Tick 0: the dead replica (cache dropped while down) is
            # revived and re-warmed — never cold-built.
            cluster.kill(1, 0)
            cluster.worker(1, 0).engine.cache.clear()
            r0 = controller.tick()
            assert [a["kind"] for a in r0.outcomes] == ["revive"]
            assert r0.outcomes[0]["outcome"] == "applied"
            assert not cluster.worker(1, 0).dead
            check_identical()
            assert cluster.worker(1, 0).engine.stats.cold_samples == 0

            # Ticks 1-2: sustained synthetic p99 breach → exactly one
            # scale-up, bounded by max_replicas.
            breach()
            r1 = controller.tick()
            assert r1.outcomes == []
            assert r1.sample.p99_latency_s > 0.5
            breach()
            r2 = controller.tick()
            assert [a["kind"] for a in r2.outcomes] == ["scale_up"]
            assert len(cluster.workers) == 4
            for shard in (0, 1):
                w = cluster.worker(shard, 1)
                assert w.engine.stats.cold_samples == 0  # warmed from published tier
            check_identical()

            # Tick 3: idle, but still inside the cooldown window.
            r3 = controller.tick()
            assert r3.outcomes == []
            # Tick 4: sustained idle past the cooldown → scale back down.
            r4 = controller.tick()
            assert [a["kind"] for a in r4.outcomes] == ["scale_down"]
            assert len(cluster.workers) == 2
            check_identical()

            counters = tel.snapshot()["counters"]
            assert counters["control.ticks"] == 5
            assert counters["control.revives"] == 1
            assert counters["control.scale_events"] == 2
            assert counters["control.actions.scale_up"] == 1
            assert counters["control.actions.scale_down"] == 1
            status = controller.status()
            assert status["ticks"] == 5
            assert status["action_failures"] == 0
            assert status["quarantined"] == []

    def test_transient_action_fault_is_retried(self):
        """A crash fault on the first apply attempt is absorbed by the
        per-action retry; the revive still lands."""
        g = small_graph()
        with ShardCluster(ShardPlan(num_shards=1)) as cluster:
            cluster.install_graph("synth", g)
            cluster.build(spec_for())
            cluster.kill(0, 0)
            controller = make_controller(
                cluster,
                [SelfHealPolicy()],
                fault_plan=FaultPlan.parse("crash@action:0"),
            )
            report = controller.tick()
            assert report.outcomes[0]["kind"] == "revive"
            assert report.outcomes[0]["outcome"] == "applied"
            assert not cluster.worker(0, 0).dead

    def test_exhausted_action_fault_fails_the_action_not_the_loop(self):
        g = small_graph()
        with telemetry.session() as tel, ShardCluster(
            ShardPlan(num_shards=1)
        ) as cluster:
            cluster.install_graph("synth", g)
            cluster.build(spec_for())
            cluster.kill(0, 0)
            controller = make_controller(
                cluster,
                [SelfHealPolicy()],
                # Crashes both retry attempts of action #0.
                fault_plan=FaultPlan.parse("crash@action:0x2"),
            )
            r0 = controller.tick()
            assert r0.outcomes[0]["outcome"] == "failed"
            assert "error" in r0.outcomes[0]
            assert cluster.worker(0, 0).dead
            # The loop survives; the next tick's revive (action #1) works.
            r1 = controller.tick()
            assert r1.outcomes[0]["outcome"] == "applied"
            assert not cluster.worker(0, 0).dead
            counters = tel.snapshot()["counters"]
            assert counters["control.action_failures"] == 1
            assert controller.status()["action_failures"] == 1

    def test_tune_admission_reaches_the_gateway(self):
        """The admission policy's action retunes a live GatewayServer."""
        server = GatewayServer(
            FakeEngine(), config=GatewayConfig(queue_depth=4)
        )
        full = HealthSample(
            ts=0.0, queue_capacity=4, shed_rate=2.0,
            shed_by_cause={"queue_full": 2.0}, source="fixture",
        )
        controller = Controller(
            lambda: full,
            [AdmissionPolicy(AdmissionConfig(min_queue_depth=2, breach_ticks=2))],
            gateway=server,
            sleep=lambda _s: None,
        )
        assert controller.tick().outcomes == []
        r1 = controller.tick()
        assert [a["kind"] for a in r1.outcomes] == ["tune_admission"]
        assert r1.outcomes[0]["outcome"] == "applied"
        assert server.config.queue_depth == 8

    def test_dry_run_plans_without_touching_the_cluster(self):
        g = small_graph()
        with ShardCluster(ShardPlan(num_shards=1)) as cluster:
            cluster.install_graph("synth", g)
            cluster.build(spec_for())
            cluster.kill(0, 0)
            controller = make_controller(
                cluster, [SelfHealPolicy()],
                config=ControllerConfig(dry_run=True),
            )
            report = controller.tick()
            assert report.outcomes[0]["outcome"] == "planned"
            assert cluster.worker(0, 0).dead  # nothing applied

    def test_missing_handle_is_a_failed_action(self):
        dead = HealthSample(
            ts=0.0, num_shards=1,
            replicas=(
                ReplicaHealth(name="s0r0", shard=0, replica=0, dead=True),
            ),
            source="fixture",
        )
        controller = Controller(
            lambda: dead, [SelfHealPolicy()], sleep=lambda _s: None
        )
        report = controller.tick()
        assert report.outcomes[0]["outcome"] == "failed"
        assert "handle" in report.outcomes[0]["error"]


class TestEpochRollout:
    def test_promote_rollback_recover(self):
        """Epoch lifecycle: a clean epoch promotes; a corrupted canary
        comparison rolls back (cluster keeps serving the old epoch,
        non-degraded answers, ``control.rollbacks`` bumped); the next
        clean epoch recovers."""
        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=2)
        with telemetry.session() as tel, ShardCluster(
            plan
        ) as cluster, DynamicService(
            "synth", g, num_sets=THETA, seed=SEED
        ) as service:
            rollout = EpochRollout(
                service, cluster,
                # Epoch 2's canary seed set is mangled deterministically.
                fault_plan=FaultPlan.parse("corrupt@canary:2"),
            )
            rollout.attach(replay=True)  # bootstraps the current epoch

            def cluster_seeds():
                resp = cluster.query(query(k=5))
                assert resp.ok and not resp.degraded
                return resp.seeds

            assert cluster_seeds() == list(service.query(k=5).seeds)

            # Epoch 1: clean → promoted, cluster in lockstep.
            service.apply(
                [EdgeUpdate("insert", 0, g.num_vertices - 1, 0.9)]
            )
            assert rollout.history[-1]["action"] == "promote"
            assert not rollout.degraded
            epoch1_seeds = cluster_seeds()
            assert epoch1_seeds == list(service.query(k=5).seeds)

            # Epoch 2: the canary comparison is corrupted → rollback.
            service.apply([EdgeUpdate("insert", 1, 5, 0.8)])
            last = rollout.history[-1]
            assert last["action"] == "rollback"
            assert last["degraded"] is True
            assert rollout.degraded and rollout.rollbacks == 1
            # The cluster still serves epoch 1, exactly and non-degraded.
            assert cluster_seeds() == epoch1_seeds
            counters = tel.snapshot()["counters"]
            assert counters["control.rollbacks"] == 1
            assert tel.snapshot()["gauges"]["control.rollout_degraded"] == 1.0

            # Epoch 3: clean again → promoted, degradation clears.
            service.apply([EdgeUpdate("insert", 2, 9, 0.7)])
            assert rollout.history[-1]["action"] == "promote"
            assert not rollout.degraded
            assert cluster_seeds() == list(service.query(k=5).seeds)
            assert rollout.status()["promotions"] == 2
            assert rollout.status()["rollbacks"] == 1
            assert rollout.detach() is True

    def test_dead_canary_shard_rolls_back(self):
        """No live replica on some shard → the epoch cannot be canaried;
        the rollout refuses it rather than fanning out unverified."""
        g = small_graph()
        with ShardCluster(
            ShardPlan(num_shards=2, replication=1)
        ) as cluster, DynamicService(
            "synth", g, num_sets=THETA, seed=SEED
        ) as service:
            rollout = EpochRollout(service, cluster)
            rollout.attach(replay=True)
            cluster.kill(0)
            service.apply([EdgeUpdate("insert", 0, 7, 0.9)])
            last = rollout.history[-1]
            assert last["action"] == "rollback"
            assert "canary" in (last["error"] or "")
            assert rollout.degraded


class TestGatewayAdmissionSurface:
    def test_stats_snapshot_exposes_admission_state(self):
        server = GatewayServer(
            FakeEngine(),
            config=GatewayConfig(queue_depth=4, rate_limit_per_s=10.0),
        )
        snap = server.stats_snapshot()["gateway"]
        for key in (
            "queue_depth", "queue_capacity", "queue_deadline_s",
            "predicted_wait_s", "rate_limit_per_s", "rate_buckets",
            "shed_queue_full", "shed_deadline", "shed_stale",
            "shed_rate_limited",
        ):
            assert key in snap, f"gateway stats missing {key}"
        assert snap["queue_capacity"] == 4
        assert snap["rate_buckets"] == {
            "clients": 0, "min_fill": 1.0, "tokens": 0.0
        }

    def test_set_admission_retunes_and_validates(self):
        server = GatewayServer(
            FakeEngine(),
            config=GatewayConfig(queue_depth=4, rate_limit_per_s=10.0),
        )
        effective = server.set_admission(
            queue_depth=8, rate_limit_per_s=5.0, queue_deadline_s=2.5
        )
        assert effective == {
            "queue_depth": 8, "rate_limit_per_s": 5.0,
            "queue_deadline_s": 2.5,
        }
        assert server.config.queue_depth == 8
        assert server.stats_snapshot()["gateway"]["queue_capacity"] == 8
        # No-op call changes nothing.
        assert server.set_admission()["queue_depth"] == 8
        # The replaced config re-runs GatewayConfig validation.
        with pytest.raises(ParameterError):
            server.set_admission(queue_depth=0)


FIXTURE_DEAD = {
    "ts": 0.0, "num_shards": 1,
    "replicas": [{"name": "s0r0", "shard": 0, "replica": 0, "dead": True}],
    "p99_latency_s": 0.9,
}
FIXTURE_BREACH = {
    "ts": 1.0, "num_shards": 1,
    "replicas": [{"name": "s0r0", "shard": 0, "replica": 0, "dead": False}],
    "p99_latency_s": 0.9,
}


class TestControlCLI:
    def write_fixture(self, tmp_path):
        path = tmp_path / "probe.jsonl"
        rows = [FIXTURE_DEAD] + [
            {**FIXTURE_BREACH, "ts": float(t)} for t in range(1, 5)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def run_cli(self, capsys, argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_plan_emits_a_deterministic_action_plan(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, out1 = self.run_cli(
            capsys, ["control", "plan", "--fixture", str(fixture)]
        )
        assert code == 0
        _, out2 = self.run_cli(
            capsys, ["control", "plan", "--fixture", str(fixture)]
        )
        assert out1 == out2, "plan output must be byte-identical across runs"
        reports = [json.loads(line) for line in out1.splitlines()]
        assert len(reports) == 5
        kinds = [[a["kind"] for a in r["actions"]] for r in reports]
        # Revive the dead replica, then one scale-up once the p99 breach
        # has persisted for the default 3 ticks (cooldown gates the rest).
        assert kinds == [["revive"], [], ["scale_up"], [], []]
        assert all(
            a["outcome"] == "planned" for r in reports for a in r["actions"]
        )
        assert all(r["sample"]["source"] == "fixture" for r in reports)

    def test_run_dry_run_over_fixture_matches_plan(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        _, planned = self.run_cli(
            capsys, ["control", "plan", "--fixture", str(fixture)]
        )
        code, ran = self.run_cli(
            capsys,
            ["control", "run", "--dry-run", "--fixture", str(fixture)],
        )
        assert code == 0 and ran == planned

    def test_ticks_flag_truncates_the_fixture(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, out = self.run_cli(
            capsys,
            ["control", "plan", "--fixture", str(fixture), "--ticks", "2"],
        )
        assert code == 0 and len(out.splitlines()) == 2

    def test_status_prints_the_first_fixture_sample(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, out = self.run_cli(
            capsys, ["control", "status", "--fixture", str(fixture)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["replicas"][0]["dead"] is True

    def test_inject_faults_rejects_scopes_control_never_consults(
        self, tmp_path, capsys
    ):
        """Only the ``action`` scope is consulted: a ``canary`` drill (the
        rollout's scope) would never fire, so it is refused up front."""
        fixture = self.write_fixture(tmp_path)
        argv = ["control", "run", "--dry-run", "--fixture", str(fixture)]
        assert cli.main([*argv, "--inject-faults", "crash@canary:0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "'canary'" in err[0] and "'action'" in err[0]
        assert cli.main([*argv, "--inject-faults", "crash@action:0"]) == 0

    def test_plan_without_fixture_is_a_parameter_error(self, tmp_path, capsys):
        assert cli.main(["control", "plan"]) == 2
        err = capsys.readouterr().err
        assert "--fixture" in err

    def test_empty_fixture_is_a_parameter_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["control", "plan", "--fixture", str(empty)]) == 2


class TestShmCLI:
    def test_list_and_sweep_emit_json(self, capsys):
        assert cli.main(["shm", "list", "--prefix", "tclz"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "op": "list", "prefix": "tclz", "segments": [], "count": 0
        }
        assert cli.main(["shm", "sweep", "--prefix", "tclz"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "op": "sweep", "prefix": "tclz", "removed": [], "count": 0
        }

    @pytest.mark.skipif(not SHM_DIR.is_dir(), reason="needs /dev/shm")
    def test_sweep_reclaims_a_dead_owners_segment(self, capsys):
        proc = subprocess.run(
            ["sh", "-c", "echo $$"], capture_output=True, text=True,
            check=True,
        )
        dead_pid = int(proc.stdout.strip())
        orphan = SHM_DIR / f"tswc-{'ab' * 8}-{dead_pid:x}"
        orphan.write_bytes(b"\0" * 64)
        live = SHM_DIR / f"tswc-{'cd' * 8}-{os.getpid():x}"
        live.write_bytes(b"\0" * 64)
        try:
            assert cli.main(["shm", "sweep", "--prefix", "tswc"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["count"] == 1 and doc["removed"] == [orphan.name]
            assert not orphan.exists() and live.exists()
        finally:
            orphan.unlink(missing_ok=True)
            live.unlink(missing_ok=True)
