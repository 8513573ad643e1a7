"""Tests for the execution auditor."""

import pytest

from repro.adversary.behaviors import silent_factory
from repro.adversary.flooding import flooding_factory
from repro.adversary.plans import equivocation_attack_deployment
from repro.config import ProtocolConfig
from repro.core.invariants import AuditReport, audit_deployment
from repro.core.protocol import ProBFTDeployment
from repro.harness.trial import DeploymentSpec
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout
from repro.types import Decision


def happy_deployment():
    return DeploymentSpec(
        protocol="probft",
        config=ProtocolConfig(n=12, f=2),
        latency=ConstantLatency(1.0),
    ).build()


class TestAuditReport:
    def test_empty_report_ok(self):
        report = AuditReport()
        assert report.ok
        report.add("problem")
        assert not report.ok
        assert "problem" in str(report)


class TestAuditHappyRuns:
    def test_happy_run_passes(self):
        dep = happy_deployment()
        dep.run(max_time=500)
        report = audit_deployment(dep)
        assert report.ok, str(report)
        assert report.checks_run > 12  # at least one check per replica

    def test_view_change_run_passes(self):
        dep = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=10, f=2),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(20.0),
            byzantine={0: silent_factory()},
        ).build()
        dep.run(max_time=2000)
        report = audit_deployment(dep)
        assert report.ok, str(report)

    def test_equivocation_run_passes(self):
        dep, _plan = equivocation_attack_deployment(
            ProtocolConfig(n=16, f=3),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(20.0),
        )
        dep.run(max_time=2000)
        report = audit_deployment(dep)
        assert report.ok, str(report)

    def test_flooding_run_passes(self):
        dep = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=10, f=2),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(30.0),
            byzantine={9: flooding_factory()},
        ).build()
        dep.run(max_time=1000)
        report = audit_deployment(dep)
        assert report.ok, str(report)


class TestAuditCatchesCorruption:
    """Corrupt a finished run's state and check the auditor notices."""

    @pytest.fixture
    def finished(self):
        dep = happy_deployment()
        dep.run(max_time=500)
        return dep

    def test_detects_forged_disagreement(self, finished):
        victim = finished.decisions[3]
        finished.decisions[3] = Decision(
            replica=3, value=b"FORGED", view=victim.view, time=victim.time
        )
        report = audit_deployment(finished)
        assert not report.ok
        assert any("agreement" in v for v in report.violations)

    def test_detects_record_mismatch(self, finished):
        del finished.decisions[5]
        report = audit_deployment(finished)
        assert not report.ok
        assert any("mismatch" in v for v in report.violations)

    def test_detects_forged_prepared_state(self, finished):
        replica = finished.replicas[4]
        replica._prepared_value = b"FORGED"  # cert no longer matches
        report = audit_deployment(finished)
        assert not report.ok
        assert any("certificate" in v for v in report.violations)

    def test_detects_misattributed_decision(self, finished):
        d = finished.decisions[2]
        finished.decisions[2] = Decision(
            replica=9, value=d.value, view=d.view, time=d.time
        )
        report = audit_deployment(finished)
        assert not report.ok
