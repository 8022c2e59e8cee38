"""Failure injection: the verification machinery must *catch* bugs.

A test suite that only checks the happy path can pass with broken
checkers; these tests plant real defects and assert they are detected.
"""

import numpy as np
import pytest

from repro.kernels.stream.triad import StreamTriad
from repro.suite.checksum import checksums_match
from repro.suite.kernel_base import KernelBase
from repro.suite.variants import get_variant


class BrokenTriadWrongFactor(StreamTriad):
    """RAJA variant silently uses the wrong coefficient."""

    def run_raja(self, policy):
        a, b, c = self.a, self.b, self.c

        def body(i):
            a[i] = b[i] + (self.Q + 1e-6) * c[i]  # subtle miscompile

        from repro.rajasim import forall

        forall(policy, self.problem_size, body)


class BrokenTriadDropsTail(StreamTriad):
    """RAJA variant forgets the last partial block (a classic GPU bug)."""

    def run_raja(self, policy):
        a, b, c, q = self.a, self.b, self.c, self.Q
        n = (self.problem_size // 256) * 256  # drops the remainder

        def body(i):
            a[i] = b[i] + q * c[i]

        from repro.rajasim import forall

        forall(policy, n, body)


class BrokenTriadPermutes(StreamTriad):
    """Writes correct values to the wrong slots (indexing bug)."""

    def run_raja(self, policy):
        a, b, c, q = self.a, self.b, self.c, self.Q

        def body(i):
            a[i[::-1]] = b[i] + q * c[i]

        from repro.rajasim import forall

        forall(policy, self.problem_size, body)


@pytest.mark.parametrize(
    "broken_cls",
    [BrokenTriadWrongFactor, BrokenTriadDropsTail, BrokenTriadPermutes],
    ids=["wrong-factor", "dropped-tail", "permuted-writes"],
)
def test_checksum_verification_catches_defect(broken_cls):
    kernel = broken_cls(problem_size=3_000)
    with pytest.raises(AssertionError, match="checksum mismatch"):
        kernel.verify_variants(
            [get_variant("Base_Seq"), get_variant("RAJA_Seq")]
        )


def test_checksum_tolerance_is_tight():
    """A relative error of 1e-6 in the output must not slip through."""
    assert not checksums_match(1.0, 1.0 + 1e-6)


def test_permutation_not_masked_by_summation():
    """The position weighting is what catches the permuted-writes bug —
    demonstrate a plain sum would NOT have caught it."""
    kernel = BrokenTriadPermutes(problem_size=1_000)
    reference = StreamTriad(problem_size=1_000)
    kernel.run_variant(get_variant("RAJA_Seq"))
    reference.run_variant(get_variant("RAJA_Seq"))
    assert float(np.sum(kernel.a)) == pytest.approx(float(np.sum(reference.a)))
    assert kernel.checksum() != pytest.approx(reference.checksum())


class IncompleteKernel(KernelBase):
    NAME = "INCOMPLETE"

    def setup(self):
        pass


def test_abstract_methods_enforced():
    kernel = IncompleteKernel(problem_size=10)
    with pytest.raises(NotImplementedError):
        kernel.bytes_read()
    with pytest.raises(NotImplementedError):
        kernel.traits()
    kernel.ensure_setup()
    with pytest.raises(NotImplementedError):
        kernel.run_base(get_variant("Base_Seq").policy())


def test_broken_profile_counters_detected():
    """The TMA analysis refuses counters without the slots denominator."""
    from repro.analysis.topdown import topdown_from_counters

    with pytest.raises(ValueError):
        topdown_from_counters({"perf::topdown-retiring": 100.0})


def test_mpi_message_loss_detected():
    """Losing a halo message must surface as a deadlock, not silence."""
    from repro.kernels.comm.halo_kernels import CommHaloExchange

    kernel = CommHaloExchange(problem_size=4096)
    kernel.ensure_setup()
    original_pack = kernel._pack

    def lossy_pack():
        original_pack()
        # Drop rank 0's outgoing low-boundary message by clearing the
        # mailbox after packing + sending would be complex; instead
        # simulate the loss by breaking the exchange's recv source.
    kernel._pack = lossy_pack
    # Direct check on the communicator: waiting on a never-sent message.
    req = kernel.comm.irecv(0, 1, np.zeros(4), tag=99)
    with pytest.raises(RuntimeError, match="deadlock"):
        kernel.comm.wait(0, req)


# --------------------------------------------------------------------------
# Campaign fault tolerance: a fault plan plants faults, the executor must
# absorb transient ones (retry/backoff), bound hung kernels (deadline
# clock), checkpoint completed cells (resume), and the analysis layer must
# tolerate corrupt .cali files (degraded mode).
# --------------------------------------------------------------------------

from pathlib import Path

from repro import faults
from repro.faults import (
    DeadlineClock,
    Fault,
    FaultPlan,
    Where,
    fault_point,
)
from repro.suite import (
    ChecksumMismatchError,
    KernelExecutionError,
    MANIFEST_NAME,
    RetryPolicy,
    RunParams,
    RunTimeoutError,
    SuiteExecutor,
)
from repro.thicket import ProfileLoadWarning, Thicket


def _params(tmp_path=None, **overrides):
    base = dict(
        problem_size="100K",
        variants=("Base_Seq", "RAJA_Seq"),
        machines=("SPR-DDR",),
        kernels=("Stream_TRIAD", "Stream_ADD"),
        max_attempts=3,
        retry_base_delay=0.0,
        retry_jitter=0.0,
    )
    if tmp_path is not None:
        base["output_dir"] = str(tmp_path)
    base.update(overrides)
    return RunParams(**base)


def _no_sleep(_seconds):
    pass


def _kernel_fault(where):
    """The ``executor.kernel`` site: None, or the fault that fired."""
    return fault_point("executor.kernel", where=where)


class TestFaultInjector:
    def test_transient_budget_is_exact(self):
        injector = FaultPlan(
            [Fault(site="executor.kernel", kernel="K", times=2)]
        )
        site = Where(kernel="K", variant="V", trial=0)
        with injector:
            for _ in range(2):
                assert _kernel_fault(site) is not None
            assert _kernel_fault(site) is None  # budget exhausted: no fire
        assert len(injector.fired_log) == 2

    def test_hit_skips_earlier_occurrences(self):
        injector = FaultPlan(
            [Fault(site="executor.kernel", kernel="K", hit=2, times=2)]
        )
        site = Where(kernel="K", variant="V", trial=0)
        with injector:
            fired = [_kernel_fault(site) is not None for _ in range(4)]
        assert fired == [False, True, True, False]

    def test_every_matching_fault_counts_each_occurrence(self):
        injector = FaultPlan([
            Fault(site="executor.kernel", kernel="K", times=1),
            Fault(site="executor.kernel", kernel="K", action="hang", hit=2),
        ])
        site = Where(kernel="K", variant="V", trial=0)
        with injector:
            fired = [_kernel_fault(site) for _ in range(3)]
        assert [f and f.action for f in fired] == ["raise", "hang", None]

    def test_token_is_claimed_once_on_the_hit_th_occurrence(self, tmp_path):
        token = tmp_path / "strike.token"
        site = Where(kernel="K", variant="V", trial=0)
        won = FaultPlan([
            Fault(site="executor.kernel", hit=2, times=None, token=str(token))
        ])
        with won:
            fired = [_kernel_fault(site) is not None for _ in range(3)]
        assert fired == [False, True, False]
        assert token.exists()
        lost = FaultPlan([
            Fault(site="executor.kernel", times=None, token=str(token))
        ])
        with lost:
            assert _kernel_fault(site) is None  # another process holds it
            token.unlink()
            assert _kernel_fault(site) is None  # spent: no second claim
        assert not token.exists()

    def test_site_patterns_filter(self):
        injector = FaultPlan(
            [
                Fault(
                    site="executor.kernel",
                    kernel="Stream_*",
                    variant="RAJA_Seq",
                    trial=1,
                    times=None,
                )
            ]
        )
        with injector:
            miss = Where(kernel="Basic_DAXPY", variant="RAJA_Seq", trial=1)
            assert _kernel_fault(miss) is None  # wrong kernel: silent
            assert _kernel_fault(Where("Stream_ADD", "Base_Seq", 1)) is None  # wrong variant
            assert _kernel_fault(Where("Stream_ADD", "RAJA_Seq", 0)) is None  # wrong trial
            assert _kernel_fault(Where("Stream_ADD", "RAJA_Seq", 1)) is not None

    def test_corruption_is_deterministic(self):
        site = Where(kernel="K", variant="V", trial=0)
        values = []
        for _ in range(2):
            injector = FaultPlan(
                [Fault(site="executor.checksum", times=1)]
            )
            with injector:
                fault = fault_point("executor.checksum", where=site)
            values.append(fault.corrupt(10.0))
        assert values[0] == values[1] != 10.0

    def test_from_config_json_and_env(self, monkeypatch):
        spec_json = (
            '[{"site": "executor.kernel", "kernel": "Stream_TRIAD", "times": 2}]'
        )
        injector = FaultPlan.parse(spec_json)
        assert injector.faults[0].site == "executor.kernel"
        assert injector.faults[0].action == "raise"
        assert injector.faults[0].times == 2
        monkeypatch.setenv("REPRO_FAULTS", spec_json)
        assert len(FaultPlan.from_env().faults) == 1
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.from_env() is None

    def test_json_roundtrip(self):
        plan = FaultPlan([
            Fault(site="worker.pre-cell", action="hang", variant="RAJA_Seq",
                  attempt=1, hang_seconds=60.0),
            Fault(site="fsio.before-replace", hit=3, action="exit",
                  torn=True, seed=42, token="/tmp/tok"),
        ])
        back = FaultPlan.parse(plan.to_json())
        assert [f.to_dict() for f in back.faults] == [
            f.to_dict() for f in plan.faults
        ]

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec"):
            FaultPlan.parse('[{"site": "executor.kernel", "kernelz": "X"}]')

    @pytest.mark.parametrize("raw", [
        "{ bad",
        '{"kernel": "X"}',
        '{"site": "executor.kernel"}',
        '[{"site": "no.such-site"}]',
        '[{"site": "executor.checksum", "action": "raise"}]',
        '[{"site": "executor.kernel", "times": "often"}]',
        '"executor.kernel"',
    ])
    def test_malformed_plans_are_rejected(self, raw):
        with pytest.raises(ValueError):
            FaultPlan.parse(raw)

    def test_context_manager_installs_and_restores(self):
        assert faults.installed() is None
        with FaultPlan([]) as injector:
            assert faults.installed() is injector
        assert faults.installed() is None

    def test_deadline_clock_advances(self):
        clock = DeadlineClock(time_fn=lambda: 100.0)
        assert clock.now() == 100.0
        clock.advance(7.5)
        assert clock.now() == 107.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestRetryBackoff:
    def test_delays_are_deterministic_given_seed(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.5, seed=7)
        assert list(policy.delays()) == list(policy.delays())
        other = RetryPolicy(max_attempts=5, base_delay=0.1, jitter=0.5, seed=8)
        assert list(policy.delays()) != list(other.delays())

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_delay_is_the_salted_stream_entry_for_the_attempt(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5, seed=7)
        for salt in (None, "SPR-DDR|RAJA_Seq|default|trial1", "shard-3"):
            waits = list(policy.delays(salt))
            assert [policy.delay(a, salt) for a in range(1, 6)] == [
                *waits, 0.0, 0.0,
            ]

    def test_transient_kernel_fault_is_retried(self):
        sleeps = []
        with FaultPlan(
            [
                Fault(
                    site="executor.kernel",
                    kernel="Stream_TRIAD",
                    variant="RAJA_Seq",
                    times=2,
                )
            ]
        ):
            result = SuiteExecutor(
                _params(retry_base_delay=0.01, retry_jitter=0.0),
                sleep_fn=sleeps.append,
            ).run()
        report = result.report
        assert report.counts() == {"ok": 3, "retried": 1}
        (retried,) = report.retried
        assert retried.kernel == "Stream_TRIAD"
        assert retried.attempts == 3
        assert sleeps == pytest.approx([0.01, 0.02])  # exponential backoff

    def test_permanent_fault_isolates_one_kernel(self):
        with FaultPlan(
            [
                Fault(
                    site="executor.kernel",
                    kernel="Stream_ADD",
                    variant="RAJA_Seq",
                    times=None,
                )
            ]
        ):
            result = SuiteExecutor(_params(), sleep_fn=_no_sleep).run()
        report = result.report
        assert report.counts() == {"ok": 3, "failed": 1}
        (failed,) = report.failed
        assert failed.kernel == "Stream_ADD"
        assert "InjectedKernelFault" in failed.error
        # The sweep completed: every profile still exists, including the
        # one containing the failed kernel (its region is flagged).
        assert len(result.profiles) == 2
        assert not report.clean

    def test_identical_campaigns_produce_identical_reports(self):
        def campaign():
            with FaultPlan(
                [
                    Fault(
                        site="executor.kernel",
                        kernel="Stream_TRIAD",
                        times=1,
                    )
                ]
            ):
                result = SuiteExecutor(_params(), sleep_fn=_no_sleep).run()
            return [
                (r.kernel, r.variant, r.status, r.attempts)
                for r in result.report.records
            ]

        assert campaign() == campaign()

    def test_fail_fast_restores_abort_on_first_error(self):
        with FaultPlan(
            [Fault(site="executor.kernel", kernel="Stream_TRIAD", times=None)]
        ):
            with pytest.raises(KernelExecutionError):
                SuiteExecutor(_params(fail_fast=True), sleep_fn=_no_sleep).run()


class TestTimeoutEnforcement:
    def test_hung_kernel_trips_the_watchdog(self):
        with FaultPlan(
            [
                Fault(
                    site="executor.kernel", action="hang",
                    kernel="Stream_TRIAD",
                    variant="RAJA_Seq",
                    times=None,
                    hang_seconds=120.0,
                )
            ]
        ):
            result = SuiteExecutor(
                _params(kernel_deadline_s=10.0), sleep_fn=_no_sleep
            ).run()
        (failed,) = result.report.failed
        assert failed.kernel == "Stream_TRIAD"
        assert "exceeded deadline" in failed.error

    def test_transient_hang_recovers_via_retry(self):
        with FaultPlan(
            [
                Fault(
                    site="executor.kernel", action="hang",
                    kernel="Stream_TRIAD",
                    variant="RAJA_Seq",
                    times=1,
                    hang_seconds=120.0,
                )
            ]
        ):
            result = SuiteExecutor(
                _params(kernel_deadline_s=10.0), sleep_fn=_no_sleep
            ).run()
        assert result.report.counts() == {"ok": 3, "retried": 1}

    def test_no_deadline_means_no_watchdog(self):
        with FaultPlan(
            [Fault(site="executor.kernel", action="hang", times=None, hang_seconds=1e6)]
        ):
            result = SuiteExecutor(_params(), sleep_fn=_no_sleep).run()
        assert result.report.counts() == {"ok": 4}

    def test_fail_fast_raises_timeout(self):
        with FaultPlan(
            [Fault(site="executor.kernel", action="hang", kernel="Stream_ADD", times=None, hang_seconds=60.0)]
        ):
            with pytest.raises(RunTimeoutError):
                SuiteExecutor(
                    _params(kernel_deadline_s=1.0, fail_fast=True), sleep_fn=_no_sleep
                ).run()


class TestCrossVariantChecksumVerification:
    def test_executed_variants_record_checksum_ok(self):
        result = SuiteExecutor(
            _params(execute=True, execution_size_cap=2_000), sleep_fn=_no_sleep
        ).run()
        for record in result.report.records:
            assert record.checksum_ok is True
        node = result.profiles[0].find(("RAJAPerf", "Stream", "Stream_TRIAD"))
        assert node.metrics["checksum_ok"] == 1.0

    def test_transient_corruption_detected_and_retried(self):
        with FaultPlan(
            [
                Fault(
                    site="executor.checksum",
                    kernel="Stream_TRIAD",
                    variant="RAJA_Seq",
                    times=1,
                )
            ]
        ):
            result = SuiteExecutor(
                _params(execute=True, execution_size_cap=2_000), sleep_fn=_no_sleep
            ).run()
        assert result.report.counts() == {"ok": 3, "retried": 1}
        assert not result.report.checksum_mismatches()  # retry recovered

    def test_permanent_corruption_fails_the_kernel(self):
        with FaultPlan(
            [
                Fault(
                    site="executor.checksum",
                    kernel="Stream_TRIAD",
                    variant="RAJA_Seq",
                    times=None,
                )
            ]
        ):
            result = SuiteExecutor(
                _params(execute=True, execution_size_cap=2_000), sleep_fn=_no_sleep
            ).run()
        (failed,) = result.report.failed
        assert failed.checksum_ok is False
        assert "checksum mismatch" in failed.error
        assert result.report.checksum_mismatches()

    def test_fail_fast_raises_checksum_mismatch(self):
        with FaultPlan(
            [
                Fault(
                    site="executor.checksum",
                    variant="RAJA_Seq",
                    times=None,
                )
            ]
        ):
            with pytest.raises(ChecksumMismatchError):
                SuiteExecutor(
                    _params(execute=True, execution_size_cap=2_000, fail_fast=True),
                    sleep_fn=_no_sleep,
                ).run()


class TestAtomicProfileWrites:
    def test_transient_io_fault_retried_files_valid(self, tmp_path):
        with FaultPlan(
            [Fault(site="profile.seal", action="raise", path="*Base_Seq*", times=1)]
        ):
            result = SuiteExecutor(_params(tmp_path), sleep_fn=_no_sleep).run(
                write_files=True
            )
        assert len(result.cali_paths) == 2
        from repro.caliper import read_cali

        for path in result.cali_paths:
            read_cali(path)  # every final file parses

    def test_permanent_io_fault_leaves_no_truncated_cali(self, tmp_path):
        with FaultPlan(
            [Fault(site="profile.seal", action="raise", path="*Base_Seq*", times=None)]
        ):
            result = SuiteExecutor(_params(tmp_path), sleep_fn=_no_sleep).run(
                write_files=True
            )
        assert len(result.cali_paths) == 1  # only the RAJA_Seq profile landed
        # The interrupted write left a .tmp sibling at most — never a
        # truncated .cali that analyze would later choke on.
        cali_files = sorted(p.name for p in tmp_path.glob("*.cali"))
        assert cali_files == ["rajaperf_SPR-DDR_RAJA_Seq_default.cali"]
        assert result.report.failed_cells() == ["SPR-DDR|Base_Seq|default|trial0"]


class TestCheckpointResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        first = SuiteExecutor(_params(tmp_path), sleep_fn=_no_sleep).run(
            write_files=True
        )
        assert (tmp_path / MANIFEST_NAME).exists()
        assert len(first.profiles) == 2
        resumed = SuiteExecutor(_params(tmp_path, resume=True), sleep_fn=_no_sleep).run(
            write_files=True
        )
        assert len(resumed.profiles) == 0
        assert resumed.report.cell_counts() == {"skipped": 2}

    def test_resume_reruns_only_the_failed_cell(self, tmp_path):
        with FaultPlan(
            [
                Fault(
                    site="executor.kernel",
                    kernel="Stream_ADD",
                    variant="RAJA_Seq",
                    times=None,
                )
            ]
        ):
            first = SuiteExecutor(_params(tmp_path), sleep_fn=_no_sleep).run(
                write_files=True
            )
        assert first.report.failed_cells() == ["SPR-DDR|RAJA_Seq|default|trial0"]
        # Re-invoke with --resume and the fault gone: only the failed
        # cell runs again, and this time it completes.
        resumed = SuiteExecutor(_params(tmp_path, resume=True), sleep_fn=_no_sleep).run(
            write_files=True
        )
        assert len(resumed.profiles) == 1
        assert resumed.report.cells == {
            "SPR-DDR|Base_Seq|default|trial0": "skipped",
            "SPR-DDR|RAJA_Seq|default|trial0": "ok",
        }
        assert resumed.report.clean

    def test_acceptance_scenario_paper_sweep(self, tmp_path):
        """The ISSUE's acceptance bar: 3 transient faults + 1 permanent
        fault planted into a Table III sweep; the run completes with 3
        retried and 1 failed, all other profiles land on disk, and
        --resume re-runs only the failed cell."""
        params = _params(
            tmp_path,
            variants=("Base_Seq", "RAJA_Seq"),
            machines=("SPR-DDR", "SPR-HBM"),
            kernels=("Stream_TRIAD", "Stream_ADD", "Stream_COPY"),
        )
        specs = [
            Fault(site="executor.kernel", kernel="Stream_TRIAD",
                      variant="RAJA_Seq", machine="SPR-DDR", times=1),
            Fault(site="executor.kernel", kernel="Stream_ADD",
                      variant="Base_Seq", machine="SPR-HBM", times=1),
            Fault(site="executor.kernel", kernel="Stream_COPY",
                      variant="RAJA_Seq", machine="SPR-HBM", times=1),
            Fault(site="executor.kernel", kernel="Stream_COPY",
                      variant="Base_Seq", machine="SPR-DDR", times=None),
        ]
        with FaultPlan(specs):
            result = SuiteExecutor(params, sleep_fn=_no_sleep).run(write_files=True)
        counts = result.report.counts()
        assert counts["retried"] == 3
        assert counts["failed"] == 1
        assert len(result.cali_paths) == 4  # every cell's profile landed
        assert result.report.failed_cells() == ["SPR-DDR|Base_Seq|default|trial0"]

        resumed = SuiteExecutor(
            _params(
                tmp_path,
                resume=True,
                variants=("Base_Seq", "RAJA_Seq"),
                machines=("SPR-DDR", "SPR-HBM"),
                kernels=("Stream_TRIAD", "Stream_ADD", "Stream_COPY"),
            ),
            sleep_fn=_no_sleep,
        ).run(write_files=True)
        assert len(resumed.profiles) == 1
        assert resumed.report.cell_counts() == {"skipped": 3, "ok": 1}

    def test_manifest_fingerprint_mismatch_warns(self, tmp_path):
        SuiteExecutor(_params(tmp_path), sleep_fn=_no_sleep).run(write_files=True)
        changed = _params(tmp_path, resume=True, kernels=("Stream_TRIAD",))
        with pytest.warns(UserWarning, match="different configuration"):
            SuiteExecutor(changed, sleep_fn=_no_sleep).run(write_files=True)


class TestDegradedModeAnalysis:
    def _campaign(self, tmp_path):
        return SuiteExecutor(_params(tmp_path), sleep_fn=_no_sleep).run(
            write_files=True
        )

    def test_corrupt_cali_warns_and_survivors_analyzed(self, tmp_path):
        result = self._campaign(tmp_path)
        corrupt = tmp_path / "corrupt.cali"
        corrupt.write_text('{"format": "cali-json", "version": 1, "glo')  # truncated
        missing = tmp_path / "never_written.cali"
        sources = [*result.cali_paths, corrupt, missing]
        with pytest.warns(ProfileLoadWarning):
            thicket = Thicket.from_caliperreader(sources, on_error="warn")
        assert len(thicket.profiles) == 2
        assert len(thicket.load_errors) == 2
        regions, _, matrix = thicket.metric_matrix(
            "Avg time/rank", region_filter=lambda s: "_" in s
        )
        assert regions and np.isfinite(matrix).all()

    def test_strict_mode_still_raises(self, tmp_path):
        corrupt = tmp_path / "corrupt.cali"
        corrupt.write_text("not json at all")
        with pytest.raises(ValueError):
            Thicket.from_caliperreader([corrupt])

    def test_all_sources_corrupt_is_an_error(self, tmp_path):
        corrupt = tmp_path / "corrupt.cali"
        corrupt.write_text("garbage")
        with pytest.warns(ProfileLoadWarning):
            with pytest.raises(ValueError, match="no readable profiles"):
                Thicket.from_caliperreader([corrupt], on_error="warn")

    def test_cli_analyze_tolerates_corrupt_file(self, tmp_path, capsys):
        from repro.cli.main import main

        result = self._campaign(tmp_path)
        corrupt = tmp_path / "corrupt.cali"
        corrupt.write_text("{ nope")
        code = main(["analyze", str(corrupt), *[str(p) for p in result.cali_paths]])
        captured = capsys.readouterr()
        # Analysis completes on the survivors but exits with the
        # distinct degraded-mode code so schedulers can tell the
        # difference from a fully clean analysis.
        from repro.cli import exitcodes

        assert code == exitcodes.DEGRADED_ANALYSIS
        assert "warning:" in captured.err
        assert "degraded" in captured.err
        assert "Thicket(2 profiles" in captured.out

    def test_cli_analyze_strict_crashes_on_corrupt_file(self, tmp_path):
        from repro.cli.main import main

        corrupt = tmp_path / "corrupt.cali"
        corrupt.write_text("{ nope")
        with pytest.raises(ValueError):
            main(["analyze", "--strict", str(corrupt)])


class TestVariantProbeCaching:
    def test_class_variants_requires_no_instance(self):
        from repro.suite.kernel_base import KernelBase

        assert StreamTriad.class_variants() == StreamTriad(1).variants()
        # Cached per class, not inherited across subclasses.
        assert StreamTriad.class_variants() is StreamTriad.class_variants()
        assert (
            "_VARIANTS_CACHE" in StreamTriad.__dict__
            or StreamTriad.class_variants() is not None
        )
        assert KernelBase.__dict__.get("_VARIANTS_CACHE") is not StreamTriad.__dict__.get(
            "_VARIANTS_CACHE"
        )

    def test_subclass_override_not_shadowed_by_parent_cache(self):
        from repro.rajasim.policies import Backend

        base_variants = StreamTriad.class_variants()

        class NarrowTriad(StreamTriad):
            BACKENDS = (Backend.SEQUENTIAL,)

        expected = 2 + (1 if NarrowTriad.HAS_KOKKOS else 0)
        assert len(NarrowTriad.class_variants()) == expected
        assert StreamTriad.class_variants() == base_variants
