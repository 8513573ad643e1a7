"""Cross-backend bit-identity for the execution layer.

The seam's hard guarantee, pinned on golden seeds: **serial == pool** for

* raw trial-level results (map and stream),
* full-protocol :class:`RunResult` streams through the trial lifecycle,
* ``run_matrix`` reports,
* the Monte-Carlo estimators' counts,

* the good-case ``(n, protocol)`` grid of the scalability example,

plus :class:`TrialError` propagation from both backends, the serial
engine's reported worker count, the pool's chunking rule, and the
process pool's graceful (close/join, not terminate) happy-path lifecycle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.config import ProtocolConfig
from repro.cli import main
from repro.harness.backends import (
    BACKENDS,
    STREAM_CHUNK,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_env,
    list_backends,
    make_backend,
    resolve_workers,
)
from repro.harness.parallel import (
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
    resolve_engine,
)
from repro.harness.registry import (
    ADVERSARIES,
    MatrixCell,
    ScenarioMatrix,
    run_matrix,
    run_matrix_cell,
)
from repro.harness.trial import RunResult, good_case_metrics
from repro.montecarlo.experiments import estimate_termination

BACKEND_NAMES = ("serial", "pool")

#: A tiny protocol-level matrix cell: full discrete-event simulation at n=6.
GOLDEN_CELL = MatrixCell(
    protocol="probft", adversary="silent", latency="constant", n=6, f=1
)

GOLDEN_MATRIX = ScenarioMatrix(
    name="backend-golden",
    protocols=("probft",),
    adversaries=("none", "silent"),
    latencies=("constant",),
    n=6,
)


# Module-level trial functions (the pool backend pickles them).


def draw_trial(spec: TrialSpec) -> float:
    return float(np.random.default_rng(spec.seed).random())


def crash_on_three(spec: TrialSpec) -> int:
    if spec.index == 3:
        raise ValueError(f"boom at {spec.index}")
    return spec.index


def slow_trial(spec: TrialSpec) -> int:
    time.sleep(0.15)
    return spec.index


#: The scalability example's grid shape at test-sized n.
GOOD_CASE_GRID = [
    (n, protocol) for n in (8, 14) for protocol in ("pbft", "probft", "hotstuff")
]


def good_case_point(spec: TrialSpec) -> RunResult:
    n, protocol = GOOD_CASE_GRID[spec.index]
    config = ProtocolConfig(n=n, f=(n - 1) // 3)
    return good_case_metrics(protocol, config, seed=spec.seed, require_view1=True)


def cell_specs(trials: int, master_seed: int = 0, max_time: float = 500.0):
    return [
        TrialSpec(
            index=i,
            seed=derive_seed(master_seed, i),
            params=(GOLDEN_CELL, max_time),
        )
        for i in range(trials)
    ]


def backend_for(name: str):
    """A small two-worker instance of the named backend."""
    return make_backend(name, workers=2)


class TestRegistry:
    def test_names(self):
        assert list_backends() == list(BACKEND_NAMES)
        assert set(BACKENDS) == set(BACKEND_NAMES)

    def test_default_selection_follows_workers(self):
        assert isinstance(make_backend(None, workers=0), SerialBackend)
        assert isinstance(make_backend(None, workers=1), SerialBackend)
        assert isinstance(make_backend(None, workers=2), ProcessPoolBackend)

    def test_explicit_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("pool", workers=2), ProcessPoolBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            make_backend("gpu")

    def test_only_serial_and_pool_registered(self):
        assert list_backends() == ["serial", "pool"]
        for name in ("async", "sharded"):
            with pytest.raises(KeyError, match="registered: serial, pool"):
                make_backend(name, workers=2)

    @pytest.mark.parametrize("name", ["async", "sharded"])
    def test_removed_backend_rejected_by_cli(self, name, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--trials", "1", "--backend", name])
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_registry_import_loads_no_asyncio(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, repro.harness.registry; "
            "assert 'asyncio' not in sys.modules, 'asyncio imported'"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_auto_workers(self):
        import os

        assert resolve_workers("auto") == (os.cpu_count() or 1)
        assert resolve_workers("AUTO") == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3
        assert resolve_workers("5") == 5
        with pytest.raises(ValueError):
            resolve_workers("many")

    def test_concurrent_backend_without_workers_saturates(self):
        import os

        backend = make_backend("pool", workers=0)
        assert backend.workers == (os.cpu_count() or 1)

    def test_backend_from_env(self, monkeypatch):
        monkeypatch.delenv("X_BACKEND", raising=False)
        assert backend_from_env("X_BACKEND") is None
        assert backend_from_env("X_BACKEND", default="pool") == "pool"
        monkeypatch.setenv("X_BACKEND", "Pool")
        assert backend_from_env("X_BACKEND") == "pool"
        monkeypatch.setenv("X_BACKEND", "async")
        assert backend_from_env("X_BACKEND", default="serial") == "serial"
        monkeypatch.setenv("X_BACKEND", "quantum")
        assert backend_from_env("X_BACKEND", default="serial") == "serial"

    def test_engine_exposes_backend(self):
        engine = ExperimentEngine(workers=2, backend="pool")
        assert engine.backend_name == "pool"
        assert engine.parallel
        engine.close()
        # A constructed Backend instance passes through as-is.
        backend = SerialBackend()
        assert ExperimentEngine(backend=backend).backend is backend

    def test_resolve_engine_backend_passthrough(self):
        engine = resolve_engine(None, 2, backend="serial")
        assert engine.backend_name == "serial"
        engine.close()

    def test_serial_engine_reports_at_most_one_worker(self):
        """A serial engine runs nothing in parallel, whatever it was asked."""
        assert ExperimentEngine(workers=2, backend="serial").workers == 1
        assert ExperimentEngine(workers="auto", backend="serial").workers == 1
        assert ExperimentEngine(workers=1, backend="serial").workers == 1
        assert ExperimentEngine(workers=0, backend="serial").workers == 0
        assert ExperimentEngine(workers=0).workers == 0

    def test_serial_sweep_json_reports_at_most_one_worker(self, capsys):
        argv = ["sweep", "--trials", "1", "--max-time", "600", "--json"]
        main(argv + ["--workers", "2", "--backend", "serial"])
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == "serial"
        assert report["workers"] == 1
        main(argv)
        assert json.loads(capsys.readouterr().out)["workers"] == 0


class TestCrossBackendIdentity:
    """serial == pool, golden seeds, every surface."""

    def test_trial_level_map_and_stream(self):
        reference = SerialBackend().map(
            draw_trial, [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        )
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        for name in BACKEND_NAMES:
            with backend_for(name) as backend:
                assert backend.map(draw_trial, list(specs)) == reference, name
                assert (
                    list(backend.stream(draw_trial, list(specs), count=40))
                    == reference
                ), name

    def test_run_result_streams_identical(self):
        """Full-protocol RunResult rows agree bit-for-bit per backend."""
        specs = cell_specs(trials=6, master_seed=2024)
        reference = SerialBackend().map(run_matrix_cell, list(specs))
        assert reference, "golden cell produced no rows"
        for name in BACKEND_NAMES:
            with backend_for(name) as backend:
                assert (
                    backend.map(run_matrix_cell, list(specs)) == reference
                ), name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_matrix_report_identical(self, name):
        reference = run_matrix(GOLDEN_MATRIX, trials=3, master_seed=5)
        got = run_matrix(
            GOLDEN_MATRIX, trials=3, master_seed=5, workers=2, backend=name
        )
        assert got.rows == reference.rows

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_estimator_counts_identical(self, name):
        serial = estimate_termination(32, 6, 1.7, trials=40, seed=9)
        other = estimate_termination(
            32, 6, 1.7, trials=40, seed=9, workers=2, backend=name
        )
        assert {k: v.successes for k, v in serial.estimates.items()} == {
            k: v.successes for k, v in other.estimates.items()
        }
        assert serial.mean_prepared_fraction == other.mean_prepared_fraction

    @pytest.mark.parametrize("adversary", ADVERSARIES)
    def test_every_adversary_report_identical(self, adversary):
        """Pool == serial on every adversary of the matrix axis, each
        protocol, under seeded (uniform) latency."""
        matrix = ScenarioMatrix(
            name=f"backend-{adversary}",
            adversaries=(adversary,),
            latencies=("uniform",),
            n=6,
        )
        reference = run_matrix(matrix, trials=2, master_seed=11)
        pooled = run_matrix(
            matrix, trials=2, master_seed=11, workers=2, backend="pool"
        )
        assert len(reference.rows) == 3
        assert pooled.rows == reference.rows

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_good_case_grid_identical(self, name):
        """The scalability example's grid: seeded good-case runs with the
        view-1 retry give equal RunResults on every backend."""
        reference = [
            good_case_point(TrialSpec(i, derive_seed(3, i)))
            for i in range(len(GOOD_CASE_GRID))
        ]
        assert all(r.all_decided and r.max_view == 1 for r in reference)
        with ExperimentEngine(workers=2, backend=name) as engine:
            got = engine.run_trials(good_case_point, len(GOOD_CASE_GRID), master_seed=3)
        assert got == reference

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_trial_error_propagation(self, name):
        """Every backend surfaces the first failing trial's identity."""
        engine = ExperimentEngine(workers=2, backend=name, chunk_size=1)
        with pytest.raises(TrialError) as exc_info:
            engine.run_trials(crash_on_three, 8, master_seed=2)
        err = exc_info.value
        assert err.index == 3
        assert err.seed == derive_seed(2, 3)
        assert "boom at 3" in str(err)
        assert "ValueError" in err.detail
        engine.abort()


class TestWindowedStreams:
    """The bounded-window/cancellation contract behind adaptive early stop.

    ``stream(..., window=w)`` must (a) keep results bit-identical, (b) read
    at most about ``w`` specs ahead of the consumer, and (c) leave workers
    promptly reusable — and the pool clean for a *graceful* close — when
    the stream is dropped mid-iteration.
    """

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_windowed_results_identical(self, name):
        specs = [TrialSpec(i, derive_seed(7, i)) for i in range(40)]
        reference = SerialBackend().map(draw_trial, list(specs))
        with backend_for(name) as backend:
            got = list(backend.stream(draw_trial, list(specs), count=40, window=5))
        assert got == reference, name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_windowed_engine_run_stream_identical(self, name):
        reference = ExperimentEngine(workers=0).run_trials(
            draw_trial, 30, master_seed=4
        )
        with ExperimentEngine(workers=2, backend=name) as engine:
            got = list(engine.run_stream(draw_trial, 30, master_seed=4, window=6))
        assert got == reference, name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_windowed_trial_error_propagation(self, name):
        with backend_for(name) as backend:
            specs = [TrialSpec(i, derive_seed(2, i)) for i in range(8)]
            with pytest.raises(TrialError) as exc_info:
                list(backend.stream(crash_on_three, specs, count=8, window=2))
        assert exc_info.value.index == 3

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_invalid_window_rejected(self, name):
        with backend_for(name) as backend:
            if name == "serial":
                pytest.skip("serial has no read-ahead to bound")
            with pytest.raises(ValueError, match="window"):
                list(backend.stream(draw_trial, [TrialSpec(0, 0)], window=0))

    def test_pool_windowed_bounded_readahead(self):
        """The spec generator is consumed at most ~window ahead of the
        results pulled (imap's free-running feeder would eat all 1000)."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        consumed = []

        def specs():
            for i in range(1000):
                consumed.append(i)
                yield TrialSpec(i, i)

        stream = backend.stream(draw_trial, specs(), count=1000, window=4)
        for _ in range(3):
            next(stream)
        # 3 yielded + at most window in flight + one batch of slack.
        assert len(consumed) <= 3 + 4 + 1
        stream.close()
        backend.close()

    def test_pool_windowed_drop_keeps_pool_clean(self):
        """Dropping a windowed stream waits out only the bounded in-flight
        window — the pool is never marked dirty, close() stays graceful,
        and the remaining seed range is NOT drained."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        ran = time.perf_counter()
        stream = backend.stream(
            slow_trial, [TrialSpec(i, i) for i in range(60)], count=60, window=2
        )
        assert next(stream) == 0
        stream.close()  # adaptive early stop
        elapsed = time.perf_counter() - ran
        # 60 slow trials would cost ~9s; the bounded remainder is ~2 trials.
        assert elapsed < 3.0
        assert not backend._dirty
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close — never terminate
        assert backend._pool is None

    def test_pool_windowed_workers_reusable_after_drop(self):
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        stream = backend.stream(
            draw_trial, [TrialSpec(i, i) for i in range(40)], count=40, window=3
        )
        next(stream)
        stream.close()
        # Same pool object serves the next call (no dirty-replacement).
        pool = backend._pool
        assert backend.map(draw_trial, [TrialSpec(0, 0)]) == [
            SerialBackend().map(draw_trial, [TrialSpec(0, 0)])[0]
        ]
        assert backend._pool is pool
        backend.close()

    def test_unwindowed_drop_still_dirties_pool(self):
        """The historical contract is unchanged: an abandoned *unwindowed*
        stream leaves imap's queue full and close() must terminate."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        stream = backend.stream(
            slow_trial, [TrialSpec(i, i) for i in range(60)], count=60
        )
        assert next(stream) == 0
        stream.close()
        assert backend._dirty
        backend.abort()


class TestPoolChunking:
    """Chunking is deterministic and never changes results."""

    @pytest.mark.parametrize(
        "workers,chunk_size,count,expected",
        [
            (2, None, 8, 1),  # ≈4 chunks per worker
            (2, None, 40, 5),
            (4, None, 0, 1),  # never below one spec per chunk
            (2, None, 10_000, STREAM_CHUNK),  # capped for huge totals
            (2, None, None, STREAM_CHUNK),  # unknown total: the stream cap
            (2, 3, 10_000, 3),  # an explicit chunk size always wins
        ],
    )
    def test_chunk_rule(self, workers, chunk_size, count, expected):
        backend = ProcessPoolBackend(workers=workers, chunk_size=chunk_size)
        assert backend._chunk(count) == expected

    @pytest.mark.parametrize("chunk_size", [1, 7, 40])
    def test_chunk_size_keeps_results(self, chunk_size):
        specs = [TrialSpec(i, derive_seed(5, i)) for i in range(40)]
        reference = SerialBackend().map(draw_trial, list(specs))
        with ProcessPoolBackend(workers=2, chunk_size=chunk_size) as backend:
            assert backend.map(draw_trial, list(specs)) == reference
            assert list(backend.stream(draw_trial, list(specs))) == reference

    def test_invalid_pool_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ProcessPoolBackend(workers=2, chunk_size=0)


class TestPoolLifecycle:
    """Happy-path shutdown is graceful; terminate stays on error paths."""

    def test_close_joins_without_terminate(self):
        backend = ProcessPoolBackend(workers=2)
        backend.map(draw_trial, [TrialSpec(i, i) for i in range(4)])
        pool = backend._pool
        assert pool is not None
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful: close()+join(), never terminate()
        assert backend._pool is None
        # A later map transparently re-creates the pool.
        assert len(backend.map(draw_trial, [TrialSpec(0, 0)])) == 1
        backend.close()

    def test_exactly_consumed_stream_closes_gracefully(self):
        """run_matrix pulls exactly ``count`` results (zip/next),
        leaving the generator suspended at its final yield — that is a
        fully-drained stream and must NOT be misclassified as abandoned."""
        backend = ProcessPoolBackend(workers=2)
        specs = [TrialSpec(i, i) for i in range(6)]
        stream = backend.stream(draw_trial, specs, count=6)
        got = [next(stream) for _ in range(6)]  # never iterates past the end
        assert len(got) == 6
        del stream  # finalized while suspended at the last yield
        assert not backend._dirty
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            backend.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []  # graceful close()+join on the happy path
        assert backend._pool is None

    def test_run_matrix_happy_path_closes_gracefully(self):
        """End-to-end: a successful run_matrix over a shared engine leaves
        the pool clean, so engine.close() never terminates workers."""
        engine = ExperimentEngine(workers=2)
        run_matrix(GOLDEN_MATRIX, trials=2, master_seed=1, engine=engine)
        import gc

        gc.collect()  # finalize the consumed stream generator
        assert not engine.backend._dirty
        pool = engine._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate")
        try:
            engine.close()
        finally:
            pool.terminate = original_terminate
        assert calls == []

    def test_close_after_abandoned_stream_terminates(self):
        """Abandoning a stream mid-iteration leaves the pool's task queue
        full; close() must not drain it gracefully (that executes every
        remaining spec) — it falls through to terminate."""
        backend = ProcessPoolBackend(workers=2, chunk_size=1)
        stream = backend.stream(
            slow_trial, [TrialSpec(i, i) for i in range(60)], count=60
        )
        assert next(stream) == 0
        stream.close()  # early break / consumer walked away
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate") or original_terminate()
        start = time.perf_counter()
        backend.close()
        elapsed = time.perf_counter() - start
        assert calls == ["terminate"]
        assert elapsed < 2.0  # never waits for the ~60 queued slow trials
        assert backend._pool is None
        # The dirty flag does not outlive the pool: a fresh pool closes
        # gracefully again.
        backend.map(draw_trial, [TrialSpec(0, 0)])
        assert not backend._dirty
        backend.close()

    def test_abort_terminates(self):
        backend = ProcessPoolBackend(workers=2)
        backend.map(draw_trial, [TrialSpec(i, i) for i in range(4)])
        pool = backend._pool
        calls = []
        original_terminate = pool.terminate
        pool.terminate = lambda: calls.append("terminate") or original_terminate()
        backend.abort()
        assert calls == ["terminate"]
        assert backend._pool is None

    def test_engine_context_manager_routes_by_outcome(self):
        with ExperimentEngine(workers=2) as engine:
            engine.run_trials(draw_trial, 4)
            pool = engine._pool
            calls = []
            original_terminate = pool.terminate
            pool.terminate = (
                lambda: calls.append("terminate") or original_terminate()
            )
        assert calls == []  # clean exit: graceful close
        assert engine._pool is None

        with pytest.raises(RuntimeError, match="bail"):
            with ExperimentEngine(workers=2) as engine:
                engine.run_trials(draw_trial, 4)
                pool = engine._pool
                calls = []
                original_terminate = pool.terminate
                pool.terminate = (
                    lambda: calls.append("terminate") or original_terminate()
                )
                raise RuntimeError("bail")
        assert calls == ["terminate"]  # error exit: hard abort
