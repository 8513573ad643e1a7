"""Experiment harness: run protocols, collect metrics, sweep scenario grids.

* :mod:`repro.harness.trial` — the **unified trial lifecycle**:
  :class:`DeploymentSpec` (one trial as declarative data) →
  :class:`TrialContext` (build + drive) → :func:`run_trial` (the single
  protocol-dispatched runner every surface goes through), plus
  :func:`good_case_metrics` (the fault-free unit-latency run the
  complexity benches measure).
* :mod:`repro.harness.metrics` — statistics helpers: batch (Wilson
  intervals, summaries) and streaming (:class:`Welford`,
  :class:`StreamingProportion`) accumulators.
* :mod:`repro.harness.parallel` — the parallel Monte-Carlo experiment
  engine (:class:`ExperimentEngine`), including the streaming
  ``stream``/``run_stream`` path.
* :mod:`repro.harness.backends` — the two **execution backends** behind
  the engine, serial (the reference) and a process pool, behind one
  ``Backend`` seam (``map``/``stream``/``close``, with a
  bounded-window/cancellation contract on ``stream``).
* :mod:`repro.harness.adaptive` — **adaptive trial budgets**: deterministic
  :class:`StoppingRule`\\ s (:class:`FixedBudget`, :class:`TargetWidth`,
  ``Any``/``All``) evaluated at chunk checkpoints, stopping a cell as soon
  as its Wilson interval is narrow enough.
* :mod:`repro.harness.registry` — the scenario matrix: :class:`MatrixCell`
  (one protocol × adversary × latency cell), ``cell_deployment_spec`` (the
  cell's seeded :class:`DeploymentSpec`), :class:`ScenarioMatrix` (cross
  products with per-cell trial budgets) and :func:`run_matrix`.
* :mod:`repro.harness.plotting` — Figure-5 plot series from ``repro sweep
  --json`` reports (rendering gated on matplotlib).

The trial lifecycle
===================

Every protocol-level experiment is one pipeline::

    DeploymentSpec ──build──▶ deployment ──run──▶ RunResult
         │                        │
         │                 pooled CryptoContext
         │              (per-process, keyed by (n, master_seed))
         └── protocol dispatch via the trial registry

:class:`~repro.harness.trial.DeploymentSpec` declares *what* to run
(protocol, config, seed, network model, adversary map, budgets);
:func:`~repro.harness.trial.run_trial` executes it.  Deployments draw
their crypto from :meth:`CryptoContext.pooled
<repro.crypto.context.CryptoContext.pooled>`: trials of the same
``(n, master_seed)`` share one immutable key registry, and pooled
signature/VRF services memoize verification (pure functions only), which
makes protocol trials several times faster while staying **bit-identical**
to fresh per-trial crypto — ``tests/test_trial_lifecycle.py`` pins that
equivalence.  New protocols register once
(:func:`~repro.harness.trial.register_protocol`) and inherit every
experiment surface: matrix, estimators, benches, CLI.

Running sweeps
==============

A one-off trial is ``run_trial(DeploymentSpec(...))``; a grid is a
:class:`~repro.harness.registry.ScenarioMatrix` run by
:func:`~repro.harness.registry.run_matrix`.  The Monte-Carlo estimators
and scenario matrices both fan their trials through
:class:`~repro.harness.parallel.ExperimentEngine`::

    from repro.harness import ExperimentEngine
    from repro.montecarlo.experiments import estimate_termination

    # One-off: pass workers= to any estimator.
    result = estimate_termination(300, 60, 1.7, trials=5000, workers=8)

    # Shared: configure one engine, reuse it across calls.
    engine = ExperimentEngine(workers=8)
    result = estimate_termination(300, 60, 1.7, trials=5000, engine=engine)

From the command line, ``python -m repro sweep [matrix] --trials T
--workers K`` runs a named scenario matrix (see
:data:`repro.harness.registry.MATRICES`, or ``repro sweep --help`` for the
annotated list) and prints a per-cell table, or JSON with ``--json``;
omitting ``--trials`` applies the matrix's per-cell trial budgets.
``--workers auto`` resolves to the machine's core count, and ``--backend
{serial,pool}`` picks the execution backend.
``python -m repro plot report.json ... -o fig5.png`` renders Figure-5
style curves from those JSON reports (cost metrics like ``mean_messages``
and ``mean_bytes`` plot with stderr error bars; every row also carries the
achieved ``interval_width``, plottable like any metric).

Adaptive trial budgets
----------------------

Fixed budgets keep buying trials after the answer is already sharp.  Every
surface can instead stop when the Wilson interval is *good enough*:

* ``run_matrix(matrix, trials=..., target_width=0.05, chunk=32)`` (or
  ``repro sweep --target-width 0.05 --chunk 32``, or ``target_width`` /
  ``target_widths`` declared on the matrix itself) — each cell stops at
  the first ``chunk`` boundary where its agreement-rate interval is at
  most that wide, with the trial budget as the worst-case cap; rows gain
  ``trials_used`` and ``stop_reason``.
* estimators take ``stopping=`` — e.g. ``estimate_termination(...,
  trials=5000, stopping=TargetWidth(0.02, metric="per_replica_decides"))``
  — where ``metric`` names any estimate key; compose rules with
  ``Any``/``All`` (or ``|``/``&``) to mix width targets and caps.

**Choosing ``target_width``:** pick the coarsest interval you would accept
on the plot.  For proportions near 0 or 1 (our regime) the all-success
Wilson width after ``t`` trials is ``z²/(t+z²)``, so width ``w`` costs
about ``3.84·(1−w)/w`` trials at 95%: ``w=0.2`` → ~16, ``w=0.05`` → ~73,
``w=0.01`` → ~380.  **Choosing ``chunk``:** runs stop only at multiples of
``chunk`` and an early cancel abandons at most about one window (=
``chunk``) of in-flight trials, so make it a small fraction of the
expected stopping point (the ``DEFAULT_CHUNK`` of 32 suits widths down to
~0.05; drop to 8 for very cheap sampling-level trials, raise it when each
checkpoint's rule evaluation should be amortized over more work).

Adaptive runs keep every determinism guarantee: rules see only the folded
submission-order prefix at deterministic checkpoints, so ``trials_used``
is identical on every backend and worker count, and the estimates are
**bit-identical to the same-length prefix of the fixed-budget run**
(``tests/test_adaptive.py`` pins both).  Early cancel rides the backend
seam's bounded-window stream contract (``stream(..., window=...)``), so
stopping never drains the full seed range.

Choosing an execution backend
-----------------------------

Every surface above takes ``backend=`` (a name or a constructed
:class:`~repro.harness.backends.base.Backend`); the choice moves only
wall-clock, never results:

* ``serial`` (default for ``workers <= 1``) — in-process, no pickling,
  pdb/coverage-friendly; the reference implementation and the right tool
  for debugging and tiny runs.
* ``pool`` (default for ``workers > 1``) — a ``multiprocessing`` pool;
  the workhorse for CPU-bound protocol trials, ~linear in cores when each
  trial is ≫ the per-chunk IPC cost.  Trial functions must be picklable.
  Happy-path shutdown is graceful (in-flight chunks finish; worker atexit/
  coverage hooks run); only error paths and GC hard-terminate.

Either way, results are **bit-identical** (pinned by
``tests/test_backends.py``): seeds are counter-derived per trial and
collection is submission-ordered, so scheduling never leaks into results.

Scaling past n≈100
------------------

Dense delivery — one simulator event per ``(message, recipient)`` pair —
is the reference semantics, but its per-event python cost makes protocol
trials at n≥500 crawl.  ``DeploymentSpec.with_sparse()`` flips a trial to
the **sparse delivery layer**: :class:`~repro.net.sparse
.SparseDeliveryPolicy` coalesces each multicast/broadcast into one
simulator event per distinct delivery time, and ProBFT additionally
attaches :class:`~repro.core.observation.SampleObservationPolicy`, which
prunes deliveries the recipient's quorum-sample state provably ignores.
Sparse runs are **bit-identical** to dense on the same spec — same
``RunResult``, same message stats, same simulated time
(``tests/test_sparse_delivery.py`` pins every protocol × adversary ×
latency cell) — so the flag moves only wall-clock, like ``workers=``::

    spec = cell_deployment_spec(cell, seed=seed, max_time=300.0)
    result = run_trial(spec.with_sparse())   # ≥5x dense at n=500

Use sparse for any large-n protocol sweep.  Dense remains the default
because it is the reference implementation and the equivalence oracle;
keep it for debugging (one event per delivery is easier to trace) and
for pinning new protocols/adversaries before trusting their sparse runs.
Related large-n levers: the analytical estimators take
``vectorized=True`` (numpy batch kernels, bit-identical, fixed budgets
only — see :mod:`repro.montecarlo.vectorized`), and
``benchmarks/bench_scale.py`` writes ``BENCH_scale.json`` (trials/sec ×
n, dense vs the scale stack vs gossip) — the scoreboard for scaling
regressions.

One scale stack
~~~~~~~~~~~~~~~

There are two delivery configurations: dense (the reference) and the
scale stack that ``with_sparse()`` selects.  For ProBFT the scale stack
also replaces the per-replica dict-backed vote collectors with one
shared set of numpy arrays (:mod:`repro.core.columnar`): packed-uint64
voter bitmaps, per-slot counters, and a bucket-wide dispatch kernel that
applies a whole fan-out in a handful of masked scatters instead of a
python loop per recipient.  It stays **bit-identical** to dense on the
same spec, so it moves only wall-clock::

    spec = cell_deployment_spec(cell, seed=seed, max_time=300.0)
    result = run_trial(spec.with_sparse())  # n≈20,000 OK

Or flip a whole sweep at once: ``MatrixCell(columnar=True)`` /
``ScenarioMatrix(columnar=True)`` / ``repro sweep --columnar`` run every
cell on the scale stack.  Rules of thumb:

* **n ≤ 500** — plain dense is fast enough, and it is the oracle every
  seam is compared against.
* **n > 500** — ``with_sparse()``; at n=20,000 it is the only stack that
  completes a trial in CI-scale wall-clock.  Add ``track_memory=True``
  (or ``--track-memory``) to watch peak heap.

Choosing a dissemination mode
~~~~~~~~~~~~~~~~~~~~~~~~~~~~~

Orthogonal to *delivery* (dense/sparse — how the simulator schedules
deliveries, never what is sent) is *dissemination* — how the leader's
PROPOSE physically spreads (ProBFT only).  ``DeploymentSpec
.with_gossip()`` swaps the leader's ``O(n)`` broadcast for the
sample-and-forward gossip of :mod:`repro.net.gossip`: every node forwards
a fresh proposal once to a seeded deterministic sample of
``⌈log2 n⌉ + 2`` peers (knobs: ``gossip_fanout``/``gossip_rounds``),
so no single node — leader included — ever sends ``O(n)`` messages.

Unlike ``with_sparse()``, gossip **changes the run**: more total
messages, one-to-two extra latency hops, and per-seed (still fully
deterministic) dissemination trajectories.  Estimates are statistically
consistent with dense runs, not bit-equal to them.  Pick by question:

* **dense** (default) — reproducing the paper's numbers, golden-seed
  pinning, any comparison against the analytical model (which assumes
  one-step proposal delivery).
* **gossip** — studying realistic dissemination at scale: per-node
  bandwidth bounded by fan-out, equivocation under partial information
  (a Byzantine leader restricts only its *own* first hop — honest relays
  leak conflicting proposals across its partitions), flooding
  amplification through honest relays.  Compose with ``with_sparse()``
  for large n; ``with_gossip(False)`` round-trips to exact dense
  semantics (``tests/test_gossip.py`` pins identity on every
  protocol × adversary cell).

Driving the SMR layer
---------------------

Protocol trials answer "does one slot decide?"; the serving surface
(:mod:`repro.smr.workload`) answers "what does a replicated *service*
deliver under sustained client load?".  A :class:`~repro.smr.workload
.ServingSpec` describes one closed-loop trial — adversary × load level ×
replication knobs — and :func:`~repro.smr.workload.run_serving_trial`
(picklable, engine-ready via :func:`~repro.smr.workload.serving_trials` +
:func:`~repro.smr.workload.run_serving_trial_spec`) returns throughput
and a latency profile (p50/p99/p999 via this package's
:func:`~repro.harness.metrics.percentile` /
:class:`~repro.harness.metrics.LatencyAccumulator`)::

    from repro.smr import ServingSpec, run_serving_trial, serving_cells

    result = run_serving_trial(ServingSpec(adversary="none", load="high"))
    matrix = [run_serving_trial(s) for s in serving_cells()]

Choosing the knobs:

* **Load level** (``low``/``high``, see :data:`~repro.smr.workload
  .LOAD_LEVELS`) — ``low`` keeps clients mostly thinking (latency floor:
  expect p50 near the 4-hop consensus minimum); ``high`` keeps the
  request queue saturated, which is the regime where batching and
  pipelining matter and where the committed ``BENCH_smr_serving.json``
  cells are measured.
* **Batching and pipelining** — ``batch_size`` packs queued requests into
  one consensus value, ``pipeline`` keeps that many slots in flight.  On
  the high-load cell the defaults (``batch_size=8, pipeline=4``) deliver
  roughly **25x** the throughput of unbatched ``pipeline=1`` at similar
  p50 — consensus rounds, not payload bytes, are the scarce resource, so
  amortizing slots across requests is the single biggest serving lever.
* **Deployment size** — serving specs default to ``n=9``, the smallest
  deployment whose probabilistic quorum (``q = ⌈2√n⌉``) stays attainable
  with a faulty member; at ``n=4`` any Byzantine seat starves every slot.
* **Adversaries** (:data:`~repro.smr.workload.SERVING_ADVERSARIES`) — the
  equivocating leader costs about 5x in throughput (every slot pays a
  view-change timeout before an honest leader serves it); the flooder is
  absorbed by signature rejection and leaves the latency profile
  bit-identical to the no-fault cell.
* **Leadership rotation** (``rotate_leaders=True``) — by default every
  slot's view-1 leader is replica 0, so a single equivocating seat taxes
  *every* slot.  With rotation on, slot ``s`` opens under leader
  ``(s + 1) mod n`` (each slot's :class:`~repro.config.ProtocolConfig`
  carries a ``leader_offset``), so a Byzantine seat leads — and can
  attack — only ~1/n of slots: the attacked high-load cell recovers
  **≥ 3x** throughput (the committed rotation ablation).  Rotation off is
  bit-identical to the historical fixed-leader schedule.
* **Arrival discipline** (``arrival="closed"``/``"open"``) — closed-loop
  clients wait for completions before thinking and resubmitting, so
  offered load adapts to service rate; open-loop clients pre-draw Poisson
  arrivals at ``offered_rate`` aggregate requests per sim-second
  (defaults per load level in :data:`~repro.smr.workload
  .OPEN_LOOP_RATES`) and submit on schedule regardless.  Open loop is the
  discipline where a slow service shows up as queueing delay in the
  latency tail instead of quietly throttling throughput — and the
  per-client-id apply index keeps populations in the thousands cheap
  (dispatch is O(1) per applied command, not O(clients)).

``repro serve [--matrix] [--rotate-leaders] [--arrival {closed,open,both}]``
is the CLI face; ``tests/test_smr_serving.py`` and
``tests/test_smr_rotation.py`` pin golden-seed determinism (same spec +
seed → bit-identical latency tuples on any backend, rotate-off cells
bit-identical to the committed artifact rows), and
``benchmarks/bench_smr_serving.py`` writes the committed scoreboard
including the rotation ablation and open-loop rows.

Adversary dispatch and cost columns
-----------------------------------

Matrix adversaries resolve through the protocol-keyed
:mod:`repro.adversary.registry` behavior registry
(:func:`~repro.adversary.registry.register_behavior`): protocol-agnostic
behaviors (silence, crashes, the targeted scheduler, network
``duplication``) register once, while the forgery attacks dispatch to
per-protocol implementations — ProBFT's Figure-4 equivocation/flooding and
their PBFT/HotStuff analogues — so **no protocol × adversary cell is
unsupported** (the ``adversary-complete`` matrix is the CI audit).  Every
report row carries message-cost columns (``mean_messages`` /
``messages_stderr``); matrices declared with ``track_bytes=True`` (e.g.
``byte-costs``) also fill ``mean_bytes`` / ``bytes_stderr`` from canonical
message encodings, making bit complexity a first-class sweep metric.

Streaming aggregation
---------------------

Large sweeps never materialize their trial rows: ``run_matrix`` consumes
:meth:`ExperimentEngine.stream
<repro.harness.parallel.ExperimentEngine.stream>` and folds every result
into a per-cell :class:`~repro.harness.registry.CellAccumulator`
(:class:`~repro.harness.metrics.Welford` running means/CIs +
:class:`~repro.harness.metrics.StreamingProportion` Wilson intervals), so
a 10⁵-trial cell costs a handful of floats.  The running mean is the same
left-fold ``sum/len`` computes, so streamed and materialized estimates are
identical — ``tests/test_streaming.py`` pins that equality on golden
seeds.

Determinism guarantees
----------------------

* Trial ``i`` of a run with master seed ``m`` always draws from a generator
  seeded with ``derive_seed(m, i)`` — a pure counter-based splitter with no
  global RNG state — so a trial's randomness is independent of scheduling.
* Results are collected (and streamed) in submission order regardless of
  completion order, so even order-sensitive float aggregation is
  reproducible.
* Consequently **serial (``workers=0``) and parallel (``workers=k``) runs
  of the same experiment are bit-identical**, and ``workers`` may be chosen
  purely for speed.  ``tests/test_seed_stability.py`` pins golden per-seed
  outputs; re-record those goldens in the same commit as any intentional
  RNG-stream change.

Worker configuration
--------------------

``workers=0`` (default) and ``workers=1`` run in-process — no pool, no
pickling requirements, pdb-friendly.  ``workers>1`` spawns that many pool
processes (values above the core count are allowed; the OS time-slices).
Trial functions crossing a pool boundary must be picklable (module-level
functions or partials of them); a failing trial raises
:class:`~repro.harness.parallel.TrialError` carrying the trial index, seed,
and worker traceback.
"""

from .adaptive import (
    DEFAULT_CHUNK,
    FixedBudget,
    ProportionProgress,
    StoppingRule,
    TargetWidth,
    consume_adaptive,
)
from .trial import (
    DeploymentSpec,
    RunResult,
    TrialContext,
    good_case_metrics,
    list_protocols,
    register_protocol,
    run_trial,
)
from .metrics import (
    LatencyAccumulator,
    mean,
    percentile,
    stddev,
    wilson_interval,
    ProportionEstimate,
    StreamingProportion,
    Welford,
)
from .backends import (
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_env,
    list_backends,
    make_backend,
    resolve_workers,
)
from .parallel import (
    ExperimentEngine,
    TrialError,
    TrialSpec,
    derive_seed,
    spawn_seeds,
    workers_from_env,
)
from .registry import (
    MATRICES,
    CellAccumulator,
    MatrixCell,
    MatrixReport,
    ScenarioMatrix,
    cell_deployment_spec,
    get_matrix,
    list_matrices,
    run_matrix,
)

__all__ = [
    "DEFAULT_CHUNK",
    "FixedBudget",
    "ProportionProgress",
    "StoppingRule",
    "TargetWidth",
    "consume_adaptive",
    "DeploymentSpec",
    "TrialContext",
    "run_trial",
    "register_protocol",
    "list_protocols",
    "RunResult",
    "good_case_metrics",
    "LatencyAccumulator",
    "mean",
    "percentile",
    "stddev",
    "wilson_interval",
    "ProportionEstimate",
    "StreamingProportion",
    "Welford",
    "ExperimentEngine",
    "TrialError",
    "TrialSpec",
    "derive_seed",
    "spawn_seeds",
    "workers_from_env",
    "Backend",
    "ProcessPoolBackend",
    "SerialBackend",
    "backend_from_env",
    "list_backends",
    "make_backend",
    "resolve_workers",
    "MATRICES",
    "CellAccumulator",
    "MatrixCell",
    "MatrixReport",
    "ScenarioMatrix",
    "cell_deployment_spec",
    "get_matrix",
    "list_matrices",
    "run_matrix",
]
