"""Generic deterministic process-pool fan-out with crash supervision.

Extracted from the sweep executor so any subsystem with independent,
picklable work items — sweep cells, shard sub-solves — can fan out over
a :class:`concurrent.futures.ProcessPoolExecutor` with the same retry,
timeout and interrupt semantics, without importing the experiments
layer. The pool never reorders results: :meth:`FanoutPool.run` returns
one :class:`PoolOutcome` per item, in item order, regardless of
completion order, which is what keeps parallel runs bit-identical to
serial ones when the work itself is deterministic.

On top of the original raise/timeout retries, the pool now *supervises*
its executor: a child that dies hard (SIGKILL, ``os._exit``) breaks the
whole ``ProcessPoolExecutor`` and every pending future raises
``BrokenProcessPool`` — the supervisor rebuilds the pool, re-enqueues
the in-flight items (with capped exponential backoff + deterministic
jitter from :class:`RetryPolicy`) and keeps going. Blame for a break is
assigned to the attempts that were *observed running* when it happened
(or to every pending attempt, when the break landed before any of them
was observed running — a child can die within one poll interval); an
item blamed twice is re-tried **alone** in a fresh single-worker
pool — if it breaks that one too it is provably the culprit and is
quarantined as a ``kind="poison"`` outcome, while an innocent bystander
(blamed only because it shared the pool with the real killer) clears
its name by completing. The run as a whole therefore survives any
number of crashing items without aborting, and without false
quarantines.

Contract for the worker callable: ``fn(item, submitted_at)`` where
``submitted_at`` is the parent's ``time.time()`` at submission (workers
that care measure queue latency from it; others ignore it). ``fn`` must
be module-level (spawn-start pools pickle it by reference) and its
return value must be picklable.

Chaos injection (:mod:`repro.chaos`) hooks in here: when the
``REPRO_CHAOS_SPEC`` environment variable is set, items are submitted
through :func:`_chaos_invoke`, which consults the injector before
running ``fn``. With the variable unset the clean path is untouched —
``fn`` is submitted directly, no chaos import ever happens, and results
stay bit-identical to builds without the chaos layer.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

__all__ = ["PoolOutcome", "RetryPolicy", "FanoutPool"]

#: Mirror of :data:`repro.chaos.policy.CHAOS_ENV_VAR`. Duplicated as a
#: plain string so the clean path never imports the chaos package.
_CHAOS_ENV = "REPRO_CHAOS_SPEC"

#: Wait granularity of the supervision loops, in seconds.
POLL_SECONDS = 0.05


@dataclass
class PoolOutcome:
    """Result of one item's execution (or final failure).

    ``payload`` is ``fn``'s return value when the item succeeded;
    ``error`` is the formatted ``"Type: message"`` string of the last
    attempt's exception otherwise. ``attempts`` counts every try,
    including the successful one. ``kind`` classifies the outcome:
    ``"ok"``, ``"error"`` (fn raised), ``"timeout"`` (wall-clock budget
    exceeded), ``"poison"`` (the item broke a pool it had to itself —
    quarantined), ``"crash"`` (gave up after the pool kept breaking for
    reasons this item was never blamed for).
    """

    index: int
    payload: object | None = None
    error: str | None = None
    attempts: int = 1
    kind: str = "ok"

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @property
    def timed_out(self) -> bool:
        return self.kind == "timeout"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff, jitter and timeout-escalation knobs for retries.

    ``delay(index, attempt)`` is the pause before re-running ``index``
    after its ``attempt``-th try failed: ``min(cap, base * 2^(attempt-1))``
    stretched by up to ``jitter`` of itself. The jitter fraction is drawn
    from a ``default_rng`` seeded on ``(seed, stream, index, attempt)``,
    so it is deterministic per (policy, item, attempt) — two same-seed
    runs back off identically, yet distinct items never thunder in herd.
    ``timeout_for`` escalates the per-item budget geometrically per
    attempt (a cell that timed out once gets more room, not the same
    guillotine); ``rebuild_delay`` paces pool reconstruction after a
    break the same way. ``backoff_base=0`` disables all sleeping.
    """

    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    timeout_escalation: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"backoff_cap must be >= backoff_base, got {self.backoff_cap}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout_escalation < 1.0:
            raise ValueError(
                f"timeout_escalation must be >= 1, got {self.timeout_escalation}"
            )

    def _jittered(self, raw: float, stream: int, index: int, attempt: int) -> float:
        if raw <= 0:
            return 0.0
        if self.jitter <= 0:
            return raw
        draw = float(
            np.random.default_rng((self.seed, stream, index, attempt)).random()
        )
        return raw * (1.0 + self.jitter * draw)

    def delay(self, index: int, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt + 1`` of ``index``."""
        if self.backoff_base <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 1))
        return self._jittered(raw, 1, index, attempt)

    def timeout_for(self, base_timeout: float | None, attempt: int) -> float | None:
        """The per-item wall-clock budget for a given attempt number."""
        if base_timeout is None:
            return None
        return base_timeout * self.timeout_escalation ** (attempt - 1)

    def rebuild_delay(self, rebuilds: int) -> float:
        """Seconds to pause before bringing up replacement pool #n."""
        if self.backoff_base <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * 2.0 ** (rebuilds - 1))
        return self._jittered(raw, 2, 0, rebuilds)


def _format_error(error) -> str:
    return f"{type(error).__name__}: {error}" if error else "unknown error"


def _chaos_invoke(payload: tuple, submitted_at: float):
    """Run one item under the ambient chaos injector.

    Module-level so spawn-start pools pickle it by reference. The chaos
    import is deferred: this function is only ever submitted when the
    spec env var is set, so clean runs never touch the chaos package.
    """
    fn, scope, index, attempt, item, inline = payload
    from repro.chaos.policy import chaos_context

    with chaos_context(scope, index, attempt, inline=inline):
        return fn(item, submitted_at)


class _Attempt:
    """Parent-side bookkeeping for one in-flight item attempt."""

    __slots__ = ("index", "item", "attempt", "submitted_at", "running_since")

    def __init__(self, index: int, item, attempt: int) -> None:
        self.index = index
        self.item = item
        self.attempt = attempt
        self.submitted_at = time.time()
        self.running_since: float | None = None


class _Workers:
    """One ``ProcessPoolExecutor`` and the attempts in flight on it.

    The steps both supervision loops share — submit, poll, mark
    attempts running, classify finished futures, expire timeouts, shut
    down — and none of the verdicts: what a break, a raise or a timeout
    means is up to the caller. Used as a context manager; leaving it
    waits for the workers only when nothing was abandoned (timed out,
    killed by a break) and no exception is propagating.
    """

    def __init__(self, fanout: "FanoutPool", fn, max_workers: int) -> None:
        self.fn = fn
        self.timeout = fanout.timeout
        self.policy = fanout._policy()
        # None keeps the clean path free of the chaos wrapper.
        self.chaos_scope = (
            fanout.chaos_scope if os.environ.get(_CHAOS_ENV) else None
        )
        self.executor = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context(fanout.mp_context),
        )
        self.pending: dict = {}
        self.abandoned = False

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # Abandoned (timed-out, killed or interrupted) items are still
        # running inside their workers, or never will; waiting would hang.
        self.executor.shutdown(
            wait=exc_type is None and not self.abandoned, cancel_futures=True
        )

    def submit(self, info: _Attempt) -> bool:
        """Put ``info`` in flight; ``False`` when the pool is broken."""
        try:
            if self.chaos_scope is None:
                future = self.executor.submit(
                    self.fn, info.item, info.submitted_at
                )
            else:
                future = self.executor.submit(
                    _chaos_invoke,
                    (
                        self.fn, self.chaos_scope, info.index,
                        info.attempt, info.item, False,
                    ),
                    info.submitted_at,
                )
        except (BrokenProcessPool, RuntimeError):
            self.abandoned = True
            return False
        self.pending[future] = info
        return True

    def poll(self) -> tuple[list[tuple[_Attempt, PoolOutcome]], bool]:
        """Wait up to one poll interval for attempts to end.

        Returns each attempt that finished, raised or ran out of time
        with its outcome, and whether the pool broke. The attempts a
        break killed stay in ``pending`` for the caller to blame.
        """
        done, _ = wait(
            set(self.pending), timeout=POLL_SECONDS, return_when=FIRST_COMPLETED
        )
        now = time.monotonic()
        # Mark running unconditionally (not just under a timeout): crash
        # blame needs to know which attempts were on a worker when the
        # pool broke.
        for future, info in self.pending.items():
            if info.running_since is None and future.running():
                info.running_since = now
        ended: list[tuple[_Attempt, PoolOutcome]] = []
        broken = False
        for future in done:
            info = self.pending[future]
            try:
                outcome = PoolOutcome(
                    index=info.index,
                    payload=future.result(),
                    attempts=info.attempt,
                )
            except BrokenProcessPool:
                # Every pending future is now dead; dead children can't
                # finish anything, so never wait on them.
                broken = self.abandoned = True
                continue
            except Exception as error:  # noqa: BLE001 — converted to a record
                outcome = PoolOutcome(
                    index=info.index,
                    error=_format_error(error),
                    attempts=info.attempt,
                    kind="error",
                )
            del self.pending[future]
            ended.append((info, outcome))
        if broken or self.timeout is None:
            return ended, broken
        now = time.monotonic()
        for future, info in list(self.pending.items()):
            budget = self.policy.timeout_for(self.timeout, info.attempt)
            if info.running_since is not None and now - info.running_since > budget:
                future.cancel()
                del self.pending[future]
                self.abandoned = True
                error = TimeoutError(f"item exceeded {budget:g}s wall-clock")
                ended.append(
                    (
                        info,
                        PoolOutcome(
                            index=info.index,
                            error=_format_error(error),
                            attempts=info.attempt,
                            kind="timeout",
                        ),
                    )
                )
        return ended, broken


class FanoutPool:
    """Deterministic fan-out of independent work items.

    Parameters
    ----------
    n_jobs:
        Worker processes. ``1`` runs every item inline in submission
        order — no subprocess, no pickling.
    timeout:
        Per-item wall-clock budget in seconds, measured from when the
        item is observed running (queue time never counts). ``None``
        disables it; only enforced on the pool path — a timed-out future
        is abandoned, its worker keeps the slot until the item ends.
        Retried attempts get an escalated budget
        (:meth:`RetryPolicy.timeout_for`).
    retries:
        Extra attempts after a raise/timeout before the item is recorded
        as failed (default 1 → two attempts). Crash re-runs (the item
        was in flight when the pool broke) are supervision, not retries,
        and do not consume this budget.
    mp_context:
        ``multiprocessing`` start method; ``"spawn"`` (default) is the
        portable, thread-safe choice, ``"fork"`` exists for tests that
        must inherit monkeypatched module state.
    retry_policy:
        Backoff/jitter/escalation knobs; ``None`` uses the default
        :class:`RetryPolicy`.
    chaos_scope:
        Label mixed into the chaos injector's RNG key so different
        fan-out layers (sweep cells vs. shard solves) draw independent
        injection schedules.

    The pool path polls every :data:`POLL_SECONDS` and tolerates
    ``2 * len(items) + 4`` pool reconstructions before failing all
    outstanding items as ``kind="crash"`` — far above what
    quarantine-bound items can cause, a backstop against environmental
    crash loops. After :meth:`run`, ``last_rebuilds`` reports how many
    times a pool broke (0 on a healthy run).

    ``KeyboardInterrupt`` mid-run tears the pool down without waiting on
    in-flight items and re-raises; outcomes delivered to ``on_result``
    before the interrupt remain delivered.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        timeout: float | None = None,
        retries: int = 1,
        mp_context: str = "spawn",
        retry_policy: RetryPolicy | None = None,
        chaos_scope: str = "pool",
    ) -> None:
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.n_jobs = n_jobs
        self.timeout = timeout
        self.retries = retries
        self.mp_context = mp_context
        self.retry_policy = retry_policy
        self.chaos_scope = chaos_scope
        self.last_rebuilds = 0

    def run(self, fn, items, on_result=None) -> list[PoolOutcome]:
        """Execute ``fn(item, submitted_at)`` for every item.

        Returns outcomes in item order. ``on_result(outcome)`` — when
        given — fires once per item *as it finishes* (completion order),
        which is where callers hook durable journaling.
        """
        items = list(items)
        results: dict[int, PoolOutcome] = {}
        self.last_rebuilds = 0

        def record(outcome: PoolOutcome) -> None:
            results[outcome.index] = outcome
            if on_result is not None:
                on_result(outcome)

        if self.n_jobs == 1 or len(items) <= 1:
            for index, item in enumerate(items):
                record(self._run_inline(fn, index, item))
        else:
            self._run_pool(fn, items, record)
        return [results[index] for index in range(len(items))]

    def _policy(self) -> RetryPolicy:
        return self.retry_policy if self.retry_policy is not None else RetryPolicy()

    # -- serial path -------------------------------------------------------

    def _run_inline(self, fn, index: int, item) -> PoolOutcome:
        policy = self._policy()
        chaos_active = bool(os.environ.get(_CHAOS_ENV))
        last_error: Exception | None = None
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                delay = policy.delay(index, attempt - 1)
                if delay > 0:
                    time.sleep(delay)
            submitted_at = time.time()
            try:
                if chaos_active:
                    # inline=True: the injector only honors "raise" here —
                    # killing or hanging the caller is a real outage, not
                    # an injected one.
                    payload = _chaos_invoke(
                        (fn, self.chaos_scope, index, attempt, item, True),
                        submitted_at,
                    )
                else:
                    payload = fn(item, submitted_at)
            except Exception as error:  # noqa: BLE001 — converted to a record
                last_error = error
                continue
            return PoolOutcome(index=index, payload=payload, attempts=attempt)
        return PoolOutcome(
            index=index,
            error=_format_error(last_error),
            attempts=self.retries + 1,
            kind="error",
        )

    # -- pool path ---------------------------------------------------------

    def _run_pool(self, fn, items, record) -> None:
        policy = self._policy()
        max_rebuilds = 2 * len(items) + 4

        #: (index, item, attempt) triples ready to submit now.
        ready: list[tuple[int, object, int]] = [
            (index, item, 1) for index, item in enumerate(items)
        ]
        #: (not_before_monotonic, index, item, attempt) — backoff holds.
        deferred: list[tuple[float, int, object, int]] = []
        #: Attempts blamed for two pool breaks, awaiting a solo retrial.
        suspects: list[_Attempt] = []
        crash_counts: dict[int, int] = {}

        def defer(info: _Attempt) -> None:
            deferred.append(
                (
                    time.monotonic() + policy.delay(info.index, info.attempt),
                    info.index,
                    info.item,
                    info.attempt + 1,
                )
            )

        # One pool per pass: a pass ends when every item has ended (the
        # loop below then finds nothing left) or when the pool broke.
        while ready or deferred:
            with _Workers(self, fn, min(self.n_jobs, len(items))) as workers:
                broken = False
                while not broken and (workers.pending or ready or deferred):
                    now = time.monotonic()
                    ready.extend(entry[1:] for entry in deferred if entry[0] <= now)
                    deferred = [entry for entry in deferred if entry[0] > now]
                    while ready and not broken:
                        broken = not workers.submit(_Attempt(*ready[0]))
                        if not broken:
                            ready.pop(0)
                    if broken:
                        break
                    if not workers.pending:
                        # Nothing in flight; sleep toward the earliest
                        # backoff release instead of spinning.
                        if deferred:
                            pause = min(e[0] for e in deferred) - time.monotonic()
                            time.sleep(min(POLL_SECONDS, max(0.0, pause)))
                        continue
                    ended, broken = workers.poll()
                    for info, outcome in ended:
                        # A raise or timeout in a shared pool consumes
                        # one retry; the last one is final.
                        if not outcome.succeeded and info.attempt <= self.retries:
                            defer(info)
                        else:
                            record(outcome)
            if not broken:
                continue
            self.last_rebuilds += 1
            # A child can pick up an item and die inside a single poll
            # interval, so its future goes straight from pending to
            # broken without ever being *observed* running. If that
            # happened to every pending attempt, blame them all — the
            # solo-retrial stage exonerates innocents, so over-blame
            # costs time, never correctness; under-blame would re-enqueue
            # the true killer as an innocent forever.
            dead = list(workers.pending.values())
            blame_all = not any(info.running_since is not None for info in dead)
            for info in dead:
                if info.running_since is None and not blame_all:
                    # Still queued — an innocent; resubmit as-is.
                    ready.append((info.index, info.item, info.attempt))
                    continue
                # Observed running when the pool died — a suspect.
                # Twice-blamed items go to a solo retrial (innocent
                # bystanders clear their name there; true killers get
                # quarantined).
                crash_counts[info.index] = crash_counts.get(info.index, 0) + 1
                if crash_counts[info.index] >= 2:
                    info.attempt += 1
                    suspects.append(info)
                else:
                    defer(info)
            if self.last_rebuilds > max_rebuilds:
                message = (
                    f"process pool broke {self.last_rebuilds} times; "
                    "giving up on outstanding items"
                )
                for index, _, attempt in ready + [e[1:] for e in deferred]:
                    record(
                        PoolOutcome(
                            index=index, error=message, attempts=attempt, kind="crash"
                        )
                    )
                ready, deferred = [], []
            else:
                pause = policy.rebuild_delay(self.last_rebuilds)
                if pause > 0:
                    time.sleep(pause)

        # Solo retrials: each twice-blamed item gets a fresh single-worker
        # pool with nothing else in it. Breaking that pool is proof of guilt.
        for suspect in sorted(suspects, key=lambda s: s.index):
            self._solo_trial(fn, suspect, crash_counts[suspect.index], record)

    def _solo_trial(self, fn, suspect: _Attempt, prior_blames: int, record) -> None:
        """Re-run a twice-blamed item alone; quarantine it if it kills
        again, clear it if it completes. A raise or timeout is final."""
        info = _Attempt(suspect.index, suspect.item, suspect.attempt)
        with _Workers(self, fn, 1) as solo:
            broken = not solo.submit(info)
            while not broken:
                ended, broken = solo.poll()
                if ended:
                    record(ended[0][1])
                    return
        self.last_rebuilds += 1
        record(
            PoolOutcome(
                index=info.index,
                error=(
                    f"item killed {prior_blames} shared pool(s) "
                    "and its solo retrial pool; quarantined"
                ),
                attempts=info.attempt,
                kind="poison",
            )
        )
