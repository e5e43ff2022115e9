"""Deterministic fault injection for the serving stack.

The control plane (:mod:`repro.serving.controlplane`) exists because
real fleets fail: a replica's fabric drifts and its engine starts
raising, a neighbour steals its cores and flushes crawl.  Testing
that machinery needs failures that are *reproducible* — a soak test
must see the same failure on the same engine call every run — so this
module provides seeded wrappers around any batched MC engine:

- :class:`FailureSchedule` — a deterministic per-call failure plan,
  either an explicit set of failing call indices or a seeded
  Bernoulli draw per call (the "10 % flaky replica");
- :class:`FlakyEngine` — delegates to a wrapped engine, raising
  :class:`InjectedFault` on the calls its schedule marks;
- :class:`SlowEngine` — delegates after a fixed (or per-call) delay,
  the overload/latency-injection counterpart;
- :class:`PoisonEngine` — every call fails.  The shared test double
  for the failure-isolation regression tests (``test_serving_*``).

The wrappers expose only the scheduler-facing engine contract
(``mc_forward_batched``); everything else is forwarded to the wrapped
engine via ``__getattr__`` so a wrapped :class:`~repro.bayesian.
BayesianCim` still exposes its ledger etc.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Union

import numpy as np


class InjectedFault(RuntimeError):
    """An engine failure raised on purpose by a fault wrapper.

    Subclasses :class:`RuntimeError` so code (and tests) that treat
    engine failures generically keep working; fault-aware callers can
    catch this type specifically.
    """


class FailureSchedule:
    """Deterministic plan of which engine calls fail.

    Parameters
    ----------
    fail_calls:
        Explicit 0-based call indices that fail.  Takes precedence
        over ``rate`` for the listed calls (both may be combined).
    rate:
        Per-call failure probability, drawn from a seeded generator.
        Draws are made lazily but *by call index*, so asking about
        call 7 always gives the same answer regardless of query
        order — the schedule is a pure function of (rate, seed).
    seed:
        Seed of the Bernoulli stream backing ``rate``.
    """

    def __init__(self, fail_calls: Iterable[int] = (),
                 rate: float = 0.0, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.fail_calls = frozenset(int(i) for i in fail_calls)
        if any(i < 0 for i in self.fail_calls):
            raise ValueError("fail_calls indices must be non-negative")
        self.rate = rate
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._draws: List[bool] = []

    @classmethod
    def from_rate(cls, rate: float, seed: int = 0) -> "FailureSchedule":
        """A seeded i.i.d. failure plan (e.g. the 10 % flaky replica)."""
        return cls(rate=rate, seed=seed)

    def should_fail(self, call_index: int) -> bool:
        """Whether the ``call_index``-th engine call fails."""
        if call_index < 0:
            raise ValueError("call_index must be non-negative")
        if call_index in self.fail_calls:
            return True
        if self.rate == 0.0:
            return False
        while len(self._draws) <= call_index:
            self._draws.append(bool(self._rng.random() < self.rate))
        return self._draws[call_index]


class _EngineWrapper:
    """Shared delegation base: forward everything but the MC call."""

    def __init__(self, engine):
        self.engine = engine
        self.calls = 0

    def __getattr__(self, name):
        # Only reached for attributes not found on the wrapper itself;
        # keeps ledgers, configs, etc. of the wrapped engine reachable.
        return getattr(self.engine, name)


class FlakyEngine(_EngineWrapper):
    """An engine whose calls fail according to a seeded schedule.

    ``schedule`` may be a :class:`FailureSchedule` or a bare float,
    shorthand for ``FailureSchedule.from_rate(rate, seed)``.  Failed
    calls raise :class:`InjectedFault` *before* touching the wrapped
    engine, so its RNG state only advances on successful calls —
    exactly how a transport-level replica failure behaves.
    """

    def __init__(self, engine,
                 schedule: Union[FailureSchedule, float] = 0.1,
                 seed: int = 0):
        super().__init__(engine)
        if not isinstance(schedule, FailureSchedule):
            schedule = FailureSchedule.from_rate(float(schedule), seed)
        self.schedule = schedule
        self.failures = 0

    def mc_forward_batched(self, x, n_samples: int = 10):
        call = self.calls
        self.calls += 1
        if self.schedule.should_fail(call):
            self.failures += 1
            raise InjectedFault(
                f"injected fault on engine call {call} "
                f"(schedule rate={self.schedule.rate})")
        return self.engine.mc_forward_batched(x, n_samples=n_samples)


class SlowEngine(_EngineWrapper):
    """An engine that sleeps before every call — latency injection.

    ``delay_s`` is a fixed delay or a ``call_index -> seconds``
    callable (e.g. to model a warm-up cliff or a degrading device).
    """

    def __init__(self, engine,
                 delay_s: Union[float, Callable[[int], float]] = 0.01,
                 sleep: Callable[[float], None] = time.sleep):
        super().__init__(engine)
        self.delay_s = delay_s
        self._sleep = sleep

    def mc_forward_batched(self, x, n_samples: int = 10):
        call = self.calls
        self.calls += 1
        delay = (self.delay_s(call) if callable(self.delay_s)
                 else self.delay_s)
        if delay > 0:
            self._sleep(delay)
        return self.engine.mc_forward_batched(x, n_samples=n_samples)


class PoisonEngine:
    """An engine whose every call fails — the failure-isolation double.

    Deduplicates the ``_PoisonEngine`` classes that used to be copied
    across the serving test files.
    """

    def __init__(self, message: str = "boom: poisoned replica"):
        self.message = message
        self.calls = 0

    def mc_forward_batched(self, x, n_samples: int = 10):
        self.calls += 1
        raise InjectedFault(self.message)


__all__ = [
    "FailureSchedule",
    "FlakyEngine",
    "InjectedFault",
    "PoisonEngine",
    "SlowEngine",
]
