"""Cooperative cancellation for long-running analyses.

The analysis-as-a-service daemon (``repro serve``) runs solves on
transport threads with a per-request deadline. Python threads cannot be
preempted, so cancellation is cooperative: a :class:`CancelToken` is
installed thread-locally around one pipeline run, the driver polls it at
every stage boundary (:func:`cancel_point`, mirroring
:func:`repro.resilience.chaos.chaos_point`), and — because stage
boundaries are too coarse for a pathological solve — the driver also
wraps its :class:`~repro.resilience.budgets.SolveBudget` with
:func:`cancellable_budget`, which piggybacks a deadline check on the
budget hooks the worklist loops already call once per pop/batch.

With no token installed both hooks are a single thread-local attribute
read, so CLI and sweep runs pay nothing. Tokens are thread-local by
design: the daemon's worker threads each cancel exactly their own
request, never a neighbour's.

Expiry raises :class:`CancelledError` (a
:class:`~repro.resilience.errors.ResilienceError`), which the daemon
maps to a typed ``RL554`` response; outside the daemon it surfaces like
any other classified solver error.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.resilience.errors import ResilienceError, Stage


class CancelledError(ResilienceError):
    """A cooperative cancellation fired: the request's deadline passed or
    its client went away. ``reason`` distinguishes the two."""

    stage = Stage.SERVICE

    def __init__(self, reason: str = "deadline"):
        self.reason = reason
        super().__init__(f"request cancelled ({reason})")


class CancelToken:
    """One request's cancellation state: an optional wall-clock deadline
    plus an explicit :meth:`cancel` flag, both polled via :meth:`check`."""

    __slots__ = ("deadline", "_clock", "_cancelled", "_reason")

    def __init__(
        self,
        deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.deadline = deadline
        self._clock = clock
        self._cancelled = False
        self._reason = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        self._reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled or (
            self.deadline is not None and self._clock() >= self.deadline
        )

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` = no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def check(self) -> None:
        if self._cancelled:
            raise CancelledError(self._reason)
        if self.deadline is not None and self._clock() >= self.deadline:
            raise CancelledError("deadline")


class _CancellableBudget:
    """A :class:`SolveBudget` duck type that checks the cancel token
    before delegating to the wrapped budget (which may be ``None``).

    Pickling drops the token (threading state does not cross process
    boundaries) and reduces to the wrapped budget, so a parallel region
    solve shipping its budget to pool workers still works — the workers
    simply aren't cancellable, the parent's stage-boundary checks are.
    """

    __slots__ = ("token", "inner")

    def __init__(self, token: CancelToken, inner):
        self.token = token
        self.inner = inner

    def check_passes(self, passes: int) -> None:
        self.token.check()
        if self.inner is not None:
            self.inner.check_passes(passes)

    def check_engine(self, stats) -> None:
        self.token.check()
        if self.inner is not None:
            self.inner.check_engine(stats)

    def check_all(self, stats, passes: int) -> None:
        self.token.check()
        if self.inner is not None:
            self.inner.check_all(stats, passes)

    def __reduce__(self):
        return (_unwrap_budget, (self.inner,))


def _unwrap_budget(inner):
    return inner


_LOCAL = threading.local()


def install_token(token: CancelToken) -> None:
    """Arm ``token`` for the current thread until :func:`uninstall_token`."""
    _LOCAL.token = token


def uninstall_token() -> None:
    _LOCAL.token = None


def cancel_point() -> None:
    """The driver's stage-boundary hook. Free when no token is armed."""
    token = getattr(_LOCAL, "token", None)
    if token is not None:
        token.check()


def cancellable_budget(budget):
    """Wrap ``budget`` (possibly ``None``) so the solver's per-pop budget
    checks also poll the active cancel token. Returns ``budget`` unchanged
    when no token is armed — the common, zero-cost case."""
    token = getattr(_LOCAL, "token", None)
    if token is None:
        return budget
    return _CancellableBudget(token, budget)
