"""Resilience primitives: retry backoff and a circuit breaker.

Both primitives are deterministic and clock-explicit so they compose
with the virtual-clock simulator: jitter is derived from a seeded hash
(never ``random``), and the breaker is advanced by the caller's notion
of *now* rather than wall time.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional

from ..errors import ReproError


#: A draw's bits: the first 8 digest bytes as a big-endian unsigned int.
_DRAW_BITS = struct.Struct(">Q")
# 1 << 64 is the draw denominator (8 digest bytes), not a byte size.
_DRAW_DENOMINATOR = float(1 << 64)  # repro-analysis: ignore[REPRO106]


def _unit_draw(seed: int, *parts: object) -> float:
    """Deterministic draw in [0, 1) from (seed, *parts).

    sha256 rather than ``hash()`` so the value is stable across
    processes and Python's per-process hash randomization — the
    determinism gate replays the same seed in two fresh interpreters.
    """
    payload = ":".join(str(p) for p in (seed, *parts)).encode()
    return _digest_draw(hashlib.sha256(payload).digest())


def _digest_draw(digest: bytes) -> float:
    """The draw in [0, 1) a SHA-256 digest encodes (its first 8 bytes)."""
    return _DRAW_BITS.unpack_from(digest)[0] / _DRAW_DENOMINATOR


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded deterministic jitter.

    Attempt ``k`` (0-based) sleeps ``base * multiplier**k`` capped at
    ``max_delay_s``, then stretched by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from the seeded hash.  The
    jittered delay is re-capped so the cap is a true upper bound.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.002
    multiplier: float = 2.0
    max_delay_s: float = 0.05
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ReproError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ReproError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ReproError(
                f"jitter fraction must be in [0, 1), got {self.jitter}"
            )

    def nominal_delay(self, attempt: int) -> float:
        """Un-jittered delay after 0-based ``attempt`` (monotone, capped)."""
        if attempt < 0:
            raise ReproError(f"attempt index must be >= 0, got {attempt}")
        return min(
            self.base_delay_s * self.multiplier**attempt, self.max_delay_s
        )

    def delay(self, attempt: int, *, token: object = "") -> float:
        """Jittered delay after ``attempt``; ``token`` decorrelates callers."""
        nominal = self.nominal_delay(attempt)
        factor = 1.0 - self.jitter + 2.0 * self.jitter * _unit_draw(
            self.seed, "backoff", token, attempt
        )
        return min(nominal * factor, self.max_delay_s)

    def schedule(self, *, token: object = "") -> List[float]:
        """All inter-attempt delays for one request (len max_attempts-1)."""
        return [
            self.delay(k, token=token) for k in range(self.max_attempts - 1)
        ]


@dataclass
class BreakerStats:
    """Counters the breaker exposes for metrics export."""

    failures: int = 0
    successes: int = 0
    opens: int = 0
    short_circuits: int = 0


class CircuitBreaker:
    """Closed → open → half-open breaker on an explicit clock.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` rejects until ``reset_timeout_s`` of virtual
    time has elapsed, after which one probe is let through (half-open).
    A probe success closes the circuit, a probe failure re-opens it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout_s: float = 0.5,
    ) -> None:
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ReproError(
                f"reset_timeout_s must be > 0, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self.stats = BreakerStats()
        self.transitions: List[dict] = []

    @property
    def state(self) -> str:
        return self._state

    def _transition(self, now: float, state: str) -> None:
        if state == self._state:
            return
        self.transitions.append(
            {"t": now, "from": self._state, "to": state}
        )
        self._state = state

    def allow(self, now: float) -> bool:
        """May a call proceed at virtual instant ``now``?"""
        if self._state == self.OPEN:
            assert self._opened_at is not None
            if now - self._opened_at >= self.reset_timeout_s:
                self._transition(now, self.HALF_OPEN)
                return True
            self.stats.short_circuits += 1
            return False
        return True

    def record_success(self, now: float) -> None:
        self.stats.successes += 1
        self._consecutive_failures = 0
        if self._state in (self.HALF_OPEN, self.OPEN):
            self._transition(now, self.CLOSED)

    def record_failure(self, now: float) -> None:
        self.stats.failures += 1
        self._consecutive_failures += 1
        if self._state == self.HALF_OPEN:
            self._open(now)
        elif (
            self._state == self.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open(now)

    def _open(self, now: float) -> None:
        self._transition(now, self.OPEN)
        self._opened_at = now
        self.stats.opens += 1


__all__ = ["BreakerStats", "CircuitBreaker", "RetryPolicy"]
