"""Load generators: pre-drawn open-loop schedules and closed-loop clients.

All load comes from one process and one event-loop thread; concurrency
comes from coroutines.  Open-loop latency is timed from each arrival's
*due* time, so a generator stall is charged to the requests it delayed,
and the generator's own lateness is recorded separately.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter


def poisson_schedule(
    rate_per_s: float, duration_s: float, seed: int | Sequence[int]
) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process, drawn up front."""
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    # Draw enough gaps for the expected count plus eight sigmas.
    expected = rate_per_s * duration_s
    n = int(expected + 8 * np.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))
    return offsets[offsets < duration_s]


@dataclass
class PhaseLog:
    """What one phase sent and got back."""

    sent: int = 0
    served: int = 0
    shed: int = 0
    errored: int = 0
    #: (due or completion time, latency seconds) per served request.
    latencies: list[tuple[float, float]] = field(default_factory=list)
    #: completion times of served requests (closed loop).
    completions: list[float] = field(default_factory=list)
    #: documents per served request (synchronous back to back).
    docs: list[int] = field(default_factory=list)
    #: generator lateness (seconds) per open-loop arrival.
    lateness: list[float] = field(default_factory=list)
    #: (request, scores) pairs kept for the correctness check: an even
    #: spread of at most ``2 * max_samples`` served requests.
    samples: list[tuple[object, np.ndarray]] = field(default_factory=list)
    max_samples: int = 24
    errors: list[str] = field(default_factory=list)
    start: float = 0.0
    length: float = 0.0
    _stride: int = 1
    _offered: int = 0

    def offer(self, request: object, scores: np.ndarray) -> None:
        """Keep every ``stride``-th response, doubling the stride (and
        dropping every other kept one) whenever the sample fills up."""
        if self._offered % self._stride == 0:
            self.samples.append((request, scores))
            if len(self.samples) >= 2 * self.max_samples:
                del self.samples[1::2]
                self._stride *= 2
        self._offered += 1

    def merge_counts(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "served": self.served,
            "shed": self.shed,
            "errored": self.errored,
        }


Send = Callable[[object], Awaitable[np.ndarray]]


async def _issue(
    send: Send,
    request: object,
    due: float,
    log: PhaseLog,
    shed_type: type[BaseException],
) -> float | None:
    """Send one request; returns its completion time (``None`` if lost)."""
    try:
        scores = await send(request)
    except shed_type:
        log.shed += 1
        return None
    except Exception as exc:  # noqa: BLE001 - counted, reported, fails the run
        log.errored += 1
        log.errors.append(f"{type(exc).__name__}: {exc}")
        return None
    done = clock()
    log.served += 1
    log.latencies.append((due, done - due))
    log.offer(request, scores)
    return done


async def open_loop(
    send: Send,
    requests: Sequence[object],
    offsets: Sequence[float],
    *,
    duration_s: float,
    shed_type: type[BaseException],
) -> PhaseLog:
    """Issue ``requests[i]`` at ``start + offsets[i]``.

    Each wake issues every arrival that is due, then sleeps until the
    next one.  ``asyncio.sleep`` wakes up to a millisecond late (epoll
    rounds timeouts up), which shows in ``lateness`` and, because
    latency runs from the due time, in the latencies too.
    """
    log = PhaseLog(length=duration_s)
    tasks: list[asyncio.Task] = []
    n = len(offsets)
    start = clock()
    log.start = start
    i = 0
    while i < n:
        now = clock()
        while i < n and start + offsets[i] <= now:
            due = start + offsets[i]
            log.lateness.append(now - due)
            log.sent += 1
            tasks.append(
                asyncio.create_task(
                    _issue(send, requests[i], due, log, shed_type)
                )
            )
            i += 1
        if i < n:
            await asyncio.sleep(max(start + offsets[i] - clock(), 0.0))
    await asyncio.gather(*tasks)
    return log


async def closed_loop(
    send: Send,
    next_request: Callable[[], object],
    *,
    clients: int,
    duration_s: float,
    shed_type: type[BaseException],
) -> PhaseLog:
    """``clients`` coroutines each send their next request on reply."""
    log = PhaseLog(length=duration_s)
    start = clock()
    log.start = start
    deadline = start + duration_s

    async def client() -> None:
        while clock() < deadline:
            request = next_request()
            log.sent += 1
            done = await _issue(send, request, clock(), log, shed_type)
            if done is not None:
                log.completions.append(done)

    await asyncio.gather(*(client() for _ in range(clients)))
    return log


def sync_back_to_back(
    score: Callable[[object], np.ndarray],
    next_request: Callable[[], object],
    *,
    duration_s: float,
) -> PhaseLog:
    """One synchronous caller sending requests back to back.

    Each served request records ``(completion time, seconds)``; the
    next request is built before its timer starts.
    """
    log = PhaseLog(length=duration_s)
    start = clock()
    log.start = start
    deadline = start + duration_s
    while clock() < deadline:
        request = next_request()
        log.sent += 1
        t0 = clock()
        scores = score(request)
        t1 = clock()
        log.served += 1
        log.latencies.append((t1, t1 - t0))
        log.completions.append(t1)
        log.docs.append(len(request))
        log.offer(request, scores)
    return log
