"""Stacked lanes: many files' protocol steps, driven as one stack.

A *lane* is one file's synchronization as a step generator
(:meth:`~repro.syncmethod.SyncMethod.steps`, wrapped by
:meth:`~repro.syncmethod.SyncMethod.lane` or a supervisor's retry loop).
It yields in two ways:

* a bare ``yield`` ends a *step* — the handshake, one protocol round.
  It is where a driver may admit the next lane into the stack: the
  executor replaces each finished lane at once;
* ``yield request`` hands work to the driver instead of doing it.  A
  :class:`Request` names a stacked runner; :func:`step_lanes` runs every
  pending request that shares a :meth:`Request.stack_key` as one call,
  for all lanes of the stack, then resumes each lane — with the error
  that runner attributed to it thrown in, if any.

So a collection's per-round work costs one set of numpy calls per stack
instead of one per file, while each lane keeps its own channel, its
fault isolation and its retries.  A single file is a stack of one
(:func:`run_lane`).

Time attribution: a lane is charged the wall and CPU time of its own
resumptions, plus a share of every stacked call it took part in, split
by :meth:`Request.rows` (the frontier rows the lane put into the call;
an even split when no lane put in any).
"""

from __future__ import annotations

import time

__all__ = ["Lane", "Request", "run_lane", "step_lanes"]


class Request:
    """Work a lane yields to the driver instead of doing it itself."""

    __slots__ = ()

    def stack_key(self):
        """Requests with equal keys run as one :meth:`run_stacked` call."""
        return type(self)

    def rows(self) -> int:
        """This request's weight when a stacked call's time is shared."""
        return 0

    @classmethod
    def run_stacked(cls, requests: list) -> list:
        """Run every request at once; one error (or ``None``) per request."""
        raise NotImplementedError


class Lane:
    """One step generator in a stack, its state and what it has cost.

    ``value`` is the generator's return value once ``done``; ``error``
    the exception it ended with instead.
    """

    __slots__ = (
        "steps", "request", "value", "error", "done", "elapsed_s", "cpu_s",
    )

    def __init__(self, steps) -> None:
        self.steps = steps
        self.request: Request | None = None
        self.value = None
        self.error: Exception | None = None
        self.done = False
        self.elapsed_s = 0.0
        self.cpu_s = 0.0


def _resume(lane: Lane, error, waiting: dict) -> None:
    """Run ``lane`` until it yields or ends; file a yielded request."""
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        if error is None:
            request = lane.steps.send(None)
        else:
            request = lane.steps.throw(error)
    except StopIteration as stop:
        lane.value = stop.value
        lane.done = True
    except Exception as exc:  # the lane ends with it; the caller decides
        lane.error = exc
        lane.done = True
    else:
        if request is not None:
            lane.request = request
            waiting.setdefault(request.stack_key(), []).append(lane)
    lane.elapsed_s += time.perf_counter() - started
    lane.cpu_s += time.process_time() - cpu_started


def step_lanes(lanes: list[Lane]) -> None:
    """Advance every unfinished lane by one step, requests stacked.

    Each lane runs to its next bare ``yield`` or to its end.  Requests
    are served in the order their kind first came up; a lane that gets
    an error back resumes with it raised at its ``yield``, so a
    supervisor inside the lane can retry there.
    """
    waiting: dict = {}
    for lane in lanes:
        if not lane.done:
            _resume(lane, None, waiting)
    while waiting:
        batch = waiting.pop(next(iter(waiting)))
        requests = [lane.request for lane in batch]
        weights = [request.rows() for request in requests]
        started = time.perf_counter()
        cpu_started = time.process_time()
        errors = type(requests[0]).run_stacked(requests)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        total = sum(weights)
        if not total:
            weights, total = [1] * len(batch), len(batch)
        for lane, weight, error in zip(batch, weights, errors):
            lane.elapsed_s += elapsed * weight / total
            lane.cpu_s += cpu * weight / total
            lane.request = None
            _resume(lane, error, waiting)


def run_lane(steps):
    """Drive one lane to its end (a stack of one); return its value."""
    lane = Lane(steps)
    while not lane.done:
        step_lanes([lane])
    if lane.error is not None:
        raise lane.error
    return lane.value
