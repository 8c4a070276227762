"""The discrete-event core: a time-ordered event loop with handlers.

Timestamps are integer ticks of the executed schedule's time grid.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Tuple, Type

from repro.sim.events import CopyArrive, CopyStart, OpComplete, OpIssue, SimEvent

Handler = Callable[[SimEvent], None]

#: Processing order among events sharing a timestamp: results and arrivals
#: become visible before anything issues at the same instant (a consumer
#: may read a value the very cycle it becomes available).
EVENT_RANK: Dict[Type[SimEvent], int] = {
    OpComplete: 0,
    CopyArrive: 0,
    CopyStart: 1,
    OpIssue: 2,
}


class EventEngine:
    """A minimal deterministic discrete-event engine.

    Events are processed in (time, insertion order) order; handlers are
    registered per event type.  Handlers may schedule further events (at
    the current time or later — scheduling into the past is an error).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, SimEvent]] = []
        self._counter = 0
        self._handlers: Dict[Type[SimEvent], List[Handler]] = {}
        self._now = 0
        self._processed = 0

    @property
    def processed(self) -> int:
        """Events handled so far."""
        return self._processed

    def on(self, event_type: Type[SimEvent], handler: Handler) -> None:
        """Register ``handler`` for events of ``event_type``."""
        self._handlers.setdefault(event_type, []).append(handler)

    def schedule(self, event: SimEvent) -> None:
        """Enqueue an event; must not be earlier than the current time."""
        if event.time < self._now:
            raise ValueError(
                f"cannot schedule event at {event.time} before now ({self._now})"
            )
        rank = EVENT_RANK.get(type(event), 1)
        heapq.heappush(self._heap, (event.time, rank, self._counter, event))
        self._counter += 1

    def run(self) -> int:
        """Drain the queue; returns the timestamp of the last event."""
        while self._heap:
            time, _rank, _seq, event = heapq.heappop(self._heap)
            self._now = time
            self._processed += 1
            for handler in self._handlers.get(type(event), ()):
                handler(event)
        return self._now
