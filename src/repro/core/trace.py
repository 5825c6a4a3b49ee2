"""Structured decision tracing for the PA pipeline.

A :class:`SchedulerTrace` passed to :func:`repro.core.do_schedule`
records every decision the eight steps take — which implementation won
step V-A and why, whether a region was created / reused / the task
demoted, which promotions step V-D made, the λ_p values of step V-F,
and every reconfiguration placement of step V-G.  This is the answer to
"why is my task in software?" without stepping through the scheduler.
Passed to :func:`repro.core.pa_schedule`, it also records each Section
V-H floorplan verdict.

Tracing is opt-in and costs nothing when off (a ``None`` trace makes
``record`` a no-op at the call sites).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "SchedulerTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """One decision: ``phase`` (selection/regions/balancing/mapping/
    reconfiguration/floorplan), ``event`` (phase-specific verb), the
    ``task`` it concerns (if any) and free-form ``data``."""

    phase: str
    event: str
    task: str | None
    data: dict

    def __str__(self) -> str:
        details = ", ".join(f"{k}={v}" for k, v in self.data.items())
        subject = f" {self.task}" if self.task else ""
        return f"[{self.phase}]{subject} {self.event}({details})"


@dataclass
class SchedulerTrace:
    """Accumulating decision log."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, phase: str, event: str, task: str | None = None, **data) -> None:
        self.events.append(TraceEvent(phase=phase, event=event, task=task, data=data))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_phase(self, phase: str) -> list[TraceEvent]:
        return [e for e in self.events if e.phase == phase]

    def by_task(self, task: str) -> list[TraceEvent]:
        return [e for e in self.events if e.task == task]

    def summary(self) -> dict[str, int]:
        """``{"phase.event": count}`` — the schedule's decision profile."""
        return dict(Counter(f"{e.phase}.{e.event}" for e in self.events))

    def explain(self, task: str) -> str:
        """Human-readable story of one task's journey through the steps."""
        events = self.by_task(task)
        if not events:
            return f"{task}: no recorded decisions"
        return "\n".join(str(e) for e in events)

    def render(self, phase: str | None = None) -> str:
        events = self.events if phase is None else self.by_phase(phase)
        return "\n".join(str(e) for e in events)
