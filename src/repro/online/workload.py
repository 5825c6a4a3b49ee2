"""Dynamic multi-tenant workload model for the online runtime.

An :class:`ArrivalTrace` is the online analogue of a static
:class:`~repro.model.Instance`: a shared architecture plus a stream of
:class:`Job` arrivals, each carrying its own task graph, an absolute
deadline, a tenant label, a priority and an optional departure time
(the tenant withdraws the job; whatever has not started is cancelled).

Traces are plain data — JSON round-trippable (for trace files checked
into experiment configs) and content-hashable, like every other model
object in the repo.  :func:`generate_trace` builds deterministic
synthetic traces from a seed (same seed ⇒ bit-identical trace), with a
``slack`` knob that scales deadlines relative to each job's serial
fastest-implementation time; :func:`feasible_trace` picks generous
parameters so a fault-free run meets every deadline — the baseline the
CI dispatch-smoke gate asserts against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from ..benchgen import paper_instance, zedboard_architecture
from ..model import Architecture, TaskGraph, canonical_dumps, content_hash

__all__ = ["Job", "ArrivalTrace", "generate_trace", "feasible_trace"]


@dataclass(frozen=True)
class Job:
    """One tenant job: a task graph arriving at a point in time.

    ``deadline`` and ``departure`` are absolute simulation times (not
    offsets); ``priority`` orders preemption (strictly higher priority
    may preempt running work of lower priority).
    """

    job_id: str
    tenant: str
    taskgraph: TaskGraph
    arrival: float
    deadline: float | None = None
    priority: int = 0
    departure: float | None = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline is not None and self.deadline <= self.arrival:
            raise ValueError(
                f"deadline ({self.deadline}) must be after arrival "
                f"({self.arrival}) for job {self.job_id!r}"
            )
        if self.departure is not None and self.departure <= self.arrival:
            raise ValueError(
                f"departure ({self.departure}) must be after arrival "
                f"({self.arrival}) for job {self.job_id!r}"
            )
        if not self.taskgraph.task_ids:
            raise ValueError(f"job {self.job_id!r} has an empty task graph")

    def serial_fastest_time(self) -> float:
        """Sum of fastest-implementation times — a crude serial-work
        measure used to scale synthetic deadlines."""
        graph = self.taskgraph
        return sum(graph.task(tid).fastest().time for tid in graph.task_ids)

    def to_dict(self) -> dict:
        data = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "taskgraph": self.taskgraph.to_dict(),
            "arrival": self.arrival,
            "priority": self.priority,
        }
        if self.deadline is not None:
            data["deadline"] = self.deadline
        if self.departure is not None:
            data["departure"] = self.departure
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(
            job_id=data["job_id"],
            tenant=data["tenant"],
            taskgraph=TaskGraph.from_dict(data["taskgraph"]),
            arrival=float(data["arrival"]),
            deadline=(
                float(data["deadline"]) if data.get("deadline") is not None else None
            ),
            priority=int(data.get("priority", 0)),
            departure=(
                float(data["departure"])
                if data.get("departure") is not None
                else None
            ),
        )


@dataclass
class ArrivalTrace:
    """A multi-tenant workload: jobs arriving on a shared architecture.

    Jobs are kept sorted by ``(arrival, job_id)`` so iteration order —
    and therefore the runtime's event order — is deterministic.
    """

    name: str
    architecture: Architecture
    jobs: list[Job] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
        self.jobs.sort(key=lambda j: (j.arrival, j.job_id))

    def tenants(self) -> list[str]:
        return sorted({job.tenant for job in self.jobs})

    @property
    def horizon(self) -> float:
        """Latest arrival — a lower bound on the run's busy window."""
        return max((job.arrival for job in self.jobs), default=0.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "architecture": self.architecture.to_dict(),
            "jobs": [job.to_dict() for job in self.jobs],
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())

    def content_hash(self) -> str:
        return content_hash(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalTrace":
        return cls(
            name=data.get("name", ""),
            architecture=Architecture.from_dict(data["architecture"]),
            jobs=[Job.from_dict(j) for j in data.get("jobs", [])],
        )

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        return cls.from_dict(json.loads(text))


def generate_trace(
    seed: int,
    jobs: int = 6,
    tenants: int = 3,
    min_tasks: int = 3,
    max_tasks: int = 6,
    mean_interarrival: float = 40.0,
    slack: float = 3.0,
    high_priority_fraction: float = 0.25,
    departure_fraction: float = 0.0,
    graph_kind: str = "layered",
    architecture: Architecture | None = None,
    name: str | None = None,
) -> ArrivalTrace:
    """Deterministic synthetic arrival trace.

    Every random draw comes from one ``random.Random`` seeded on the
    full parameter tuple, so the same call always yields a bit-identical
    trace (the determinism gate depends on this).  ``slack`` scales each
    job's deadline relative to its serial fastest-implementation time;
    ``high_priority_fraction`` of jobs get priority 1 (preemption
    candidates); ``departure_fraction`` of jobs are withdrawn shortly
    after their deadline.
    """
    if jobs < 1:
        raise ValueError("need at least one job")
    if tenants < 1:
        raise ValueError("need at least one tenant")
    if not (1 <= min_tasks <= max_tasks):
        raise ValueError("need 1 <= min_tasks <= max_tasks")
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be > 0")
    if slack <= 1.0:
        raise ValueError("slack must be > 1 (deadline after serial work)")
    rng = random.Random(
        f"online-trace-{seed}-{jobs}-{tenants}-{min_tasks}-{max_tasks}-"
        f"{mean_interarrival}-{slack}-{graph_kind}"
    )
    arch = architecture or zedboard_architecture()
    out: list[Job] = []
    clock = 0.0
    for index in range(jobs):
        size = rng.randint(min_tasks, max_tasks)
        graph = paper_instance(
            tasks=size,
            seed=seed * 1000 + index,
            graph_kind=graph_kind,
            architecture=arch,
        ).taskgraph
        job_id = f"j{index}"
        tenant = f"tenant{rng.randrange(tenants)}"
        priority = 1 if rng.random() < high_priority_fraction else 0
        job = Job(
            job_id=job_id,
            tenant=tenant,
            taskgraph=graph,
            arrival=clock,
            priority=priority,
        )
        deadline = clock + slack * job.serial_fastest_time()
        departure = None
        if rng.random() < departure_fraction:
            departure = deadline + 0.25 * (deadline - clock)
        job = Job(
            job_id=job_id,
            tenant=tenant,
            taskgraph=graph,
            arrival=clock,
            deadline=deadline,
            priority=priority,
            departure=departure,
        )
        out.append(job)
        clock += rng.expovariate(1.0 / mean_interarrival)
    return ArrivalTrace(
        name=name or f"online-s{seed}-j{jobs}",
        architecture=arch,
        jobs=out,
    )


def feasible_trace(seed: int = 0, jobs: int = 5) -> ArrivalTrace:
    """A known-feasible trace: widely spaced arrivals and generous
    deadlines, so a fault-free run meets 100% of deadlines (asserted by
    ``benchmarks/bench_online.py`` and the CI dispatch-smoke job)."""
    return generate_trace(
        seed=seed,
        jobs=jobs,
        tenants=2,
        min_tasks=3,
        max_tasks=5,
        mean_interarrival=120.0,
        slack=8.0,
        high_priority_fraction=0.2,
        name=f"online-feasible-s{seed}-j{jobs}",
    )
