"""Golden pins for the dispatch loop behind ``repro.sim`` and ``repro.online``.

The determinism tests compare one run with another, so they cannot
catch a change that alters behaviour the same way on every run.  These
tests pin the sha256 digest of the full event trace (in emission order)
and of the activity list of fixed scenarios, with every float written
by ``repr``.  A digest mismatch means the executed behaviour changed;
the digests are not meant to be edited.
"""

from __future__ import annotations

import hashlib
from itertools import groupby

import pytest

from repro.benchgen import paper_instance, zedboard_architecture
from repro.core import do_schedule
from repro.model import (
    Architecture,
    Implementation,
    Instance,
    Region,
    RegionPlacement,
    ResourceVector,
    Schedule,
    ScheduledTask,
    Task,
    TaskGraph,
)
from repro.online import (
    ArrivalTrace,
    CheckpointModel,
    Job,
    feasible_trace,
    generate_trace,
    run_online,
)
from repro.sim import (
    DeadlockError,
    FaultPlan,
    ReconfFaults,
    RecoveryPolicy,
    RegionDeath,
    TransientTaskFaults,
    jitter_model,
    simulate,
)


def _digest(result) -> str:
    # Events of one kind emitted at one instant form a set: a region
    # death reports its victims' faults in no particular order.
    lines = []
    for _, same in groupby(result.trace.events, key=lambda e: (e.time, e.kind)):
        lines.extend(
            sorted(
                f"E|{e.time!r}|{e.kind}|{e.subject}|{e.resource}|{e.detail}|{e.attempt}"
                for e in same
            )
        )
    lines.extend(
        f"A|{a.kind}|{a.name}|{a.resource}|{a.start!r}|{a.end!r}|{a.ok}|{a.attempt}"
        for a in result.activities
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _dual_arch(reconfigurators: int = 1) -> Architecture:
    return Architecture(
        name="dual",
        processors=2,
        max_res=ResourceVector({"CLB": 1000, "BRAM": 20, "DSP": 40}),
        bit_per_resource={"CLB": 100.0, "BRAM": 900.0, "DSP": 450.0},
        rec_freq=1000.0,
        reconfigurators=reconfigurators,
    )


def _with_controllers(instance: Instance, n: int) -> Instance:
    arch = instance.architecture
    multi = Architecture(
        name=arch.name,
        processors=arch.processors,
        max_res=arch.max_res,
        bit_per_resource=arch.bit_per_resource,
        rec_freq=arch.rec_freq,
        region_quantum=arch.region_quantum,
        reconfigurators=n,
    )
    return Instance(
        architecture=multi, taskgraph=instance.taskgraph, name=instance.name
    )


def _busiest_region(schedule) -> str:
    return max(
        schedule.regions, key=lambda rid: (len(schedule.region_sequence(rid)), rid)
    )


# -- sim scenarios -----------------------------------------------------------


def _sim_replay(seed: int):
    instance = paper_instance(25, seed=seed)
    return simulate(instance, do_schedule(instance))


def _sim_jitter():
    instance = paper_instance(25, seed=4)
    return simulate(instance, do_schedule(instance), jitter=jitter_model(0.2, seed=7))


def _sim_faults_fallback():
    instance = paper_instance(25, seed=5)
    faults = FaultPlan(
        [TransientTaskFaults(rate=0.35, seed=3), ReconfFaults(rate=0.4, seed=11)]
    )
    return simulate(
        instance,
        do_schedule(instance),
        faults=faults,
        recovery=RecoveryPolicy(max_retries=1, backoff=2.0),
    )


def _sim_death_fallback():
    instance = paper_instance(30, seed=3)
    schedule = do_schedule(instance)
    death = RegionDeath(_busiest_region(schedule), schedule.makespan * 0.3)
    return simulate(instance, schedule, faults=FaultPlan([death]))


def _hw_only_chain(arch: Architecture) -> Instance:
    graph = TaskGraph("hwonly")
    graph.add_task(
        Task.of(
            "a",
            [
                Implementation.sw("a_sw", 300.0),
                Implementation.hw("a_hw", 40.0, {"CLB": 300, "DSP": 8}),
            ],
        )
    )
    graph.add_task(
        Task.of("b", [Implementation.hw("b_hw", 60.0, {"CLB": 350, "BRAM": 4})])
    )
    graph.add_task(
        Task.of(
            "c",
            [
                Implementation.sw("c_sw", 250.0),
                Implementation.hw("c_hw", 30.0, {"CLB": 200}),
            ],
        )
    )
    graph.add_dependency("a", "b")
    graph.add_dependency("b", "c")
    return Instance(architecture=arch, taskgraph=graph)


def _sim_death_repair():
    instance = _hw_only_chain(_dual_arch())
    schedule = do_schedule(instance)
    placement = schedule.tasks["b"].placement
    assert isinstance(placement, RegionPlacement)
    death = RegionDeath(placement.region_id, schedule.tasks["b"].start + 10.0)
    return simulate(
        instance,
        schedule,
        faults=FaultPlan([death]),
        recovery=RecoveryPolicy(repair_latency=5.0),
    )


def _sim_two_controllers():
    instance = _with_controllers(paper_instance(30, seed=1), 2)
    schedule = do_schedule(instance)
    faults = FaultPlan([ReconfFaults(rate=0.3, seed=2)])
    return simulate(
        instance, schedule, faults=faults, recovery=RecoveryPolicy(max_retries=3)
    )


def _sim_tie_death_at_start():
    instance = paper_instance(25, seed=2)
    schedule = do_schedule(instance)
    rid = _busiest_region(schedule)
    starts = [t.start for t in schedule.region_sequence(rid) if t.start > 0.0]
    death = RegionDeath(rid, starts[len(starts) // 2])
    return simulate(instance, schedule, faults=FaultPlan([death]))


SIM_CASES = {
    "replay-seed1": lambda: _sim_replay(1),
    "replay-seed2": lambda: _sim_replay(2),
    "replay-seed3": lambda: _sim_replay(3),
    "jitter": _sim_jitter,
    "faults-fallback": _sim_faults_fallback,
    "death-fallback": _sim_death_fallback,
    "death-repair": _sim_death_repair,
    "two-controllers": _sim_two_controllers,
    "tie-death-at-start": _sim_tie_death_at_start,
}

SIM_DIGESTS = {
    "replay-seed1": "d05106ca9d8f11365f02c5c34cf5b6fa192d5ef1e43fd92d4c8d5d826cc6329a",
    "replay-seed2": "68d2a6ddd522bb1492797c3ded972cbbb5664389a425fab6b1ef1b8705fe5321",
    "replay-seed3": "c49294f1219d819e9ffc36234279c5a443c323c36fcd437154199f73ff336d88",
    "jitter": "6feef9869896a33f650aaf1334d2c3a7f94a4240188b52a6bd3031e5c214dff6",
    "faults-fallback": "69c14dae8e1966627d615a5bf8ccb4aaf57783c559b4d21f33f08057ce5c4bbb",
    "death-fallback": "b8d3137a3005f4237c316272de55cccbe06bf3235e02a76067a053b4bc75781b",
    "death-repair": "4e97e8c983ca5fde8bf566f057bfca559ae14f9f869d01ab6e8fa35f9a2b08ff",
    "two-controllers": "614284d928d5553e177b95056562ab8f8ad328d9d225540d3640173864e2df84",
    "tie-death-at-start": "2692e6df6acc62bffdb2b7d4251537ab37c12ccc5df87c67ade6de4ba0e92774",
}


# -- online scenarios --------------------------------------------------------


def _chain(name, n, hw_time, sw_time, res, hw_only=False):
    g = TaskGraph(name=name)
    prev = None
    for i in range(n):
        tid = f"t{i}"
        impls = [Implementation.hw(f"{name}-hw{i}", hw_time, res)]
        if not hw_only:
            impls.append(Implementation.sw(f"{name}-sw{i}", sw_time))
        g.add_task(Task.of(tid, impls))
        if prev is not None:
            g.add_dependency(prev, tid)
        prev = tid
    return g


_SMALL = ResourceVector({"CLB": 600, "BRAM": 8, "DSP": 12})


def _chain_trace(name: str, hw_only: bool = False, **job) -> ArrivalTrace:
    graph = _chain("j0", 3, 100.0, 0.0 if hw_only else 150.0, _SMALL, hw_only)
    spec = {"arrival": 0.0, "deadline": 20000.0, **job}
    return ArrivalTrace(
        name=name,
        architecture=zedboard_architecture(),
        jobs=[Job(job_id="j0", tenant="t0", taskgraph=graph, **spec)],
    )


def _online_feasible():
    return run_online(feasible_trace(seed=0, jobs=5))


def _online_overloaded():
    trace = generate_trace(seed=3, jobs=10, mean_interarrival=15.0, slack=1.5)
    faults = FaultPlan([TransientTaskFaults(rate=0.3, seed=4)])
    return run_online(trace, faults=faults, policy=RecoveryPolicy(max_retries=1))


def _online_reconf_faults():
    trace = generate_trace(seed=5, jobs=6, mean_interarrival=30.0)
    faults = FaultPlan([ReconfFaults(rate=0.4, seed=6)])
    return run_online(trace, faults=faults, policy=RecoveryPolicy(max_retries=1))


def _online_preemption():
    big = ResourceVector({"CLB": 9000, "BRAM": 100, "DSP": 150})

    def single(name, hw_time, sw_time):
        g = TaskGraph(name=name)
        g.add_task(
            Task.of(
                "a",
                [
                    Implementation.hw("acc", hw_time, big),
                    Implementation.sw(f"{name}-sw", sw_time),
                ],
            )
        )
        return g

    jobs = [
        Job(job_id="lo", tenant="t0", taskgraph=single("lo", 5000.0, 50000.0),
            arrival=0.0, deadline=60000.0, priority=0),
        Job(job_id="hi", tenant="t1", taskgraph=single("hi", 100.0, 30000.0),
            arrival=5000.0, deadline=5600.0, priority=1),
    ]
    trace = ArrivalTrace(
        name="preempt-test", architecture=zedboard_architecture(), jobs=jobs
    )
    ck = CheckpointModel(save_freq=3.2e5, restore_freq=3.2e5)
    return run_online(trace, checkpoint=ck)


def _online_death_fallback():
    trace = _chain_trace("death", deadline=5000.0)
    return run_online(trace, faults=FaultPlan([RegionDeath("RR0", 150.0)]))


def _online_death_repair():
    trace = _chain_trace("death-hw", hw_only=True)
    return run_online(trace, faults=FaultPlan([RegionDeath("RR0", 150.0)]))


def _online_departures():
    trace = generate_trace(
        seed=7, jobs=8, mean_interarrival=10.0, slack=1.6, departure_fraction=0.6
    )
    return run_online(trace)


def _online_tie_death_at_start():
    trace = _chain_trace("tie")
    plain = run_online(trace)
    start = next(
        e for e in plain.trace.events if e.kind == "start" and e.subject == "j0:t1"
    )
    death = RegionDeath(start.resource, start.time)
    return run_online(trace, faults=FaultPlan([death]))


ONLINE_CASES = {
    "feasible": _online_feasible,
    "overloaded-transient": _online_overloaded,
    "reconf-faults": _online_reconf_faults,
    "preemption": _online_preemption,
    "death-fallback": _online_death_fallback,
    "death-repair": _online_death_repair,
    "departures": _online_departures,
    "tie-death-at-start": _online_tie_death_at_start,
}

ONLINE_DIGESTS = {
    "feasible": "2066719b87d3151e24d97a1a9a69f053192bf1b501374cb559b731e4e6ba843f",
    "overloaded-transient": "b7fd95ecddbfa5d1acbc3577f41d164268af2db485f4c6e32667885317b594f0",
    "reconf-faults": "509c6d962e38a4ac29406e6b3adffc7ec38f9adcd9ddccbb5054a90dabdc9667",
    "preemption": "8bde91ed7da5a082b56db7928990c4c61156da9906d1ef26b3fcdeae9f1ceac5",
    "death-fallback": "8d09a00b55645047fa693a0a18a6551a1c3dda7c7fb627552dd06f31bbd5332d",
    "death-repair": "da47c1e94cd6c17a43f70855600b1312013d2ee7c4d579e1b6844e5d6215a80d",
    "departures": "13b2df7951b26730310c9c329b421f6dc55c9c8dfc942a83a62e8dc4eeee60b2",
    "tie-death-at-start": "7e250af0d8a077b956b88df31f5a138a256f79175a0eefee1ebf0a9fe72e5582",
}


# The scenarios above replan incrementally only.  These two overloaded
# traces also escalate to full EDF replans, which re-place every
# unstarted task; the trace goes through a JSON-shaped round trip first,
# as `repro online` reads it from a file.


def _online_full_replan(seed: int):
    trace = ArrivalTrace.from_dict(generate_trace(seed=seed, jobs=20).to_dict())
    faults = FaultPlan([TransientTaskFaults(rate=0.05, seed=seed)])
    return run_online(trace, faults=faults)


FULL_REPLAN_CASES = {
    "full-replan-seed2": lambda: _online_full_replan(2),
    "full-replan-seed3": lambda: _online_full_replan(3),
}

FULL_REPLAN_DIGESTS = {
    "full-replan-seed2": "fbd267310fa1ab85426dd265a845ac3be43835fe8f63e34f4d06e44978fd2fa4",
    "full-replan-seed3": "1984abc020ed452916b9db1b34c1f6ca1f80e4e23419dad51ab01d4781f5a301",
}


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_sim_golden(case):
    assert _digest(SIM_CASES[case]()) == SIM_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ONLINE_CASES))
def test_online_golden(case):
    assert _digest(ONLINE_CASES[case]()) == ONLINE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(FULL_REPLAN_CASES))
def test_online_full_replan_golden(case):
    result = FULL_REPLAN_CASES[case]()
    assert result.replan_full >= 1
    assert _digest(result) == FULL_REPLAN_DIGESTS[case]


def test_sim_tie_death_fires_before_start():
    """A death at exactly a task's derived start kills the region before
    the task is dispatched there."""
    result = _sim_tie_death_at_start()
    death = result.trace.of("region-death")[0]
    assert not any(
        a.resource == death.subject and a.start >= death.time
        for a in result.activities
    )


def test_online_tie_death_fires_before_start():
    result = _online_tie_death_at_start()
    death = result.trace.of("region-death")[0]
    assert not any(
        a.resource == death.subject and a.start >= death.time
        for a in result.activities
    )


def _deadlock_message() -> str:
    """Diagnosis of a plan that orders ``b`` before its predecessor
    ``a`` in the same region."""
    arch = Architecture(
        name="simple",
        processors=1,
        max_res=ResourceVector({"CLB": 100}),
        bit_per_resource={"CLB": 10.0},
        rec_freq=10.0,
    )
    graph = TaskGraph("inv")
    for tid in ("a", "b"):
        graph.add_task(
            Task.of(
                tid,
                [
                    Implementation.hw(f"{tid}_hw", 10.0, {"CLB": 20}),
                    Implementation.sw(f"{tid}_sw", 50.0),
                ],
            )
        )
    graph.add_dependency("a", "b")
    instance = Instance(architecture=arch, taskgraph=graph)
    schedule = Schedule(
        tasks={
            tid: ScheduledTask(
                task_id=tid,
                implementation=graph.task(tid).implementations[0],
                placement=RegionPlacement("RR1"),
                start=start,
                end=start + 10.0,
            )
            for tid, start in (("b", 0.0), ("a", 10.0))
        },
        regions={"RR1": Region("RR1", ResourceVector({"CLB": 20}))},
        scheduler="handmade",
    )
    with pytest.raises(DeadlockError) as excinfo:
        simulate(instance, schedule)
    return str(excinfo.value)


DEADLOCK_DIGEST = "08d3dbb689cadfb6f66928d80b8032d5ac822f973322e9dcef2241dce7ccc9f0"


def test_deadlock_message_golden():
    text = _deadlock_message()
    assert hashlib.sha256(text.encode()).hexdigest() == DEADLOCK_DIGEST, text
