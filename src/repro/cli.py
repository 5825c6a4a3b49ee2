"""Command-line interface.

::

    repro generate --tasks 30 --seed 7 -o instance.json
    repro schedule instance.json --algorithm pa-r --budget 5
    repro validate instance.json schedule.json
    repro gantt instance.json schedule.json
    repro floorplan instance.json schedule.json
    repro simulate instance.json schedule.json --jitter 0.2
    repro simulate instance.json schedule.json --fault region-death:RR1@50
    repro simulate instance.json schedule.json --sweep 0,0.05,0.1 --jobs 2
    repro experiments table1 fig3 --profile tiny
    repro experiments all --profile small -o results/ --jobs 4
    repro serve --port 8177 --workers 4 --store-budget-mb 256
    repro batch manifest.json --server http://127.0.0.1:8177
    repro devices --json
    repro fleet instance.json --devices zedboard,artix-small --objective energy

(Installed as ``repro``; also runnable as ``python -m repro``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import perf
from .analysis import render_gantt
from .analysis.runner import ExperimentConfig, run_convergence, run_quality
from .benchgen import paper_instance
from .core import PAOptions, SchedulerTrace, do_schedule
from .engine import (
    DEFAULT_EXHAUSTIVE_TASK_LIMIT,
    DEFAULT_STORE_ROOT,
    EngineError,
    ResultStore,
    ScheduleRequest,
    get_backend,
    load_manifest,
    run_batch,
)
from .floorplan import Floorplanner, render_floorplan
from .model import Instance, Schedule
from .validate import check_schedule

__all__ = ["main"]


def _cache_stats_line(stats: dict) -> str:
    return (
        f"floorplan cache: queries={stats['queries']} "
        f"exact_hits={stats['cache_hits']} dominance_hits={stats['dominance_hits']} "
        f"candidate_memo_hits={stats['candidate_memo_hits']} "
        f"engine={stats['engine_time']:.3f}s query={stats['query_time']:.3f}s "
        f"dfs_nodes={stats.get('dfs_nodes', 0)} "
        f"budget_exhausted={stats.get('budget_exhausted', 0)}"
    )


def _search_stats_line(stats: dict) -> str:
    return (
        f"is-k search: expanded={stats['nodes_expanded']} "
        f"bound_pruned={stats['bound_pruned']} "
        f"seeds={stats['incumbent_seeds']} "
        f"fallbacks={stats['fallback_completions']} "
        f"max_trail={stats['max_undo_depth']} "
        f"fanout_windows={stats['fanout_windows']} jobs={stats['jobs']}"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = paper_instance(
        tasks=args.tasks, seed=args.seed, graph_kind=args.graph
    )
    text = instance.to_json(args.output)
    if args.output:
        print(f"wrote {args.output} ({len(instance.taskgraph)} tasks)")
    else:
        print(text)
    return 0


def _load_json(path: str, what: str, from_dict):
    """``from_dict`` of the JSON in ``path``.

    Raises ``ValueError("malformed <what> JSON: ...")`` when the file is
    not JSON or its payload has the wrong shape; only the load step is
    guarded, so errors from later steps keep their own type."""
    try:
        return from_dict(json.loads(Path(path).read_text()))
    except KeyError as exc:
        problem = f"missing key {exc.args[0]!r}"
    except (AttributeError, TypeError, ValueError) as exc:
        problem = str(exc)
    raise ValueError(f"malformed {what} JSON: {problem}")


def _load_instance(path: str) -> Instance:
    return _load_json(path, "instance", Instance.from_dict)


def _schedule_request(args: argparse.Namespace, instance: Instance) -> ScheduleRequest:
    """Translate ``repro schedule`` flags into an engine request."""
    from .analysis.parallel import resolve_jobs

    options: dict = {}
    budget = None
    seed = None
    if args.algorithm in ("pa", "pa-r"):
        options["floorplan"] = not args.no_floorplan
    if args.algorithm == "pa-r":
        options["jobs"] = resolve_jobs(args.jobs)
        if args.iterations is not None:
            options["iterations"] = args.iterations
        else:
            budget = args.budget
        seed = args.seed
    if args.algorithm.startswith("is-"):
        # jobs never changes the schedule (deterministic fan-out
        # reduction), so only a real fan-out enters the cache key.
        jobs = resolve_jobs(args.jobs)
        if jobs > 1:
            options["jobs"] = jobs
    if args.algorithm == "exhaustive":
        options["node_limit"] = 500_000
        options["task_limit"] = args.exhaustive_task_limit
    return ScheduleRequest(
        instance=instance,
        algorithm=args.algorithm,
        options=options,
        seed=seed,
        budget=budget,
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    profiling = bool(getattr(args, "profile", False) or getattr(args, "profile_out", None))
    try:
        backend = get_backend(args.algorithm)
        request = _schedule_request(args, instance)
        if profiling:
            with perf.profile(cprofile=bool(args.profile_hotspots)) as prof:
                outcome = backend.run(request)
        else:
            outcome = backend.run(request)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schedule = outcome.schedule
    label = outcome.backend.upper()
    info = f"{label}: makespan={schedule.makespan:.1f}"
    if args.algorithm == "pa":
        info += (
            f" feasible={outcome.feasible} "
            f"sched={outcome.scheduling_time:.3f}s "
            f"floorplan={outcome.floorplanning_time:.3f}s"
        )
    elif args.algorithm == "pa-r":
        info += (
            f" iterations={outcome.iterations} budget={args.budget}s "
            f"jobs={request.options['jobs']}"
        )
        stats = outcome.metadata.get("floorplan_stats")
        if stats:
            info += "\n" + _cache_stats_line(stats)
    elif "nodes" in outcome.metadata:
        info += f" nodes={outcome.metadata['nodes']}"
        search_stats = outcome.metadata.get("stats")
        if search_stats:
            info += "\n" + _search_stats_line(search_stats)
    print(info)
    if profiling:
        report = prof.report()
        if args.profile_out:
            Path(args.profile_out).write_text(json.dumps(report, indent=2) + "\n")
            print(f"wrote {args.profile_out}")
        else:
            print(json.dumps(report, indent=2))
    if args.output:
        Path(args.output).write_text(json.dumps(schedule.to_dict(), indent=2))
        print(f"wrote {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .analysis.parallel import resolve_jobs

    try:
        requests = load_manifest(args.manifest)
    except FileNotFoundError as exc:
        print(f"error: manifest not found: {exc.filename}", file=sys.stderr)
        return 2
    except (EngineError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: bad manifest: {exc}", file=sys.stderr)
        return 2
    try:
        if args.server:
            from .engine import run_batch_remote

            report = run_batch_remote(
                requests,
                args.server,
                jobs=resolve_jobs(args.jobs),
                progress=print if args.verbose else None,
                profile_dir=args.profile,
            )
        else:
            store = (
                None
                if args.no_store
                else ResultStore(args.store if args.store else DEFAULT_STORE_ROOT)
            )
            report = run_batch(
                requests,
                store=store,
                jobs=resolve_jobs(args.jobs),
                progress=print if args.verbose else None,
                timeout=args.timeout,
                profile_dir=args.profile,
            )
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"wrote {args.report}")
    if report.failed:
        print(
            f"error: {report.failed} request(s) failed", file=sys.stderr
        )
        return 1
    return 0


def _parse_axis_token(token: str):
    """One inline axis value: JSON literal when it parses, ``none`` ->
    null, bare string otherwise (so ``--axis algorithms=pa,is-2`` needs
    no quoting)."""
    lowered = token.strip()
    if lowered.lower() in ("none", "null"):
        return None
    try:
        return json.loads(lowered)
    except json.JSONDecodeError:
        return lowered


def _cmd_explore(args: argparse.Namespace) -> int:
    from .analysis.parallel import resolve_jobs
    from .explore import ExploreError, GridSpec, run_sweep

    instance = _load_instance(args.instance)
    grid: dict = {}
    if args.grid:
        try:
            grid = json.loads(Path(args.grid).read_text())
        except FileNotFoundError:
            print(f"error: grid file not found: {args.grid}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: bad grid JSON: {exc}", file=sys.stderr)
            return 2
    for axis in args.axis or []:
        name, eq, raw = axis.partition("=")
        if not eq:
            print(
                f"error: --axis wants NAME=V1,V2,... got {axis!r}",
                file=sys.stderr,
            )
            return 2
        grid[name.strip()] = [
            _parse_axis_token(token) for token in raw.split(",")
        ]
    objectives = [
        name.strip() for name in args.objectives.split(",") if name.strip()
    ]
    try:
        spec = GridSpec.from_dict(grid)
        store = (
            None
            if args.no_store
            else ResultStore(args.store if args.store else DEFAULT_STORE_ROOT)
        )
        report = run_sweep(
            instance,
            spec,
            store=store,
            jobs=resolve_jobs(args.jobs),
            objectives=objectives,
            warm_starts=not args.no_warm_starts,
            progress=print if args.verbose else None,
            timeout=args.timeout,
        )
    except (ExploreError, EngineError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.front_out:
        report.write_csv(args.front_out)
        print(f"wrote {args.front_out}")
    if args.report:
        report.write_html(args.report)
        print(f"wrote {args.report}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.json_out}")
    failed = sum(1 for r in report.records if r.source == "failed")
    if failed:
        print(f"error: {failed} grid cell(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from .fleet import DEVICE_PRESETS, preset_architecture

    if args.json:
        payload = {
            name: preset_architecture(name).to_dict() for name in DEVICE_PRESETS
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    header = (
        f"{'preset':<12} {'architecture':<20} {'cores':>5} {'CLB':>6} "
        f"{'BRAM':>5} {'DSP':>5} {'rec_freq':>9} {'ICAPs':>5} "
        f"{'static_W':>9} {'icap_W':>7}"
    )
    print(header)
    print("-" * len(header))
    for name in DEVICE_PRESETS:
        arch = preset_architecture(name)
        power = arch.power
        print(
            f"{name:<12} {arch.name:<20} {arch.processors:>5} "
            f"{arch.max_res['CLB']:>6} {arch.max_res['BRAM']:>5} "
            f"{arch.max_res['DSP']:>5} {arch.rec_freq:>9.0f} "
            f"{arch.reconfigurators:>5} "
            f"{power.static_w:>9.2f} {power.icap_w:>7.2f}"
        )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .analysis.parallel import resolve_jobs
    from .fleet import FleetSchedule, build_fleet
    from .model import Fleet
    from .validate import check_fleet_schedule

    instance = _load_instance(args.instance)
    if args.fleet:
        fleet = Fleet.from_dict(json.loads(Path(args.fleet).read_text()))
        if args.comm_penalty is not None:
            fleet = Fleet(
                devices=fleet.devices,
                comm_penalty=args.comm_penalty,
                name=fleet.name,
            )
    elif args.devices:
        fleet = build_fleet(
            [name.strip() for name in args.devices.split(",") if name.strip()],
            comm_penalty=args.comm_penalty or 0.0,
        )
    else:
        print("error: give --devices presets or a --fleet JSON file", file=sys.stderr)
        return 2

    inner_options: dict = {}
    budget = None
    if args.algorithm in ("pa", "pa-r"):
        inner_options["floorplan"] = not args.no_floorplan
    if args.algorithm == "pa-r":
        if args.iterations is not None:
            inner_options["iterations"] = args.iterations
        else:
            budget = args.budget
    options: dict = {
        "fleet": fleet.to_dict(),
        "objective": args.objective,
        "restarts": args.restarts,
        "options": inner_options,
    }
    if args.objective == "weighted":
        options["alpha"] = args.alpha
    # Like IS-k's jobs flag: candidate evaluation is deterministic for
    # any fan-out, so only a real fan-out enters the options/cache key.
    jobs = resolve_jobs(args.jobs)
    if jobs > 1:
        options["jobs"] = jobs
    request = ScheduleRequest(
        instance=instance,
        algorithm=f"fleet-{args.algorithm}",
        options=options,
        seed=args.seed,
        budget=budget,
    )

    source = "computed"
    try:
        store = ResultStore(args.store) if args.store else None
        outcome = store.get(request) if store is not None else None
        if outcome is not None:
            source = "store"
        else:
            outcome = get_backend(request.algorithm).run(request)
            if store is not None:
                store.put(request, outcome)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fs = FleetSchedule.from_dict(outcome.metadata["fleet"])
    energy = fs.energy
    print(
        f"FLEET-{args.algorithm.upper()} [{args.objective}] ({source}): "
        f"makespan={fs.makespan:.1f} feasible={fs.feasible} "
        f"devices={fs.devices_used}/{len(fleet)} "
        f"energy={energy.total_j:.1f}uJ "
        f"(static={energy.static_j:.1f} dynamic={energy.dynamic_j:.1f} "
        f"reconf={energy.reconfiguration_j:.1f}) "
        f"candidates={outcome.iterations}"
    )
    for device in fleet.devices:
        schedule = fs.device_schedules.get(device.id)
        if schedule is None:
            print(f"  {device.id} [{device.architecture.name}]: idle")
            continue
        breakdown = fs.device_energy[device.id]
        print(
            f"  {device.id} [{device.architecture.name}]: "
            f"{len(schedule.tasks)} tasks, offset={fs.offsets[device.id]:.1f}, "
            f"makespan={schedule.makespan:.1f}, "
            f"energy={breakdown.total_j:.1f}uJ"
        )

    code = 0
    if not args.no_validate:
        report = check_fleet_schedule(
            instance, fs, allow_module_reuse=args.algorithm.startswith("is-")
        )
        if report.ok:
            print("validator: OK")
        else:
            for violation in report.violations:
                print(violation)
            code = 1

    if args.output:
        Path(args.output).write_text(json.dumps(fs.to_dict(), indent=2))
        print(f"wrote {args.output}")
    if args.energy_out:
        payload = {
            "objective": args.objective,
            "makespan": fs.makespan,
            "devices_used": fs.devices_used,
            "energy": energy.to_dict(),
            "per_device": {
                device_id: breakdown.to_dict()
                for device_id, breakdown in sorted(fs.device_energy.items())
            },
        }
        Path(args.energy_out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.energy_out}")
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .analysis.parallel import resolve_jobs
    from .engine import SchedulerService, ServiceConfig

    store = None
    if not args.no_store:
        budget = (
            int(args.store_budget_mb * 1024 * 1024)
            if args.store_budget_mb
            else None
        )
        store = ResultStore(
            args.store if args.store else DEFAULT_STORE_ROOT, max_bytes=budget
        )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=resolve_jobs(args.workers),
        queue_limit=args.queue_limit,
        request_timeout=args.timeout if args.timeout > 0 else None,
        executor=args.executor,
        log_interval=args.log_interval,
    )
    service = SchedulerService(config, store=store)

    import asyncio

    def _on_ready() -> None:
        where = "off" if store is None else str(store.root)
        budget = (
            "unbounded"
            if store is None or store.max_bytes is None
            else f"{store.max_bytes / (1024 * 1024):.0f}MB LRU"
        )
        print(
            f"serving on {service.url} — workers={config.workers} "
            f"queue_limit={config.queue_limit} store={where} ({budget})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # No signal support here (non-main thread, exotic loop):
                # POST /shutdown still stops the daemon cleanly.
                pass

    try:
        asyncio.run(service.run(on_ready=_on_ready))
    except KeyboardInterrupt:
        pass
    print(service.render_metrics_line())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    schedule = Schedule.from_dict(json.loads(Path(args.schedule).read_text()))
    report = check_schedule(
        instance, schedule, allow_module_reuse=args.allow_module_reuse
    )
    if report.ok:
        print(f"OK: {len(schedule.tasks)} tasks, makespan {schedule.makespan:.1f}")
        return 0
    for violation in report.violations:
        print(violation)
    return 1


def _cmd_gantt(args: argparse.Namespace) -> int:
    schedule = Schedule.from_dict(json.loads(Path(args.schedule).read_text()))
    print(render_gantt(schedule, width=args.width))
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    schedules = [
        Schedule.from_dict(json.loads(Path(path).read_text()))
        for path in args.schedule
    ]
    planner = Floorplanner.for_architecture(instance.architecture, engine=args.engine)
    results = [planner.check(list(s.regions.values())) for s in schedules]
    all_feasible = True
    for path, result in zip(args.schedule, results):
        prefix = f"{path}: " if len(results) > 1 else ""
        print(
            f"{prefix}feasible={result.feasible} engine={result.engine} "
            f"proven={result.proven} elapsed={result.elapsed:.3f}s"
        )
        all_feasible &= bool(result.feasible)
        if result.placements and (len(results) == 1 or args.render):
            for region_id, placement in sorted(result.placements.items()):
                print(
                    f"  {region_id}: cols [{placement.col}, {placement.col + placement.width}) "
                    f"rows [{placement.row}, {placement.row + placement.height})"
                )
            print()
            print(render_floorplan(planner.device, result.placements))
    return 0 if all_feasible else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .analysis import schedule_stats

    instance = _load_instance(args.instance)
    schedule = Schedule.from_dict(json.loads(Path(args.schedule).read_text()))
    print(schedule_stats(instance, schedule).render())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    trace = SchedulerTrace()
    schedule = do_schedule(instance, PAOptions(), trace=trace)
    print(f"PA makespan {schedule.makespan:.1f}; "
          f"decision profile: {trace.summary()}")
    if args.task:
        print()
        print(trace.explain(args.task))
    elif args.phase:
        print()
        print(trace.render(args.phase))
    else:
        print()
        print(trace.render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis.robustness import (
        fault_sweep,
        render_fault_sweep,
        robustness_metrics,
    )
    from .sim import FaultPlan, RecoveryPolicy, jitter_model, simulate

    try:
        instance = _load_instance(args.instance)
        schedule = _load_json(args.schedule, "schedule", Schedule.from_dict)
        jitter = (
            jitter_model(args.jitter, seed=args.seed) if args.jitter > 0 else None
        )
        faults = FaultPlan.from_specs(args.fault) if args.fault else None
        policy = RecoveryPolicy(
            max_retries=args.retries,
            backoff=args.backoff,
            sw_fallback=not args.no_fallback,
            repair=not args.no_repair,
            repair_latency=args.repair_latency,
        )
        if args.sweep:
            rates = tuple(float(r) for r in args.sweep.split(","))
            points = fault_sweep(
                instance,
                schedule,
                rates=rates,
                trials=args.trials,
                seed=args.seed,
                policy=policy,
                jobs=args.jobs,
            )
            print(render_fault_sweep(points))
            return 0
        result = simulate(
            instance,
            schedule,
            jitter=jitter,
            faults=faults,
            recovery=policy,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = robustness_metrics(result)
    print(
        f"simulated makespan={result.makespan:.1f} "
        f"planned={result.planned_makespan:.1f} "
        f"slippage={result.slippage * 100:+.1f}%"
    )
    if faults or not result.completed:
        print(metrics.render())
        if result.failed_tasks:
            print(f"unrecovered tasks: {', '.join(result.failed_tasks)}")
    if args.trace:
        print()
        print(result.trace.render())
    return 0 if result.completed else 1


def _cmd_online(args: argparse.Namespace) -> int:
    from .analysis.online import (
        online_metrics,
        online_sweep,
        render_online_metrics,
        render_online_sweep,
    )
    from .online import (
        ArrivalTrace,
        CheckpointModel,
        feasible_trace,
        generate_trace,
        run_online,
    )
    from .sim import FaultPlan, RecoveryPolicy
    from .validate import check_online_trace

    try:
        if args.trace_file:
            trace = _load_json(args.trace_file, "trace", ArrivalTrace.from_dict)
        elif args.feasible:
            trace = feasible_trace(seed=args.seed, jobs=args.arrivals)
        else:
            trace = generate_trace(
                seed=args.seed,
                jobs=args.arrivals,
                tenants=args.tenants,
                mean_interarrival=args.interarrival,
                slack=args.slack,
                high_priority_fraction=args.high_priority,
                departure_fraction=args.departures,
            )
        if args.emit_trace:
            Path(args.emit_trace).write_text(trace.to_json())
            print(f"wrote arrival trace to {args.emit_trace}")
        faults = FaultPlan.from_specs(args.fault) if args.fault else None
        policy = RecoveryPolicy(
            max_retries=args.retries,
            backoff=args.backoff,
            sw_fallback=not args.no_fallback,
            repair=not args.no_repair,
        )
        checkpoint = CheckpointModel(overhead=args.checkpoint_overhead)
        if args.sweep:
            rates = tuple(float(r) for r in args.sweep.split(","))
            points = online_sweep(
                trace,
                rates=rates,
                trials=args.trials,
                seed=args.seed,
                policy=policy,
                checkpoint=checkpoint,
                jobs=args.jobs,
            )
            print(render_online_sweep(points))
            return 0
        result = run_online(
            trace,
            faults=faults,
            policy=policy,
            checkpoint=checkpoint,
            preemption=not args.no_preemption,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_online_trace(trace, result, checkpoint=checkpoint)
    metrics = online_metrics(result)
    print(render_online_metrics(metrics))
    if not report.ok:
        print(f"\nvalidator found {len(report.violations)} violation(s):")
        for violation in report.violations[:10]:
            print(f"  {violation}")
    if args.events:
        print()
        print(result.trace.render())
    if args.metrics_out:
        payload = {
            k: v
            for k, v in metrics.__dict__.items()
            if k != "tenants"
        }
        payload["tenants"] = [t.__dict__ for t in metrics.tenants]
        payload["valid"] = report.ok
        Path(args.metrics_out).write_text(json.dumps(payload, indent=2))
        print(f"\nwrote metrics to {args.metrics_out}")
    return 0 if report.ok else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.parallel import resolve_jobs

    config = ExperimentConfig(
        profile=args.profile,
        jobs=resolve_jobs(args.jobs),
        pa_r_jobs=resolve_jobs(args.pa_r_jobs),
        isk_jobs=resolve_jobs(args.isk_jobs),
    )
    wanted = set(args.exhibits) or {"all"}
    if "all" in wanted:
        wanted = {"table1", "fig2", "fig3", "fig4", "fig5", "fig6"}
    outdir = Path(args.output) if args.output else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)

    quality_needed = wanted & {"table1", "fig2", "fig3", "fig4", "fig5"}
    results = None
    convergence = None
    if quality_needed:
        results = run_quality(config, progress=print if args.verbose else None)
        renders = {
            "table1": results.render_table1,
            "fig2": results.render_fig2,
            "fig3": results.render_fig3,
            "fig4": results.render_fig4,
            "fig5": results.render_fig5,
        }
        for name in sorted(quality_needed):
            print()
            print(renders[name]())
        if outdir:
            results.to_json(outdir / "quality.json")
    if "fig6" in wanted:
        convergence = run_convergence(
            budget=args.budget,
            progress=print if args.verbose else None,
            jobs=config.jobs,
            pa_r_jobs=config.pa_r_jobs,
        )
        print()
        print(convergence.render())
        if outdir:
            convergence.to_json(outdir / "convergence.json")
    if outdir and results is not None:
        from .analysis import export_all, write_html_report

        export_all(results, outdir / "csv", convergence)
        report = write_html_report(results, outdir / "report.html", convergence)
        print(f"\nwrote {report} (+ CSV exports under {outdir / 'csv'})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Resource-Efficient Scheduling for "
            "Partially-Reconfigurable FPGA-based Systems'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic instance")
    p.add_argument("--tasks", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--graph",
        default="layered",
        choices=["layered", "series-parallel", "random-order"],
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("schedule", help="schedule an instance")
    p.add_argument("instance")
    p.add_argument(
        "--algorithm",
        default="pa",
        help="pa | pa-r | is-1 | is-5 | is-<k> | list | exhaustive",
    )
    p.add_argument("--budget", type=float, default=5.0, help="PA-R seconds")
    p.add_argument(
        "--iterations", type=int, default=None,
        help="PA-R: run exactly N restarts instead of --budget seconds "
        "(deterministic for a given --seed, any --jobs)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes: PA-R restarts, or IS-k first-level "
        "window fan-out for k >= 2 (1 = serial, -1 = all cores; "
        "schedules are identical for any value)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-floorplan", action="store_true")
    p.add_argument(
        "--exhaustive-task-limit",
        type=int,
        default=DEFAULT_EXHAUSTIVE_TASK_LIMIT,
        help="exhaustive: refuse instances with more tasks than this "
        f"(default {DEFAULT_EXHAUSTIVE_TASK_LIMIT}; the search is "
        "exponential in the task count)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="profile the run: per-phase wall/CPU breakdown as JSON",
    )
    p.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the profile JSON to PATH instead of stdout",
    )
    p.add_argument(
        "--profile-hotspots", action="store_true",
        help="with --profile: include cProfile top functions",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser(
        "batch",
        help="drain a JSON manifest of schedule requests through the "
        "result store + worker pool",
    )
    p.add_argument("manifest", help="JSON manifest (see README: repro batch)")
    p.add_argument(
        "--store",
        default=None,
        help="result-store directory (default results/.cache)",
    )
    p.add_argument(
        "--no-store",
        action="store_true",
        help="compute everything; skip store lookups and write-backs",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the misses (1 = serial, -1 = all "
        "cores); with --server: concurrent HTTP requests",
    )
    p.add_argument(
        "--server", default=None, metavar="URL",
        help="drain through a running `repro serve` daemon instead of "
        "a private pool (e.g. http://127.0.0.1:8177)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-request wall-clock limit in seconds (pool mode, "
        "--jobs >= 2); timed-out requests become failed records",
    )
    p.add_argument(
        "--report", default=None, help="write the batch report as JSON here"
    )
    p.add_argument(
        "--profile", default=None, metavar="DIR",
        help="profile every executed request with the repro.perf phase "
        "profiler and write one item-<index>.json per request into DIR "
        "(local pool: store hits execute nothing, so they emit no "
        "profile; with --server: every request gets a client-side "
        "profile of HTTP round-trip + backpressure wait)",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "explore",
        help="sweep a constraint grid through the engine and extract "
        "the Pareto front (store-first dedup + cross-point warm starts)",
    )
    p.add_argument("instance")
    p.add_argument(
        "--grid", default=None, metavar="PATH",
        help="grid spec JSON (axes: algorithms, fabric_scales, "
        "rec_freqs, region_budgets, energy_caps, seeds, fleets)",
    )
    p.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2,...",
        help="inline axis override, repeatable "
        "(e.g. --axis algorithms=pa,is-2 --axis fabric_scales=1.0,0.8)",
    )
    p.add_argument(
        "--objectives", default="makespan,area,energy",
        help="ordered objective subset for the front "
        "(default makespan,area,energy; all minimized, energy in µJ)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the warm chains (1 = serial, -1 = "
        "all cores); the report is bit-identical for any value",
    )
    p.add_argument(
        "--store", default=None,
        help="result-store directory (default results/.cache)",
    )
    p.add_argument(
        "--no-store", action="store_true",
        help="compute everything; skip store lookups and write-backs",
    )
    p.add_argument(
        "--no-warm-starts", action="store_true",
        help="give every pa/pa-r cell its own fresh floorplanner "
        "(for A/B-ing the warm-start layer; results are identical)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-chain wall-clock limit in seconds (pool mode)",
    )
    p.add_argument(
        "--front-out", default=None, metavar="CSV",
        help="write every grid cell (front membership, feasibility, "
        "objective values) as CSV here",
    )
    p.add_argument(
        "--report", default=None, metavar="HTML",
        help="write a self-contained HTML scatter/front report here",
    )
    p.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the full sweep report as JSON here",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser(
        "devices",
        help="list the built-in fleet device presets (resources, ICAP "
        "throughput, power figures)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the presets as JSON architecture payloads",
    )
    p.set_defaults(func=_cmd_devices)

    p = sub.add_parser(
        "fleet",
        help="schedule an instance across a fleet of heterogeneous "
        "devices (partition + per-device backend + energy accounting)",
    )
    p.add_argument("instance")
    p.add_argument(
        "--devices", default=None, metavar="P1,P2,...",
        help="comma-separated device presets (see `repro devices`)",
    )
    p.add_argument(
        "--fleet", default=None, metavar="PATH",
        help="JSON fleet description (Fleet.to_dict payload) instead of "
        "--devices",
    )
    p.add_argument(
        "--algorithm", default="pa",
        help="inner per-device backend: pa | pa-r | is-<k> | list",
    )
    p.add_argument(
        "--objective", default="makespan",
        choices=["makespan", "energy", "weighted"],
    )
    p.add_argument(
        "--alpha", type=float, default=0.5,
        help="weighted objective: alpha*makespan + (1-alpha)*energy "
        "(both normalized to the first candidate)",
    )
    p.add_argument(
        "--comm-penalty", type=float, default=None, metavar="US",
        help="microseconds charged per cross-device edge (default 0; "
        "with --fleet: override the file's value)",
    )
    p.add_argument(
        "--restarts", type=int, default=4,
        help="randomized partition restarts on top of the greedy + "
        "pack candidates",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=5.0, help="PA-R seconds per device")
    p.add_argument(
        "--iterations", type=int, default=None,
        help="PA-R: exactly N restarts per device instead of --budget",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for candidate evaluation (1 = serial, "
        "-1 = all cores; the chosen schedule is identical for any value)",
    )
    p.add_argument("--no-floorplan", action="store_true")
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="serve store-first from / write back to this result store",
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip the independent fleet validator",
    )
    p.add_argument("-o", "--output", default=None, help="write the FleetSchedule JSON")
    p.add_argument(
        "--energy-out", default=None, metavar="PATH",
        help="write the energy breakdown JSON here",
    )
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "serve",
        help="run the scheduling service: an async HTTP daemon with "
        "store-first answers, in-flight coalescing and backpressure",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8177,
        help="listen port (0 = pick a free one; printed on startup)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="backend worker processes (-1 = all cores)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=64,
        help="in-flight executions before new misses get HTTP 429",
    )
    p.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-request execution deadline in seconds (0 = none)",
    )
    p.add_argument(
        "--store",
        default=None,
        help="result-store directory (default results/.cache)",
    )
    p.add_argument(
        "--no-store",
        action="store_true",
        help="serve without a result store (every request computes)",
    )
    p.add_argument(
        "--store-budget-mb", type=float, default=None,
        help="LRU size budget for the store in MiB (default: unbounded)",
    )
    p.add_argument(
        "--executor", default="process", choices=["process", "thread"],
        help="backend executor kind (thread = in-process, for "
        "debugging/embedding)",
    )
    p.add_argument(
        "--log-interval", type=float, default=60.0,
        help="seconds between periodic metrics log lines (0 = off)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("validate", help="check a schedule's invariants")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--allow-module-reuse", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gantt", help="render a schedule as ASCII lanes")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("floorplan", help="floorplan one or more schedules' regions")
    p.add_argument("instance")
    p.add_argument(
        "schedule", nargs="+",
        help="schedule JSON file(s); several share one floorplanner, "
        "so later ones can reuse earlier verdicts",
    )
    p.add_argument("--engine", default="backtrack", choices=["backtrack", "milp", "both"])
    p.add_argument(
        "--render", action="store_true",
        help="with multiple schedules: render each feasible floorplan too",
    )
    p.set_defaults(func=_cmd_floorplan)

    p = sub.add_parser("stats", help="aggregate statistics of a schedule")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "explain", help="trace the PA scheduler's decisions on an instance"
    )
    p.add_argument("instance")
    p.add_argument("--task", default=None, help="explain one task's journey")
    p.add_argument("--phase", default=None, help="show one phase's decisions")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "simulate",
        help="execute a schedule in the discrete-event runtime "
        "(jitter + fault injection + recovery)",
    )
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument(
        "--jitter", type=float, default=0.0,
        help="multiplicative jitter factor in [0, 1), 0 = exact replay",
    )
    p.add_argument("--seed", type=int, default=0, help="jitter seed")
    p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a fault model; repeatable. SPECs: transient:<rate>[@seed]"
        " | reconf:<rate>[@seed] | region-death:<region>@<time>",
    )
    p.add_argument(
        "--retries", type=int, default=3, help="max retries per activity"
    )
    p.add_argument(
        "--backoff", type=float, default=1.0, help="first retry backoff [us]"
    )
    p.add_argument(
        "--repair-latency", type=float, default=0.0,
        help="simulated cost of one online repair-scheduling pass [us]",
    )
    p.add_argument(
        "--no-fallback", action="store_true", help="disable SW fallback"
    )
    p.add_argument(
        "--no-repair", action="store_true", help="disable repair scheduling"
    )
    p.add_argument(
        "--trace", action="store_true", help="print the full event trace"
    )
    p.add_argument(
        "--sweep",
        default=None,
        metavar="RATES",
        help="run a transient-fault sweep over comma-separated rates "
        "(e.g. 0,0.05,0.1) instead of a single simulation",
    )
    p.add_argument(
        "--trials", type=int, default=5, help="trials per sweep rate"
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --sweep (1 = serial, -1 = all cores)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "online",
        help="run a multi-tenant arrival trace through the online "
        "runtime (admission, deadlines, preemption, recovery)",
    )
    p.add_argument(
        "trace_file",
        nargs="?",
        default=None,
        help="arrival-trace JSON (omit to generate one from --seed)",
    )
    p.add_argument("--seed", type=int, default=0, help="trace seed")
    p.add_argument(
        "--arrivals", type=int, default=6, help="generated jobs per trace"
    )
    p.add_argument(
        "--feasible",
        action="store_true",
        help="generate the known-feasible trace (wide spacing, generous "
        "deadlines) instead of the default parameters",
    )
    p.add_argument(
        "--tenants", type=int, default=3, help="generated tenant count"
    )
    p.add_argument(
        "--interarrival", type=float, default=40.0,
        help="mean inter-arrival time for generated traces [us]",
    )
    p.add_argument(
        "--slack", type=float, default=3.0,
        help="deadline slack factor over each job's serial work",
    )
    p.add_argument(
        "--high-priority", type=float, default=0.25,
        help="fraction of generated jobs with preempting priority",
    )
    p.add_argument(
        "--departures", type=float, default=0.0,
        help="fraction of generated jobs that depart early",
    )
    p.add_argument(
        "--emit-trace", default=None, metavar="PATH",
        help="write the (loaded or generated) trace JSON to PATH",
    )
    p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a fault model; repeatable. SPECs: transient:<rate>[@seed]"
        " | reconf:<rate>[@seed] | region-death:<region>@<time>",
    )
    p.add_argument(
        "--retries", type=int, default=3, help="max retries per activity"
    )
    p.add_argument(
        "--backoff", type=float, default=1.0, help="first retry backoff [us]"
    )
    p.add_argument(
        "--no-fallback", action="store_true", help="disable SW fallback"
    )
    p.add_argument(
        "--no-repair", action="store_true", help="disable online repair"
    )
    p.add_argument(
        "--no-preemption", action="store_true", help="disable preemption"
    )
    p.add_argument(
        "--checkpoint-overhead", type=float, default=0.0,
        help="fixed per-save/per-restore checkpoint overhead [us]",
    )
    p.add_argument(
        "--events", action="store_true", help="print the full event trace"
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write run metrics (+ validator verdict) as JSON",
    )
    p.add_argument(
        "--sweep",
        default=None,
        metavar="RATES",
        help="run a transient-fault sweep over comma-separated rates "
        "instead of a single run",
    )
    p.add_argument(
        "--trials", type=int, default=5, help="trials per sweep rate"
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --sweep (1 = serial, -1 = all cores; "
        "results are bit-identical for any value)",
    )
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p.add_argument(
        "exhibits",
        nargs="*",
        default=["all"],
        help="table1 fig2 fig3 fig4 fig5 fig6 | all",
    )
    p.add_argument("--profile", default=None, help="tiny | small | full")
    p.add_argument("--budget", type=float, default=10.0, help="fig6 PA-R seconds")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the per-instance evaluations "
        "(1 = serial, -1 = all cores); record order is deterministic "
        "either way",
    )
    p.add_argument(
        "--pa-r-jobs", type=int, default=1,
        help="worker processes for PA-R restart batches within one "
        "instance (1 = serial; results are bit-identical for any value)",
    )
    p.add_argument(
        "--isk-jobs", type=int, default=1,
        help="worker processes for the IS-5 first-level window fan-out "
        "(1 = serial; schedules are bit-identical for any value)",
    )
    p.add_argument("-o", "--output", default=None, help="results directory")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
