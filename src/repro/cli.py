"""Command-line interface: ``python -m repro <command>``.

Four subcommands cover the operational loop a platform engineer needs:

* ``generate`` — draw a SYN or GM instance and persist it as CSV.
* ``solve`` — load a CSV instance, run one algorithm, print metrics, and
  optionally write the assignment as CSV.
* ``experiment`` — regenerate one of the paper's figures by id.
* ``list-experiments`` — enumerate the reproducible figure ids.
* ``verify`` — run solvers under the :mod:`repro.verify` invariant
  checkers on an experiment's representative instance (or, with
  ``--full``, the whole experiment) and report what was certified.
* ``trace`` — run one solver under :mod:`repro.obs` structured tracing,
  write the JSONL trace, and print a summary (per-phase wall time,
  rounds, switches, catalog-cache stats).
* ``serve`` — run the long-lived online dispatch service
  (:mod:`repro.service`): a JSON-over-HTTP assignment engine with
  per-center sharded solves and snapshot-keyed catalog caching.
* ``bench`` — run the pinned core benchmark (catalog build, FGT solve,
  IEGT solve through both best-response engines) and write wall-times,
  speedups, and obs counter deltas to ``BENCH_core.json``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.baselines import GTASolver, MPTASolver, RandomSolver
from repro.core.payoff import average_payoff, payoff_difference
from repro.datasets.gmission import GMissionConfig, generate_gmission_like
from repro.datasets.io import load_instance, save_instance
from repro.datasets.synthetic import SynConfig, generate_synthetic
from repro.experiments.config import Scale
from repro.experiments.figures import ConvergenceStudy
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.report import format_series_table, format_sweep
from repro.games import FGTSolver, IEGTSolver

_SOLVERS = {
    "gta": lambda eps: GTASolver(epsilon=eps),
    "mpta": lambda eps: MPTASolver(epsilon=eps),
    "fgt": lambda eps: FGTSolver(epsilon=eps),
    "iegt": lambda eps: IEGTSolver(epsilon=eps),
    "random": lambda eps: RandomSolver(epsilon=eps),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fairness-aware spatial crowdsourcing task assignment (ICDE 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset and save it as CSV")
    gen.add_argument("output", type=Path, help="directory to write the CSV files to")
    gen.add_argument("--dataset", choices=("syn", "gm"), default="gm")
    gen.add_argument("--tasks", type=int, default=None)
    gen.add_argument("--workers", type=int, default=None)
    gen.add_argument("--delivery-points", type=int, default=None)
    gen.add_argument("--centers", type=int, default=None, help="SYN only")
    gen.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="solve a CSV instance with one algorithm")
    solve.add_argument("input", type=Path, help="directory produced by 'generate'")
    solve.add_argument(
        "--algorithm", choices=sorted(_SOLVERS), default="iegt"
    )
    solve.add_argument("--epsilon", type=float, default=None, help="pruning radius (km)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="solve distribution centers on a process pool of this size",
    )
    solve.add_argument(
        "--output", type=Path, default=None, help="write the assignment CSV here"
    )
    solve.add_argument(
        "--equity-mode",
        action="store_true",
        help="solve with the ledger-weighted equity IAU (FGT/IEGT only; "
        "one-shot solves use zero baselines, i.e. the amplified game — "
        "docs/temporal_fairness.md)",
    )
    solve.add_argument(
        "--equity-strength",
        type=float,
        default=None,
        help="IAU amplification for --equity-mode (default 3.0)",
    )
    _add_kernel_flag(solve)

    cmp = sub.add_parser(
        "compare", help="solve with two algorithms and diff the outcomes"
    )
    cmp.add_argument("input", type=Path, help="directory produced by 'generate'")
    cmp.add_argument("--baseline", choices=sorted(_SOLVERS), default="gta")
    cmp.add_argument("--challenger", choices=sorted(_SOLVERS), default="iegt")
    cmp.add_argument("--epsilon", type=float, default=None)
    cmp.add_argument("--seed", type=int, default=0)
    cmp.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="solve distribution centers on a process pool of this size",
    )

    exp = sub.add_parser("experiment", help="regenerate one paper figure")
    exp.add_argument("experiment_id", help="e.g. fig4; see list-experiments")
    exp.add_argument(
        "--scale", choices=[s.value for s in Scale], default=Scale.CI.value
    )
    exp.add_argument("--seed", type=int, default=0)

    sub.add_parser("list-experiments", help="list reproducible figure ids")

    ver = sub.add_parser(
        "verify", help="run solvers under the runtime invariant checkers"
    )
    ver.add_argument(
        "--experiment",
        default="fig3",
        help="experiment id whose representative instance to verify (default fig3)",
    )
    ver.add_argument(
        "--scale", choices=[s.value for s in Scale], default=Scale.CI.value
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--algorithms",
        default="fgt,iegt",
        help="comma-separated solver names to verify (default fgt,iegt)",
    )
    ver.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="pruning radius (km); default: the experiment grid's default",
    )
    ver.add_argument(
        "--full",
        action="store_true",
        help="verify the experiment's entire sweep instead of one instance",
    )

    trc = sub.add_parser(
        "trace", help="run a solver under structured tracing and summarise it"
    )
    trc.add_argument(
        "--algo",
        "--algorithm",
        dest="algo",
        choices=sorted(_SOLVERS),
        default="fgt",
        help="solver to trace (default fgt)",
    )
    trc.add_argument(
        "--experiment",
        default="fig3",
        help="experiment id whose representative instance to trace (default fig3)",
    )
    trc.add_argument(
        "--scale", choices=[s.value for s in Scale], default=Scale.CI.value
    )
    trc.add_argument("--seed", type=int, default=0)
    trc.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="pruning radius (km); default: the experiment grid's default",
    )
    trc.add_argument(
        "--output",
        type=Path,
        default=Path("trace.jsonl"),
        help="JSONL trace file to write (default trace.jsonl)",
    )
    trc.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the metrics registry in Prometheus text format",
    )
    trc_sub = trc.add_subparsers(dest="trace_action")
    trc_analyze = trc_sub.add_parser(
        "analyze",
        help="reconstruct span trees from a JSONL trace and print "
        "critical paths and per-phase self time",
    )
    trc_analyze.add_argument(
        "input", type=Path, help="JSONL trace file to analyze"
    )
    trc_analyze.add_argument(
        "--top",
        type=int,
        default=10,
        help="slowest rounds to print critical paths for (default 10)",
    )
    trc_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the analysis as JSON instead of the text report",
    )

    bch = sub.add_parser(
        "bench", help="run the pinned core benchmark and write BENCH_core.json"
    )
    bch.add_argument(
        "--scale",
        choices=("smoke", "medium"),
        default="medium",
        help="pinned benchmark shape (default medium; smoke is CI-sized)",
    )
    bch.add_argument("--seed", type=int, default=0)
    bch.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="solve repetitions per engine; the best wall time is reported",
    )
    bch.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_core.json"),
        help="JSON report path (default BENCH_core.json)",
    )
    bch.add_argument(
        "--profile",
        action="store_true",
        help="run each bench section under cProfile and print the top "
        "cumulative-time functions per section",
    )
    _add_kernel_flag(bch)

    srv = sub.add_parser(
        "serve", help="run the online dispatch service (JSON over HTTP)"
    )
    srv.add_argument(
        "input",
        type=Path,
        nargs="?",
        default=None,
        help="CSV instance dir for the layout/fleet/initial queue "
        "(default: generate a gMission-like city)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port; 0 binds an ephemeral port (see --port-file)",
    )
    srv.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (for --port 0)",
    )
    srv.add_argument("--algorithm", choices=sorted(_SOLVERS), default="fgt")
    srv.add_argument("--epsilon", type=float, default=None, help="pruning radius (km)")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--verify",
        action="store_true",
        help="run the Def. 8 / Eq. 1-2 invariant checkers on every round",
    )
    srv.add_argument(
        "--no-initial-tasks",
        action="store_true",
        help="start with an empty task queue (layout and fleet only)",
    )
    srv.add_argument("--tasks", type=int, default=60, help="generated-city task count")
    srv.add_argument("--workers", type=int, default=12, help="generated-city fleet size")
    srv.add_argument(
        "--delivery-points", type=int, default=24, help="generated-city point count"
    )
    srv.add_argument(
        "--journal",
        type=Path,
        default=None,
        help="write-ahead journal path; an existing journal is recovered "
        "first, so the service survives SIGKILL (docs/fault_tolerance.md). "
        "With --shards > 1 this is a *directory* of per-shard segments",
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run the supervised multi-process shard pool with this many "
        "worker processes (centers are partitioned by rendezvous hash; "
        "crashed shards are respawned and journal-replayed). 1 = the "
        "single-process engine (docs/fault_tolerance.md)",
    )
    srv.add_argument(
        "--queue-bound",
        type=int,
        default=4,
        help="sharded mode: max concurrently admitted /dispatch calls; "
        "excess requests are shed with 503 + Retry-After",
    )
    srv.add_argument(
        "--journal-compact-every",
        type=int,
        default=512,
        help="auto-compact the journal after this many records (default 512)",
    )
    srv.add_argument(
        "--solve-deadline-s",
        type=float,
        default=None,
        help="per-center solve budget in seconds for each rung of the "
        "degradation ladder (primary -> greedy -> skip)",
    )
    srv.add_argument(
        "--solve-retries",
        type=int,
        default=1,
        help="primary-rung retries before degrading (default 1)",
    )
    srv.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        help="consecutive primary failures that open a center's breaker",
    )
    srv.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before a half-open probe",
    )
    srv.add_argument(
        "--faults",
        default=None,
        help="chaos-injection spec, e.g. 'seed=7,error_rate=0.2' "
        "(same syntax as the REPRO_FAULTS env var; testing only)",
    )
    srv.add_argument(
        "--catalog-store",
        type=Path,
        default=None,
        help="directory for persistent catalog warm-starts: drained "
        "shutdowns save each center's incremental catalog there and the "
        "next start refreshes it instead of paying cold C-VDPS builds",
    )
    srv.add_argument(
        "--no-delta-catalog",
        action="store_true",
        help="rebuild catalogs from scratch on every cache miss instead "
        "of applying incremental churn deltas (docs/performance.md)",
    )
    srv.add_argument(
        "--equity",
        action="store_true",
        help="solve rounds with ledger-weighted equity utilities; the "
        "cross-round ledger is journaled and survives restarts "
        "(docs/temporal_fairness.md)",
    )
    srv.add_argument(
        "--equity-decay",
        type=float,
        default=None,
        help="ledger decay per round (default 0.9; only for a fresh ledger)",
    )
    srv.add_argument(
        "--equity-window",
        type=int,
        default=None,
        help="rolling-fairness window in rounds (default 32; fresh ledger only)",
    )
    srv.add_argument(
        "--equity-strength",
        type=float,
        default=None,
        help="IAU amplification for equity rounds (default 3.0)",
    )
    _add_kernel_flag(srv)

    eqp = sub.add_parser(
        "equity", help="long-run temporal-fairness reports (ledger vs per-round)"
    )
    eq_sub = eqp.add_subparsers(dest="equity_action", required=True)
    eq_report = eq_sub.add_parser(
        "report",
        help="play a long-run scenario with the equity ledger on and off "
        "and report the rolling-Gini gap it closes",
    )
    eq_report.add_argument(
        "--scenario",
        choices=("unlucky", "bursty", "churn", "all"),
        default="all",
        help="which repro.sim.scenarios world to play (default all)",
    )
    eq_report.add_argument(
        "--rounds", type=int, default=40, help="dispatch rounds per arm"
    )
    eq_report.add_argument("--seed", type=int, default=0)
    eq_report.add_argument(
        "--algorithm",
        choices=("fgt", "iegt"),
        default="fgt",
        help="solver for both arms (default fgt — IEGT's imitation "
        "dynamics cannot yield work, so its equity effect is weaker)",
    )
    eq_report.add_argument(
        "--epsilon", type=float, default=0.8, help="pruning radius (km)"
    )
    eq_report.add_argument(
        "--decay", type=float, default=None, help="ledger decay (default 0.9)"
    )
    eq_report.add_argument(
        "--window", type=int, default=None, help="rolling window (default 32)"
    )
    eq_report.add_argument(
        "--strength",
        type=float,
        default=None,
        help="IAU amplification for the ledger arm (default 3.0)",
    )
    eq_report.add_argument(
        "--json",
        action="store_true",
        help="emit the comparisons as JSON instead of the text report",
    )
    eq_report.add_argument(
        "--output", type=Path, default=None, help="also write the JSON here"
    )
    return parser


def _add_kernel_flag(parser: argparse.ArgumentParser) -> None:
    from repro.kernels import VALID_KERNELS

    parser.add_argument(
        "--kernel",
        choices=VALID_KERNELS,
        default=None,
        help="DP kernel tier for catalog builds and routing (default: "
        "REPRO_KERNEL env var, then 'vectorized'; all tiers are "
        "bit-identical — docs/performance.md)",
    )


def _apply_kernel(args: argparse.Namespace) -> None:
    """Install ``--kernel`` as the process-wide default tier."""
    if getattr(args, "kernel", None) is not None:
        from repro.kernels import set_default_kernel

        set_default_kernel(args.kernel)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "gm":
        config = GMissionConfig(
            n_tasks=args.tasks or 200,
            n_workers=args.workers if args.workers is not None else 40,
            n_delivery_points=args.delivery_points or 100,
        )
        instance = generate_gmission_like(config, seed=args.seed)
    else:
        config = SynConfig(
            n_centers=args.centers or 4,
            n_tasks=args.tasks or 8000,
            n_workers=args.workers if args.workers is not None else 160,
            n_delivery_points=args.delivery_points or 400,
        )
        instance = generate_synthetic(config, seed=args.seed)
    save_instance(instance, args.output)
    print(f"wrote {instance.describe()} to {args.output}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.parallel import solve_instance

    _apply_kernel(args)
    instance = load_instance(args.input)
    solver = _SOLVERS[args.algorithm](args.epsilon)
    if args.equity_mode:
        solver = _equity_solver(solver, args.equity_strength)
        if solver is None:
            print(
                f"ERROR: --equity-mode is not supported by "
                f"{args.algorithm!r} (FGT and IEGT only)",
                file=sys.stderr,
            )
            return 2
    solution = solve_instance(
        instance, solver, epsilon=args.epsilon, seed=args.seed, n_jobs=args.n_jobs
    )
    payoffs: List[float] = []
    rows = []
    for center_id in sorted(solution.assignments):
        for pair in solution.assignments[center_id]:
            payoffs.append(pair.payoff)
            rows.append(
                (
                    pair.worker.worker_id,
                    center_id,
                    "|".join(pair.delivery_point_ids),
                    f"{pair.payoff:.6f}",
                )
            )
    print(f"algorithm        : {solver.name}")
    print(f"workers          : {len(payoffs)}")
    print(f"payoff difference: {payoff_difference(payoffs):.6f}")
    print(f"average payoff   : {average_payoff(payoffs):.6f}")
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        with args.output.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["worker_id", "center_id", "route", "payoff"])
            writer.writerows(rows)
        print(f"assignment written to {args.output}")
    return 0


def _equity_solver(solver, strength: Optional[float]):
    """An equity-mode copy of ``solver``, or ``None`` if unsupported."""
    import dataclasses

    if not dataclasses.is_dataclass(solver):
        return None
    names = {f.name for f in dataclasses.fields(solver)}
    if "equity_mode" not in names:
        return None
    changes = {"equity_mode": True}
    if strength is not None and "equity_strength" in names:
        changes["equity_strength"] = strength
    return dataclasses.replace(solver, **changes)


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_assignments
    from repro.core.assignment import Assignment
    from repro.parallel import solve_instance

    instance = load_instance(args.input)
    labelled = {}
    for label in (args.baseline, args.challenger):
        solver = _SOLVERS[label](args.epsilon)
        solution = solve_instance(
            instance, solver, epsilon=args.epsilon, seed=args.seed, n_jobs=args.n_jobs
        )
        pairs = []
        for center_id in sorted(solution.assignments):
            pairs.extend(solution.assignments[center_id].pairs)
        labelled[label] = Assignment(pairs)
    comparison = compare_assignments(
        labelled[args.baseline],
        labelled[args.challenger],
        args.baseline.upper(),
        args.challenger.upper(),
    )
    print(comparison.format())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    entry = get_experiment(args.experiment_id)
    result = entry.run(scale=Scale(args.scale), seed=args.seed)
    if isinstance(result, ConvergenceStudy):
        rows = {name: result.series(name) for name in result.traces}
        width = max(len(series) for series in rows.values())
        padded = {
            name: series + [series[-1]] * (width - len(series))
            for name, series in rows.items()
        }
        print(
            format_series_table(
                f"{result.name}: payoff difference per iteration",
                list(range(1, width + 1)),
                padded,
                column_header="iter",
            )
        )
    elif hasattr(result, "format") and callable(result.format):
        # Extension studies render themselves.
        print(result.format())
    else:
        print(format_sweep(result))
    return 0


def _cmd_list_experiments(args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(get_experiment(experiment_id).describe())
    return 0


def _representative_instance(entry, scale: Scale, seed: int):
    """The experiment's dataset at its grid's default (underlined) sizes.

    Returns ``(instance, default_epsilon)``.  Experiments on GM+SYN (e.g.
    fig12) and the GM-based extension studies verify on the GM instance.
    """
    from repro.experiments.config import GM_GRID, SYN_GRID, SYN_SPACE_KM

    if entry.dataset.startswith("SYN"):
        grid = SYN_GRID[scale]
        config = SynConfig(
            n_centers=grid.n_centers,
            n_workers=grid.workers_default,
            n_delivery_points=grid.dps_default,
            n_tasks=grid.tasks_default,
            expiry_hours=grid.expiry_default,
            max_delivery_points=grid.maxdp_default,
            space_km=SYN_SPACE_KM[scale],
        )
        return generate_synthetic(config, seed=seed), grid.epsilon_default
    grid = GM_GRID[scale]
    config = GMissionConfig(
        n_tasks=grid.tasks_default,
        n_workers=grid.workers_default,
        n_delivery_points=min(grid.dps_default, grid.tasks_default),
    )
    return generate_gmission_like(config, seed=seed), grid.epsilon_default


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.exceptions import InvariantViolation
    from repro.experiments.runner import AlgorithmSpec, run_algorithms
    from repro.verify import (
        reset_verification_stats,
        set_verification,
        verification_stats,
    )

    entry = get_experiment(args.experiment)
    scale = Scale(args.scale)
    names = [name.strip().lower() for name in args.algorithms.split(",") if name.strip()]
    unknown = sorted(set(names) - set(_SOLVERS))
    if unknown:
        print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    reset_verification_stats()
    try:
        if args.full:
            # Verify the whole sweep: every solver the experiment runs picks
            # up the checkers through the global override + REPRO_VERIFY path.
            set_verification(True)
            try:
                entry.run(scale=scale, seed=args.seed)
            finally:
                set_verification(None)
        else:
            instance, grid_epsilon = _representative_instance(
                entry, scale, args.seed
            )
            epsilon = args.epsilon if args.epsilon is not None else grid_epsilon
            specs = [
                AlgorithmSpec(name.upper(), _SOLVERS[name]) for name in names
            ]
            records = run_algorithms(
                instance, specs, epsilon, seed=args.seed, verify=True
            )
            for record in records:
                print(
                    f"{record.algorithm:<6} P_dif={record.payoff_difference:.6f} "
                    f"avg={record.average_payoff:.6f} "
                    f"{'converged' if record.converged else 'NOT converged'}"
                )
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
        return 1
    stats = verification_stats()
    if not stats.total:
        print("no invariant checks ran (nothing was verified)", file=sys.stderr)
        return 1
    print()
    print(f"all invariant checks passed ({stats.total} checks)")
    print(stats.format())
    return 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.obs import TraceFormatError, analyze_trace

    if not args.input.exists():
        print(f"ERROR: no trace file at {args.input}", file=sys.stderr)
        return 1
    try:
        analysis = analyze_trace(args.input)
    except TraceFormatError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    if args.json:
        span_count = sum(1 for _ in analysis.forest.iter_spans())
        payload = {
            "traces": len(analysis.forest.roots),
            "spans": span_count,
            "orphans": analysis.orphan_count,
            "rounds": [
                {
                    "round_index": rp.round_index,
                    "dur": rp.dur,
                    "steps": [
                        {"depth": depth, "label": label, "dur": dur}
                        for depth, label, dur in rp.steps
                    ],
                }
                for rp in analysis.rounds[: args.top]
            ],
            "phases": {
                kind: {"count": count, "total_s": total, "self_s": self_time}
                for kind, (count, total, self_time) in sorted(
                    analysis.phases.items()
                )
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(analysis.format(top=args.top))
    if analysis.orphan_count:
        print(
            f"ERROR: {analysis.orphan_count} orphan span(s) — parent ids "
            f"missing from the trace, the causal tree is incomplete",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import dataclasses

    if getattr(args, "trace_action", None) == "analyze":
        return _cmd_trace_analyze(args)

    from repro.experiments.runner import CatalogCache
    from repro.obs import (
        METRICS,
        JsonlTracer,
        read_trace,
        reset_metrics,
        set_tracing,
        summarize_trace,
    )
    from repro.utils.rng import RngFactory

    entry = get_experiment(args.experiment)
    scale = Scale(args.scale)
    instance, grid_epsilon = _representative_instance(entry, scale, args.seed)
    epsilon = args.epsilon if args.epsilon is not None else grid_epsilon
    solver = _SOLVERS[args.algo](epsilon)

    if args.output.exists():
        args.output.unlink()  # each trace run produces a fresh stream
    reset_metrics()
    tracer = JsonlTracer(args.output)
    # Process-wide install so catalog builds and cache lookups trace too;
    # the solver itself gets the tracer instance through its trace= field.
    set_tracing(tracer)
    rng_factory = RngFactory(args.seed)
    cache = CatalogCache()
    total_rounds = 0
    payoffs: List[float] = []
    converged = True
    try:
        try:
            solver = dataclasses.replace(solver, trace=tracer)
        except TypeError:
            pass  # solvers without a trace= field still trace via the sink
        for sub_problem in instance.subproblems():
            with METRICS.timer("phase.catalog"):
                catalog, _ = cache.get(sub_problem, epsilon)
            seed = rng_factory.get(f"{solver.name}:{sub_problem.center.center_id}")
            with METRICS.timer("phase.solve"):
                result = solver.solve(sub_problem, catalog=catalog, seed=seed)
            total_rounds += result.rounds
            converged = converged and result.converged
            payoffs.extend(result.assignment.payoffs)
        tracer.event("metrics.snapshot", metrics=METRICS.snapshot())
    finally:
        set_tracing(None)
        tracer.close()

    if args.prometheus:
        print(METRICS.render_prometheus(), end="")
        print()
    summary = summarize_trace(read_trace(args.output))
    print(f"algorithm        : {solver.name}")
    print(f"workers          : {len(payoffs)}")
    print(f"payoff difference: {payoff_difference(payoffs):.6f}")
    print(f"average payoff   : {average_payoff(payoffs):.6f}")
    print(f"rounds           : {total_rounds}")
    print(f"converged        : {converged}")
    print()
    print(summary.format())
    print()
    print(f"trace written to {args.output}")
    if summary.total_rounds(args.algo) not in (0, total_rounds):
        print(
            f"WARNING: trace records {summary.total_rounds(args.algo)} rounds "
            f"but the solver reported {total_rounds}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import format_report, run_bench

    _apply_kernel(args)
    report = run_bench(
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        output=args.output,
        profile=args.profile,
    )
    print(format_report(report))
    print(f"report written to {args.output}")
    if not report["kernel"]["identical"]:
        print(
            "ERROR: scalar and vectorized kernel catalog builds disagreed — "
            "the bench is reporting a correctness bug, not a performance "
            "number",
            file=sys.stderr,
        )
        return 1
    if not (report["fgt"]["identical"] and report["iegt"]["identical"]):
        print(
            "ERROR: scalar and vectorized engines disagreed — the bench is "
            "reporting a correctness bug, not a performance number",
            file=sys.stderr,
        )
        return 1
    if not report["catalog_delta"]["identical"]:
        print(
            "ERROR: incremental catalog refresh diverged from a full "
            "rebuild — the bench is reporting a correctness bug, not a "
            "performance number",
            file=sys.stderr,
        )
        return 1
    equity = report["temporal_fairness"]
    if not (equity["improved"] and equity["within_budget"]):
        print(
            "ERROR: the equity ledger failed its temporal-fairness gate — "
            "ledger-weighted dispatch must strictly lower the rolling Gini "
            f"at under {equity['budget_pct']:.0f}% efficiency cost "
            f"(improved={equity['improved']} "
            f"within_budget={equity['within_budget']})",
            file=sys.stderr,
        )
        return 1
    shards = report["shards"]
    if not shards["identical"]:
        print(
            "ERROR: the sharded pool's assignments diverged from the "
            "single-process engine — shard layout must never change "
            "results",
            file=sys.stderr,
        )
        return 1
    if not (shards["recovered_identical"] and shards["respawns"] >= 1):
        print(
            "ERROR: the shard pool failed its kill-recover gate — a "
            "SIGKILLed shard must respawn, replay its journal segment, "
            "and finish bit-identical to the fault-free run "
            f"(respawns={shards['respawns']} "
            f"recovered_identical={shards['recovered_identical']})",
            file=sys.stderr,
        )
        return 1
    obs = report["obs_overhead"]
    if not obs["identical"]:
        print(
            "ERROR: tracing changed the dispatch assignments — "
            "observation must never alter behaviour",
            file=sys.stderr,
        )
        return 1
    if not obs["within_budget"]:
        # Advisory: single-run wall times flake, so a budget breach warns
        # instead of failing; the recorded numbers make real regressions
        # visible in the BENCH_core.json diff.
        print(
            f"WARNING: tracing-disabled dispatch regressed "
            f"{obs['regression_pct']:+.1f}% vs the tracked baseline "
            f"(budget {obs['budget_pct']:.0f}%)",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.obs.metrics import METRICS
    from repro.service import (
        BreakerConfig,
        DispatchEngine,
        DispatchServer,
        FaultPlan,
        WorldJournal,
        WorldState,
    )
    from repro.vdps.store import CatalogStore

    _apply_kernel(args)
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.shards > 1:
        return _serve_sharded(args)
    recovered = False
    if args.journal is not None and args.journal.exists():
        # Crash recovery: replay the write-ahead journal into a
        # bit-identical world and keep journaling to the same file.
        state = WorldState.recover(
            args.journal, compact_every=args.journal_compact_every
        )
        recovered = True
    else:
        if args.input is not None:
            instance = load_instance(args.input)
        else:
            config = GMissionConfig(
                n_tasks=args.tasks,
                n_workers=args.workers,
                n_delivery_points=args.delivery_points,
            )
            instance = generate_gmission_like(config, seed=args.seed)

        state = WorldState(instance.centers, travel=instance.travel)
        if args.journal is not None:
            state.attach_journal(
                WorldJournal(
                    args.journal, compact_every=args.journal_compact_every
                )
            )
        # Attach the fleet through the churn path (assigns free-floating
        # workers to their nearest center, exactly like subproblems()).
        state.add_workers(instance.workers)
        if not args.no_initial_tasks:
            # The instance's relative expiries become absolute at t=0.
            state.add_tasks(
                [
                    {
                        "task_id": task.task_id,
                        "dp_id": task.delivery_point_id,
                        "expiry": task.expiry,
                        "reward": task.reward,
                    }
                    for center in instance.centers
                    for task in center.tasks
                ]
            )

    if args.equity:
        # Attach (or keep the recovered) ledger before the engine starts;
        # decay/window only shape a fresh ledger.
        state.enable_equity(decay=args.equity_decay, window=args.equity_window)

    solver = _SOLVERS[args.algorithm](args.epsilon)
    equity_kwargs = {}
    if args.equity:
        equity_kwargs["equity_mode"] = True
        if args.equity_strength is not None:
            equity_kwargs["equity_strength"] = args.equity_strength
    engine = DispatchEngine(
        state,
        solver,
        epsilon=args.epsilon,
        verify=args.verify,
        seed=args.seed,
        **equity_kwargs,
        solve_deadline_s=args.solve_deadline_s,
        solve_retries=args.solve_retries,
        breaker=BreakerConfig(
            failure_threshold=args.breaker_failures,
            cooldown_s=args.breaker_cooldown_s,
        ),
        faults=None if args.faults is None else FaultPlan.from_spec(args.faults),
        delta_catalog=not args.no_delta_catalog,
        catalog_store=(
            None
            if args.catalog_store is None or args.no_delta_catalog
            else CatalogStore(args.catalog_store)
        ),
    )
    server = DispatchServer(engine, host=args.host, port=args.port)
    if args.port_file is not None:
        args.port_file.parent.mkdir(parents=True, exist_ok=True)
        args.port_file.write_text(f"{server.port}\n")

    print(f"dispatch service listening on {server.url}")
    print(
        f"  algorithm={engine.solver_name} epsilon={args.epsilon} "
        f"verify={args.verify} seed={args.seed}"
    )
    print(
        f"  centers={len(state.centers)} workers={state.worker_count} "
        f"pending_tasks={state.pending_task_count}"
    )
    if args.journal is not None:
        print(
            f"  journal={args.journal}"
            f"{' (recovered from previous run)' if recovered else ''}"
        )
    if args.equity:
        ledger = state.equity
        print(
            f"  equity: strength={engine.equity_strength} "
            f"decay={ledger.decay} window={ledger.window} "
            f"ledger_rounds={ledger.rounds}"
        )
    if args.solve_deadline_s is not None or engine.faults is not None:
        print(
            f"  fault-tolerant: solve_deadline_s={args.solve_deadline_s} "
            f"retries={args.solve_retries} "
            f"breaker={args.breaker_failures}x/{args.breaker_cooldown_s}s"
            + (
                f" faults=[{engine.faults.describe()}]"
                if engine.faults is not None
                else ""
            )
        )
    print(
        "  endpoints: POST /tasks /workers /dispatch /shutdown · "
        "GET /assignments /healthz /metrics /slo /equity"
    )
    sys.stdout.flush()

    def _stop(signum, frame):  # noqa: ARG001
        print("signal received, draining in-flight dispatch ...", file=sys.stderr)
        server.request_stop()

    previous = {
        sig: signal.signal(sig, _stop) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print()
    print(f"served {engine.rounds_dispatched} dispatch rounds; final metrics:")
    print(METRICS.format())
    return 0


def _serve_sharded(args: argparse.Namespace) -> int:
    """``serve --shards N``: the supervised multi-process pool.

    The layout always comes from the instance (CSV dir or generated
    city); per-shard journal segments under ``--journal`` (a directory
    here) restore each partition's dynamic state, so a recovering run
    must be started with the same input/seed as the crashed one.
    """
    import signal

    from repro.obs.metrics import METRICS
    from repro.service import DispatchServer, FaultPlan, ShardedDispatchEngine

    if args.equity:
        print(
            "error: --equity is not supported with --shards > 1 "
            "(the cross-round ledger needs a single world)",
            file=sys.stderr,
        )
        return 2
    if args.catalog_store is not None:
        print(
            "warning: --catalog-store is ignored with --shards > 1 "
            "(shard workers rebuild their catalogs on boot)",
            file=sys.stderr,
        )

    if args.input is not None:
        instance = load_instance(args.input)
    else:
        config = GMissionConfig(
            n_tasks=args.tasks,
            n_workers=args.workers,
            n_delivery_points=args.delivery_points,
        )
        instance = generate_gmission_like(config, seed=args.seed)
    recovered = args.journal is not None and any(
        args.journal.glob("shard-*.jsonl")
    )

    solver = _SOLVERS[args.algorithm](args.epsilon)
    engine = ShardedDispatchEngine(
        instance.centers,
        solver,
        travel=instance.travel,
        epsilon=args.epsilon,
        shards=args.shards,
        verify=args.verify,
        seed=args.seed,
        solve_deadline_s=args.solve_deadline_s,
        solve_retries=args.solve_retries,
        faults=None if args.faults is None else FaultPlan.from_spec(args.faults),
        delta_catalog=not args.no_delta_catalog,
        journal_dir=args.journal,
        journal_compact_every=args.journal_compact_every,
        queue_bound=args.queue_bound,
    )
    state = engine.state
    if not recovered:
        # Seed through the churn path exactly like single-process serve;
        # a recovered run already carries fleet and queue in its segments.
        state.add_workers(instance.workers)
        if not args.no_initial_tasks:
            state.add_tasks(
                [
                    {
                        "task_id": task.task_id,
                        "dp_id": task.delivery_point_id,
                        "expiry": task.expiry,
                        "reward": task.reward,
                    }
                    for center in instance.centers
                    for task in center.tasks
                ]
            )

    server = DispatchServer(engine, host=args.host, port=args.port)
    if args.port_file is not None:
        args.port_file.parent.mkdir(parents=True, exist_ok=True)
        args.port_file.write_text(f"{server.port}\n")

    print(f"dispatch service listening on {server.url}")
    print(
        f"  algorithm={engine.solver_name} epsilon={args.epsilon} "
        f"verify={args.verify} seed={args.seed}"
    )
    print(
        f"  shards={args.shards} queue_bound={args.queue_bound} "
        f"centers={len(state.centers)} workers={state.worker_count} "
        f"pending_tasks={state.pending_task_count}"
    )
    for shard_id, entry in sorted(engine.shard_health().items()):
        print(
            f"    shard {shard_id}: pid={entry['pid']} "
            f"centers={','.join(entry['centers'])} status={entry['status']}"
        )
    if args.journal is not None:
        print(
            f"  journal_dir={args.journal}"
            f"{' (segments recovered from previous run)' if recovered else ''}"
        )
    if engine.faults is not None:
        print(f"  faults=[{engine.faults.describe()}]")
    print(
        "  endpoints: POST /tasks /workers /dispatch /shutdown · "
        "GET /assignments /healthz /metrics /slo"
    )
    sys.stdout.flush()

    def _stop(signum, frame):  # noqa: ARG001
        print("signal received, draining in-flight dispatch ...", file=sys.stderr)
        server.request_stop()

    previous = {
        sig: signal.signal(sig, _stop) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print()
    print(f"served {engine.rounds_dispatched} dispatch rounds; final metrics:")
    print(METRICS.format())
    return 0


def _cmd_equity(args: argparse.Namespace) -> int:
    import json

    from repro.equity.report import compare_scenario
    from repro.sim.scenarios import SCENARIOS, get_scenario

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    kwargs = dict(
        algorithm=args.algorithm,
        seed=args.seed,
        epsilon=args.epsilon,
        decay=args.decay,
        window=args.window,
    )
    if args.strength is not None:
        kwargs["strength"] = args.strength
    comparisons = [
        compare_scenario(get_scenario(name, rounds=args.rounds), **kwargs)
        for name in names
    ]
    payload = {
        "rounds": args.rounds,
        "seed": args.seed,
        "algorithm": args.algorithm.upper(),
        "scenarios": [c.as_dict() for c in comparisons],
        "all_improved": all(c.improved for c in comparisons),
        "all_within_budget": all(c.within_budget for c in comparisons),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for comparison in comparisons:
            print(comparison.format())
            print()
        print(
            f"all_improved={payload['all_improved']} "
            f"all_within_budget={payload['all_within_budget']}"
        )
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        if not args.json:
            print(f"report written to {args.output}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "list-experiments": _cmd_list_experiments,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "equity": _cmd_equity,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
