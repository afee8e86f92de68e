"""Command-line interface: list, inspect, run, and sweep experiments.

Usage::

    python -m repro list
    python -m repro params E4
    python -m repro run E7
    python -m repro run E4 --set n=100000 --set eps=0.02 --backend count
    python -m repro run E5 --profile full --seed 7
    python -m repro run-all --jobs 4 --cache .repro-cache
    python -m repro sweep E13 --replicates 8 --jobs 4 --backends count,agent
    python -m repro sweep E4 --grid n=1e4,1e5 --grid eps=0.01:0.05:5 --jobs 4
    python -m repro cache prune --cache .repro-cache --max-age 7d --max-size 100M
    python -m repro serve --port 8731 --cache .fabric-cache --checkpoint .fabric.ckpt
    python -m repro worker --remote http://127.0.0.1:8731
    python -m repro sweep E4 --grid n=1e4,1e5 --remote http://127.0.0.1:8731

Every experiment declares a typed :class:`~repro.params.ParamSpace`
(``repro params <id>`` prints it): ``--profile`` picks a named override
set (``fast``/``full``), ``--set name=value`` overrides single knobs,
and ``sweep --grid name=v1,v2`` / ``name=start:stop:count`` runs the
cartesian product of grid axes.  ``run``/``run-all``/``sweep`` all
execute through the run orchestrator (:mod:`repro.runner`): ``--jobs N``
fans tasks out across worker processes (records are identical for every
``N``), and ``--cache DIR`` makes re-runs incremental through the
on-disk result cache.

Cross-machine fan-out runs on the distributed sweep fabric
(:mod:`repro.fabric`): ``repro serve`` starts a coordinator that leases
tasks over HTTP and dedups against a shared result cache,
``repro worker --remote URL`` pulls and executes leases, and
``repro sweep ... --remote URL`` submits a grid and blocks for a report
that is byte-identical to a local ``--jobs N`` run (modulo the
provenance fields).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from repro.engine.snapshot import (
    FileSnapshotChannel,
    SnapshotState,
    SnapshotStore,
)
from repro.experiments import all_experiments, get_spec
from repro.utils.errors import FabricUnavailable, InvalidParameterError

#: Unit multipliers for the ``--max-age`` spelling (seconds).
_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}

#: Unit multipliers for the ``--max-size`` spelling (bytes).
_SIZE_UNITS = {"b": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def parse_age(spec: str) -> float:
    """``"7d"`` / ``"12h"`` / ``"3600"`` -> seconds."""
    text = str(spec).strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError as error:
        raise InvalidParameterError(
            f"malformed age {spec!r}: expected NUMBER[s|m|h|d|w]") from error
    if not math.isfinite(value) or value < 0:
        raise InvalidParameterError(
            f"age must be finite and >= 0, got {spec!r}")
    return value * unit


def parse_size(spec: str) -> int:
    """``"100M"`` / ``"2G"`` / ``"4096"`` -> bytes."""
    text = str(spec).strip().lower()
    unit = 1
    if text and text[-1] in _SIZE_UNITS:
        unit = _SIZE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError as error:
        raise InvalidParameterError(
            f"malformed size {spec!r}: expected NUMBER[K|M|G]") from error
    if not math.isfinite(value) or value < 0:
        raise InvalidParameterError(
            f"size must be finite and >= 0, got {spec!r}")
    return int(value * unit)


def _overrides_of(args, experiment_id: str) -> dict:
    """The ``--set`` overrides validated against one experiment's schema."""
    from repro.params import parse_sets

    return parse_sets(getattr(args, "set", None),
                      get_spec(experiment_id).params)


def _add_orchestration_arguments(parser, jobs: bool = True) -> None:
    """The runner knobs shared by ``run``, ``run-all``, ``sweep``, and
    ``serve`` (which takes no ``--jobs``: workers decide parallelism)."""
    parser.add_argument(
        "--profile", default="fast", metavar="NAME",
        help=("named parameter profile to resolve ('fast' is the "
              "default, 'full' the paper-scale one; experiments may "
              "declare more)"))
    parser.add_argument(
        "--set", action="append", default=None, metavar="NAME=VALUE",
        help=("override one declared parameter (repeatable), e.g. "
              "--set n=100000 --set eps=0.02; see 'repro params <id>' "
              "for an experiment's schema"))
    parser.add_argument(
        "--seed", type=int, default=12345,
        help="random seed (default 12345)")
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help=("worker processes to fan tasks out across (default 1; "
                  "results are identical for any value)"))
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help=("directory of the on-disk result cache, keyed by "
              "(experiment, params, seed, backend, code-version); "
              "re-runs become incremental"))


def _add_sweep_shape_arguments(parser) -> None:
    """The plan-shaping knobs shared by ``sweep`` and ``serve``."""
    parser.add_argument(
        "--replicates", type=int, default=4, metavar="R",
        help=("independent replicates per backend (default 4); replicate "
              "i runs with the deterministic seed task_seed(seed, i); "
              "ignored when --grid is given"))
    parser.add_argument(
        "--backends", default=None, metavar="B1,B2",
        help=("comma-separated engine grid, e.g. 'count,agent' or "
              "'default' for the experiment's own choice (the default)"))
    parser.add_argument(
        "--grid", action="append", default=None, metavar="NAME=SPEC",
        help=("sweep a declared parameter over a value grid "
              "(repeatable; axes combine as a cartesian product): "
              "NAME=v1,v2,... lists values, NAME=start:stop:count is "
              "count evenly spaced values, e.g. --grid n=1e4,1e5 "
              "--grid eps=0.01:0.05:5"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction harness for 'Game Dynamics and "
                     "Equilibrium Computation in the Population Protocol "
                     "Model' (PODC 2024)."))
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all experiments")

    params_parser = subparsers.add_parser(
        "params",
        help="print an experiment's declared parameter schema")
    params_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (E1..E16); omit with --all")
    params_parser.add_argument(
        "--all", action="store_true",
        help="dump every registered experiment's schema")
    params_parser.add_argument(
        "--json", action="store_true",
        help="emit the schema as JSON instead of a table")

    cache_parser = subparsers.add_parser(
        "cache", help="inspect and evict the on-disk result cache")
    cache_subparsers = cache_parser.add_subparsers(
        dest="cache_command", required=True)
    prune_parser = cache_subparsers.add_parser(
        "prune", help="evict entries by age and/or total size")
    prune_parser.add_argument(
        "--cache", required=True, metavar="DIR",
        help="cache directory to prune")
    prune_parser.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="evict entries older than AGE (e.g. 3600, 12h, 7d)")
    prune_parser.add_argument(
        "--max-size", default=None, metavar="SIZE",
        help=("evict oldest entries until the cache fits SIZE "
              "(e.g. 4096, 100M, 2G)"))
    info_parser = cache_subparsers.add_parser(
        "info", help="print entry count and total size")
    info_parser.add_argument(
        "--cache", required=True, metavar="DIR",
        help="cache directory to inspect")
    info_parser.add_argument(
        "--json", action="store_true",
        help=("emit the stats as one strict-JSON object "
              "(the fabric-dashboard / service-consumer feed)"))

    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment",
        help="experiment id (E1..E16) or 'all'")
    _add_orchestration_arguments(run_parser)
    run_parser.add_argument(
        "--backend", choices=["agent", "count", "auto"], default=None,
        help=("simulation engine for population experiments: per-agent "
              "('agent'), exact count-level ('count'), or 'auto' to "
              "pick by population size against the measured crossovers "
              "pinned in repro.engine.dispatch; experiments that do not "
              "simulate populations ignore it"))

    runall_parser = subparsers.add_parser(
        "run-all",
        help="run every experiment, optionally across worker processes")
    _add_orchestration_arguments(runall_parser)
    runall_parser.add_argument(
        "--backend", choices=["agent", "count", "auto"], default=None,
        help="simulation engine for population experiments")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help=("sweep one experiment: replicates over a backends grid, "
              "or a --grid over its declared parameters"))
    sweep_parser.add_argument("experiment", help="experiment id (E1..E16)")
    _add_sweep_shape_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--output", default=None, metavar="FILE",
        help=("stream one strict-JSON record per task to FILE (JSON "
              "Lines): the task coordinates, timing, provenance "
              "(source/worker), and the full report — the "
              "offline-analysis feed; each record is appended the "
              "moment its task lands, so a killed sweep's FILE already "
              "holds every completed cell"))
    sweep_parser.add_argument(
        "--series", default=None, metavar="DIR",
        help=("stream per-task observation series to JSONL files under "
              "DIR (keyed by the tasks' cache keys): experiments that "
              "open observation streams write there with constant "
              "memory, and each record/cache entry points at its "
              "series files (local sweeps only)"))
    sweep_parser.add_argument(
        "--remote", default=None, metavar="URL",
        help=("execute on the distributed sweep fabric: submit tasks to "
              "the 'repro serve' coordinator at URL and block for the "
              "report (byte-identical to a local run apart from "
              "provenance; --jobs is ignored — connected workers set "
              "the parallelism)"))
    sweep_parser.add_argument(
        "--shutdown", action="store_true",
        help=("after a --remote sweep completes, ask the coordinator "
              "to shut down (idle workers then drain cleanly)"))
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help=("checkpoint partial tasks under CACHE/snapshots (needs "
              "--cache) so a killed sweep's rerun picks them up "
              "mid-trajectory; resumed records are byte-identical to "
              "an uninterrupted run (remote sweeps checkpoint on the "
              "coordinator automatically)"))
    sweep_parser.add_argument(
        "--token", default=None, metavar="TOKEN",
        help=("shared fabric token for --remote, matching the "
              "coordinator's 'repro serve --token'"))
    _add_orchestration_arguments(sweep_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help=("start a fabric coordinator: lease tasks to "
              "'repro worker' processes over HTTP, dedup results "
              "through a shared cache, checkpoint queue state"))
    serve_parser.add_argument(
        "experiment", nargs="?", default=None,
        help=("optional experiment id whose sweep plan to preload "
              "(shaped by --grid/--replicates/--backends); without it "
              "the coordinator starts empty and waits for "
              "'repro sweep --remote' submissions"))
    _add_sweep_shape_arguments(serve_parser)
    _add_orchestration_arguments(serve_parser, jobs=False)
    serve_parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help=("persist queue state to FILE (atomic rewrite on every "
              "mutation); a killed coordinator restarted with the same "
              "--checkpoint and --cache resumes where it stopped"))
    serve_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8731, metavar="PORT",
        help="port to bind (default 8731; 0 picks an ephemeral port)")
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help=("seconds a lease stays valid without a heartbeat "
              "(default 30); expired leases requeue their task"))
    serve_parser.add_argument(
        "--token", default=None, metavar="TOKEN",
        help=("require this shared token on every request "
              "(X-Repro-Token header); workers and remote sweeps must "
              "pass the same --token or get HTTP 401"))
    serve_parser.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request (default: quiet)")

    worker_parser = subparsers.add_parser(
        "worker",
        help=("start a fabric worker: pull leases from a coordinator, "
              "execute them, push strict-JSON results with retries"))
    worker_parser.add_argument(
        "--remote", required=True, metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8731")
    worker_parser.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity in reports (default: host-pid)")
    worker_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle sleep between empty lease polls (default 0.5)")
    worker_parser.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help=("exit cleanly after this many consecutive idle seconds "
              "(default: poll until the coordinator shuts down)"))
    worker_parser.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit cleanly after completing N tasks (default: unlimited)")
    worker_parser.add_argument(
        "--retries", type=int, default=6, metavar="N",
        help="transport retries per request (default 6)")
    worker_parser.add_argument(
        "--backoff", type=float, default=0.25, metavar="SECONDS",
        help="initial retry backoff, doubling per attempt (default 0.25)")
    worker_parser.add_argument(
        "--token", default=None, metavar="TOKEN",
        help=("shared fabric token matching the coordinator's "
              "'repro serve --token'"))

    sim_parser = subparsers.add_parser(
        "simulate", help="run one k-IGT simulation and report vs theory")
    sim_parser.add_argument("--n", type=int, default=400,
                            help="population size (default 400)")
    sim_parser.add_argument("--k", type=int, default=6,
                            help="generosity grid size (default 6)")
    sim_parser.add_argument("--alpha", type=float, default=0.3,
                            help="AC fraction (default 0.3)")
    sim_parser.add_argument("--beta", type=float, default=0.2,
                            help="AD fraction (default 0.2)")
    sim_parser.add_argument("--g-max", type=float, default=0.6,
                            help="maximum generosity (default 0.6)")
    sim_parser.add_argument("--steps", type=int, default=None,
                            help="interactions (default: 2x Thm 2.7 bound)")
    sim_parser.add_argument("--noise", type=float, default=0.0,
                            help="observation noise (default 0)")
    sim_parser.add_argument("--seed", type=int, default=0,
                            help="random seed (default 0)")
    sim_parser.add_argument(
        "--weights", default="uniform", metavar="SPEC",
        help=("activity-weight spec for heterogeneous scheduling: "
              "uniform (default), powerlaw[:alpha], or twoclass[:ratio]; "
              "pairs are then sampled weight-proportionally"))
    sim_parser.add_argument(
        "--topology", default="complete", metavar="SPEC",
        help=("interaction-graph spec restricting which pairs may meet: "
              "complete (default: the paper's uniform scheduler), "
              "ring[:w], grid[:rows], smallworld[:p], or "
              "powerlaw[:alpha]; non-complete graphs run the quenched "
              "process on the agent backend"))
    sim_parser.add_argument(
        "--backend", choices=["agent", "count", "auto"], default="agent",
        help=("simulation engine: 'agent' tracks every agent, 'count' "
              "simulates the exact count chain (much faster at large n), "
              "'auto' picks by population size against the measured "
              "crossovers pinned in repro.engine.dispatch"))
    sim_parser.add_argument(
        "--observe-every", type=int, default=None, metavar="N",
        help=("observation cadence: record the strategy counts every "
              "N interactions (--observe and --observe-every go "
              "together)"))
    sim_parser.add_argument(
        "--observe", default=None, metavar="SPEC",
        help=("observer sink for the snapshots: 'jsonl:PATH' appends "
              "strict-JSON lines with constant memory, 'mean' / "
              "'extinction' keep online summaries, 'degree-profile' "
              "averages GTFT generosity by vertex degree (needs a "
              "non-complete --topology and the agent backend); "
              "see repro.engine.observe"))
    sim_parser.add_argument(
        "--snapshots", default=None, metavar="DIR",
        help=("run resumably: checkpoint engine snapshots under DIR, "
              "and on restart pick the run up mid-trajectory — the "
              "trajectory (and any --observe jsonl stream) is "
              "byte-identical to an uninterrupted run's; the run is cut "
              "into segments of 8 x max(--observe-every, steps/64) "
              "interactions (about 8 per run) with a checkpoint after "
              "each; a rerun must repeat every argument but the paths, "
              "or remove DIR"))
    return parser


def _simulate_sink(args, grid, graph):
    """The observer sink of a ``repro simulate`` run, or ``None``.

    ``degree-profile`` is wired here rather than in
    :func:`repro.engine.observe.sink_from_spec` because only the caller
    knows the class labels (vertex degrees) and per-state values (GTFT
    generosity levels; AC/AD excluded as ``NaN``).
    """
    if args.observe is None:
        return None
    from repro.engine import sink_from_spec

    profile_classes = profile_values = None
    if args.observe == "degree-profile":
        import numpy as np

        if graph is None:
            raise InvalidParameterError(
                "--observe degree-profile needs a non-complete "
                "--topology: it averages GTFT generosity by vertex "
                "degree")
        profile_classes = graph.degrees
        profile_values = np.concatenate([grid.values, [np.nan, np.nan]])
    return sink_from_spec(args.observe, profile_classes=profile_classes,
                          profile_values=profile_values)


def _report_simulate_sink(args, sink) -> None:
    """Print where the observations went (stream stats or summary)."""
    if sink is None:
        return
    from repro.engine import JsonlSink, Reducer

    if isinstance(sink, JsonlSink):
        position = sink.position()
        sink.close()
        print(f"streamed {position['records']} observation record(s) "
              f"({position['bytes']} bytes) to {sink.path}")
    elif isinstance(sink, Reducer):
        print("observer summary: "
              + json.dumps(sink.summary(), sort_keys=True,
                           allow_nan=False))


#: The ``repro simulate`` arguments that define its trajectory.
_SIMULATE_RUN_ARGUMENTS = ("n", "k", "alpha", "beta", "g_max", "noise",
                           "backend", "weights", "topology", "seed",
                           "steps", "observe_every")


class _SimulateChannel(FileSnapshotChannel):
    """The ``--snapshots DIR`` checkpoint of one ``repro simulate`` run.

    Saves carry ``run``, a digest of the arguments that define the
    trajectory (paths left out).  A checkpoint carrying another digest
    is refused before anything is restored or streamed; one without a
    digest, written before checkpoints carried it, resumes.
    """

    def __init__(self, root, args, steps: int):
        super().__init__(SnapshotStore(root), "simulate")
        fields = {name: getattr(args, name)
                  for name in _SIMULATE_RUN_ARGUMENTS}
        fields["steps"] = steps  # resolved when --steps is left out
        self.run = hashlib.sha256(
            json.dumps(fields, sort_keys=True).encode()).hexdigest()

    def load(self) -> SnapshotState | None:
        found = super().load()
        if found is not None and found.payload.get("run", self.run) \
                != self.run:
            names = ", ".join(name.replace("_", "-")
                              for name in _SIMULATE_RUN_ARGUMENTS)
            raise InvalidParameterError(
                f"cannot resume the checkpoint in {self}: a simulate run "
                f"that differs from this one in one of {names} wrote it, "
                f"so it would not reproduce this run; remove {self} to "
                f"start over")
        return found

    def save(self, snapshot: SnapshotState) -> None:
        super().save(SnapshotState(
            kind=snapshot.kind, payload={**snapshot.payload, "run": self.run},
            version=snapshot.version))


def _run_simulate(args) -> int:
    from repro.analysis.tables import format_table
    from repro.core.igt import GenerosityGrid
    from repro.core.population_igt import IGTSimulation, PopulationShares
    from repro.core.theory import igt_mixing_upper_bound
    from repro.engine import topology_from_spec, weights_from_spec

    import numpy as np

    if args.observe is not None and args.observe_every is None:
        raise InvalidParameterError(
            "--observe needs --observe-every N (the observation cadence)")
    if args.observe_every is not None and args.observe is None:
        raise InvalidParameterError(
            "--observe-every needs --observe SPEC (the sink that receives "
            "the observations)")
    gamma = 1.0 - args.alpha - args.beta
    shares = PopulationShares(alpha=args.alpha, beta=args.beta, gamma=gamma)
    grid = GenerosityGrid(k=args.k, g_max=args.g_max)
    activity = weights_from_spec(args.weights, args.n)
    graph = topology_from_spec(args.topology, args.n)
    steps = args.steps
    if steps is None:
        steps = int(2 * igt_mixing_upper_bound(args.k, shares, args.n))
        if activity is not None:
            # The slowest agents initiate at rate w_min/W instead of
            # 1/n; stretch the default budget accordingly (same
            # correction E6 applies to its burn-in).
            steps = int(steps * float(activity.sum())
                        / (args.n * float(activity.min())))
    sim = IGTSimulation(n=args.n, shares=shares, grid=grid, seed=args.seed,
                        observation_noise=args.noise, backend=args.backend,
                        weights=activity, topology=graph)
    sink = _simulate_sink(args, grid, graph)
    print(f"k-IGT: n={args.n}, (alpha,beta,gamma)=({args.alpha}, "
          f"{args.beta}, {gamma:.3g}), k={args.k}, g_max={args.g_max}, "
          f"noise={args.noise}, steps={steps}, backend={args.backend}, "
          f"weights={args.weights}, topology={args.topology}")
    if args.snapshots is not None:
        from repro.engine import run_resumable

        channel = _SimulateChannel(args.snapshots, args, steps)
        # About 8 segments per run (SEGMENT_CHECKS checks of steps/64
        # each), never fewer than 8 observations per segment.
        check = max(args.observe_every or 1, steps // 64)
        run_resumable(sim, steps, None, check_stop_every=check,
                      channel=channel, observe_every=args.observe_every,
                      observe=sink)
        channel.clear()
    else:
        sim.run(steps, observe_every=args.observe_every, observe=sink)
    _report_simulate_sink(args, sink)
    # Heterogeneous GTFT activity weights mix per-agent walk biases, and
    # an interaction graph gives each GTFT agent its own AD-neighbor
    # bias — no single Ehrenfest chain matches either, so report
    # simulation only there.  Every other embedding error (e.g. beta=0
    # needs an AD agent) stays hard.
    gtft_weights = (None if activity is None
                    else activity[sim.n_ac + sim.n_ad:])
    if graph is not None:
        process = None
        print("(no Ehrenfest embedding: the interaction graph gives "
              "each GTFT agent its own AD-neighbor bias)")
    elif gtft_weights is not None \
            and not np.allclose(gtft_weights, gtft_weights[0]):
        process = None
        print("(no Ehrenfest embedding: GTFT agents carry heterogeneous "
              "activity weights, so per-agent stationary biases mix)")
    else:
        process = sim.equivalent_ehrenfest(exact=True)
    mu = sim.empirical_mu()
    if process is not None:
        weights = process.stationary_weights()
        rows = [[f"g_{j + 1} = {grid.value(j):.3f}", f"{weights[j]:.4f}",
                 f"{mu[j]:.4f}"] for j in range(args.k)]
        print(format_table(["strategy", "stationary p_j", "simulated"],
                           rows))
        theory_generosity = float(grid.values @ weights)
        print(f"average generosity: simulated "
              f"{sim.average_generosity():.4f}, "
              f"stationary theory {theory_generosity:.4f} "
              f"(lambda = {process.lam:.3f})")
    else:
        rows = [[f"g_{j + 1} = {grid.value(j):.3f}", f"{mu[j]:.4f}"]
                for j in range(args.k)]
        print(format_table(["strategy", "simulated"], rows))
        print(f"average generosity: simulated "
              f"{sim.average_generosity():.4f}")
    return 0


def _render_result(result) -> None:
    print(result.report.render())
    cached = " (cached)" if result.from_cache else ""
    print(f"({result.seconds:.1f}s){cached}")
    print()


def _run_plan_and_render(ids, args) -> int:
    """Execute experiments through the orchestrator and render each report.

    With ``--jobs 1`` each experiment is executed (and its report printed)
    as soon as it finishes — long serial runs stream progress exactly like
    the pre-orchestrator CLI.  With parallel jobs the plan executes as one
    batch and the reports print afterwards, in task order.
    """
    from repro.runner import execute, experiments_plan

    profile = args.profile
    if getattr(args, "set", None) and len(ids) > 1:
        raise InvalidParameterError(
            "--set applies to a single experiment; run ids one at a time "
            "or use per-experiment profiles")
    # Fail fast on unknown ids / params before any work is scheduled.
    overrides = {}
    for experiment_id in ids:
        overrides = _overrides_of(args, experiment_id)
        get_spec(experiment_id).resolve(profile, overrides)
    if args.jobs == 1:
        all_pass = True
        for experiment_id in ids:
            plan = experiments_plan([experiment_id], profile=profile,
                                    params=overrides, seed=args.seed,
                                    backend=args.backend,
                                    cache_dir=args.cache)
            result = execute(plan).results[0]
            _render_result(result)
            all_pass = all_pass and result.report.all_checks_pass
        return 0 if all_pass else 1
    plan = experiments_plan(ids, profile=profile, params=overrides,
                            seed=args.seed, backend=args.backend,
                            jobs=args.jobs, cache_dir=args.cache)
    report = execute(plan)
    for result in report.results:
        _render_result(result)
    return 0 if report.all_checks_pass else 1


def _print_pass_rates(report, cache_dir) -> None:
    for name, (passed, total) in report.check_pass_rates().items():
        print(f"[{passed}/{total}] {name}")
    if cache_dir is not None:
        print(f"cache hits: {report.cache_hits}/{len(report.results)}")


class _RecordWriter:
    """Streams one strict-JSON record per task result to a JSONL file.

    ``execute(record_stream=...)`` calls it with each
    :class:`~repro.runner.plan.TaskResult` the moment the task-order
    done-prefix grows; every record is flushed on write, so a killed
    sweep's output file already holds each completed cell.  Each line
    carries the task coordinates, execution provenance (timing,
    ``source``, ``worker``), and the full report wire form — the same
    payload the cache stores, byte-identical to the historical
    dump-at-the-end format.
    """

    def __init__(self, path):
        self.path = path
        self.written = 0
        self._handle = open(path, "w", encoding="utf-8")

    def __call__(self, result) -> None:
        from repro.runner import task_record

        record = json.dumps(task_record(result), sort_keys=True,
                            allow_nan=False)
        self._handle.write(record + "\n")
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        self._handle.close()


def _build_sweep_plan(args, jobs: int, cache_dir):
    """``(plan, header line)`` for the ``sweep``/``serve`` plan shape.

    ``--grid`` axes build a cartesian grid plan; otherwise replicates x
    backends.  Shared by local sweeps, remote sweeps, and coordinator
    preloading, so every spelling resolves the exact same tasks.
    """
    from repro.runner import grid_plan, replicate_plan

    spec = get_spec(args.experiment)  # fail fast on unknown ids
    profile = args.profile
    overrides = _overrides_of(args, args.experiment)

    if args.grid:
        from repro.params import parse_grid

        grid = parse_grid(args.grid, spec.params)
        backend = None
        if args.backends:
            names = [name.strip() for name in args.backends.split(",")]
            if len(names) > 1:
                raise InvalidParameterError(
                    "--grid sweeps take a single --backends value; sweep "
                    "backends via replicate mode instead")
            if names and names[0] not in ("", "default"):
                from repro.engine import check_backend
                backend = check_backend(names[0], allow_auto=True)
        plan = grid_plan(spec.experiment_id, grid, base_params=overrides,
                         seed=args.seed, backend=backend, jobs=jobs,
                         cache_dir=cache_dir, profile=profile)
        axes = " x ".join(f"{name}[{len(values)}]"
                          for name, values in grid.items())
        header = (f"{spec.experiment_id}: grid {axes} = {len(plan.tasks)} "
                  f"point(s), profile={profile}")
        return plan, header

    backends = (None,)
    if args.backends:
        from repro.engine import check_backend
        names = [name.strip() for name in args.backends.split(",")]
        backends = tuple(None if name in ("default", "")
                         else check_backend(name, allow_auto=True)
                         for name in names)
    plan = replicate_plan(spec.experiment_id, replicates=args.replicates,
                          base_seed=args.seed, profile=profile,
                          params=overrides, backends=backends,
                          jobs=jobs, cache_dir=cache_dir)
    header = (f"{spec.experiment_id}: {args.replicates} replicate(s) x "
              f"{len(backends)} backend(s), profile={profile}")
    return plan, header


def _run_sweep(args) -> int:
    from repro.analysis.tables import format_table
    from repro.runner import execute

    plan, header = _build_sweep_plan(args, jobs=args.jobs,
                                     cache_dir=args.cache)
    snapshot_dir = None
    if args.remote is not None:
        if args.resume:
            raise InvalidParameterError(
                "--resume applies to local sweeps; remote sweeps "
                "checkpoint on the coordinator automatically")
        if args.series is not None:
            raise InvalidParameterError(
                "--series applies to local sweeps: a remote worker's "
                "series files live on its own disk")
    else:
        if args.shutdown:
            raise InvalidParameterError(
                "--shutdown only applies to --remote sweeps")
        if args.token is not None:
            raise InvalidParameterError(
                "--token only applies to --remote sweeps")
        if args.resume:
            if args.cache is None:
                raise InvalidParameterError(
                    "--resume needs --cache DIR: checkpoints live "
                    "alongside the result cache under DIR/snapshots")
            snapshot_dir = os.path.join(args.cache, "snapshots")
    record_stream = None
    if args.output is not None:
        record_stream = _RecordWriter(args.output)
    try:
        if args.remote is not None:
            from repro.fabric import RemotePool, shutdown_coordinator

            report = execute(plan, pool=RemotePool(args.remote,
                                                   token=args.token),
                             record_stream=record_stream)
            print(f"{header}, remote={args.remote}")
            if args.shutdown:
                shutdown_coordinator(args.remote, token=args.token)
                print(f"asked coordinator at {args.remote} to shut down")
        else:
            report = execute(plan, snapshot_dir=snapshot_dir,
                             series_dir=args.series,
                             record_stream=record_stream)
            print(f"{header}, jobs={args.jobs}")
    finally:
        if record_stream is not None:
            record_stream.close()
    headers, rows = report.summary_table()
    print(format_table(headers, rows))
    print()
    if record_stream is not None:
        print(f"wrote {record_stream.written} record(s) to {args.output}")
    if args.series is not None:
        streamed = sum(len(result.series) for result in report.results)
        print(f"streamed {streamed} series file(s) under {args.series}")
    _print_pass_rates(report, args.cache)
    return 0 if report.all_checks_pass else 1


def _run_serve(args) -> int:
    """The ``repro serve`` coordinator process."""
    from repro.fabric import Coordinator, FabricServer

    if args.cache is None:
        raise InvalidParameterError(
            "serve needs --cache DIR: the shared result store every "
            "worker and submission dedups against")
    if args.experiment is None and args.grid:
        raise InvalidParameterError(
            "--grid preloading needs an experiment id")
    coordinator = Coordinator(args.cache, checkpoint=args.checkpoint,
                              lease_ttl=args.lease_ttl)
    if args.experiment is not None:
        plan, header = _build_sweep_plan(args, jobs=1, cache_dir=None)
        submitted = coordinator.submit_plan(plan)
        cached = sum(submitted["cached"])
        print(f"preloaded {header} ({cached} already cached)", flush=True)
    server = FabricServer(coordinator, host=args.host, port=args.port,
                          quiet=not args.verbose, token=args.token)
    print(f"fabric coordinator listening on {server.url}", flush=True)
    print(f"cache={coordinator.cache.root} "
          f"checkpoint={args.checkpoint or '-'} "
          f"lease-ttl={args.lease_ttl:g}s", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    status = coordinator.status()
    print(f"coordinator stopped: {status['done']}/{status['tasks']} "
          f"task(s) done, {status['executed']} executed this session")
    return 0


def _run_worker(args) -> int:
    """The ``repro worker`` process; exit code is the loop verdict."""
    from repro.fabric import Worker

    worker = Worker(args.remote, worker_id=args.id, poll=args.poll,
                    max_idle=args.max_idle, max_tasks=args.max_tasks,
                    retries=args.retries, backoff=args.backoff,
                    token=args.token)
    print(f"worker {worker.worker_id} polling {worker.remote}", flush=True)
    try:
        return worker.run_forever()
    except KeyboardInterrupt:
        return 0


def _print_params_table(spec) -> None:
    from repro.analysis.tables import format_table

    print(f"{spec.experiment_id}: {spec.title}")
    if len(spec.params) == 0:
        print("(no declared parameters; profiles fast/full are identical)")
        return
    headers, rows = spec.params.describe_table()
    print(format_table(headers, rows))
    extras = [name for name in spec.params.profiles
              if name not in ("fast", "full")]
    if extras:
        print(f"extra profiles: {', '.join(extras)}")


def _run_params(args) -> int:
    """Print parameter schemas: one experiment's, or every registered
    experiment's with ``--all``."""
    if args.all and args.experiment is not None:
        raise InvalidParameterError(
            "give an experiment id or --all, not both")
    if not args.all and args.experiment is None:
        raise InvalidParameterError(
            "params needs an experiment id (or --all for every schema)")
    if args.all:
        specs = [get_spec(eid) for eid, _ in all_experiments()]
    else:
        specs = [get_spec(args.experiment)]
    if args.json:
        if args.all:
            payload = {spec.experiment_id: spec.params.to_dict()
                       for spec in specs}
        else:
            payload = specs[0].params.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for index, spec in enumerate(specs):
        if index:
            print()
        _print_params_table(spec)
    return 0


def _run_cache(args) -> int:
    """The ``repro cache`` subcommands (prune / info)."""
    from repro.runner import ResultCache

    cache = ResultCache(args.cache)
    if args.cache_command == "info":
        stats = cache.stats()
        if args.json:
            print(json.dumps({"root": str(cache.root), **stats},
                             sort_keys=True, allow_nan=False))
            return 0
        print(f"{cache.root}: {stats['entries']} entries, "
              f"{stats['bytes']} bytes")
        return 0
    max_age = parse_age(args.max_age) if args.max_age is not None else None
    max_size = parse_size(args.max_size) if args.max_size is not None \
        else None
    if max_age is None and max_size is None:
        raise InvalidParameterError(
            "cache prune needs --max-age and/or --max-size")
    stats = cache.prune(max_age=max_age, max_size=max_size)
    print(f"{cache.root}: evicted {stats['removed']} entries, kept "
          f"{stats['kept']} ({stats['bytes']} bytes)")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    Domain errors (unknown experiment ids, bad ``--set`` / ``--grid``
    input, out-of-range parameters) print a schema-aware message to
    stderr and exit with code 2 — they are user input problems, not
    crashes.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InvalidParameterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FabricUnavailable as error:
        # An unreachable coordinator is an environment failure, not a
        # usage error: distinct exit code so scripts can retry.
        print(f"error: {error}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "list":
        for experiment_id, title in all_experiments():
            print(f"{experiment_id:>4}  {title}")
        return 0
    if args.command == "params":
        return _run_params(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "worker":
        return _run_worker(args)

    all_ids = [eid for eid, _ in all_experiments()]
    if args.command == "run-all":
        ids = all_ids
    else:
        ids = all_ids if args.experiment.lower() == "all" \
            else [args.experiment]
    return _run_plan_and_render(ids, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
