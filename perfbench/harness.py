"""Workloads, rounds and metrics of the campaign benchmark.

A *round* runs a workload's campaigns cold on a fresh store with a new
root seed, then checks the outputs and runs warm passes against the
filled store.  A run repeats whole rounds for about ``--seconds``, so
every run attempts the same operations in the same proportions: one
per unit of a cold pass, one per warm pass, and, on ``mac-vec``, the
cross-backend MAC top-up that fails today.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import checks
import numpy as np
from hostspeed import HostClock
from ledger import PASS_SPAN, Ledger

from repro import obs
from repro.campaigns import CampaignRunner, get_campaign
from repro.experiments import TRIAL_KINDS, ExperimentRunner
from repro.obs.clock import monotonic_s
from repro.store import ResultStore, cached_run

BENCH_DIR = Path(__file__).resolve().parent
#: Scratch stores live inside the checkout and are removed after use.
WORK = BENCH_DIR.parent / ".perfbench-work"

#: Fresh interpreters started besides this one; ``setup_s`` is the
#: median of their set-up times and this process's own.
SETUP_PROBES = 3
#: Warm passes a round, run in ``SETUP_PROBES + 1`` equal slices;
#: ``warm_s`` is their lower quartile (over at least 48 passes a run).
WARM_PASSES = 48
#: Units per campaign, and trials per unit, recomputed on the other
#: backend at the end of a run.
RECOMPUTE_UNITS = 2
RECOMPUTE_TRIALS = 2


@dataclass(frozen=True)
class Workload:
    """One set of campaigns, the backend they run on, and their checks.

    ``campaigns`` pairs each campaign with its per-unit budget (``None``
    keeps the figure's).  Each round runs them cold on a fresh store
    with a new root seed.  ``strict`` asks the shape checks for strict
    falls and rises, which the budget must make near certain.  ``fault``
    adds the failing cross-backend MAC top-up to every round.
    """

    backend: str | None
    campaigns: tuple
    strict: bool
    fault: bool = False

    @property
    def other_backend(self) -> str | None:
        """The backend sampled units are recomputed on (``None``: serial)."""
        return None if self.backend == "vectorized" else "vectorized"


WORKLOADS = {
    # Batched sample-level kernels; no MAC code.  At 16 and 24 trials a
    # unit, a far-edge unit without a bit error, or without a lost
    # frame, has odds below 1e-3, so the strict shape checks hold.
    "phy-vec": Workload(
        backend="vectorized",
        campaigns=(("fig-ber-vs-distance", 16), ("fig-energy-vs-range", 24)),
        strict=True,
    ),
    # The slotted MAC slot loop at the figure's budget (5 lanes a chunk);
    # no PHY.  A round is short, so a run repeats it over several root
    # seeds: that lengthens the run, not what one unit computes.
    "mac-vec": Workload(
        backend="vectorized",
        campaigns=(("fig-goodput-vs-load", None),),
        strict=True,
        fault=True,
    ),
    # `repro campaign run NAME` with no flags: the scalar exchange and
    # the event-driven simulator, at a budget serial speed allows.
    "figs-serial": Workload(
        backend=None,
        campaigns=(
            ("fig-ber-vs-distance", 4),
            ("fig-energy-vs-range", 4),
            ("fig-goodput-vs-load", 4),
        ),
        strict=False,
    ),
}

#: Units of the metrics whose unit the name does not give (``*_s`` are
#: seconds, everything else not listed is a count).
UNITS = {
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MiB",
    "experiments.lanes_per_chunk": "lanes",
    "experiments.engine_cache_hit_ratio": "ratio",
    "store.bytes_read": "B",
    "store.bytes_written": "B",
    "store.hit_ratio": "ratio",
    "trace.overhead": "ratio",
}


def unit_of(name: str) -> str:
    """The unit metric ``name`` is printed with."""
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def set_up(workload: Workload) -> None:
    """Fill ``repro``'s lazy imports and engine caches for ``workload``.

    Runs the first trial of each unit whose scenario or kind is new, on
    the workload's backend: one trial of every kind, and one of every
    scenario, whose stack and batched engine are then cached.
    """
    runner = CampaignRunner(store=ResultStore(WORK), backend=workload.backend)
    specs, kinds = set(), set()
    for name, _ in workload.campaigns:
        for unit in get_campaign(name).units(n_trials=1):
            if unit.spec in specs and unit.kind in kinds:
                continue
            specs.add(unit.spec)
            kinds.add(unit.kind)
            runner.runner_for(unit).run(unit.spec, seed=unit.seed)


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter running this workload."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--probe",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=150, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Bench:
    """The rounds of one run, their timings and their operation counts."""

    def __init__(
        self, name: str, seed: int, clock: HostClock | None = None
    ) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        #: Times untraced passes in reference seconds too; traced passes
        #: are not sampled, since the ledger accounts for every second.
        self.clock = clock
        self.campaigns = [
            (get_campaign(c), n) for c, n in self.workload.campaigns
        ]
        #: Cold passes' time in reference seconds (wall without a clock).
        self.cold_s = 0.0
        self.trials = 0
        self.warm_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._stores: list[str] = []
        self._filled: list[tuple] = []
        self._recompute: list[tuple] = []

    def root(self, index: int) -> int:
        """Root seed of round ``index``: a pure function of the seed."""
        state = np.random.SeedSequence([self.seed, index])
        return int(state.generate_state(1)[0])

    def round(
        self, index: int, ledger: Ledger | None = None, *, slices: int = 1
    ) -> float:
        """Run round ``index``; returns the wall time of its passes.

        The first of ``slices`` equal slices of warm passes runs at once;
        :meth:`warm` runs the others later, so that warm passes sample
        more than one stretch of the run.
        """
        root = self.root(index)
        store_dir = tempfile.mkdtemp(dir=WORK)
        self._stores.append(store_dir)
        runner = CampaignRunner(
            store=ResultStore(store_dir), backend=self.workload.backend
        )
        wall, scaled, results, _ = self._pass(
            runner, root, ledger, report=False
        )
        self.cold_s += scaled
        self.trials += sum(r.trials_computed for r in results)
        self.attempted += sum(len(r.units) for r in results)
        filled = (runner, root, self._report(runner, root))
        self._check(runner, root)
        wall += self._warm(filled, WARM_PASSES // slices, ledger)
        if slices > 1:
            self._filled.append(filled)
        if self.workload.fault:
            self.attempted += 1
            if not mac_topup_matches_cold():
                self.failed += 1
        return wall

    def warm(self, passes: int) -> None:
        """Run ``passes`` more warm passes on each round's store."""
        for filled in self._filled:
            self._warm(filled, passes, None)

    def recompute(self) -> None:
        """Recompute the sampled units' first trials on the other backend.

        Deferred to the end of the run, so that the other backend's
        allocations stay out of ``peak_rss_mb``.
        """
        for unit, table in self._recompute:
            again = ExperimentRunner(
                trial=TRIAL_KINDS[unit.kind],
                max_trials=min(RECOMPUTE_TRIALS, unit.n_trials),
                backend=self.workload.other_backend,
            ).run(unit.spec, seed=unit.seed)
            checks.check_recompute(unit.kind, table, again)
        self._recompute.clear()

    def close(self) -> None:
        """Remove every store the rounds filled."""
        for store_dir in self._stores:
            shutil.rmtree(store_dir, ignore_errors=True)
        self._stores.clear()
        self._filled.clear()

    def _warm(self, filled, passes: int, ledger) -> float:
        runner, root, reference = filled
        wall = 0.0
        for _ in range(passes):
            elapsed, scaled, results, report = self._pass(
                runner, root, ledger, report=True
            )
            checks.check_warm(
                sum(r.trials_computed for r in results), report, reference
            )
            self.warm_s.append(scaled)
            self.attempted += 1
            wall += elapsed
        return wall

    def _pass(self, runner, root, ledger, *, report: bool):
        """One pass over the campaigns.

        Returns (wall seconds, reference seconds, results, report bytes);
        without a clock, or traced, the reference seconds are the wall's.
        """

        def work():
            results = [
                runner.run(campaign, n_trials=n, seed=root)
                for campaign, n in self.campaigns
            ]
            return results, self._report(runner, root) if report else None

        if ledger is None and self.clock is not None:
            wall, scaled, (results, rendered) = self.clock.time(work)
            return wall, scaled, results, rendered
        if ledger is not None:
            ledger.start()
        try:
            with obs.span(PASS_SPAN):
                t0 = monotonic_s()
                results, rendered = work()
                elapsed = monotonic_s() - t0
        finally:
            if ledger is not None:
                ledger.stop()
        return elapsed, elapsed, results, rendered

    def _report(self, runner, root) -> bytes:
        tables = {}
        for campaign, n in self.campaigns:
            tables.update(runner.report(campaign, n_trials=n, seed=root))
        return checks.report_bytes(tables)

    def _check(self, runner, root: int) -> None:
        """Check the cold pass's stored tables and report; sample units."""
        pick = np.random.default_rng(root)
        for campaign, n in self.campaigns:
            units = campaign.units(n_trials=n, seed=root)
            stored = [(u, runner.store.get(u.key())) for u in units]
            for unit, table in stored:
                checks.check_records(unit.kind, table)
            report = runner.report(campaign, n_trials=n, seed=root)
            if "forward-ber" in report:
                checks.check_ber_shape(report, strict=self.workload.strict)
            if "energy" in report:
                checks.check_energy_shape(report, strict=self.workload.strict)
            if "mac" in report:
                checks.check_mac(report, stored)
            for index in pick.choice(len(units), RECOMPUTE_UNITS, replace=False):
                self._recompute.append(stored[index])


def mac_topup_matches_cold() -> bool:
    """Top up a serial half-budget MAC unit on vectorized; compare.

    The inputs are fixed: the figure's own seed and budget, at its
    peak-load fd-abort unit.  Store keys leave the MAC engine out, so
    the vectorized top-up splices event-driven and slotted trials into
    one table, which then differs from a cold vectorized run.
    """
    unit = max(
        (u for u in get_campaign("fig-goodput-vs-load").units()
         if u.arm == "fd-abort"),
        key=lambda u: dict(u.point)["mac_arrival_rate_pps"],
    )

    def runner(n: int, backend: str) -> ExperimentRunner:
        return ExperimentRunner(
            trial=TRIAL_KINDS[unit.kind], max_trials=n, backend=backend
        )

    spliced_dir = tempfile.mkdtemp(dir=WORK)
    cold_dir = tempfile.mkdtemp(dir=WORK)
    try:
        spliced = ResultStore(spliced_dir)
        cached_run(
            spliced, runner(unit.n_trials // 2, "serial"), unit.spec,
            seed=unit.seed,
        )
        topped = cached_run(
            spliced, runner(unit.n_trials, "vectorized"), unit.spec,
            seed=unit.seed,
        )
        cold = cached_run(
            ResultStore(cold_dir), runner(unit.n_trials, "vectorized"),
            unit.spec, seed=unit.seed,
        )
    finally:
        shutil.rmtree(spliced_dir)
        shutil.rmtree(cold_dir)
    return topped.table.to_json() == cold.table.to_json()


def _another(start: float, done: int, seconds: float) -> bool:
    """Whether one more round ends nearer ``seconds`` than stopping now."""
    elapsed = monotonic_s() - start
    return elapsed + elapsed / (2 * done) < seconds


def measure(bench: Bench, args, own_setup: float) -> dict[str, float]:
    """Run whole rounds for ``args.seconds`` and gather the metrics."""
    start = monotonic_s()
    if not args.trace:
        # Host speed drifts over seconds: the warm passes of each round
        # run in slices, one after the round and one after each set-up
        # probe, to sample more of the run than one burst would.
        slices = SETUP_PROBES + 1
        rounds = 0
        while rounds == 0 or _another(start, rounds, args.seconds):
            bench.round(rounds, slices=slices)
            rounds += 1
        probes = []
        for _ in range(SETUP_PROBES):
            probes.append(probe_setup(args))
            bench.warm(WARM_PASSES // slices)
        metrics = {
            "setup_s": statistics.median([own_setup, *probes]),
            "trials_per_s": bench.trials / bench.cold_s,
            "warm_s": statistics.quantiles(bench.warm_s, n=4)[0],
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        bench.recompute()
        return metrics
    # Untraced and traced rounds alternate on the same inputs, so their
    # wall-time ratio is the tracing overhead.
    ledger = Ledger()
    ratios = []
    while not ratios or _another(start, len(ratios), args.seconds):
        plain = bench.round(len(ratios))
        ratios.append(bench.round(len(ratios), ledger) / plain)
    bench.recompute()
    metrics = ledger.metrics(len(ratios))
    metrics["trace.overhead"] = statistics.median(ratios)
    return metrics


def result_line(correct: bool, bench: Bench, metrics: dict) -> str:
    """The JSON object the benchmark prints last."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in sorted(metrics.items())
            },
        }
    )


def main(args, setup_clock: HostClock) -> int:
    """Set up, measure, check and print; ``setup_clock`` times set-up."""
    WORK.mkdir(exist_ok=True)
    set_up(WORKLOADS[args.workload])
    _, own_setup = setup_clock.stop()
    if args.probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    bench = Bench(args.workload, args.seed, None if args.trace else HostClock())
    try:
        metrics = measure(bench, args, own_setup)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(result_line(False, bench, {}))
        return 1
    finally:
        bench.close()
    print(result_line(True, bench, metrics))
    return 0
