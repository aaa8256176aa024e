"""Fast self-test of the campaign benchmark's harness.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload for one round at a budget of one trial a unit, in
both trace modes, and checks that the printed metrics are exactly the
ones ``BENCHMARK.json`` names, each with its unit, and that the traced
ledger adds up.  Then damages real campaign outputs one property at a
time and checks that the matching correctness check fails, and checks
that the host clock samples a stretch of work and leaves no timer or
signal handler behind.  Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _tiny(workload):
    """``workload`` at one trial a unit, with budget-free shape checks."""
    return dataclasses.replace(
        workload,
        campaigns=tuple((name, 1) for name, _ in workload.campaigns),
        strict=False,
    )


def check_emitted_metrics(harness) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    import hostspeed
    import run

    names = {w["name"] for w in spec["workloads"]}
    if not names == set(harness.WORKLOADS) == set(run.WORKLOAD_NAMES):
        raise AssertionError(f"workloads {sorted(names)} != the harness's")
    harness.WORKLOADS.update(
        {name: _tiny(w) for name, w in harness.WORKLOADS.items()}
    )
    harness.WARM_PASSES = 2
    harness.SETUP_PROBES = 1
    for name in sorted(names):
        for trace in (0, 1):
            args = argparse.Namespace(
                workload=name, seed=3, seconds=0.001, trace=trace, probe=False
            )
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                setup_clock = hostspeed.HostClock()
                setup_clock.start()
                code = harness.main(args, setup_clock)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            if code != 0 or not result["correct"]:
                raise AssertionError(f"{name} trace {trace}: run failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                raise AssertionError(
                    f"{name} trace {trace}: metrics/units differ: "
                    f"missing {sorted(set(wanted[trace]) - set(got))}, "
                    f"extra {sorted(set(got) - set(wanted[trace]))}, "
                    f"units {got}"
                )
            # Only mac-vec keeps a failing operation, once a round.
            if result["attempted"] < 1 or (result["failed"] > 0) != (
                name == "mac-vec"
            ):
                raise AssertionError(f"{name}: bad operation counts {result}")
            if trace:
                check_ledger_sums(result["metrics"])


def check_ledger_sums(metrics: dict) -> None:
    from ledger import LAYERS

    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    total += metrics["ledger.other_s"]["value"]
    wall = metrics["ledger.wall_s"]["value"]
    if abs(total - wall) > 1e-6 * wall or metrics["ledger.other_s"]["value"] < 0:
        raise AssertionError(f"ledger sums to {total} s, passes took {wall} s")


def check_host_clock() -> None:
    """The clock samples a stretch, leaves its own time out, cleans up."""
    import signal

    import hostspeed

    def busy():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        return "done"

    clock = hostspeed.HostClock()
    before = signal.getsignal(signal.SIGALRM)
    wall, scaled, result = clock.time(busy)
    if result != "done" or len(clock.samples) < 5:
        raise AssertionError(f"host clock took {len(clock.samples)} samples")
    if not 0.09 < wall < 0.1 + 1e-3 or not scaled > 0:
        raise AssertionError(f"host clock read {wall} s wall, {scaled} s")
    if signal.getsignal(signal.SIGALRM) is not before:
        raise AssertionError("host clock left its SIGALRM handler behind")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        raise AssertionError("host clock left its interval timer running")


def _outputs(work: str):
    """Report and unit tables of tiny cold passes of all three figures."""
    from repro.campaigns import CampaignRunner, get_campaign
    from repro.store import ResultStore

    runner = CampaignRunner(store=ResultStore(work), backend="vectorized")
    report, units = {}, {}
    for name, n in (
        ("fig-ber-vs-distance", 8),
        ("fig-energy-vs-range", 4),
        ("fig-goodput-vs-load", 2),
    ):
        campaign = get_campaign(name)
        runner.run(campaign, n_trials=n, seed=5)
        report.update(runner.report(campaign, n_trials=n, seed=5))
        for unit in campaign.units(n_trials=n, seed=5):
            units.setdefault(unit.kind, []).append(
                (unit, runner.store.get(unit.key()))
            )
    return report, units


def _edit(table, row_filter, **changes):
    """A copy of ``table`` with ``changes`` applied to matching rows."""
    from repro.experiments.results import ResultTable

    rows = [
        {**row, **changes} if row_filter(row) else row for row in table.records
    ]
    return ResultTable(records=rows, metadata=dict(table.metadata))


def _far(row) -> bool:
    return row["distance_m"] == 2.5


def _peak(row) -> bool:
    return row["mac_arrival_rate_pps"] == 1.0


def _first(row) -> bool:
    return row["trial"] == 0


def damage_cases(report, units):
    """``(label, callable that must raise CheckFailed)`` pairs."""
    import checks

    fwd_unit, fwd = units["forward-ber"][0]
    energy = units["energy"][0][1]
    mac = units["mac"]
    fast = {**report, "forward-ber": _edit(
        report["forward-ber"], _far, rate=0.0
    )}
    loud_feedback = {**report, "feedback-ber": _edit(
        report["feedback-ber"], _far, rate=1.0
    )}
    falling = {**report, "forward-ber": _edit(
        report["forward-ber"], lambda r: r["distance_m"] == 0.25, rate=1.0
    )}
    flat = {**report, "energy": _edit(report["energy"], _far, delivered=1.0)}
    rising = {**report, "energy": _edit(
        report["energy"], lambda r: r["distance_m"] == 0.25, delivered=0.0
    )}
    rich = {**report, "energy": _edit(
        report["energy"], _far, sustainable_reports_per_hour=1e12
    )}
    unpaired = list(mac)
    unpaired[0] = (
        mac[0][0],
        _edit(mac[0][1], _first, offered_packets=10**6),
    )
    hd_wins = {**report, "mac": _edit(
        report["mac"], lambda r: _peak(r) and r["arm"] == "hd-arq",
        goodput_bps=1e12,
    )}
    ber = fwd.records[0]["ber"]
    nudged = _edit(fwd, _first, ber=math.nextafter(ber, math.inf))
    return [
        ("errors above bits", lambda: checks.check_records(
            "forward-ber", _edit(fwd, _first, errors=10**6))),
        ("ber not errors / bits", lambda: checks.check_records(
            "forward-ber", _edit(fwd, _first, errors=fwd.records[0]["bits"]))),
        ("negative errors", lambda: checks.check_records(
            "feedback-ber", _edit(fwd, _first, errors=-1))),
        ("half a frame", lambda: checks.check_records(
            "energy", _edit(energy, _first, delivered=0.5))),
        ("delivered above offered", lambda: checks.check_records(
            "mac", _edit(mac[0][1], _first, delivered_packets=10**6))),
        ("error-free far edge", lambda: checks.check_ber_shape(
            fast, strict=True)),
        ("feedback worse than forward", lambda: checks.check_ber_shape(
            loud_feedback, strict=False)),
        ("BER falls with range", lambda: checks.check_ber_shape(
            falling, strict=False)),
        ("no loss at the far edge", lambda: checks.check_energy_shape(
            flat, strict=True)),
        ("delivery rises with range", lambda: checks.check_energy_shape(
            rising, strict=False)),
        ("report rate rises with range", lambda: checks.check_energy_shape(
            rich, strict=False)),
        ("unpaired arms", lambda: checks.check_mac(report, unpaired)),
        ("hd-arq beats fd-abort", lambda: checks.check_mac(hd_wins, mac)),
        ("last-ulp change", lambda: checks.check_recompute(
            fwd_unit.kind, nudged, _edit(fwd, lambda r: False))),
        ("offered load changed", lambda: checks.check_recompute(
            "mac", _edit(mac[0][1], _first, offered_packets=10**6),
            mac[0][1])),
        ("warm pass computed", lambda: checks.check_warm(1, b"x", b"x")),
        ("warm report differs", lambda: checks.check_warm(0, b"x", b"y")),
    ]


def check_damage_is_caught(work: str) -> None:
    import checks

    report, units = _outputs(work)
    # The undamaged outputs pass every check the damage cases use.
    checks.check_ber_shape(report, strict=False)
    checks.check_energy_shape(report, strict=False)
    checks.check_mac(report, units["mac"])
    mac_table = units["mac"][0][1]
    checks.check_recompute(
        "mac", mac_table, _edit(mac_table, lambda r: True, goodput_bps=-1.0)
    )
    for label, damaged in damage_cases(report, units):
        try:
            damaged()
        except checks.CheckFailed:
            continue
        raise AssertionError(f"damage not caught: {label}")


def main() -> int:
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ.pop("REPRO_STORE", None)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness

    harness.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=harness.WORK)
    try:
        check_host_clock()
        print("ok: the host clock samples a pass and leaves no timer behind")
        check_damage_is_caught(work)
        print("ok: every correctness check fails on damaged output")
        check_emitted_metrics(harness)
        print("ok: every metric is emitted with its unit; the ledger adds up")
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
