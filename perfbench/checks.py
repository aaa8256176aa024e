"""Correctness checks on the outputs of one cold campaign pass.

Every check uses a property the method must have, or an independent
recomputation, never a stored copy of an earlier output.  A failed
check raises :class:`CheckFailed`; the self-test (``selftest.py``)
shows that each one fires on a deliberately damaged table.
"""

from __future__ import annotations

from collections import defaultdict


class CheckFailed(Exception):
    """A campaign output broke a property it must have."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def report_bytes(tables: dict) -> bytes:
    """One canonical serialisation of a ``CampaignRunner.report`` result."""
    return "\n".join(
        f"{kind}\n{tables[kind].to_json()}" for kind in sorted(tables)
    ).encode()


def _by_distance(table, column: str) -> dict[float, float]:
    return {row["distance_m"]: row[column] for row in table.records}


def check_records(kind: str, table) -> None:
    """Per-trial bounds every record of ``kind`` must respect."""
    _require(len(table) > 0, f"{kind}: empty unit table")
    for row in table.records:
        if kind in ("forward-ber", "feedback-ber"):
            _require(
                row["bits"] > 0 and 0 <= row["errors"] <= row["bits"],
                f"{kind}: errors {row['errors']} outside [0, {row['bits']}]",
            )
            _require(
                row["ber"] == row["errors"] / row["bits"],
                f"{kind}: ber {row['ber']} is not errors / bits",
            )
        elif kind == "energy":
            _require(
                row["delivered"] in (0.0, 1.0),
                f"energy: delivered {row['delivered']} is not 0 or 1",
            )
            _require(
                row["harvested_a_joule"] >= 0.0
                and row["harvested_b_joule"] >= 0.0,
                "energy: negative harvested energy",
            )
        elif kind == "mac":
            _require(
                0 <= row["delivered_packets"] <= row["offered_packets"],
                f"mac: delivered {row['delivered_packets']} outside "
                f"[0, offered {row['offered_packets']}]",
            )


def check_ber_shape(report: dict, *, strict: bool) -> None:
    """Forward BER grows with range; feedback BER stays at or below it.

    ``strict`` demands that the far-edge BER *exceed* the near BER,
    which a budget too small to see one error at the far edge cannot
    promise; without it the far BER must not fall below the near one.
    """
    forward = _by_distance(report["forward-ber"], "rate")
    feedback = _by_distance(report["feedback-ber"], "rate")
    near, far = min(forward), max(forward)
    if strict:
        _require(
            forward[far] > forward[near],
            f"forward BER at {far} m ({forward[far]}) does not exceed "
            f"the BER at {near} m ({forward[near]})",
        )
    else:
        _require(
            forward[far] >= forward[near],
            f"forward BER falls from {near} m to {far} m",
        )
    for distance in sorted(forward)[-2:]:
        _require(
            feedback[distance] <= forward[distance],
            f"feedback BER at {distance} m ({feedback[distance]}) exceeds "
            f"the forward BER ({forward[distance]})",
        )


def check_energy_shape(report: dict, *, strict: bool) -> None:
    """Delivery ratio and sustainable report rate fall with range.

    The report rate falls at any budget (harvest income shrinks with
    range even where every frame arrives).  ``strict`` demands the same
    of the delivery ratio; without it the ratio must merely not rise.
    """
    table = report["energy"]
    delivered = _by_distance(table, "delivered")
    rate = _by_distance(table, "sustainable_reports_per_hour")
    near, far = min(delivered), max(delivered)
    if strict:
        _require(
            delivered[far] < delivered[near],
            f"delivery ratio does not fall from {near} m to {far} m",
        )
    else:
        _require(
            delivered[far] <= delivered[near],
            f"delivery ratio rises from {near} m to {far} m",
        )
    _require(
        rate[far] < rate[near],
        f"sustainable report rate does not fall from {near} m to {far} m",
    )


def check_mac(report: dict, unit_tables: list) -> None:
    """Paired arms see one workload; FD early abort wins at peak load.

    ``unit_tables`` holds ``(unit, stored table)`` for every ``mac``
    unit of the pass.
    """
    offered: dict = defaultdict(dict)
    for unit, table in unit_tables:
        offered[unit.point][unit.arm] = table.column("offered_packets")
    for point, arms in offered.items():
        first = next(iter(arms.values()))
        _require(
            all(column == first for column in arms.values()),
            f"mac: paired arms at {dict(point)} were offered different "
            "packets",
        )
    rows = report["mac"].records
    peak = max(row["mac_arrival_rate_pps"] for row in rows)
    goodput = {
        row["arm"]: row["goodput_bps"]
        for row in rows
        if row["mac_arrival_rate_pps"] == peak
    }
    _require(
        goodput["fd-abort"] > goodput["hd-arq"],
        f"mac: fd-abort goodput {goodput['fd-abort']} does not exceed "
        f"hd-arq goodput {goodput['hd-arq']} at {peak} packets/s",
    )


def _bitwise(record: dict) -> dict:
    # repr round-trips a float exactly and tells -0.0 from 0.0.
    return {name: repr(value) for name, value in record.items()}


def check_recompute(kind: str, stored, recomputed) -> None:
    """The first trials, recomputed on the other backend, match.

    Sample-level kinds match bitwise.  For ``mac`` only the offered
    workload is compared: the slotted engine replays the event-driven
    arrival draws exactly, but resolves contention statistically.
    """
    ahead = stored.records[: len(recomputed)]
    again = recomputed.records
    _require(len(ahead) == len(again), f"{kind}: stored table too short")
    if kind == "mac":
        ahead = [{"offered_packets": r["offered_packets"]} for r in ahead]
        again = [{"offered_packets": r["offered_packets"]} for r in again]
    for index, (left, right) in enumerate(zip(ahead, again)):
        _require(
            _bitwise(left) == _bitwise(right),
            f"{kind}: trial {index} differs across backends",
        )


def check_warm(trials_computed: int, report: bytes, reference: bytes) -> None:
    """A warm pass computes nothing and reports the cold pass's bytes."""
    _require(
        trials_computed == 0,
        f"warm pass computed {trials_computed} trials",
    )
    _require(report == reference, "warm report differs from the cold report")
