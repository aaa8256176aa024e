"""Per-layer ledger: where a traced campaign pass spends its wall time.

The benchmark attributes time to the ``repro`` modules from outside the
program.  :class:`Ledger` wraps each layer's public entry points in
``repro.obs`` spans, at the place the calling code looks them up: a
method is replaced on its class, a function in every loaded ``repro``
module that binds it.  Spans the program records itself are
transparent: their time belongs to the nearest benchmark span above
them, so the ledger keeps its meaning when the program gains spans.

A span's self time is its duration minus the durations of the nearest
benchmark spans nested in it.  Every traced pass runs under one root
span, whose self time is the ``other`` residual, so the layer self
times plus ``other`` add up to the pass's wall time exactly.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict

from repro import obs

#: Prefix of every span the benchmark records (program spans lack it).
SPAN_PREFIX = "perfbench."

#: Name of the root span around one traced pass.
PASS_SPAN = SPAN_PREFIX + "pass"

#: Layers in ledger order (the ``repro`` subpackages a trial crosses).
LAYERS = (
    "ambient",
    "channel",
    "dsp",
    "phy",
    "fullduplex",
    "hardware",
    "mac",
    "experiments",
    "store",
    "campaigns",
)

#: Entry points whose span self time is also reported on its own.
BREAKDOWNS = {
    "mac.run_chunk": "mac.slotted_s",
    "mac.run": "mac.event_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "campaigns.report": "campaigns.report_s",
}


def _methods(cls, *names):
    return [(cls, name) for name in names if name in vars(cls)]


def entry_points() -> dict[str, list]:
    """``layer -> [(owner, attribute)]`` for every wrapped entry point.

    ``owner`` is a class (the attribute is a method) or ``None`` (the
    attribute is a module-level function, given as the object itself).
    """
    from repro.ambient import sources
    from repro.campaigns.runner import CampaignRunner
    from repro.channel.link import BatchLinkGains, ChannelModel, LinkGains
    from repro.dsp.envelope import square_law_detector
    from repro.dsp.filters import integrate_and_dump, single_pole_lowpass
    from repro.experiments import batch, runner
    from repro.fullduplex.batch import BatchFullDuplexEngine
    from repro.fullduplex.link import FullDuplexLink
    from repro.hardware.tag import TagFrontEnd
    from repro.mac.batch import SlottedMacEngine
    from repro.mac.simulator import NetworkSimulator
    from repro.phy.coding import encode_batch
    from repro.phy.receiver import BackscatterReceiver
    from repro.phy.softdecode import resolve_polarity_batch, soft_decode_bits_batch
    from repro.phy.transmitter import BackscatterTransmitter
    from repro.store.cache import cached_run
    from repro.store.store import ResultStore

    ambient = []
    for cls in vars(sources).values():
        if isinstance(cls, type) and issubclass(cls, sources.AmbientSource):
            ambient += _methods(cls, "samples", "batch_samples")
    return {
        "ambient": ambient,
        "channel": _methods(ChannelModel, "realize", "realize_batch")
        + _methods(LinkGains, "received")
        + _methods(BatchLinkGains, "received"),
        "dsp": [
            (None, square_law_detector),
            (None, single_pole_lowpass),
            (None, integrate_and_dump),
        ],
        "phy": [
            (None, encode_batch),
            (None, soft_decode_bits_batch),
            (None, resolve_polarity_batch),
        ]
        + _methods(BackscatterTransmitter, "transmit")
        + _methods(BackscatterReceiver, "receive_frame", "decode_aligned_bits"),
        "fullduplex": _methods(
            BatchFullDuplexEngine,
            "stage",
            "decode_aligned_bits",
            "decode_feedback",
        )
        + _methods(FullDuplexLink, "run", "run_raw_bits"),
        "hardware": _methods(TagFrontEnd, "harvested_energy"),
        "mac": _methods(SlottedMacEngine, "run_chunk")
        + _methods(NetworkSimulator, "run"),
        # The runner calls a batched trial once per vectorized chunk and
        # ``_invoke`` once per serial trial (a chunk of one lane).
        "experiments": _methods(runner.ExperimentRunner, "run")
        + [(None, runner._invoke)]
        + [(None, fn) for fn in batch._BATCH_TRIALS.values()],
        "store": [(None, cached_run)] + _methods(ResultStore, "get", "put"),
        "campaigns": _methods(CampaignRunner, "run", "report"),
    }


def _count_ambient(counts, args, out):
    counts["ambient.calls"] += 1
    counts["ambient.samples"] += out.size


def _count_channel(counts, args, out):
    counts["channel.calls"] += 1


def _count_slotted(counts, args, out):
    counts["mac.chunks"] += 1
    counts["mac.lanes"] += len(out)


def _count_chunk(counts, args, out):
    counts["experiments.chunks"] += 1
    counts["experiments.lanes"] += len(out) if isinstance(out, list) else 1


def _count_get(counts, args, out):
    counts["store.get_calls"] += 1
    if out is not None:
        store, key = args[0], args[1]
        counts["store.hits"] += 1
        counts["store.bytes_read"] += os.path.getsize(store.path_for(key))


def _count_put(counts, args, out):
    counts["store.put_calls"] += 1
    counts["store.bytes_written"] += os.path.getsize(out)


#: ``(layer, entry name) -> counter update`` for the counted entries.
#: A batched trial returns its chunk's records; ``_invoke`` returns one.
_COUNTERS = {
    ("mac", "run_chunk"): _count_slotted,
    ("experiments", "_invoke"): _count_chunk,
    ("store", "get"): _count_get,
    ("store", "put"): _count_put,
}


def _counter(layer: str, entry: str):
    if layer == "ambient":
        return _count_ambient
    if layer == "channel":
        return _count_channel
    if layer == "experiments" and entry.startswith("batch_"):
        return _count_chunk
    return _COUNTERS.get((layer, entry))


class Ledger:
    """Wraps the layers, records traced passes, and totals them.

    :meth:`start` and :meth:`stop` bracket a traced stretch, in which
    every pass runs under one :data:`PASS_SPAN` span.  :meth:`metrics`
    gives the per-layer figures per round.
    """

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.engine_counters: Counter = Counter()
        self.wall_s = 0.0
        self._undo: list = []
        self._active = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        name = f"{SPAN_PREFIX}{layer}.{fn.__name__}"
        count = _counter(layer, fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            with obs.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, out)
            return out

        return wrapper

    def _patch(self) -> None:
        from repro.experiments import batch

        for layer, entries in entry_points().items():
            for owner, attr in entries:
                if owner is not None:
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(layer, original))
                    self._undo.append((owner, attr, original))
                    continue
                wrapper = self._wrap(layer, attr)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is attr:
                            setattr(module, key, wrapper)
                            self._undo.append((module, key, attr))
                for trial, fn in list(batch._BATCH_TRIALS.items()):
                    if fn is attr:
                        batch._BATCH_TRIALS[trial] = wrapper
                        self._undo.append((batch._BATCH_TRIALS, trial, attr))

    def _unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def start(self) -> None:
        """Begin a traced stretch: wrappers in, obs session on."""
        if self._active:
            raise RuntimeError("the ledger is already recording")
        self._patch()
        # Keep span events as they are: the obs trace writer would encode
        # each one to JSON, a cost that lands in the enclosing layer.
        obs.start().writer = _EventList()
        self._active = True

    def stop(self) -> None:
        """End a traced stretch and fold its spans into the totals."""
        self._active = False
        session = obs.stop()
        self._unpatch()
        counters = session.metrics.snapshot()["counters"]
        self.engine_counters.update(
            {k: v for k, v in counters.items() if k.startswith("batch.")}
        )
        self._fold(session.writer.events)

    def _fold(self, events) -> None:
        every = {e["id"]: e for e in events if e.get("type") == "span"}
        spans = {
            i: s for i, s in every.items() if s["name"].startswith(SPAN_PREFIX)
        }
        parents = {i: _bench_parent(s, every) for i, s in spans.items()}
        own = {i: s["dur_s"] for i, s in spans.items()}
        for i, parent in parents.items():
            if parent is not None:
                own[parent] -= spans[i]["dur_s"]
        per_pass: defaultdict = defaultdict(float)
        for i, span in spans.items():
            root = i
            while parents[root] is not None:
                root = parents[root]
            if spans[root]["name"] != PASS_SPAN:
                raise RuntimeError(f"span {span['name']} ran outside a pass")
            per_pass[root] += own[i]
            entry = span["name"][len(SPAN_PREFIX):]
            if entry == "pass":
                if root != i:
                    raise RuntimeError("traced passes must not nest")
                self.self_s["other"] += own[i]
                continue
            self.self_s[entry.split(".", 1)[0]] += own[i]
            if entry in BREAKDOWNS:
                self.self_s[BREAKDOWNS[entry]] += own[i]
        for root, total in per_pass.items():
            wall = spans[root]["dur_s"]
            if abs(total - wall) > 1e-9 * max(1.0, wall):
                raise RuntimeError(
                    f"ledger self times sum to {total} s, pass took {wall} s"
                )
            self.wall_s += wall

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round figures for every per-layer metric the bench reports."""
        if rounds < 1:
            raise ValueError("the ledger needs at least one traced round")
        c = self.counts
        built = sum(
            v for k, v in self.engine_counters.items() if k.endswith(".build")
        )
        hits = sum(
            v for k, v in self.engine_counters.items() if k.endswith(".hit")
        )
        totals = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        totals.update({n: self.self_s[n] for n in BREAKDOWNS.values()})
        totals.update({n: float(c[n]) for n in COUNTS})
        totals["ledger.wall_s"] = self.wall_s
        totals["ledger.other_s"] = self.self_s["other"]
        out = {k: v / rounds for k, v in totals.items()}
        chunks = c["experiments.chunks"]
        out["experiments.lanes_per_chunk"] = (
            c["experiments.lanes"] / chunks if chunks else 0.0
        )
        out["experiments.engine_cache_hit_ratio"] = (
            hits / (hits + built) if hits + built else 0.0
        )
        gets = c["store.get_calls"]
        out["store.hit_ratio"] = c["store.hits"] / gets if gets else 0.0
        return out


#: Counts reported per round.
COUNTS = (
    "ambient.calls",
    "ambient.samples",
    "channel.calls",
    "mac.lanes",
    "mac.chunks",
    "experiments.chunks",
    "store.get_calls",
    "store.put_calls",
    "store.bytes_read",
    "store.bytes_written",
)


def _bench_parent(span: dict, spans: dict):
    """Id of the nearest enclosing benchmark span, or ``None``."""
    parent = span.get("parent")
    while parent is not None:
        above = spans.get(parent)
        if above is None:
            return None
        if above["name"].startswith(SPAN_PREFIX):
            return parent
        parent = above.get("parent")
    return None


class _EventList:
    """An in-memory sink for span events (the trace writer's interface)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass
