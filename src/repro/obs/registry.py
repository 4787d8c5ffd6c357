"""Run-level metrics registry: counters, gauges, histograms with labels.

Where :mod:`repro.obs.timeline` answers *when inside one launch*, this
module answers *how much across a whole run* — possibly many launches,
possibly spread over ``--jobs N`` worker processes.  It generalizes the
ad-hoc ``SimStats.custom`` plumbing into one mergeable, snapshot-able
interface:

* every metric is a (name, labels) family — ``reg.counter("sim.cycles",
  device="Fiji")`` and the same name with ``device="Spectre"`` are two
  series of one family;
* **counters** accumulate, **gauges** hold the last written value,
  **histograms** bucket observations (fixed power-of-two-ish bounds, so
  merging is exact);
* :meth:`MetricsRegistry.snapshot` emits a schema-versioned plain dict
  and :meth:`MetricsRegistry.merge` folds another registry *or* a
  snapshot back in — worker processes snapshot their local registry and
  the parent merges, which is how ``run_many`` aggregates across jobs;
* :meth:`MetricsRegistry.ingest_simstats` maps a finished launch's
  :class:`~repro.simt.stats.SimStats` (engine counters plus the
  ``queue.*`` / ``scheduler.*`` custom counters the queue variants and
  persistent scheduler publish) into registry counters, so every layer
  of the simulator lands in the same namespace.

:class:`MetricsSession` is a :class:`repro.simt.engine.Session` whose
only per-launch observer is a ``launch_end`` hook that ingests the
launch.  It runs after all simulated state is final and never turns on
per-event probing, so an attached registry can never perturb a
simulation — pinned by ``tests/test_simt_determinism.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.simt.engine import Session

#: snapshot schema version (bump on incompatible layout changes).
SCHEMA = 1

#: default histogram bucket upper bounds (inclusive), open-ended tail.
DEFAULT_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 4096, 16384, 65536, 262144, 1048576,
    4194304, 16777216, 67108864, 268435456,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically accumulating value (merge: add)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n

    def _merge(self, data) -> None:
        self.value += data

    def _data(self):
        return self.value


class Gauge:
    """Last-written value (merge: the merged-in value wins if set)."""

    kind = "gauge"
    __slots__ = ("value", "_set")

    def __init__(self) -> None:
        self.value = 0
        self._set = False

    def set(self, v: Union[int, float]) -> None:
        self.value = v
        self._set = True

    def _merge(self, data) -> None:
        self.set(data)

    def _data(self):
        return self.value


class Histogram:
    """Bucketed observations with exact count/sum/min/max.

    Buckets are fixed at family creation, so merging two histograms of
    one family is an element-wise bucket add — no resolution is lost
    when worker snapshots fold into the parent registry.
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[Union[int, float], ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1: open tail
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: Union[int, float]) -> None:
        i = 0
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                break
        else:
            i = len(self.buckets)
        self.counts[i] += 1
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _merge(self, data) -> None:
        if tuple(data["buckets"]) != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        self.counts = [a + b for a, b in zip(self.counts, data["counts"])]
        self.count += data["count"]
        self.sum += data["sum"]
        for field, pick in (("min", min), ("max", max)):
            other = data[field]
            if other is not None:
                mine = getattr(self, field)
                setattr(self, field, other if mine is None else pick(mine, other))

    def _data(self):
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A process-local collection of metric families.

    Not thread-safe by design: each worker process owns its registry and
    ships a :meth:`snapshot` to the parent, which :meth:`merge`\\ s.
    """

    def __init__(self) -> None:
        #: (name) -> kind, pinned at first use so a name cannot be a
        #: counter in one worker and a gauge in another.
        self._kinds: Dict[str, str] = {}
        self._series: Dict[Tuple[str, LabelItems], object] = {}

    # ------------------------------------------------------------------
    # family accessors
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Mapping[str, object], **kw):
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known != kind:
            raise TypeError(
                f"metric {name!r} is a {known}, requested as {kind}"
            )
        key = (name, _label_key(labels))
        metric = self._series.get(key)
        if metric is None:
            metric = _KINDS[kind](**kw)
            self._series[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: Tuple[Union[int, float], ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get("histogram", name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> Union[int, float, None]:
        """Scalar value of one counter/gauge series (None if absent)."""
        metric = self._series.get((name, _label_key(labels)))
        if metric is None:
            return None
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read it directly")
        return metric.value

    def total(self, name: str) -> Union[int, float]:
        """Sum of a counter/gauge family across all label sets."""
        return sum(
            m.value
            for (n, _), m in self._series.items()
            if n == name and not isinstance(m, Histogram)
        )

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def series(self) -> Iterable[Tuple[str, LabelItems, object]]:
        for (name, labels), metric in sorted(self._series.items()):
            yield name, labels, metric

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Schema-versioned plain-dict view (JSON-able, mergeable)."""
        out = []
        for (name, labels), metric in sorted(self._series.items()):
            out.append(
                {
                    "name": name,
                    "kind": metric.kind,
                    "labels": dict(labels),
                    "data": metric._data(),
                }
            )
        return {"schema": SCHEMA, "metrics": out}

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "MetricsRegistry":
        reg = cls()
        reg.merge(snap)
        return reg

    def merge(self, other: Union["MetricsRegistry", Mapping]) -> None:
        """Fold another registry or a snapshot dict into this one."""
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        schema = other.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema {schema!r} "
                f"(this build reads schema {SCHEMA})"
            )
        for entry in other["metrics"]:
            kind = entry["kind"]
            if kind not in _KINDS:
                raise ValueError(f"unknown metric kind {kind!r}")
            kw = {}
            if kind == "histogram":
                kw["buckets"] = tuple(entry["data"]["buckets"])
            metric = self._get(kind, entry["name"], entry["labels"], **kw)
            metric._merge(entry["data"])

    # ------------------------------------------------------------------
    # simulator ingestion
    # ------------------------------------------------------------------
    def ingest_simstats(self, stats, **labels) -> None:
        """Publish one launch's :class:`SimStats` into the registry.

        Engine counters land under ``sim.*``; the free-form custom
        counters the queue variants (``queue.*``) and the persistent
        scheduler (``scheduler.*``) bump during the launch keep their
        dotted names.  ``sim.cycles`` is additionally observed into the
        ``sim.cycles_per_launch`` histogram so multi-launch runs keep a
        distribution, not just a total.
        """
        for name, value in stats.metric_items():
            self.counter(name, **labels).inc(value)
        self.counter("sim.launches", **labels).inc()
        self.histogram("sim.cycles_per_launch", **labels).observe(
            stats.sim_cycles
        )

    # ------------------------------------------------------------------
    def scalars(self, prefix: str = "") -> Dict[str, Union[int, float]]:
        """Flat ``name -> total`` dict of every counter/gauge family.

        Labels are summed out (counters) / last-write (gauges); the
        result is what ledger entries store as headline metrics.
        """
        out: Dict[str, Union[int, float]] = {}
        for name, _, metric in self.series():
            if isinstance(metric, Histogram):
                continue
            key = prefix + name
            if isinstance(metric, Gauge):
                out[key] = metric.value
            else:
                out[key] = out.get(key, 0) + metric.value
        return out


class MetricsSession(Session):
    """Attach a registry to every ``Engine.launch`` in this process.

    While the session is attached, each finished launch's ``SimStats``
    is ingested into :attr:`registry` (labelled by device name).  The
    session is its own observer and has only ``launch_begin`` and
    ``launch_end``, so it is passive by construction: simulated cycles,
    stats, and memory are bit-identical with the session on or off.

    Sessions attach in *this* interpreter only — worker processes open
    their own session and ship ``registry.snapshot()`` back to the
    parent.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._device = ""

    def observers(self) -> Tuple["MetricsSession"]:
        return (self,)

    def launch_begin(self, device, n_wavefronts: int) -> None:
        self._device = device.name

    def launch_end(self, cycles: int, stats) -> None:
        self.registry.ingest_simstats(stats, device=self._device)
