"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload takes its schema, distributions and population shape from
a committed corpus profile.  The subscriber population and the pool of
replacement subscriptions that churn brings in are drawn from the corpus
profile's own seed, so they are the same on every run; the benchmark
seed draws the event stream.  The population is fixed because the cost of
a re-optimisation check grows steeply and unevenly with its shape: on
``aml-transactions`` at 100 profiles, five seeded populations ran at 335
to 712 events/s, while five seeded event streams over one population ran
at 498 to 551 events/s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Replacement subscriptions generated per run; cancelled profiles join
#: the back of the pool, so churn never runs dry.
REPLACEMENTS = 256
#: Offset of the replacement pool's seed from the corpus profile's seed.
POOL_SEED = 0x5EED


@dataclass(frozen=True)
class Workload:
    """One named workload: service configuration, sizes and run shape."""

    name: str
    #: Corpus profile supplying schema, distributions and policy knobs.
    corpus: str
    engine: str
    why: str
    #: Initial subscriptions.
    profiles: int
    #: Events generated per run; the publish loop cycles over them.
    events: int
    #: Events per ``publish_batch`` call.
    batch: int
    #: Cancel + subscribe pairs sent after every batch.
    churn_pairs: int
    #: The timed loop ends only after a multiple of this many batches, so
    #: every run covers whole re-optimisation cycles.
    cycle: int
    #: The deterministic counts and ``peak_rss_mb`` describe the first
    #: this-many batches, which every run completes, so neither depends on
    #: how fast the run went.  The samples taken in them choose the tail
    #: percentiles (:func:`perfbench.stats.tail`): at least 100 of each kind.
    count_window: int
    #: Every this-many-th batch is checked against the ``naive`` family.
    check_every: int
    adaptive: bool = True
    delivery: str = "inline"
    #: Attach a counting sink to every subscription.
    sinks: bool = False
    #: Journal subscriptions to a ``JsonlWalStore``.
    wal: bool = False
    #: Service set-ups per run; ``setup_s`` is their median.
    setups: int = 3

    def sizes(self) -> dict:
        return {
            "profiles": self.profiles,
            "events": self.events,
            "batch": self.batch,
            "churn_pairs": self.churn_pairs,
            "replacements": REPLACEMENTS,
        }


#: Delivery pool size (the benchmark machine has two cores).
MAX_WORKERS = 2

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="replan-wal",
            corpus="aml-transactions",
            engine="auto",
            why=(
                "auto engine on aml-transactions at its pinned 400-event cadence with churn "
                "journaled to a JSONL WAL: planning, candidate builds, maintenance, WAL appends"
            ),
            profiles=50,
            events=8000,
            batch=100,
            churn_pairs=1,
            cycle=4,
            count_window=120,
            check_every=1,
            wal=True,
            setups=25,
        ),
        Workload(
            name="fanout-ranges",
            corpus="wide-range",
            engine="index",
            why=(
                "wide-range on a non-adaptive index, about 7 matches per event to counting "
                "sinks on a two-thread pool: the kernel, notifications, the log and dispatch"
            ),
            profiles=500,
            events=2048,
            batch=128,
            churn_pairs=1,
            cycle=1,
            count_window=100,
            check_every=32,
            adaptive=False,
            delivery="threadpool",
            sinks=True,
            setups=9,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the service, generated before any timing."""

    corpus: object
    profiles: list
    batches: list
    replacements: list

    @property
    def schema(self):
        return self.corpus.spec.schema


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs; the same seed gives the same inputs."""
    from repro.workloads.generators import build_workload, generate_events, generate_profiles
    from repro.workloads.profiles import get_profile

    corpus = get_profile(workload.corpus)
    spec = corpus.spec.with_counts(profile_count=workload.profiles, event_count=workload.events)
    population = build_workload(spec)
    events = list(generate_events(spec, random.Random(seed), population.event_distributions))
    pool_spec = spec.with_name(f"{spec.name}-churn").with_counts(profile_count=REPLACEMENTS)
    replacements = list(
        generate_profiles(
            pool_spec, random.Random(spec.seed + POOL_SEED), population.profile_distributions
        )
    )
    size = workload.batch
    batches = [events[i : i + size] for i in range(0, len(events) - size + 1, size)]
    return Inputs(corpus, list(population.profiles), batches, replacements)
