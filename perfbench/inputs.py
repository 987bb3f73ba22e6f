"""Seeded inputs for every workload.

The ontology family is fixed: two sources of 800 terms drawn from a
2000-concept universe (generator seed ``FAMILY_SEED``).
``--seed`` tags every concept label with a seed-derived prefix, which
gives an isomorphic copy whose labels sort in the same order, and it
draws the probe batch, the served request stream and the instance
values.  The churn schedule belongs to the family too.  So every seed
does the same structural work: the same closure, the same hot set, the
same edits.  Only label strings, hash order and the draw sequences
differ.  Across generator seeds of this family, closure size and build
time range over +-25%, which would drown a code change.

The program under test receives only what this module returns.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.formats import adjacency
from repro.kb.instances import InstanceStore
from repro.lexicon.wordnet import MiniWordNet
from repro.workloads.generator import WorkloadConfig, generate_workload
from repro.workloads.loadgen import zipf_weights


#: generator parameters of the family (``generate_workload``)
OVERLAP = 0.5
IDENTICAL_FRACTION = 0.3
FAMILY_SEED = 1
#: the fixed expert accepts every proposal scoring at least this
ACCEPT_THRESHOLD = 0.7
#: source edits per churn batch, and the mutation mix; term deletions
#: are off so the classes the read pool targets never vanish, while
#: edge deletions still run the DRed retraction path
CHURN_MUTATIONS = 3
CHURN_WEIGHTS = {"add_weight": 0.35, "delete_weight": 0.0, "edge_weight": 0.4}
ZIPF_S = 1.1
INSTANCES_PER_TERM = 2


@dataclass(frozen=True)
class Sizes:
    """The sizes the benchmark's own tests shrink."""

    terms_per_source: int = 800
    universe_size: int = 2000
    buffer_facts: int = 4096  # paged store buffer, well below the closure
    probes: int = 20000  # fixed probe batch after each build
    build_writes: int = 30  # in-process churn batches after each build
    build_setups: int = 7  # set-ups per run; setup_s is their median
    serve_setups: int = 5  # a serve set-up starts a server (seconds)
    oracle_terms: int = 32  # down-sized pipeline checked by the oracle
    answer_sample: int = 200  # serve: answers compared after replay


SIZES = Sizes()
TINY = Sizes(
    terms_per_source=40,
    universe_size=100,
    buffer_facts=64,
    probes=50,
    build_writes=2,
    build_setups=2,
    serve_setups=2,
    oracle_terms=20,
    answer_sample=20,
)


def family_config(sizes: Sizes, terms: int | None = None) -> WorkloadConfig:
    """The generator parameters of the workload family."""
    n = sizes.terms_per_source if terms is None else terms
    return WorkloadConfig(
        universe_size=max(n, sizes.universe_size * n // sizes.terms_per_source),
        n_sources=2,
        terms_per_source=n,
        overlap=OVERLAP,
        identical_fraction=IDENTICAL_FRACTION,
        seed=FAMILY_SEED,
    )


@dataclass
class BuildInputs:
    """Serialized sources plus lexicon; parsed fresh for every build."""

    sources: list[tuple[str, str]]  # (name, adjacency text)
    lexicon: dict
    terms: list[str]  # every qualified source term, sorted

    def ontologies(self):
        return [adjacency.loads(text, name=name) for name, text in self.sources]

    def wordnet(self) -> MiniWordNet:
        return MiniWordNet.from_dict(self.lexicon)


def make_build_inputs(sizes: Sizes, seed: int, terms: int | None = None) -> BuildInputs:
    """The family, every concept label tagged with a prefix from ``seed``.

    A shared prefix keeps the sort order of all labels, so code that
    walks terms in sorted order (``apply_churn`` among it) picks the
    same structural terms for every seed.
    """
    config = family_config(sizes, terms)
    workload = generate_workload(config)
    tag = f"K{seed % 10**6:06d}x"

    def relabel(text: str) -> str:
        return text.replace("Concept", tag + "Concept")

    return BuildInputs(
        sources=[
            (source.name, relabel(adjacency.dumps(source)))
            for source in workload.sources
        ],
        lexicon=json.loads(relabel(json.dumps(workload.lexicon().to_dict()))),
        terms=[
            relabel(f"{source.name}:{term}")
            for source in workload.sources
            for term in sorted(source.terms())
        ],
    )


def zipf_stream(pool: list, n: int, rng: random.Random) -> list:
    """``n`` draws from ``pool`` under Zipf(``ZIPF_S``).

    The popularity ranking is fixed by the family, so the hot set is
    structurally the same for every seed; ``rng`` draws the sequence.
    """
    ranked = list(pool)
    random.Random(FAMILY_SEED).shuffle(ranked)
    return rng.choices(ranked, zipf_weights(len(ranked), ZIPF_S), k=n)


def probe_batch(sizes: Sizes, seed: int, inputs: BuildInputs) -> list[tuple[str, str]]:
    """The fixed (op, term) probe batch the builds read after building."""
    pool = [(op, t) for t in inputs.terms for op in ("generalizations", "specializations")]
    return zipf_stream(pool, sizes.probes, random.Random(seed * 31 + 1))


def read_pool(terms: list[str]) -> list[dict]:
    """The serve workload's distinct requests: /infer both ways plus a
    range /query per source class (3 x terms, about 10x the 512-entry
    result cache at full size)."""
    pool: list[dict] = []
    for term in terms:
        for op in ("generalizations", "specializations"):
            pool.append({"path": "/infer", "body": {"op": op, "term": term}})
        pool.append(
            {"path": "/query", "body": {"query": f"SELECT v FROM {term} WHERE v < 500"}}
        )
    return pool


def churn_batch(k: int) -> dict:
    """The ``k``-th churn batch of the family's fixed schedule, as the
    ``/churn`` request body (``ArticulationService.churn``'s arguments)."""
    return {
        "source": f"src{k % 2}",
        "mutations": CHURN_MUTATIONS,
        "seed": FAMILY_SEED * 104729 + k,
        **CHURN_WEIGHTS,
    }


def instance_stores(seed: int, articulation) -> dict[str, InstanceStore]:
    """``INSTANCES_PER_TERM`` instances per source term, one numeric
    attribute ``v`` drawn from ``seed``."""
    rng = random.Random(seed * 7 + 3)
    stores: dict[str, InstanceStore] = {}
    for name in sorted(articulation.sources):
        ontology = articulation.sources[name]
        store = InstanceStore(ontology)
        for term in sorted(ontology.terms()):
            for k in range(INSTANCES_PER_TERM):
                store.add(f"{term}#{k}", term, v=rng.randrange(1000))
        stores[name] = store
    return stores
