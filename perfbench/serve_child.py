"""The server process of the ``serve`` workload.

Builds the ``build`` workload's articulation for ``--seed``, installs it
with seeded instance stores into an ``ArticulationService`` whose churn
journal is on, and serves it over HTTP on an ephemeral port.  It prints
one JSON line when ready, then obeys commands on standard input:

* ``trace on`` / ``trace off`` -- wrap the layer entry points or not,
  then print a JSON line saying so;
* ``stop`` -- stop serving, print the final JSON line (peak RSS, spans,
  counters) and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter


def start_service(sizes, seed: int, journal: Path, pacer=None):
    """Inputs -> articulation -> service; returns (service, ready info).

    ``pacer`` times the reference as the build starts and after its
    articulation and install phases."""
    from repro.inference.horn import HornEngine
    from repro.serving.service import ArticulationService

    from perfbench import builds
    from perfbench import inputs as inp
    from perfbench.measure import unpaced

    source_inputs = inp.make_build_inputs(sizes, seed)
    ontologies = source_inputs.ontologies()
    lexicon = source_inputs.wordnet()
    mark = pacer.mark if pacer is not None else unpaced
    mark()
    t0 = perf_counter()
    articulation, proposals, accepted, pairs = builds.articulate(ontologies, lexicon)
    articulate_s = perf_counter() - t0
    mark()
    # instance rows are inputs, made outside the build timing
    stores = inp.instance_stores(seed, articulation)
    service = ArticulationService(journal_path=str(journal) if journal else None)
    # the install's full saturation: keep its HornEngine.last_stats
    stats: dict = {}
    original = HornEngine.__dict__["saturate"]

    def saturate(engine, *args, **kwargs):
        result = original(engine, *args, **kwargs)
        stats.update(engine.last_stats)
        return result

    HornEngine.saturate = saturate
    try:
        t0 = perf_counter()
        installed = service.install(articulation, stores=stores)
        install_s = perf_counter() - t0
        mark()
    finally:
        HornEngine.saturate = original
    return service, {
        "build_s": articulate_s + install_s,
        "proposals": proposals,
        "accepted": accepted,
        "candidate_pairs": pairs,
        "closure_facts": installed["facts"],
        "saturate_stats": stats,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", required=True, help="JSON of inputs.Sizes fields")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    from repro.serving.server import ArticulationServer

    from perfbench import inputs as inp
    from perfbench.measure import Pacer, peak_rss_mb
    from perfbench.tracing import Tracer, instrumented

    workdir = Path(args.workdir)
    tempfile.tempdir = str(workdir)
    sizes = inp.Sizes(**json.loads(args.sizes))
    pacer = Pacer()
    service, info = start_service(sizes, args.seed, workdir / "serve.journal", pacer)
    info["references"] = pacer.references
    server = ArticulationServer(service, port=0).start()
    info["port"] = server.port
    print(json.dumps(info), flush=True)

    tracer = Tracer()
    with ExitStack() as tracing:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracing.enter_context(instrumented(tracer))
            elif command == "trace off":
                tracing.close()
            elif command == "stop":
                break
            print(json.dumps({"done": command}), flush=True)
    server.stop()
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "spans": [span.to_json() for span in tracer.spans],
        "counters": tracer.counters,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
