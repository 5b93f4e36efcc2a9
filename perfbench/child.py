"""One figures-cold operation in a fresh interpreter.

Run as ``python -m perfbench.child`` from the repository root with
``src`` on ``PYTHONPATH``. A fresh interpreter per operation keeps the
process-local workload memo (``repro.runner.pool._workload_for``) from
carrying builds over from an earlier sweep.

``--mode cold`` sweeps the figures plan into an empty cache, its points
submitted in an order shuffled by ``--order-seed``. ``--mode setup``
stops once a sweep could be issued (the set-up alone). Both modes
write one JSON record to ``--out``; ``ready_at`` is the wall-clock time
at which the sweep could be issued.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from perfbench.figures import ENGINE, PLAN_SEED
from perfbench.spans import NullTracer, Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "cold"), required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--order-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="trace; write spans here")
    args = parser.parse_args(argv)

    from repro.analysis.paperfigs import figures_plan
    from repro.session import Session

    tracer = Tracer() if args.spans else NullTracer()
    tracer.install()
    plan = figures_plan(scale=args.scale, seed=PLAN_SEED)
    session = Session(jobs=1, cache_dir=args.cache_dir, progress=False, engine=ENGINE)
    record: dict = {"ready_at": time.time()}
    try:
        if args.mode == "cold":
            specs = list(plan.specs)
            random.Random(args.order_seed).shuffle(specs)
            start = time.perf_counter()
            session.sweep(specs)
            record["wall_s"] = time.perf_counter() - start
            record["simulated"] = session.submitted
    finally:
        tracer.uninstall()
        session.close()
    if args.spans:
        record["trace"] = tracer.summary()
        tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
