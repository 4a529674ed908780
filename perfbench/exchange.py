"""The ``exchange_w256`` client: ScatterReduce rounds over the S3 channel.

Drives the public engine, channel and communication-pattern API the way
the Table-3 study's ``measure_exchange`` does, but for ``--rounds``
back-to-back rounds of ``--workers`` ranks with a 400 KB logical model,
billed by a cost meter. Every rank's input vector is drawn from
``--seed`` (see ``workloads.make_inputs``); the merged
vectors and the simulated results are written to ``--out`` for the
benchmark runner to check.

    PYTHONPATH=src python perfbench/exchange.py --seed 20210620 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.comm import patterns
from repro.pricing.meter import CostMeter
from repro.simulation.engine import Engine
from repro.storage.services import make_channel
from workloads import (
    EXCHANGE_LENGTH,
    EXCHANGE_LOGICAL_NBYTES,
    EXCHANGE_ROUNDS,
    EXCHANGE_WORKERS,
    make_inputs,
)


def run(seed: int, out_dir: str, workers: int, rounds: int) -> None:
    inputs = make_inputs(seed, rounds, workers, EXCHANGE_LENGTH)
    engine = Engine()
    meter = CostMeter()
    store = make_channel("s3", meter=meter).store

    def worker(rank: int):
        merged = []
        for index in range(rounds):
            vector = yield from patterns.scatter_reduce(
                store,
                rank,
                workers,
                f"{index:08d}",
                inputs[index, rank],
                logical_nbytes=EXCHANGE_LOGICAL_NBYTES,
                reduce="mean",
            )
            merged.append(vector)
        return merged

    procs = [engine.spawn(worker(rank), name=f"w{rank}") for rank in range(workers)]
    engine.run()

    merged = np.stack([np.stack(proc.result) for proc in procs], axis=1)
    np.save(os.path.join(out_dir, "merged.npy"), merged)
    result = {
        "clock": engine.now,
        "per_worker": [
            {"finished_at": proc.finished_at, "breakdown": proc.trace.as_dict()}
            for proc in procs
        ],
        "cost": meter.breakdown(),
        "objects_left": len(store),
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=EXCHANGE_WORKERS)
    parser.add_argument("--rounds", type=int, default=EXCHANGE_ROUNDS)
    args = parser.parse_args(argv)
    run(args.seed, args.out, args.workers, args.rounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
