"""Table 3: namespace operations per second, HDFS vs OctopusFS.

S-Live drives the identical operation mix against two instances of the
one :class:`~repro.fs.namespace.Namespace`: the OctopusFS namespace on
the paper's tier axis, and the HDFS baseline with an empty tier axis
(``tier_order=()``), where the scalar replication factor ``r`` is the
vector ``⟨U=r⟩`` and encodes to the plain count. Rates are real
wall-clock measurements of the metadata code paths, reported per
worker of the 9-worker testbed as in the paper.

Paper shape to hold: the two systems are very close — the tier
machinery must not meaningfully slow namespace operations. As in the
paper, where OctopusFS is an HDFS fork sharing ~99 % of its code, both
columns run one code path, so their difference is the tier-axis work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.tables import format_table
from repro.fs.namespace import Namespace
from repro.workloads.slive import OPERATIONS, OctopusNamespaceAdapter, SLive

#: The paper's Table 3 (ops/s per worker), for the comparison column.
PAPER_TABLE3 = {
    "mkdir": (140.5, 135.9),
    "ls": (7089.0, 7143.0),
    "create": (54.9, 53.4),
    "open": (5937.4, 5897.1),
    "rename": (111.5, 111.1),
    "delete": (49.8, 47.1),
}

WORKERS = 9


@dataclass
class Table3Result:
    rows: list[list[object]] = field(default_factory=list)

    def format(self) -> str:
        return format_table(
            [
                "operation",
                "HDFS ops/s/w",
                "OctopusFS ops/s/w",
                "overhead %",
                "paper HDFS",
                "paper Octo",
            ],
            self.rows,
            title="Table 3: namespace operations per second per worker",
        )


def run(scale: float = 1.0, seed: int = 0, repeats: int = 4) -> Table3Result:
    """Run S-Live ``repeats`` times (as the paper does) and keep the
    best rate per op, interleaving systems to even out CPU state."""
    ops = max(200, int(4000 * scale))
    slive = SLive(ops_per_type=ops, seed=seed)
    best: dict[str, dict[str, float]] = {"HDFS": {}, "OctopusFS": {}}
    for _ in range(repeats):
        for adapter in (
            OctopusNamespaceAdapter(),
            OctopusNamespaceAdapter(Namespace(tier_order=())),
        ):
            outcome = slive.run(adapter)
            store = best[outcome.system]
            for op, rate in outcome.ops_per_second.items():
                store[op] = max(store.get(op, 0.0), rate)
    result = Table3Result()
    for op in OPERATIONS:
        hdfs = best["HDFS"][op] / WORKERS
        octo = best["OctopusFS"][op] / WORKERS
        paper = PAPER_TABLE3.get(op, (float("nan"), float("nan")))
        overhead = 100.0 * (hdfs - octo) / hdfs if hdfs else 0.0
        result.rows.append([op, hdfs, octo, overhead, paper[0], paper[1]])
    return result
