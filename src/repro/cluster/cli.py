"""``repro-serve --cluster N``: the sharded serve cluster front end.

Thin argument-parsing shell over :class:`ClusterSupervisor` — the
``repro-serve`` entry point hands over here whenever ``--cluster`` is
present, so the single-process and clustered forms share one command,
one option parser (:func:`repro.serve.http.serve_parser` plus the
cluster-only options) and one wire protocol.
"""

from __future__ import annotations

import argparse

from repro.cluster.supervisor import ClusterSupervisor
from repro.errors import ClusterError
from repro.serve.http import (
    await_shutdown,
    parse_serve_args,
    serve_parser,
    shutdown_on_signal,
)

__all__ = ["cluster_parser", "main"]


def cluster_parser() -> argparse.ArgumentParser:
    """The shared serve options plus the cluster-only ones."""
    parser = serve_parser(
        "repro-serve",
        "Run N shared-nothing serve workers behind a consistent-hash "
        "router (bound to --host/--port); the engine options apply to "
        "every worker.",
        port=8077,
        snapshot_interval=5.0,
    )
    add = parser.add_argument
    add("--cluster", type=int, required=True, metavar="N",
        help="number of shard workers")
    add("--fault-plan-shard", type=int, metavar="K",
        help="apply --fault-plan only in shard K (chaos drills against "
             "exactly one degraded shard)")
    add("--snapshot-dir", metavar="DIR",
        help="per-shard cache snapshots (shard-K.json)")
    add("--spill", type=int, default=1, metavar="N",
        help="max ring neighbours to try past the primary shard when it "
             "is unavailable (default %(default)s)")
    add("--ring-seed", type=int, default=0, metavar="N",
        help="consistent-hash ring seed (default %(default)s)")
    add("--no-hedge", dest="hedge", action="store_false",
        help="disable hedged requests (default: after a kind's rolling "
             "p95, race a ring neighbour and take the first answer)")
    add("--hedge-ratio", type=float, default=0.05, metavar="R",
        help="cap hedges at R of all requests (default %(default)g)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the clustered form of ``repro-serve``."""
    args = parse_serve_args(cluster_parser(), argv)
    if args is None:
        return 0
    try:
        supervisor = ClusterSupervisor(
            args.cluster,
            host=args.host,
            port=args.port,
            handler_concurrency=args.handler_concurrency,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            timeout_s=args.timeout,
            scenario_files=args.scenario,
            fault_plan_file=args.fault_plan,
            fault_plan_shard=args.fault_plan_shard,
            snapshot_dir=args.snapshot_dir,
            snapshot_interval_s=args.snapshot_interval,
            drain_timeout_s=args.drain_timeout,
            spill=args.spill,
            ring_seed=args.ring_seed,
            hedge=args.hedge,
            hedge_ratio=args.hedge_ratio,
            verify_sample_rate=args.verify_sample_rate,
            scrub_interval_s=args.scrub_interval,
            verbose=args.verbose,
        )
    except (ClusterError, ValueError) as exc:  # an out-of-range option
        raise SystemExit(f"repro-serve: error: {exc}")

    shutdown_requested = shutdown_on_signal("draining cluster",
                                            args.drain_timeout)
    supervisor.start()
    print(
        f"repro-serve cluster listening on {supervisor.url} "
        f"({args.cluster} shards, spill {args.spill})",
        flush=True,
    )
    await_shutdown(shutdown_requested)
    supervisor.stop()
    print("repro-serve cluster exited cleanly", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
