"""One cluster worker: a full serve engine owning one shard.

A worker is ``repro-serve`` with a shard identity: the complete engine
(LRU result cache, substrate cache, scenarios, fault plans, circuit
breakers, graceful drain) bound to an ephemeral port, announced to the
supervisor through a parseable stdout banner, and flushing its
per-shard cache snapshot both periodically and on graceful shutdown —
the periodic flush is what lets a SIGKILL'd worker reboot *warm* from
its last checkpoint.

Shared-nothing by construction: workers never talk to each other, and
the only coordination is the consistent-hash ring the router applies.
Run directly as ``python -m repro.cluster.worker --shard-id K`` (the
supervisor does exactly this).
"""

from __future__ import annotations

import argparse

from repro.cluster.protocol import worker_banner
from repro.serve.http import (
    engine_options,
    make_server,
    parse_serve_args,
    register_scenario_files,
    restore_snapshot,
    run_serve_loop,
    serve_parser,
)

__all__ = ["main", "worker_parser"]

#: How often a worker checkpoints its result cache to the shard
#: snapshot, absent an explicit ``--snapshot-interval``.  Frequent
#: enough that a crashed worker's warm boot is minutes-fresh at worst,
#: cheap enough to be noise (the snapshot is a few KB of JSON).
DEFAULT_SNAPSHOT_INTERVAL_S = 5.0


def worker_parser() -> argparse.ArgumentParser:
    """The shared serve options plus ``--shard-id`` and the shard's
    ``--cache-snapshot``."""
    parser = serve_parser(
        "python -m repro.cluster.worker",
        "One shard worker of a repro-serve cluster (the supervisor "
        "spawns these).",
        port=0,
        snapshot_interval=DEFAULT_SNAPSHOT_INTERVAL_S,
    )
    parser.add_argument("--shard-id", type=int, metavar="N",
                        help="this worker's shard (required, >= 0)")
    parser.add_argument("--cache-snapshot", metavar="FILE",
                        help="the shard's cache snapshot: warm boot from "
                             "it, flush to it periodically and on drain")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for one shard worker (spawned by the supervisor)."""
    args = parse_serve_args(worker_parser(), argv)
    if args is None:
        return 0
    shard_id = args.shard_id
    if shard_id is None or shard_id < 0:
        raise SystemExit("--shard-id N (>= 0) is required for a cluster worker")

    server = make_server(args.host, args.port, verbose=args.verbose,
                         **engine_options(args))
    # Shard identity rides the worker's own metrics, so even a raw
    # per-worker /metrics scrape is attributable.
    server.client.engine.metrics.register_gauge(
        "shard_id", lambda: float(shard_id)
    )
    register_scenario_files(server, args.scenario)
    if args.cache_snapshot is not None:
        restore_snapshot(server, args.cache_snapshot)
    name = f"repro-cluster-worker shard {shard_id}"
    return run_serve_loop(
        server,
        snapshot_file=args.cache_snapshot,
        drain_timeout=args.drain_timeout,
        snapshot_interval=args.snapshot_interval,
        name=name,
        banner=worker_banner(shard_id, server.url),
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
