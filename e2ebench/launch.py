"""Start ``repro-serve`` or ``repro-paper`` with the span wrappers installed.

    python3 e2ebench/launch.py SPANS_FILE serve [repro-serve args ...]
    python3 e2ebench/launch.py SPANS_FILE paper [repro-paper args ...]

Installs :func:`spans.install`, samples ``kernel_invocations()`` every
10 ms on a daemon thread, runs the CLI's ``main`` and, when it returns,
writes every span and sample to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys
import threading
import time

import spans

KERNEL_SAMPLE_S = 0.01


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("serve", "paper"):
        raise SystemExit(__doc__)
    spans_file, cli, cli_args = argv[0], argv[1], argv[2:]
    spans.install()
    from repro.analysis.arrays import kernel_invocations

    samples: list[tuple[float, int]] = []
    stop = threading.Event()

    def sample_kernels() -> None:
        while not stop.is_set():
            samples.append((time.perf_counter(), kernel_invocations()))
            stop.wait(KERNEL_SAMPLE_S)

    sampler = threading.Thread(target=sample_kernels, daemon=True)
    sampler.start()
    if cli == "serve":
        from repro.serve.http import main as cli_main
    else:
        from repro.harness.runner import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        stop.set()
        sampler.join()
        samples.append((time.perf_counter(), kernel_invocations()))
        spans.dump(spans_file, {"kernel_samples": samples})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
