"""Self-tests of the benchmark's load generator.

Run from the checkout root::

    python3 -m pytest -q -s perfbench/test_perfbench.py

(The repo's own suite collects only ``tests/``, so these run on demand.)
"""

from __future__ import annotations

import asyncio
import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import LOST, OK, REJECTED, SRC  # noqa: E402

sys.path.insert(0, SRC)

import gateway_mix  # noqa: E402
import ingest_stream  # noqa: E402
from client import GatewayProcess, Line, closed_loop  # noqa: E402


def test_streams_are_a_function_of_the_seed():
    """Same seed: byte-identical streams; another seed: a different one."""
    mix = [gateway_mix.stream_digest(
        itertools.islice(gateway_mix.make_stream(s), 150)) for s in (5, 5, 6)]
    ingest = [ingest_stream.stream_digest(*ingest_stream.make_stream(s, 8))
              for s in (5, 5, 6)]
    print(f"\ngateway-mix   seed 5: {mix[0]}\n"
          f"gateway-mix   seed 6: {mix[2]}\n"
          f"ingest-stream seed 5: {ingest[0]}\n"
          f"ingest-stream seed 6: {ingest[2]}")
    assert mix[0] == mix[1] and mix[0] != mix[2]
    assert ingest[0] == ingest[1] and ingest[0] != ingest[2]


def test_stream_has_every_class_and_oversize_lines():
    lines = list(itertools.islice(gateway_mix.make_stream(3), 400))
    classes = {ln.cls for ln in lines}
    assert classes == set(gateway_mix.CLASSES)
    oversize = [ln for ln in lines if ln.cls == "oversize"]
    assert min(len(ln.data) for ln in oversize) > 64 * 1024


def test_generator_counts_rejected_and_lost_lines_and_survives():
    """A rejected row and a dropped connection each fail their request.

    An oversize line costs today's gateway its connection: the generator
    records the line as lost, reconnects and completes the line after it
    on the same caller."""
    stream = list(itertools.islice(gateway_mix.make_stream(3), 400))
    small = [ln for ln in stream if ln.cls == "vectorized"][:2]
    big = next(ln for ln in stream if ln.cls == "oversize")
    bad = Line("bad", "invalid",
               b'{"id": "bad", "tenant": "t0", "engine": "nope", '
               b'"planted": {"communities": 2, "size": 5, "p_in": 0.5, '
               b'"p_out": 0.1}}\n')
    lines = [small[0], bad, big, small[1]]
    with GatewayProcess("selftest") as gw:
        requests, _ = asyncio.run(
            closed_loop(gw.port, lines, seconds=120, conns=1))
    assert [r.rid for r in requests] == [ln.rid for ln in lines]
    assert [r.status for r in requests] == [OK, REJECTED, LOST, OK]
