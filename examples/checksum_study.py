#!/usr/bin/env python3
"""Checksum engineering for small messages (Section 5.1 / Figure 8).

Two parts:

1. *Correctness*: both checksum implementations (the simple loop and
   the 4.4BSD-style unrolled routine) compute the real RFC 1071
   checksum, including over fragmented mbuf chains with odd segment
   boundaries — shown by checksumming live TCP segments.
2. *Performance*: the Figure 8 experiment — with a cold instruction
   cache the small routine wins for messages up to ~900 bytes even
   though it does more work per byte.

Run:  python examples/checksum_study.py
"""

from repro.buffers import MbufChain
from repro.experiments import figure8
from repro.harness import run_assembled
from repro.protocols import (
    checksum_chain,
    internet_checksum,
    internet_checksum_unrolled,
)


def correctness_demo() -> None:
    message = bytes(range(256)) * 3 + b"odd"
    flat_simple = internet_checksum(message)
    flat_unrolled = internet_checksum_unrolled(message)
    print(f"simple   checksum: {flat_simple:#06x}")
    print(f"unrolled checksum: {flat_unrolled:#06x}")
    assert flat_simple == flat_unrolled

    # The hard case that bloats real checksum code: an mbuf chain whose
    # segments end on odd byte boundaries.
    for segment_size in (3, 7, 16, 129):
        chain = MbufChain.from_bytes(message, segment_size=segment_size)
        chained = checksum_chain(chain, simple=False)
        assert chained == flat_simple, segment_size
        print(f"mbuf chain (segments of {segment_size:>3}): {chained:#06x}  OK")


def main() -> None:
    print(__doc__)
    correctness_demo()
    print()
    result = run_assembled(figure8.SWEEP, "default")
    print(result.render())
    print()
    crossover = result.cold_crossover()
    print(
        f"With a cold cache the simple routine wins below {crossover:.0f}\n"
        f"bytes: its 288 bytes of code cost 9 cache-line fills versus 31\n"
        f"for the elaborate routine. 'Any checksum routine which touches\n"
        f"more than a few hundred bytes will be slow for small messages.'"
    )


if __name__ == "__main__":
    main()
