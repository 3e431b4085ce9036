#!/usr/bin/env python
"""Netflow: data-dependent binary records, streamed packet by packet.

Figure 1 lists netflow — "data-dependent number of fixed-width binary
records" at over a gigabit per second — among the sources PADS handles.
The description (gallery/netflow.pads) uses a parameterised array whose
size comes from the packet header's ``count`` field.

This example streams packets one at a time (the multiple-entry-point
style from Section 4: "sequence calls to parsing functions that read
manageable portions of the file"), tolerates corrupted packets, and
profiles protocols and top talkers.

Run:  python examples/netflow_stream.py
"""

import random
from collections import Counter

from repro import gallery
from repro.core.io import NoRecords, Source

N_PACKETS = 300
PROTOCOLS = {1: "icmp", 6: "tcp", 17: "udp"}


def synth_stream(rng: random.Random, netflow) -> bytes:
    chunks = []
    for i in range(N_PACKETS):
        pkt = netflow.generate("nf_packet_t", rng)
        raw = bytearray(netflow.write(pkt, "nf_packet_t"))
        if i % 97 == 0:  # a corrupted export now and then (missed packets)
            raw[0] = 0xFF
        chunks.append(bytes(raw))
    return b"".join(chunks)


def main() -> None:
    netflow = gallery.load_netflow()
    rng = random.Random(5)
    stream = synth_stream(rng, netflow)
    print(f"== streaming {len(stream)} bytes of netflow exports ==")

    src = Source.from_bytes(stream, NoRecords())

    packets = flows = bad = 0
    octets_by_proto = Counter()
    talkers = Counter()
    from repro import Mask, P_CheckAndSet
    mask = Mask(P_CheckAndSet)
    while not src.at_eof():
        before = src.pos
        pkt, pd = netflow.parse(src, "nf_packet_t", mask)
        packets += 1
        if pd.nerr:
            bad += 1
            # A bad header makes the flow count untrustworthy: resynchronise
            # by skipping the rest of this export's bytes heuristically.
            if src.pos == before:
                src.skip(1)
            continue
        flows += len(pkt.flows)
        for flow in pkt.flows:
            octets_by_proto[PROTOCOLS.get(flow.prot, str(flow.prot))] += flow.octets
            talkers[flow.srcaddr] += flow.octets

    print(f"packets: {packets} ({bad} corrupted), flows: {flows}")

    print("\ntraffic by protocol:")
    for proto, octets in octets_by_proto.most_common(5):
        print(f"    {proto:>6}: {octets:>14,} octets")

    print("\ntop talkers:")
    for addr, octets in talkers.most_common(3):
        dotted = ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))
        print(f"    {dotted:>15}: {octets:>14,} octets")


if __name__ == "__main__":
    main()
