#!/usr/bin/env python3
"""Minimal external agent for `ivln run --policy ext:...`.

Speaks the line-delimited JSON protocol on stdin/stdout: acks reset and
episode messages; on active observations walks forward a fixed number of
steps per episode and then stops.  On graph scenes it stops immediately
since it has no view of the adjacency.

It acks protocol version 3 in its reset ack, so passive (oracle-phase)
observations arrive without a crop and it sends no reply to them.  Map
crops arrive on active observations as compact label and occupancy
grids, which read_crop decodes with the standard library alone.

Useful as a template for wiring in a real policy: replace decide()
and keep the message loop.
"""

import argparse
import base64
import json
import sys

PROTOCOL_VERSION = 3


def read_crop(crop):
    """(size, labels, occupied) of a compact crop, or None without a map.

    Both grids are row-major, row 0 farthest ahead.  labels[r * size + c]
    is the cell's label, 1..13, or 0 for none; the cell is occupied when
    occupied[i // 8] >> (7 - i % 8) & 1 for i = r * size + c.
    """
    if crop is None:
        return None
    size = crop["size"]
    labels = base64.b64decode(crop["labels"])
    occupied = base64.b64decode(crop["occupied"])
    if len(labels) != size * size or len(occupied) != -(-size * size // 8):
        raise ValueError(f"crop payload does not fit size {size}")
    return size, labels, occupied


def decide(msg: dict, crop, steps_left: int) -> dict:
    if steps_left > 0 and "cell" in msg:
        return {"type": "act", "action": "forward"}
    return {"type": "act", "action": "stop"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--forward-steps",
        type=int,
        default=3,
        metavar="N",
        help="forward moves per episode before stopping (default 3)",
    )
    args = parser.parse_args()

    steps_left = args.forward_steps
    for line in sys.stdin:
        if not line.strip():
            continue
        msg = json.loads(line)
        kind = msg.get("type")
        if kind == "close":
            break
        if kind == "reset":
            reply = {"type": "ack", "protocol_version": PROTOCOL_VERSION}
        elif kind == "episode":
            steps_left = args.forward_steps
            reply = {"type": "ack"}
        elif kind == "observe":
            if msg.get("passive"):
                continue
            reply = decide(msg, read_crop(msg.get("crop")), steps_left)
            if reply.get("action") == "forward":
                steps_left -= 1
        else:
            reply = {"type": "ack"}
        sys.stdout.write(json.dumps(reply, sort_keys=True, separators=(",", ":")) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
