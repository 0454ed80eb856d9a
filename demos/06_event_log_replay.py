"""
An event log you can trust
==========================

Stepping is pure, so a log of inputs and outputs is a complete, checkable
record: replaying the inputs against a fresh machine must regenerate the
outputs exactly. ``crem.eventlog`` appends one JSONL record per input and
``replay`` verifies the whole file; ``crem run --log`` and ``crem replay``
make the same calls from the command line.
"""

import json
import sys
import tempfile
from pathlib import Path

from crem import cart, eventlog

NAME = "cart-and-shipping"
entry = cart.registry()[NAME]


def numbered(*commands):
    """Command lines numbered from 1, as a command file's lines are."""
    return list(enumerate(commands, start=1))


with tempfile.TemporaryDirectory() as scratch:
    log = Path(scratch) / "events.jsonl"

    # %%
    # Append with logging, then replay: every record regenerated exactly.
    # Each command's outputs print once its record is in the log.

    with eventlog.open_log(log, NAME, entry) as events:
        events.append(numbered("cart PayCart", "ship MarkAsDelivered"), sys.stdout.write)
    print(log.read_text(encoding="utf-8"), end="")
    print("replay checked", eventlog.replay(log, NAME, entry), "records")

    # %%
    # Open the same log again and it resumes: the sidecar manifest,
    # events.jsonl.crem, vouches for the records already checked, so only the
    # two new commands step and print. The cart is paid and the parcel
    # delivered, so each prints [].

    with eventlog.open_log(log, NAME, entry) as events:
        print("resuming at seq", events.seq)
        events.append(numbered("cart MarkCartAsPaid", "ship StartShipping"), sys.stdout.write)
    manifest = json.loads(Path(f"{log}.crem").read_text(encoding="utf-8"))
    print("manifest version:", manifest["version"], "records:", manifest["records"])

    # %%
    # Tamper with one logged output and the replay pinpoints the record.

    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    records[0]["outputs"].pop()
    log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    try:
        eventlog.replay(log, NAME, entry)
    except eventlog.Diverged as error:
        print("replay after tampering:", error)
