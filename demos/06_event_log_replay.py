"""
An event log you can trust
==========================

Stepping is pure, so a log of inputs and outputs is a complete, checkable
record: replaying the inputs against a fresh machine must regenerate the
outputs exactly. The CLI appends one JSONL record per input and the replay
command verifies the whole file.
"""

import json
import tempfile
from pathlib import Path

from crem import cli

with tempfile.TemporaryDirectory() as scratch:
    commands = Path(scratch) / "commands.txt"
    log = Path(scratch) / "events.jsonl"
    commands.write_text("cart PayCart\nship MarkAsDelivered\n", encoding="utf-8")

    # %%
    # Run with logging, then replay: exit code 0 means every record
    # regenerated exactly.

    code = cli.main(["run", "cart-and-shipping", "--input", str(commands), "--log", str(log)])
    print("run exit:", code)
    print(log.read_text(encoding="utf-8"), end="")
    print("replay exit:", cli.main(["replay", "cart-and-shipping", "--log", str(log)]))

    # %%
    # Run again on the same log and it resumes: the sidecar manifest,
    # events.jsonl.crem, vouches for the records already checked, so only the
    # two new commands step and print. The cart is paid and the parcel
    # delivered, so each prints [].

    commands.write_text("cart MarkCartAsPaid\nship StartShipping\n", encoding="utf-8")
    code = cli.main(["run", "cart-and-shipping", "--input", str(commands), "--log", str(log)])
    print("resumed run exit:", code)
    manifest = json.loads(Path(f"{log}.crem").read_text(encoding="utf-8"))
    print("manifest version:", manifest["version"], "records:", manifest["records"])

    # %%
    # Tamper with one logged output and the replay pinpoints the record.

    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    records[0]["outputs"].pop()
    log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    print("replay after tampering:", cli.main(["replay", "cart-and-shipping", "--log", str(log)]))
