"""Write digests.json: the sha256 of every diagram the diagrams workload renders.

    python3 bench/freeze_digests.py

Run it only on a commit whose diagrams are known to be right. The file in
the repository was frozen from crem's seed commit, and the ROADMAP requires
later commits to reproduce those diagrams byte for byte, so regenerating it
elsewhere would hide exactly the regressions the workload exists to catch.
"""

import json
import sys

import run
import wl_diagrams

if __name__ == "__main__":
    digests = wl_diagrams.freeze(run.load_crem())
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    wl_diagrams.DIGESTS.write_text(text, encoding="utf-8")
    print(f"wrote {len(digests)} digests to {wl_diagrams.DIGESTS}", file=sys.stderr)
