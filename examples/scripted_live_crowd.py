"""A "live" crowd driven by scripted answer streams.

Everything else in this repository simulates members from materialized
personal databases. This example shows the deployment path instead:
members whose answers arrive over a line-oriented text protocol
(:class:`repro.crowd.StreamMember`) — here scripted answer lists, in a
real deployment stdin, files or sockets. The exact same CrowdMiner
drives them, and the transcript shows the rendered natural-language
questions a human would see.

Scripts use the tagged protocol: ``open:`` lines are consumed by open
questions (volunteer a habit / pass), ``closed:`` lines by closed
questions (frequency words), so the script does not need to predict how
the miner interleaves question types.

Run:  python examples/scripted_live_crowd.py
"""

import io

from repro import Thresholds
from repro.crowd import MemberCrowd, StreamMember, folk_remedies_renderer
from repro.miner import CrowdMiner, CrowdMinerConfig, analyze_result
from repro.synth import folk_remedies_domain

CLOSED_POOL = [
    "closed: often",
    "closed: sometimes",
    "closed: often",
    "closed: rarely",
    "closed: never",
    "closed: sometimes",
    "closed: often",
    "closed: very often",
    "closed: never",
    "closed: 0.3 0.8",
    "closed: sometimes",
    "closed: never",
]

SCRIPTS = {
    "alice": ["open: sore throat -> ginger tea ; often", "open: pass"] + CLOSED_POOL,
    "bob": ["open: headache -> coffee ; very often", "open: pass"] + CLOSED_POOL,
    "carol": ["open: insomnia -> chamomile tea ; sometimes", "open: pass"] + CLOSED_POOL,
    "dave": ["open: sore throat -> ginger tea ; often", "open: pass"] + CLOSED_POOL,
}


def main() -> None:
    domain = folk_remedies_domain()
    renderer = folk_remedies_renderer(domain)
    transcript = io.StringIO()
    members = [
        StreamMember(name, script, renderer=renderer, echo=transcript)
        for name, script in SCRIPTS.items()
    ]
    crowd = MemberCrowd(members)

    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=Thresholds(0.25, 0.5),
            budget=sum(len(s) for s in SCRIPTS.values()),
            min_samples=3,
            seed=2,
        ),
    )
    result = miner.run()

    print("=== what the members were asked (transcript) ===")
    for line in transcript.getvalue().splitlines()[:12]:
        print(" ", line)
    print("  ...")

    print("\n=== mined from four people ===")
    print(result.summary())

    print("\n=== session analysis ===")
    print(analyze_result(result).summary())


if __name__ == "__main__":
    main()
