#!/usr/bin/env python3
"""Print Tables I-IV: which routings FlexVC supports with how many VCs.

This example needs no simulation at all — it exercises the analytical side of
the library (``repro.core.feasibility``) that answers questions like "can I
run Valiant on a Dragonfly with only 3/2 VCs?" (opportunistically, yes) or
"how many VCs do request-reply exchanges need?" (3+2=5 instead of the
baseline's 10 in a generic diameter-2 network: the 50% saving headline).

Run:  python examples/vc_feasibility_tables.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    DIAMETER2_MIN,
    DRAGONFLY_MIN,
    DistanceBasedPolicy,
    VcArrangement,
    classify,
    classify_request_reply,
    walk_reference_path,
)
from repro.experiments import render_all_tables  # noqa: E402


def main() -> None:
    print(render_all_tables())

    print("\nAd-hoc queries")
    print("--------------")
    df_3_2 = VcArrangement.single_class(3, 2)
    print(f"Dragonfly, VAL routing with {df_3_2} VCs:",
          classify(df_3_2, DRAGONFLY_MIN, "VAL").value)

    five = VcArrangement.request_reply((3, 0), (2, 0))
    request, reply = classify_request_reply(five, DIAMETER2_MIN, "VAL")
    print(f"Diameter-2 network, request-reply VAL with {five.label()} VCs:",
          f"requests {request.value}, replies {reply.value}",
          "(the baseline would need 5+5=10 VCs: a 50% buffer saving)")

    df_5_3 = VcArrangement.request_reply((3, 2), (2, 1))
    request, reply = classify_request_reply(df_5_3, DRAGONFLY_MIN, "PAR")
    print(f"Dragonfly, request-reply PAR with {df_5_3.label()} VCs:",
          f"requests {request.value}, replies {reply.value}",
          "(baseline needs 10/4)")

    # The same walk under the distance-based baseline yields its fixed
    # per-hop VCs: l0 g0 l1 | l2 g1 l3 on a 4/2 Dragonfly.
    walk = walk_reference_path(
        DistanceBasedPolicy(VcArrangement.single_class(4, 2)), DRAGONFLY_MIN, "VAL")
    print("Dragonfly, baseline VAL with 4/2 VCs walks VCs", walk.chosen_vcs)


if __name__ == "__main__":
    main()
