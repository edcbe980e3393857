#!/usr/bin/env python3
"""Memory tuning: adaptive RRR representations, budgets, and compression.

Walks through the paper's §IV-C storage story on a real workload:

1. sample RRR sets on the com-LJ replica (dense, SCC-driven sets);
2. compare the store footprint of Ripples' sorted vectors, pure bitmaps,
   and EfficientIMM's adaptive policy across threshold settings;
3. demonstrate the OOM behaviour under a fixed memory budget (Table III's
   Twitter7 mechanism): the budget check IMM runs make, growing the sketch
   one set at a time, and its paper-scale projection;
4. run the HBMax-style compression baselines (Huffman / delta-varint) and
   show the codec-time-vs-space trade-off the paper cites.

Run:  python examples/memory_tuning.py
"""

import numpy as np

from repro._util import human_bytes
from repro.bench.experiments import oom_projection
from repro.core.sampling import RRRSampler, SamplingConfig, modelled_store_bytes
from repro.diffusion.base import get_model
from repro.errors import OutOfMemoryModelError
from repro.graph.datasets import load_dataset
from repro.sketch.compress import compare_codecs
from repro.sketch.rrr import AdaptivePolicy


def main() -> None:
    graph = load_dataset("livejournal", model="IC", seed=0)
    sampler = RRRSampler(
        get_model("IC", graph), SamplingConfig.efficientimm(),
        seed=1,
    )
    sampler.extend(250)
    store = sampler.store
    sizes = store.sizes()
    n = graph.num_vertices
    print(
        f"com-LJ replica: {n:,} vertices; {len(store)} RRR sets, "
        f"avg size {sizes.mean():,.0f} ({sizes.mean() / n:.0%} coverage)\n"
    )

    # ---- 1. representation comparison --------------------------------
    print("store footprint by representation policy:")
    rows = [
        ("sorted vectors (Ripples)", modelled_store_bytes(sizes, n, None)),
        ("pure bitmaps", len(store) * ((n + 7) // 8)),
    ]
    for frac in (1 / 8, 1 / 32, 1 / 128):
        rows.append((
            f"adaptive, threshold n/{int(1 / frac)}",
            modelled_store_bytes(sizes, n, AdaptivePolicy(frac)),
        ))
    best = min(b for _, b in rows)
    for name, nbytes in rows:
        marker = "  <- best" if nbytes == best else ""
        print(f"  {name:28s} {human_bytes(nbytes):>12s}{marker}")

    # ---- 2. budget / OOM demonstration --------------------------------
    budget = 260 * ((n + 7) // 8)  # room for ~260 bitmaps (all 250 sets)
    print(f"\nreplaying under a {human_bytes(budget)} budget:")
    for label, preset in (
        ("Ripples (lists)", SamplingConfig.ripples),
        ("EfficientIMM", SamplingConfig.efficientimm),
    ):
        # The same seed draws the same sets; the config decides how each is
        # represented and what the budget check charges for it.
        replay = RRRSampler(
            get_model("IC", graph), preset(memory_budget_bytes=budget), seed=1
        )
        try:
            for count in range(1, len(store) + 1):
                replay.extend(count)
        except OutOfMemoryModelError as err:
            print(f"  {label:18s} OOM after {count - 1} sets: {err}")
            continue
        kept = replay.store.sizes()
        bitmaps = int((kept > replay.config.adaptive_policy.threshold(n)).sum())
        hist = {"bitmap": bitmaps, "list": kept.size - bitmaps}
        print(f"  {label:18s} stored all {kept.size} sets "
              f"({human_bytes(replay.modelled_bytes())}) {hist}")

    proj = oom_projection("twitter7", "IC")
    print(
        f"\npaper-scale Twitter7 projection: theta={proj['theta']:,.0f}; "
        f"Ripples needs {human_bytes(proj['ripples_bytes'])}, EfficientIMM "
        f"{human_bytes(proj['efficientimm_bytes'])} "
        f"(node budget {human_bytes(proj['budget_bytes'])}) -> "
        f"Ripples OOM={proj['ripples_oom']}"
    )

    # ---- 3. HBMax-style compression baselines --------------------------
    print("\nHBMax-style codecs on 60 sets (space saved vs codec time):")
    sample_sets = [store.get(i) for i in range(60)]
    for rep in compare_codecs(sample_sets, n):
        print(
            f"  {rep.codec:14s} ratio {rep.ratio:5.2f}x   "
            f"encode {rep.encode_seconds * 1e3:7.1f}ms   "
            f"decode {rep.decode_seconds * 1e3:7.1f}ms"
        )
    print(
        "\nCompression saves space but pays per-set codec time on every "
        "access — the overhead EfficientIMM's plain adaptive "
        "representations avoid (§VI, HBMax discussion)."
    )


if __name__ == "__main__":
    main()
