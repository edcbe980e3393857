"""Golden regression tests: pinned outputs of canonical runs.

These pin the exact seeds/statistics produced by fixed-seed runs on the
canonical replicas.  They exist to catch *unintentional* changes to RNG
consumption order, dataset generation, or kernel semantics — any of which
silently changes every experiment.  If a change is intentional (e.g. a
sampler draws in a different order), regenerate the constants with the
printing snippet in each test's docstring and say so in the commit.
"""

import hashlib

import numpy as np
import pytest

from repro.core import EfficientIMM, IMMParams, RipplesIMM
from repro.graph.datasets import load_dataset


class TestGoldenDatasets:
    def test_replica_shapes_pinned(self):
        expected = {
            "amazon": (3400, 12964),
            "dblp": (3200, 11684),
            "youtube": (11000, 33518),
            "livejournal": (8000, 33434),
            "pokec": (6000, 23962),
            "skitter": (4000, 54980),
            "google": (8192, 43542),
            "twitter7": (16384, 542498),
        }
        for name, (n, m) in expected.items():
            g = load_dataset(name, seed=0)
            assert (g.num_vertices, g.num_edges) == (n, m), name

    def test_amazon_edge_checksum(self):
        """Fingerprint of the canonical amazon topology.

        Regenerate:  python -c "from repro.graph.datasets import \
        load_dataset; import numpy as np; g = load_dataset('amazon', \
        seed=0); print(int(g.indices.astype(np.int64).sum() % \
        1_000_000_007))"
        """
        g = load_dataset("amazon", seed=0)
        checksum = int(g.indices.astype(np.int64).sum() % 1_000_000_007)
        assert checksum == 21879396

    def test_ic_probs_fingerprint(self, amazon_ic):
        # Mean of canonical IC weights is deterministic.
        assert amazon_ic.probs.mean() == pytest.approx(0.5, abs=0.02)


class TestGoldenRuns:
    def test_skitter_canonical_seeds(self):
        """Pinned: EfficientIMM(skitter, k=10, theta_cap=500, seed=1).

        Regenerate:  python -m repro run skitter --model IC --k 10
                     --theta-cap 500 --seed 1
        """
        g = load_dataset("skitter", model="IC", seed=1)
        res = EfficientIMM(g).run(IMMParams(k=10, theta_cap=500, seed=1))
        # Both frameworks agree, deterministically, forever.
        res2 = RipplesIMM(g).run(IMMParams(k=10, theta_cap=500, seed=1))
        assert np.array_equal(res.seeds, res2.seeds)
        assert res.num_rrrsets == 500
        # Coverage fraction is a pure function of the pinned RNG stream.
        assert 0.3 < res.coverage_fraction < 0.9

    def test_sampling_stream_pinned(self):
        """Pinned: the bytes of the one sampling stream (counter-keyed by
        seed and set index, drawn in two extends).

        Regenerate:  python -c "from repro.graph.datasets import
        load_dataset; from repro.diffusion.base import get_model; from
        repro.core.sampling import RRRSampler, SamplingConfig; g =
        load_dataset('amazon', model='IC', seed=0, scale=0.5); s =
        RRRSampler(get_model('IC', g), SamplingConfig.efficientimm(),
        seed=7); s.extend(300); s.extend(1000); print(s.store.fingerprint())"
        """
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        g = load_dataset("amazon", model="IC", seed=0, scale=0.5)
        sampler = RRRSampler(
            get_model("IC", g), SamplingConfig.efficientimm(), seed=7
        )
        sampler.extend(300)
        sampler.extend(1000)
        assert sampler.store.fingerprint() == "6fb6b04ca983e2c8"

    def test_lt_sampling_stream_pinned(self):
        """Pinned: the bytes of the LT stream, drawn in two extends whose
        second one spans a kernel-pass boundary.

        Regenerate:  python -c "from repro.graph.datasets import
        load_dataset; from repro.diffusion.base import get_model; from
        repro.core.sampling import RRRSampler, SamplingConfig; g =
        load_dataset('amazon', model='LT', seed=0, scale=1.0); s =
        RRRSampler(get_model('LT', g), SamplingConfig.efficientimm(),
        seed=7); s.extend(3000); s.extend(20000); print(s.store.fingerprint())"
        """
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        g = load_dataset("amazon", model="LT", seed=0, scale=1.0)
        sampler = RRRSampler(
            get_model("LT", g), SamplingConfig.efficientimm(), seed=7
        )
        sampler.extend(3000)
        sampler.extend(20000)
        assert sampler.store.fingerprint() == "ffc5340081652fc8"

    def test_run_is_bit_stable_across_invocations(self):
        g = load_dataset("google", model="IC", seed=0)
        params = IMMParams(k=6, theta_cap=300, seed=42)
        runs = [EfficientIMM(g).run(params) for _ in range(3)]
        for r in runs[1:]:
            assert np.array_equal(r.seeds, runs[0].seeds)
            assert r.coverage_fraction == runs[0].coverage_fraction
            assert r.num_rrrsets == runs[0].num_rrrsets

    def test_profile_pair_stable(self):
        from repro.simmachine.cost import profile_pair

        g = load_dataset("skitter", model="IC", seed=0)
        a = profile_pair(g, "skitter", "IC", k=5, theta_cap=200, seed=0)
        b = profile_pair(g, "skitter", "IC", k=5, theta_cap=200, seed=0)
        for fw in ("Ripples", "EfficientIMM"):
            assert a[fw].num_sets == b[fw].num_sets
            assert a[fw].selection.partitioned_ops == b[fw].selection.partitioned_ops
            assert np.array_equal(a[fw].per_set_costs, b[fw].per_set_costs)



def _digest(values) -> str:
    """Short sha256 of an array's float64 bytes."""
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _stats_digest(stats) -> str:
    """Short sha256 of every array of one :class:`KernelStats`, plus its
    serial ops and barrier count."""
    h = hashlib.sha256()
    for arr in (stats.loads, stats.stores, stats.atomics, stats.compute):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr((float(stats.serial_ops), int(stats.sync_barriers))).encode())
    return h.hexdigest()[:16]


#: ``profile_pair`` per (dataset, model, framework), k=5, seed 0:
#: ``(num_sets, total_entries, per_set_costs digest, KernelCost fields,
#: gather_bytes, store_bytes, sampling_schedule)``.
PROFILE_PINS = {
    ("skitter", "IC", "Ripples"): (
        200, 13667, "4a08cb8f5d25f2cb",
        (56919.999999999985, 14638.491225452264, 0.0, 1.0, 5, 8.0),
        109336.0, 54668, "static",
    ),
    ("skitter", "IC", "EfficientIMM"): (
        200, 13667, "c9386db52870e266",
        (41992.97295606618, 0.0, 9586.0, 1.0, 5, 8.0),
        0.0, 41808, "dynamic",
    ),
    ("amazon", "LT", "Ripples"): (
        3000, 5210, "8da834933223f124",
        (27520.0, 20538.30090893648, 0.0, 1.0, 5, 8.0),
        41680.0, 20840, "static",
    ),
    ("amazon", "LT", "EfficientIMM"): (
        3000, 5210, "6d0abbe193bada3c",
        (34167.67091638842, 0.0, 100.0, 1.0, 5, 8.0),
        0.0, 20840, "dynamic",
    ),
}
PROFILE_CAPS = {("skitter", "IC"): 200, ("amazon", "LT"): 3000}


class TestGoldenProfiles:
    """Pinned: the cost-model input behind Figures 1/2/6/7 and Table III.

    Regenerate:  for (dataset, model), cap in PROFILE_CAPS.items(), print
    each framework's (num_sets, total_entries, _digest(per_set_costs),
    dataclasses.astuple(selection), gather_bytes, store_bytes,
    sampling_schedule) from profile_pair(load_dataset(dataset,
    model=model, seed=0), dataset, model, k=5, theta_cap=cap, seed=0).
    """

    @pytest.mark.parametrize("workload", sorted(PROFILE_CAPS))
    def test_profile_pair_pinned(self, workload):
        import dataclasses

        from repro.simmachine.cost import profile_pair

        dataset, model = workload
        g = load_dataset(dataset, model=model, seed=0)
        profiles = profile_pair(
            g, dataset, model, k=5, theta_cap=PROFILE_CAPS[workload], seed=0
        )
        for fw in ("Ripples", "EfficientIMM"):
            prof = profiles[fw]
            assert (
                prof.num_sets, prof.total_entries, _digest(prof.per_set_costs),
                dataclasses.astuple(prof.selection), prof.gather_bytes,
                prof.store_bytes, prof.sampling_schedule,
            ) == PROFILE_PINS[dataset, model, fw], fw


#: Both facades on amazon, k=7, theta_cap=1500, seed 3, keyed by (facade,
#: model, num_threads): ``(seeds, theta, num_rrrsets, LB, coverage,
#: theta_capped, {kernel: KernelStats digest})``.
FACADE_PINS = {
    ("EfficientIMM", "IC", 1): (
        [456, 3287, 2290, 27, 517, 975, 1250], 1152, 1180,
        1512.3218674462742, 0.7593220338983051, False,
        {"Find_Most_Influential_Set": "87c24e3802a46b7b"},
    ),
    ("EfficientIMM", "IC", 4): (
        [456, 3287, 2290, 27, 517, 975, 1250], 1152, 1180,
        1512.3218674462742, 0.7593220338983051, False,
        {"Find_Most_Influential_Set": "89274d776cdbd19e"},
    ),
    ("RipplesIMM", "IC", 1): (
        [456, 3287, 2290, 27, 517, 975, 1250], 1152, 1180,
        1512.3218674462742, 0.7593220338983051, False,
        {"Find_Most_Influential_Set": "e724785087b706d4"},
    ),
    ("RipplesIMM", "IC", 4): (
        [456, 3287, 2290, 27, 517, 975, 1250], 1152, 1180,
        1512.3218674462742, 0.7593220338983051, False,
        {"Find_Most_Influential_Set": "a76b9187fc6a429d"},
    ),
    ("EfficientIMM", "LT", 1): (
        [899, 1556, 140, 303, 414, 495, 566], 1500, 1500,
        39.83347775862954, 0.02, True,
        {"Find_Most_Influential_Set": "275e4341d4fbcb6d"},
    ),
    ("EfficientIMM", "LT", 4): (
        [899, 1556, 140, 303, 414, 495, 566], 1500, 1500,
        39.83347775862954, 0.02, True,
        {"Find_Most_Influential_Set": "4ede057682e22277"},
    ),
    ("RipplesIMM", "LT", 1): (
        [899, 1556, 140, 303, 414, 495, 566], 1500, 1500,
        39.83347775862954, 0.02, True,
        {"Find_Most_Influential_Set": "c9fc787c68130586"},
    ),
    ("RipplesIMM", "LT", 4): (
        [899, 1556, 140, 303, 414, 495, 566], 1500, 1500,
        39.83347775862954, 0.02, True,
        {"Find_Most_Influential_Set": "21709c538f5de790"},
    ),
}


class TestGoldenFacades:
    """Pinned: every answer and modelled count of both IMM facades.

    Regenerate:  for each FACADE_PINS key, run facade(load_dataset(
    'amazon', model=model, seed=0)).run(IMMParams(k=7, theta_cap=1500,
    seed=3, model=model, num_threads=threads)) and print (seeds, theta,
    num_rrrsets, opt_lower_bound, coverage_fraction, theta_capped,
    {name: _stats_digest(st) for name, st in stats.items()}).
    """

    @pytest.mark.parametrize(
        "key", sorted(FACADE_PINS), ids=lambda key: "-".join(map(str, key))
    )
    def test_run_pinned(self, key):
        import repro.core as core

        facade, model, threads = key
        g = load_dataset("amazon", model=model, seed=0)
        res = getattr(core, facade)(g).run(
            IMMParams(k=7, theta_cap=1500, seed=3, model=model,
                      num_threads=threads)
        )
        assert (
            res.seeds.tolist(), res.theta, res.num_rrrsets,
            res.opt_lower_bound, res.coverage_fraction, res.theta_capped,
            {name: _stats_digest(st) for name, st in sorted(res.stats.items())},
        ) == FACADE_PINS[key]


class TestGoldenFig5:
    def test_amazon_pinned(self):
        """Pinned: Figure 5's modelled selection times on amazon, without
        and with the adaptive counter update, and their ratio.

        Regenerate:  python -c "from repro.bench.experiments import
        experiment_fig5; print(experiment_fig5(datasets=('amazon',))
        .data['amazon'])"
        """
        from repro.bench.experiments import experiment_fig5

        assert experiment_fig5(datasets=("amazon",)).data["amazon"] == (
            0.12809957557775825, 0.001569411223000958, 81.6226962700139
        )


#: Per-thread ``(l1_hits, l1_misses, l2_hits, l2_misses)`` of both Table IV
#: replays, keyed by (store, framework, threads, adaptive_update).
REPLAY_COUNTS = {
    ("ic", "EfficientIMM", 1, True): [(26966, 542, 58, 484)],
    ("ic", "EfficientIMM", 1, False): [(239541, 24125, 16268, 7857)],
    ("ic", "Ripples", 1, None): [(468566, 31886, 24075, 7811)],
    ("ic", "EfficientIMM", 3, True): [
        (8976, 164, 0, 164), (9024, 171, 0, 171), (9005, 168, 0, 168)
    ],
    ("ic", "EfficientIMM", 3, False): [
        (78634, 7868, 5009, 2859), (73980, 7361, 4664, 2697),
        (86979, 8844, 5691, 3153),
    ],
    ("ic", "Ripples", 3, None): [
        (310384, 15391, 7863, 7528), (309439, 15399, 7871, 7528),
        (308325, 15392, 7864, 7528),
    ],
    ("lt", "EfficientIMM", 1, True): [(38172, 468, 0, 468)],
    ("lt", "EfficientIMM", 1, False): [(38172, 468, 0, 468)],
    ("lt", "Ripples", 1, None): [(39548, 468, 0, 468)],
    ("lt", "EfficientIMM", 3, True): [
        (12677, 168, 0, 168), (12729, 169, 0, 169), (12734, 163, 0, 163)
    ],
    ("lt", "EfficientIMM", 3, False): [
        (12677, 168, 0, 168), (12729, 169, 0, 169), (12734, 163, 0, 163)
    ],
    ("lt", "Ripples", 3, None): [
        (16669, 185, 0, 185), (16705, 185, 0, 185), (16603, 185, 0, 185)
    ],
    ("ic-fill", "EfficientIMM", 1, True): [(13221, 445, 0, 445)],
    ("ic-fill", "EfficientIMM", 1, False): [(86896, 8632, 5631, 3001)],
    ("ic-fill", "Ripples", 1, None): [(166185, 11399, 8414, 2985)],
    ("ic-fill", "EfficientIMM", 3, True): [
        (4404, 149, 0, 149), (4409, 153, 0, 153), (4402, 149, 0, 149)
    ],
    ("ic-fill", "EfficientIMM", 3, False): [
        (27381, 2638, 1411, 1227), (32318, 3108, 1711, 1397),
        (27319, 2764, 1535, 1229),
    ],
    ("ic-fill", "Ripples", 3, None): [
        (108715, 5389, 2687, 2702), (108855, 5391, 2689, 2702),
        (108021, 5389, 2687, 2702),
    ],
}

#: The replayed stores: (model, sets, sampler seed, k, store fingerprint,
#: seeds).  "ic" has a rebuild round, "lt" only decrements, "ic-fill"
#: covers every set and ends on fill rounds.
REPLAY_STORES = {
    "ic": ("IC", 60, 2, 8, "617e5bfebd69df96",
           [49, 312, 486, 582, 829, 941, 954, 1248]),
    "lt": ("LT", 400, 2, 10, "c1f92aa516653352",
           [253, 312, 1204, 2491, 2714, 274, 276, 371, 427, 507]),
    "ic-fill": ("IC", 20, 3, 6, "8c592ebf1c9064de",
                [302, 178, 409, 2016, 0, 1]),
}


class TestGoldenSelectionReplays:
    """Pinned: both Table IV replays' seeds and per-thread cache counts on
    amazon sketches, at 1 and 3 threads, adaptive update on and off.

    Regenerate:  for each REPLAY_STORES entry, sample
    RRRSampler(get_model(model, load_dataset('amazon', model=model,
    seed=0)), SamplingConfig.efficientimm(), seed=seed).extend(sets) and
    print [(c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses) for c in
    trace_*_selection(store, k, threads, perlmutter(), ...).per_thread].
    """

    @pytest.fixture(scope="class")
    def stores(self):
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        out = {}
        for name, (model, count, seed, *_) in REPLAY_STORES.items():
            g = load_dataset("amazon", model=model, seed=0)
            sampler = RRRSampler(
                get_model(model, g), SamplingConfig.efficientimm(), seed=seed
            )
            sampler.extend(count)
            out[name] = sampler.store
        return out

    @pytest.mark.parametrize("key", sorted(REPLAY_COUNTS, key=str))
    def test_access_counts_pinned(self, stores, key):
        from repro.simmachine.instrumented import (
            trace_efficient_selection,
            trace_ripples_selection,
        )
        from repro.simmachine.topology import perlmutter

        name, framework, threads, adaptive = key
        store = stores[name]
        _, _, _, k, fingerprint, seeds = REPLAY_STORES[name]
        assert store.fingerprint() == fingerprint
        if framework == "Ripples":
            res = trace_ripples_selection(store, k, threads, perlmutter())
        else:
            res = trace_efficient_selection(
                store, k, threads, perlmutter(), adaptive_update=adaptive
            )
        assert res.framework == framework
        assert res.seeds.tolist() == seeds
        assert [
            (c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses)
            for c in res.per_thread
        ] == REPLAY_COUNTS[key]


class TestGoldenDistributed:
    """Pinned: both simulated-cluster drivers on skitter, 3 nodes.

    Regenerate:  python -c "from repro.graph.datasets import load_dataset;
    from repro.core.params import IMMParams; from repro.distributed import
    DistributedIMM, DistributedRipples, perlmutter_cluster; g =
    load_dataset('skitter', model='IC', seed=0); [print(vars(c(g,
    perlmutter_cluster(3)).run(IMMParams(k=6, theta_cap=450, seed=7))))
    for c in (DistributedIMM, DistributedRipples)]"
    """

    @pytest.mark.parametrize(
        "framework,sampling_s,selection_s",
        [
            ("DistributedIMM", 0.0001016669582785911, 9.979032061328188e-07),
            ("DistributedRipples", 7.306869401356539e-05,
             0.00016705770412887342),
        ],
    )
    def test_run_pinned(self, skitter_ic, framework, sampling_s, selection_s):
        import repro.distributed as dist

        cls = getattr(dist, framework)
        res = cls(skitter_ic, dist.perlmutter_cluster(3)).run(
            IMMParams(k=6, theta_cap=450, seed=7)
        )
        assert res.seeds.tolist() == [417, 16, 151, 152, 311, 5]
        assert res.coverage_fraction == 0.45111111111111113
        assert res.theta == 450
        assert res.num_ranks == 3
        assert res.sets_per_rank == [150, 150, 150]
        assert res.comm.num_collectives == 14
        assert res.comm.by_kind == {"allreduce": 14}
        assert res.comm.bytes_on_wire == 448_000
        assert res.comm.comm_time_s == 0.00013589333333333337
        assert res.sampling_time_s == sampling_s
        # A float sum of per-rank op counts: its grouping may move the
        # last bit.
        assert res.selection_compute_s == pytest.approx(selection_s, rel=1e-12)


SHARD_SLICES = {
    ("IC", 300): ["9a3949ab1e8e0d1c", "0dbfe3c583f358cc", "7709821be12adb7f"],
    ("LT", 3000): ["43be8756576804fe", "e94de1793b60437b", "0071535afd857f54"],
}


class TestGoldenShardSlices:
    """Pinned: the content fingerprint of every shard's slice of two real
    amazon sketches (300 IC sets and 3,000 LT sets, seed 0), each keyed
    by its sketch fingerprint at epsilon 0.5 and cut by a 3-shard plan.

    Regenerate:  python -c "from repro.core.parallel_sampling import
    parallel_generate; from repro.graph.datasets import load_dataset;
    from repro.graph.io import graph_fingerprint; from
    repro.service.artifacts import sketch_fingerprint; from repro.shard
    import ShardPlan; g = load_dataset('amazon', model='IC', seed=0); s =
    parallel_generate(g, 'IC', 300, num_workers=1, seed=0); fp =
    sketch_fingerprint(graph_fingerprint(g), 'IC', 0.5, 0, 300);
    print([p.fingerprint() for p in ShardPlan(3).partition_store(s,
    fp)])"   (likewise LT with 3000 sets)
    """

    @pytest.fixture(scope="class")
    def sketches(self):
        from repro.core.parallel_sampling import parallel_generate
        from repro.graph.io import graph_fingerprint
        from repro.runtime.backends import SerialBackend
        from repro.service.artifacts import sketch_fingerprint

        out = {}
        for model, num_sets in SHARD_SLICES:
            g = load_dataset("amazon", model=model, seed=0)
            store = parallel_generate(
                g, model, num_sets, num_workers=1, seed=0,
                backend=SerialBackend(),
            )
            fp = sketch_fingerprint(graph_fingerprint(g), model, 0.5, 0, num_sets)
            out[model, num_sets] = (store, fp)
        return out

    @pytest.mark.parametrize("key", sorted(SHARD_SLICES), ids=lambda key: key[0])
    def test_slices_pinned(self, sketches, key):
        from repro.shard import ShardPlan

        model, num_sets = key
        store, fp = sketches[key]
        parts = ShardPlan(num_shards=3).partition_store(store, fp)
        assert [p.fingerprint() for p in parts] == SHARD_SLICES[key]
        assert sum(len(p) for p in parts) == num_sets


# One mixed batch: three valid k, one k above the 40-vertex count, one
# expired deadline, one unknown dataset, one invalid field.
FRONT_BATCH = (
    {"k": 2, "id": "a"},
    {"k": 5, "id": "b"},
    {"k": 3, "id": "c"},
    {"k": 41, "id": "too-big"},
    {"k": 2, "deadline_s": 0, "id": "late"},
    {"k": 2, "id": "unknown", "dataset": "nosuch"},
    {"k": 0, "id": "invalid"},
)

#: The per-query metrics an executor records, under its prefix.
FRONT_METRICS = ("queries", "errors", "timeouts", "degraded", "query_latency_s")


def _front_record(executor, stats):
    """Serve :data:`FRONT_BATCH` under a telemetry session; return the
    responses (no latency, elapsed seconds masked), the stats counters and
    the per-query metrics (counter values, histogram counts)."""
    import re

    from repro import telemetry
    from repro.service import IMQuery

    from test_shard import THETA

    queries = [
        IMQuery(**{"dataset": "synth", "theta_cap": THETA, "seed": 3, **kw})
        for kw in FRONT_BATCH
    ]
    with telemetry.session() as tel:
        responses = executor.execute(queries)
        snap = tel.snapshot()
    out = []
    for resp in responses:
        doc = resp.to_dict()
        del doc["latency_s"]
        if doc.get("error"):
            doc["error"] = re.sub(r"after \d+\.\d+s", "after <t>s", doc["error"])
        out.append(doc)
    names = {
        f"{prefix}.{name}"
        for prefix in ("service", "shard.router")
        for name in FRONT_METRICS
    } | {"resilience.degraded_responses"}
    metrics = {n: v for n, v in snap["counters"].items() if n in names}
    metrics.update(
        (n, h["count"]) for n, h in snap["histograms"].items() if n in names
    )
    return out, stats(executor), metrics


def _front_executor(kind):
    """A fresh executor of one kind over the 40-vertex ``synth`` graph."""
    from repro.dynamic import DynamicService
    from repro.service import EngineConfig, QueryEngine
    from repro.shard import RouterConfig, ShardCluster, ShardPlan

    from test_shard import THETA, small_graph

    graph = small_graph()
    if kind == "engine":
        engine = QueryEngine(config=EngineConfig(default_theta=THETA))
        engine.install_graph("synth", graph)
        return engine, lambda e: e.stats.to_dict()
    if kind == "dynamic":
        service = DynamicService("synth", graph, num_sets=THETA, seed=3)
        return service, lambda s: s.stats.to_dict()
    cluster = ShardCluster(
        ShardPlan(num_shards=2, replication=2),
        router_config=RouterConfig(
            default_theta=THETA, allow_degraded=kind != "strict"
        ),
    )
    cluster.install_graph("synth", graph)
    if kind in ("degraded", "strict"):
        cluster.kill(1)
    return cluster, lambda c: c.router.stats.to_dict()


def _ok(qid, seeds, spread, coverage, num_sets, **flags):
    return {
        "status": "ok", "id": qid, "seeds": seeds, "spread_estimate": spread,
        "coverage_fraction": coverage, "num_rrrsets": num_sets,
        "cached": False, "degraded": False, **flags,
    }


def _error(qid, error, status="error"):
    return {"status": status, "id": qid, "error": error}


_TOO_BIG = _error("too-big", "ParameterError: k=41 exceeds the vertex count 40")
_LATE = _error(
    "late", "TimeoutError: deadline of 0s exceeded after <t>s", "timeout"
)
_UNKNOWN = _error(
    "unknown",
    "DatasetError: unknown dataset 'nosuch'; available: amazon, dblp, "
    "youtube, livejournal, pokec, skitter, google, twitter7",
)
_INVALID = _error("invalid", "ParameterError: k must be a positive integer, got 0")
_FULL = [
    _ok("a", [15, 17], 34.0, 0.85, 80),
    _ok("b", [15, 17, 20, 3, 6], 37.5, 0.9375, 80),
    _ok("c", [15, 17, 20], 36.0, 0.9, 80),
]
_STRICT = "BackendError: shard down and degraded answers are disabled"


def _router_stats(**kw):
    stats = dict(
        queries=7, ok=3, errors=3, timeouts=1, degraded=0, batches=2,
        scatter_calls=0, failovers=0, shard_losses=0, resyncs=0,
        deadline_misses=0, kept_hits=0,
    )
    return {**stats, **kw}


def _engine_stats(**kw):
    stats = dict(
        queries=7, ok=3, timeouts=1, errors=3, batches=2, cold_samples=1,
        artifact_loads=0, artifact_saves=0, artifact_corrupt=0, degraded=0,
    )
    return {**stats, **kw}


#: kind -> (responses, stats counters, per-query metrics), recorded from
#: the engine and router as they were before the query front was shared.
FRONT_GOLDEN = {
    "engine": (
        [*_FULL, _TOO_BIG, _LATE, _UNKNOWN, _INVALID],
        _engine_stats(),
        {
            "service.queries": 7.0, "service.errors": 3.0,
            "service.timeouts": 1.0, "service.query_latency_s": 3,
        },
    ),
    "cluster": (
        [*_FULL, _TOO_BIG, _LATE, _UNKNOWN, _INVALID],
        _router_stats(scatter_calls=13),
        {
            "shard.router.queries": 7.0, "shard.router.errors": 3.0,
            "shard.router.timeouts": 1.0, "shard.router.query_latency_s": 3,
        },
    ),
    # Exact over the surviving shard's sets, so this entry moves with the
    # set ownership rule (ShardPlan.assign_sets).
    "degraded": (
        [
            _ok("a", [15, 14], 36.470588235294116, 0.9117647058823529, 34,
                degraded=True),
            _ok("b", [15, 14, 2, 17, 31], 40.0, 1.0, 34, degraded=True),
            _ok("c", [15, 14, 2], 37.64705882352941, 0.9411764705882353, 34,
                degraded=True),
            _TOO_BIG, _LATE, _UNKNOWN, _INVALID,
        ],
        _router_stats(degraded=3, scatter_calls=9, shard_losses=1),
        {
            "shard.router.queries": 7.0, "shard.router.errors": 3.0,
            "shard.router.timeouts": 1.0, "shard.router.degraded": 3.0,
            "resilience.degraded_responses": 3.0,
            "shard.router.query_latency_s": 3,
        },
    ),
    "strict": (
        [
            *(_error(q, _STRICT) for q in ("a", "b", "c", "too-big")),
            _LATE, _UNKNOWN, _INVALID,
        ],
        _router_stats(ok=0, errors=6, scatter_calls=4, shard_losses=1),
        {
            "shard.router.queries": 7.0, "shard.router.errors": 6.0,
            "shard.router.timeouts": 1.0,
        },
    ),
    "dynamic": (
        [
            _ok("a", [15, 5], 37.0, 0.925, 80, cached=True, epoch=0),
            _ok("b", [15, 5, 6, 13, 17], 39.0, 0.975, 80, cached=True,
                epoch=0),
            _ok("c", [15, 5, 6], 38.0, 0.95, 80, cached=True, epoch=0),
            _TOO_BIG, _LATE,
            _error(
                "unknown",
                "ParameterError: this dynamic service serves 'synth', "
                "not 'nosuch'",
            ),
            _INVALID,
        ],
        _engine_stats(cold_samples=0),
        {
            "service.queries": 7.0, "service.errors": 3.0,
            "service.timeouts": 1.0, "service.query_latency_s": 3,
        },
    ),
}


class TestGoldenQueryFront:
    """Pinned: what every executor answers to one mixed batch — each
    response (minus its latency, elapsed seconds masked), the executor's
    stats counters, and the exact per-query metrics it records.

    Regenerate:  cd tests && PYTHONPATH=../src python -c "import
    test_golden as g; [print(k, g._front_record(*g._front_executor(k)))
    for k in g.FRONT_GOLDEN]"
    """

    @pytest.mark.parametrize("kind", sorted(FRONT_GOLDEN))
    def test_batch_pinned(self, kind):
        executor, stats = _front_executor(kind)
        with executor:
            responses, counters, metrics = _front_record(executor, stats)
        want_responses, want_counters, want_metrics = FRONT_GOLDEN[kind]
        assert responses == want_responses
        assert counters == want_counters
        assert metrics == want_metrics


def _repair_batch(delta, rng, size=12):
    """One epoch of updates over ``delta``'s current edges: ``size``
    deletes, one reweight to half the edge's weight, ``size`` inserts of
    randomly oriented absent edges with weights 0.01-0.1."""
    from repro.dynamic import EdgeUpdate

    src, dst, probs = delta.compact().edge_array()
    picks = rng.choice(src.size, size=size + 1, replace=False)
    ups = [EdgeUpdate("delete", int(src[j]), int(dst[j])) for j in picks[:size]]
    j = picks[size]
    ups.append(EdgeUpdate("reweight", int(src[j]), int(dst[j]), float(probs[j]) / 2))
    while len(ups) < 2 * size + 1:
        u, v = (int(x) for x in rng.integers(0, delta.num_vertices, size=2))
        if u != v and not delta.has_edge(u, v):
            ups.append(EdgeUpdate("insert", u, v, float(rng.uniform(0.01, 0.1))))
    return ups


def _repair_record(model, repair):
    """Maintain a 400-set skitter sketch (seed 5) through five batches of
    :func:`_repair_batch` (rng 11); return each commit's ``(mode,
    invalidated, extended, added_vertices)``, the final store fingerprint,
    a digest of the fused counter and the top-10 seeds."""
    from repro.dynamic import DeltaGraph, IncrementalMaintainer

    delta = DeltaGraph(load_dataset("skitter", model=model, seed=0))
    m = IncrementalMaintainer(
        delta, model=model, num_sets=400, seed=5, repair=repair
    )
    rng = np.random.default_rng(11)
    reports = []
    for _ in range(5):
        for update in _repair_batch(delta, rng):
            delta.stage(update)
        r = m.apply(delta.commit())
        reports.append((r.mode, r.invalidated, r.extended, r.added_vertices))
    counter = np.ascontiguousarray(m.counter, dtype=np.int64).tobytes()
    return (
        reports,
        m.store.fingerprint(),
        hashlib.sha256(counter).hexdigest()[:16],
        m.select(10).seeds.tolist(),
    )


#: ``_repair_record`` per (model, repair).  IC ``extend`` grows sets in
#: four of the five commits; IC ``resample`` falls back to a full resample
#: once; LT always resamples.
REPAIR_GOLDEN = {
    ("IC", "extend"): (
        [("repair", 38, 2, 319), ("repair", 41, 4, 444), ("repair", 47, 2, 230),
         ("repair", 17, 3, 93), ("repair", 27, 0, 0)],
        "4f573e3d2bc33dc5", "0f61b090795b031c",
        [123, 17, 104, 94, 5, 46, 19, 150, 126, 434],
    ),
    ("IC", "resample"): (
        [("repair", 61, 0, 0), ("full", 400, 0, 0), ("repair", 95, 0, 0),
         ("repair", 69, 0, 0), ("repair", 62, 0, 0)],
        "7e41190cb1759cff", "7fcfa2da07c1c2b7",
        [206, 5, 13, 19, 7, 41, 81, 27, 20, 26],
    ),
    ("LT", "extend"): (
        [("repair", 6, 0, 0), ("repair", 4, 0, 0), ("repair", 4, 0, 0),
         ("repair", 7, 0, 0), ("repair", 2, 0, 0)],
        "df2469d2a01fa496", "f63ad19dd3fdb70b",
        [103, 5, 28, 242, 1094, 10, 21, 60, 68, 73],
    ),
}


class TestGoldenRepairs:
    """Pinned: a repaired sketch, commit by commit — what each repair did,
    then the final store, fused counter and seeds.

    Regenerate:  cd tests && PYTHONPATH=../src python -c "import
    test_golden as g; [print(k, g._repair_record(*k)) for k in
    g.REPAIR_GOLDEN]"
    """

    @pytest.mark.parametrize(
        "key", sorted(REPAIR_GOLDEN), ids=lambda key: "-".join(key)
    )
    def test_repairs_pinned(self, key):
        assert _repair_record(*key) == REPAIR_GOLDEN[key]
