import copy

import numpy as np
import pytest

from oracle import live_edge_spread, relative_spreads, top_weighted_degree
from run import K, check

SEEDS = list(range(100, 100 + K))


def imm_result():
    run = {"s": 1.0, "seeds": list(SEEDS), "sets": 10, "phases": {}}
    return {
        "runs": [copy.deepcopy(run) for _ in range(3)],
        "traced_runs": [copy.deepcopy(run) for _ in range(2)],
    }


def serve_result():
    def sample(i, k):
        return {"id": f"o{i}", "k": k, "status": "ok", "seeds": SEEDS[:k], "error": None}

    return {
        "references": [{"status": "ok", "seeds": list(SEEDS)}],
        "closed": [sample(0, 5), sample(1, 50)],
        "open": [sample(2, 10), sample(3, 20)],
    }


def update_result():
    def ans(k, **kw):
        return {"status": "ok", "seeds": SEEDS[:k], "cached": True,
                "degraded": False, "epoch": None, "error": None, **kw}

    return {
        "epochs": [{
            "served_epoch": 1,
            "queries": [{"k": 5, "s": 0.01, **ans(5)}, {"k": 20, "s": 0.01, **ans(20)}],
            "reference": [ans(5, epoch=1), ans(20, epoch=1)],
        }],
        "answers": [list(SEEDS)],
    }


def test_clean_answers_pass():
    assert check("imm-ic", imm_result(), 1000)[:2] == (5, 0)
    assert check("serve-gateway", serve_result(), 1000)[:2] == (5, 0)
    assert check("update-shard", update_result(), 1000)[:2] == (4, 0)


@pytest.mark.parametrize("corrupt", [
    lambda r: r["runs"][2]["seeds"].__setitem__(0, SEEDS[1]),   # duplicate seed
    lambda r: r["runs"][2]["seeds"].pop(),                      # k-1 seeds
    lambda r: r["runs"][2]["seeds"].__setitem__(3, 999_999),    # out of range
    # A traced run answers differently from the untraced run on its seed.
    lambda r: r["traced_runs"][1].__setitem__("seeds", SEEDS[::-1]),
])
def test_corrupted_imm_answer_fails(corrupt):
    result = imm_result()
    corrupt(result)
    assert check("imm-lt", result, 1000)[1] == 1


def test_corrupted_served_answer_fails():
    result = serve_result()
    result["open"][1]["seeds"] = SEEDS[1:21]
    result["closed"][0].update(status="overloaded", seeds=[], error="shed")
    attempted, failed, problems = check("serve-gateway", result, 1000)
    assert (attempted, failed) == (5, 2)
    assert any("reference prefix" in p for p in problems)


def test_servers_of_one_run_must_agree_on_the_reference():
    result = serve_result()
    result["references"].append({"status": "ok", "seeds": SEEDS[::-1]})
    attempted, failed, problems = check("serve-gateway", result, 1000)
    assert (attempted, failed) == (6, 1)
    assert any("servers differ" in p for p in problems)


def test_sharded_answer_from_another_sketch_fails():
    # The shape of a real fault: the single-node engine cold-samples its own
    # sketch instead of serving the maintained one, so its seeds differ
    # from the router's and it reports cached=false.
    result = update_result()
    ref = result["epochs"][0]["reference"][0]
    ref["seeds"] = [152, 5, 104, 21, 16]
    result["epochs"][0]["queries"][1]["cached"] = False
    attempted, failed, problems = check("update-shard", result, 1000)
    assert failed == 2
    assert any("differ" in p for p in problems)
    assert any("cached=False" in p for p in problems)


def test_degraded_sharded_answer_fails():
    result = update_result()
    result["epochs"][0]["queries"][0]["degraded"] = True
    assert check("update-shard", result, 1000)[1] == 1


def path_graph(n, p):
    indptr = np.arange(n + 1)
    indptr[-1] = n - 1
    indices = np.arange(1, n)
    return indptr, indices, np.full(n - 1, p)


def test_oracle_exact_on_a_certain_path():
    indptr, indices, probs = path_graph(5, 1.0)
    assert live_edge_spread(indptr, indices, probs, "IC", [0], worlds=50) == 1.0
    assert live_edge_spread(indptr, indices, probs, "IC", [3], worlds=50) == 2 / 5
    assert live_edge_spread(indptr, indices, probs, "LT", [2], worlds=50) == 3 / 5


def test_oracle_matches_the_expected_spread_of_a_coin():
    # One edge 0 -> 1 live with probability 0.3: E[reached] = 1.3 of 2.
    indptr, indices, probs = np.array([0, 1, 1]), np.array([1]), np.array([0.3])
    for model in ("IC", "LT"):
        est = live_edge_spread(indptr, indices, probs, model, [0], worlds=20_000, seed=3)
        assert est == pytest.approx(1.3 / 2, abs=0.01)


def test_quality_is_one_for_the_baseline_itself():
    indptr, indices, probs = path_graph(6, 0.5)
    top = top_weighted_degree(indptr, probs, 2)
    assert list(top) == [0, 1]
    assert relative_spreads(indptr, indices, probs, "IC", [top], top, worlds=200) == [1.0]
    # Seeding the head of the path beats seeding its tail, whatever the order.
    head, tail, again = relative_spreads(
        indptr, indices, probs, "IC", [[0, 1], [5, 4], [1, 0]], [2, 3], worlds=500
    )
    assert head > 1.0 > tail and again == head
