"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _seed_text() -> str:
    with open(workloads.SEED_CERTIFICATE, encoding="utf-8") as fh:
        return fh.read()


def test_seed_certificate_passes_the_gate():
    assert workloads.certificate_failures(_seed_text()) == []


def test_one_flipped_byte_fails_the_digest_gate():
    data = bytearray(_seed_text().encode())
    pos = data.index(b'"K2"') + 1
    data[pos] ^= 0x01
    failures = workloads.certificate_failures(data.decode())
    assert any("digest" in f for f in failures)


def test_seed_changes_oracle_and_search_inputs_only():
    for name in workloads.WORKLOADS + workloads.OTHER_WORKLOADS:
        assert workloads.draw_inputs(name, 7) == workloads.draw_inputs(name, 7)
    for name in ("certify-1w", "certify-2w"):
        assert workloads.draw_inputs(name, 7) == workloads.draw_inputs(name, 8)
    for name in ("oracle", "search"):
        assert workloads.draw_inputs(name, 7) != workloads.draw_inputs(name, 8)


def test_oracle_sample_takes_one_character_per_stratum():
    per_chi = json.loads(_seed_text())["condition_a"]["per_chi_reg_and_degree"]
    sample = workloads.oracle_sample(3, per_chi)
    assert len(sample) == len(set(sample)) == -(-len(per_chi) // workloads.ORACLE_STRATUM)
    assert all(1 <= i <= len(per_chi) for i in sample)


def _span(sid, parent, t0, t1, name="f"):
    return {"id": sid, "name": name, "t0": t0, "t1": t1, "parent": parent}


def test_self_time_subtracts_the_union_of_overlapping_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),   # overlaps child 1
        _span(3, 0, 5.0, 5.5),   # inside child 2
        _span(4, 0, 8.0, 9.0),
        _span(5, 4, 8.2, 8.4),   # grandchild: not the root's child
    ]
    selfs = spans.self_times(tree)
    assert abs(selfs[0] - (10.0 - (6.0 - 1.0) - (9.0 - 8.0))) < 1e-12
    assert abs(selfs[4] - 0.8) < 1e-12
    assert abs(selfs[1] - 3.0) < 1e-12 and abs(selfs[5] - 0.2) < 1e-12


def test_missing_target_is_reported_and_its_metrics_are_missing():
    tracer = spans.Tracer(targets=("cohomology.no_such_function", "no_such_module.f"))
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["cohomology.no_such_function", "no_such_module.f"]
    metrics = spans.layer_metrics([], ["cohomology.rank_mod"])
    assert metrics["cohomology.rank_mod.calls"] is None
    assert metrics["cohomology.h1_is_zero.route_prime1"] is None
    assert metrics["cohomology.h1_is_zero.calls"] == 0


def _traced_counts():
    from rigidsurf import cohomology, cover
    from rigidsurf.arrangement import build_heart, singular_points

    tracer = spans.Tracer()
    tracer.install()
    try:
        heart = build_heart()
        table = singular_points(heart.arrangement)
        labels = cover.complete_labels(heart.line_labels[:-1], table, heart.p, heart.r)
        chars = cover.all_characters(heart.p, heart.r)
        for idx in (1, 700, 1500):
            scheme, d = cohomology.ideal_of_chi(labels, table, chars[idx])
            cohomology.regularity(scheme, fast=True)
            cohomology.regularity(scheme, fast=False)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, tracer.missing)
    return {k: v for k, v in metrics.items() if not k.endswith((".s", ".self_s"))}


def test_exact_counters_repeat_between_traced_runs():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["cohomology.regularity.calls"] == 6
    routes = sum(first[f"cohomology.h1_is_zero.route_{r}"] for r in ("bound", "prime1", "prime2", "exact"))
    assert routes == first["cohomology.h1_is_zero.calls"] > 0


def test_uninstall_restores_the_program():
    from rigidsurf import certify, cohomology

    before = (cohomology.rank_mod, certify.h1_is_zero, cohomology.h1_is_zero)
    tracer = spans.Tracer()
    tracer.install()
    assert cohomology.rank_mod is not before[0]
    assert certify.h1_is_zero is cohomology.h1_is_zero
    tracer.uninstall()
    assert (cohomology.rank_mod, certify.h1_is_zero, cohomology.h1_is_zero) == before


def test_worker_spans_attach_to_the_enclosing_parent_span():
    workdir = os.path.join(HERE, "..", ".bench_out", "selftest-workers")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer(targets=(), worker_dir=workdir)
    tracer.spans = [_span(0, None, 0.0, 10.0, "outer"), _span(1, 0, 1.0, 9.0, "inner")]
    tracer._next = 2
    batch = [_span(0, None, 2.0, 3.0, "job"), _span(1, 0, 2.1, 2.5, "leaf")]
    with open(os.path.join(workdir, "worker-99.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(batch) + "\n")
    try:
        assert tracer.collect_workers() == 2
        assert not os.listdir(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    job, leaf = tracer.spans[2:]
    assert job["parent"] == 1 and leaf["parent"] == job["id"]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    import run

    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    layers = [(m, u) for m, u, _t, _q in spans.LAYER_METRICS] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers
