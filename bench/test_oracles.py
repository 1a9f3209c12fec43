"""Each oracle accepts the program's real output and rejects a perturbed one.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import workloads as W
from oracles import Mismatch, from_obj, to_obj
from tracer import Tracer, metric_units
from worker import import_lindreach, job_figures

cli = import_lindreach()
ROOT = Path(__file__).resolve().parent.parent


def real_output(job) -> dict:
    assert cli.main(job.argv) == 0
    with open(job.out) as fh:
        out = json.load(fh)
    job.check(out)
    return out


def rejects(job, out, perturb) -> None:
    bad = copy.deepcopy(out)
    perturb(bad)
    with pytest.raises(Mismatch):
        job.check(bad)


def bump(obj: dict, i: int, j: int, by: complex) -> None:
    M = from_obj(obj)
    M[i, j] += by
    obj.update(to_obj(M))


def input_matrix(job, flag: str) -> np.ndarray:
    with open(job.argv[job.argv.index(flag) + 1]) as fh:
        return from_obj(json.load(fh))


def take(jobs, pred):
    """The first job satisfying pred(index, job).  Jobs share input file
    names, so a job must run before the next one is generated."""
    return next(job for i, job in enumerate(jobs) if pred(i, job))


def mix_job(tmp_path, make, index=0):
    return make(W.Files(str(tmp_path)), np.random.default_rng([0, index]), index)


def test_reach(tmp_path):
    job = next(W.reach_jobs(0, str(tmp_path)))
    out = real_output(job)
    rejects(job, out, lambda o: bump(o["final_state"], 0, 0, 1e-6))
    rejects(job, out, lambda o: bump(o["final_state"], 0, 1, 1e-6))
    rejects(job, out, lambda o: o.update(n_steps=o["n_steps"] - 1))
    # a basis state the target barely populates is farther from it than rho0
    sigma = input_matrix(job, "--sigma")
    m = int(np.argmin(np.diag(sigma).real))
    far = np.zeros_like(sigma)
    far[m, m] = 1.0
    rejects(job, out, lambda o: o.update(final_state=to_obj(far)))


def test_porcupine(tmp_path):
    job = take(W.porcupine_jobs(0, str(tmp_path)),
               lambda i, _: W.PORCUPINE_CYCLE[i][6] and W.PORCUPINE_CYCLE[i][1] == 2.0)
    out = real_output(job)
    rejects(job, out, lambda o: o.update(samples=o["samples"] - 1))
    rejects(job, out, lambda o: o.update(
        min_alignment_over_samples=-0.99 * W.PORCUPINE_EPS ** 2))


def test_porcupine_obstruction(tmp_path):
    job = take(W.porcupine_jobs(0, str(tmp_path)),
               lambda i, _: W.PORCUPINE_CYCLE[i][0] == 2)
    out = real_output(job)
    assert out["obstruction_evidence"] is True
    rejects(job, out, lambda o: o.update(obstruction_evidence=False))


def test_plan_and_run_plan(tmp_path):
    jobs = W.transport_jobs(0, str(tmp_path))
    plan = next(jobs)
    out = real_output(plan)
    rejects(plan, out, lambda o: o["counts"].update(
        infinite_damps=o["counts"]["infinite_damps"] + 1))
    run = next(jobs)
    out = real_output(run)
    rejects(run, out, lambda o: bump(o, 1, 1, 1e-6))
    rejects(run, out, lambda o: bump(o, 0, 1, 1e-6))


def test_simulate(tmp_path):
    job = mix_job(tmp_path, W.simulate_job)
    out = real_output(job)
    rejects(job, out, lambda o: bump(o, 2, 1, 1e-7))


@pytest.mark.parametrize("index", range(3))
def test_certify_tangent(tmp_path, index):
    job = mix_job(tmp_path, W.certify_job, index)
    out = real_output(job)
    rejects(job, out, lambda o: o.update(in_tangent_cone=not o["in_tangent_cone"]))


@pytest.mark.parametrize("index", range(2))
def test_lift(tmp_path, index):
    job = mix_job(tmp_path, W.lift_job, index)
    out = real_output(job)
    rejects(job, out, lambda o: o["lindbladian"]["jumps"][0].update(
        rate=o["lindbladian"]["jumps"][0]["rate"] * 1.001))
    rejects(job, out, lambda o: o.update(residual=o["residual"] + 1e-6))


def test_lift_path(tmp_path):
    job = mix_job(tmp_path, W.lift_path_job)
    out = real_output(job)
    rejects(job, out, lambda o: o["generators"][5]["jumps"][0].update(
        rate=o["generators"][5]["jumps"][0]["rate"] * 1.001))
    rejects(job, out, lambda o: o["generators"].pop())


@pytest.mark.parametrize("index", [0, 2])   # a generic pair, a commuting set
def test_check_hormander(tmp_path, index):
    job = mix_job(tmp_path, W.hormander_job, index)
    out = real_output(job)
    rejects(job, out, lambda o: o.update(is_hormander=not o["is_hormander"]))


def test_dilate(tmp_path):
    job = mix_job(tmp_path, W.dilate_job)
    out = real_output(job)
    rejects(job, out, lambda o: o["errors"][-1].update(error=2 * o["errors"][-1]["error"]))


def test_gamma_check(tmp_path):
    job = mix_job(tmp_path, W.gamma_job)
    out = real_output(job)
    rejects(job, out, lambda o: bump(o["gamma"], 1, 1, 1e-6))
    rejects(job, out, lambda o: bump(o["gamma"], 0, 0, -1e3))


def test_traced_job_adds_up_and_uninstalls(tmp_path):
    import lindreach.reach as reach
    original = reach.apply
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job(0):
            assert cli.main(next(W.reach_jobs(0, str(tmp_path))).argv) == 0
    finally:
        tracer.uninstall()
    assert reach.apply is original
    m = tracer.metrics(blocks=1, untraced_s=tracer.job_s)
    assert m["reach.reach_drive.calls"] == 1 and m["reach.steps"] == 20
    assert m["reach.alignment.calls"] == 3 * 20 and m["lindblad.apply.calls"] == 3 * 20
    assert m["linalg.expm.calls"] == 20 and m["linalg.expm.n3"] == 20 * 16 ** 3
    layers = sum(m[f"{name}.self_s"] for name in tracer.self_s)
    assert m["other.self_s"] >= 0
    assert abs(layers + m["other.self_s"] - m["trace.job_s"]) < 1e-9


def test_traced_plan_steps_split_by_kind(tmp_path):
    jobs = W.transport_jobs(0, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        for job_id in range(2):            # the k=2 plan, then its run-plan
            with tracer.job(job_id):
                assert cli.main(next(jobs).argv) == 0
    finally:
        tracer.uninstall()
    m = tracer.metrics(blocks=1, untraced_s=tracer.job_s)
    kinds = ("damp_finite", "damp_infinite", "transposition")
    assert m["transport.apply_step.damp_infinite.calls"] == 2
    assert m["transport.plan.steps"] == sum(
        m[f"transport.apply_step.{kind}.calls"] for kind in kinds)


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert ({m["name"] for m in spec["end_to_end"]}
            == set(job_figures([1.0, 2.0])) | {"peak_rss_mb", "setup_s"})
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
