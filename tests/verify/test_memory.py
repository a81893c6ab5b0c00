"""The liveness-based memory predictor against the real engines: on every
paper application the static bound must dominate the observed per-worker
tracker peak (soundness) and, under serial stage scheduling, stay within
2x of it (tightness) -- loose enough to be safe, tight enough to be a
budget you can actually provision against."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.cli import APPS
from repro.programs.registry import WorkloadParams, build_workload
from repro.runtime import backend
from repro.verify import predict_peak_memory

from tests.verify._workloads import small_workload


def _run(app: str, max_concurrent_stages):
    program, inputs, __ = small_workload(app)
    config = ClusterConfig(
        num_workers=4, max_concurrent_stages=max_concurrent_stages
    )
    # A fresh session per run: tracker peaks accumulate per session.
    return DMacSession(config).run(program, inputs)


@pytest.mark.parametrize("app", APPS)
def test_serial_bound_is_sound_and_within_2x(app):
    result = _run(app, max_concurrent_stages=1)
    observed = result.peak_memory_bytes
    predicted = result.predicted_peak_memory_bytes
    assert predicted is not None
    assert observed <= predicted, (
        f"{app}: unsound -- observed {observed} above the bound {predicted}"
    )
    assert predicted <= 2 * observed, (
        f"{app}: bound too loose -- predicted {predicted} vs observed "
        f"{observed} ({predicted / observed:.2f}x)"
    )


@pytest.mark.parametrize("app", APPS)
def test_concurrent_bound_stays_sound(app):
    # Under the default stage concurrency the bound covers *any* antichain
    # the scheduler could dispatch, so it is sound but deliberately looser;
    # only soundness is contractual here.
    result = _run(app, max_concurrent_stages=None)
    observed = result.peak_memory_bytes
    predicted = result.predicted_peak_memory_bytes
    assert predicted is not None
    assert observed <= predicted


def test_prediction_internals_are_ordered():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    serial = predict_peak_memory(plan, num_workers=4, max_concurrent_stages=1)
    concurrent = predict_peak_memory(plan, num_workers=4)
    assert serial.concurrency == 1
    assert serial.peak_bytes == serial.serial_peak_bytes
    assert concurrent.concurrency > 1
    assert concurrent.peak_bytes == concurrent.concurrent_peak_bytes
    # The concurrent bound only ever adds transients on top of the pins.
    assert concurrent.concurrent_peak_bytes >= serial.serial_peak_bytes
    assert serial.serial_peak_bytes >= serial.pinned_bytes
    assert serial.serial_peak_bytes >= serial.transient_peak_bytes
    assert len(serial.footprints) == len(plan.steps)


def test_buffer_strategy_predicts_no_less_than_inplace():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    inplace = predict_peak_memory(
        plan, num_workers=4, inplace=True, max_concurrent_stages=1
    )
    buffered = predict_peak_memory(
        plan, num_workers=4, inplace=False, max_concurrent_stages=1
    )
    assert buffered.serial_peak_bytes >= inplace.serial_peak_bytes


def test_json_dict_lists_the_heaviest_steps():
    program, __, ___ = small_workload("pagerank")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    prediction = predict_peak_memory(plan, num_workers=4)
    document = prediction.to_json_dict()
    heaviest = document["heaviest_steps"]
    assert heaviest, "pagerank has charging steps"
    weights = [entry["transient_bytes"] for entry in heaviest]
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == prediction.transient_peak_bytes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_a_bmm_holds_no_more_than_its_footprint(monkeypatch, threads, inplace):
    """A ``bmm`` charges both replicas, a whole replica of its product and
    the partials: on every worker, what one holds while it runs stays
    within the footprint the bound gives its step."""
    observed = []
    multiply = backend.bmm

    def measured(a, b):
        engines = a.context.engines
        before = [engine.tracker.current_bytes for engine in engines]
        for engine in engines:
            engine.tracker.reset_peak()
        product = multiply(a, b)
        observed.append(
            max(e.tracker.peak_bytes - held for e, held in zip(engines, before))
        )
        return product

    monkeypatch.setattr(backend, "bmm", measured)
    load = build_workload("gnmf", WorkloadParams(scale=3e-3, factors=10, iterations=2))
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=threads,
        inplace=inplace,
        max_concurrent_stages=1,
    )
    session = DMacSession(config, optimize=True)
    (plan,) = session.plans(load.program)
    session.run(load.program, load.inputs, plan=plan)
    prediction = predict_peak_memory(
        plan,
        num_workers=4,
        threads_per_worker=threads,
        inplace=inplace,
        max_concurrent_stages=1,
    )
    footprints = [f.transient_bytes for f in prediction.footprints if "<- bmm(" in f.step]
    assert len(observed) == len(footprints) == 2
    assert all(0 < held <= bound for held, bound in zip(observed, footprints))


def test_a_skewed_load_is_charged_as_cut():
    """``V``'s non-zeros do not spread evenly over its blocks: its cache pin
    holds 25 B more on worker 2 than the uniform share, so the static bound
    falls short of the observed peak.  The executor's bound charges ``V``
    at what its fullest worker holds once cut."""
    load = build_workload("gnmf", WorkloadParams(scale=3e-3, factors=10, iterations=2))
    config = ClusterConfig(num_workers=4, threads_per_worker=1, max_concurrent_stages=1)
    session = DMacSession(config, optimize=True)
    (plan,) = session.plans(load.program)
    prediction = predict_peak_memory(
        plan, num_workers=4, threads_per_worker=1, max_concurrent_stages=1
    )
    quotes = {str(source): (source, quote) for source, quote, __ in prediction.sources}
    v, quote = quotes["V(r)"]
    assert prediction.bound_as_cut({}) == prediction.peak_bytes
    assert prediction.bound_as_cut({v: quote}) == prediction.peak_bytes
    assert prediction.bound_as_cut({v: quote + 25}) == prediction.peak_bytes + 25

    result = session.run(load.program, load.inputs, plan=plan)
    assert prediction.peak_bytes < result.peak_memory_bytes
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes
