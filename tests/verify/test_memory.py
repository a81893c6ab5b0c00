"""The static memory bound against the real engines: on every paper
application the heaviest-antichain bound must dominate the observed
per-worker tracker peak (soundness) and stay within 2x of it (tightness),
one stage at a time and at the scheduler's default stage concurrency --
loose enough to be safe, tight enough to be a budget you can actually
provision against -- and the search must find the exact heaviest
antichain."""

import itertools
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ClusterConfig, DMacSession
from repro.core.plan import MatMulStep
from repro.programs.registry import PAPER_APPS, WorkloadParams, build_workload
from repro.runtime import backend
from repro.verify import memory, predict_peak_memory

from tests.runtime.test_pool_lifecycle import pooled
from tests.verify._workloads import small_workload
from tests.verify.test_memory_golden import plans


def _assert_sound_and_within_2x(app: str, max_concurrent_stages) -> None:
    program, inputs, __ = small_workload(app)
    for threads in (1, 2):
        config = ClusterConfig(
            num_workers=4,
            threads_per_worker=threads,
            max_concurrent_stages=max_concurrent_stages,
        )
        # A fresh session per run: tracker peaks accumulate per session.
        result = DMacSession(config).run(program, inputs)
        observed = result.peak_memory_bytes
        predicted = result.predicted_peak_memory_bytes
        assert predicted is not None
        assert observed <= predicted, (
            f"{app} 4x{threads}: unsound -- observed {observed} above the "
            f"bound {predicted}"
        )
        assert predicted <= 2 * observed, (
            f"{app} 4x{threads}: bound too loose -- predicted {predicted} vs "
            f"observed {observed} ({predicted / observed:.2f}x)"
        )


@pytest.mark.parametrize("app", PAPER_APPS)
def test_serial_bound_is_sound_and_within_2x(app):
    _assert_sound_and_within_2x(app, max_concurrent_stages=1)


@pytest.mark.parametrize("app", PAPER_APPS)
def test_concurrent_bound_stays_sound(app):
    """At the default stage concurrency the bound charges only stages the
    happens-before order lets run together, so it is within 2x as well."""
    _assert_sound_and_within_2x(app, max_concurrent_stages=None)


@pytest.mark.parametrize("app", ["gnmf", "pagerank", "svd"])
def test_two_lanes_book_no_peak_above_the_bound(app):
    """On a two-thread pool the booked peak follows host thread timing;
    the highest of ten 4x2 runs at the default stage concurrency is still
    within the bound."""
    built = build_workload(app, WorkloadParams())
    config = ClusterConfig(num_workers=4, threads_per_worker=2)
    runs = []
    with pooled(2):
        for _ in range(10):
            with DMacSession(config) as session:
                runs.append(session.run(built.program, built.inputs))
    (predicted,) = {run.predicted_peak_memory_bytes for run in runs}
    assert max(run.peak_memory_bytes for run in runs) <= predicted


def test_prediction_internals_are_ordered():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    serial = predict_peak_memory(plan, num_workers=4, max_concurrent_stages=1)
    concurrent = predict_peak_memory(plan, num_workers=4)
    assert serial.concurrency == 1
    assert concurrent.concurrency > 1
    # A wider antichain only ever adds stages to the serial one.
    assert concurrent.peak_bytes >= serial.peak_bytes
    assert serial.peak_bytes >= serial.pinned_bytes
    assert serial.peak_bytes >= serial.transient_peak_bytes
    assert len(serial.footprints) == len(plan.steps)


@st.composite
def orders(draw):
    """``(weights, pinned, ancestors)`` of a random DAG of <= 12 nodes
    whose indices are a topological order."""
    size = draw(st.integers(0, 12))
    ancestors = []
    for node in range(size):
        deps = draw(st.integers(0, (1 << node) - 1))
        mask = deps
        for dep in range(node):
            if deps >> dep & 1:
                mask |= ancestors[dep]
        ancestors.append(mask)
    weights = draw(st.lists(st.integers(0, 100), min_size=size, max_size=size))
    pinned = draw(st.lists(st.integers(0, 60), min_size=size, max_size=size))
    return weights, pinned, ancestors


def _every_antichain(weights, pinned, ancestors, width) -> int:
    """The bound by enumeration of every antichain of <= ``width`` nodes."""
    nodes = range(len(weights))
    best = 0
    for size in range(width + 1):
        for chosen in itertools.combinations(nodes, size):
            if any(ancestors[b] >> a & 1 for a, b in itertools.combinations(chosen, 2)):
                continue  # ``a`` happens before ``b``
            below = [any(ancestors[n] >> a & 1 for a in chosen) for n in nodes]
            best = max(
                best,
                sum(weights[n] for n in chosen)
                + sum(pin for pin, hidden in zip(pinned, below) if not hidden),
            )
    return best


@given(orders(), st.integers(1, 5))
def test_the_search_finds_the_heaviest_antichain(order, width):
    weights, pinned, ancestors = order
    exact = _every_antichain(weights, pinned, ancestors, width)
    assert memory.heaviest_antichain(weights, pinned, ancestors, width) == exact
    # Out of visits, the search answers its root's bound: still sound.
    with mock.patch.object(memory, "SEARCH_VISITS", 1):
        assert memory.heaviest_antichain(weights, pinned, ancestors, width) >= exact


def test_one_stage_at_a_time_is_the_pin_prefix_bound():
    """At ``C = 1`` the heaviest antichain is, on every plan the golden file
    covers, what the serial bound was before it was one: the pins published
    so far in plan order plus one step's transient, or every pin."""
    for key, plan, sizing in plans():
        prediction = predict_peak_memory(plan, max_concurrent_stages=1, **sizing)
        prefix = max(
            (f.pinned_bytes + f.transient_bytes for f in prediction.footprints),
            default=0,
        )
        assert prediction.peak_bytes == max(prefix, prediction.pinned_bytes), key


def test_buffer_strategy_predicts_no_less_than_inplace():
    program, __, ___ = small_workload("gnmf")
    plan = DMacSession(ClusterConfig(num_workers=4)).plan(program)
    inplace = predict_peak_memory(
        plan, num_workers=4, inplace=True, max_concurrent_stages=1
    )
    buffered = predict_peak_memory(
        plan, num_workers=4, inplace=False, max_concurrent_stages=1
    )
    assert buffered.peak_bytes >= inplace.peak_bytes


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
    quotes = {str(source): (source, quote) for source, quote in prediction.sources}
    v, quote = quotes["V(r)"]
    assert prediction.bound_as_cut({}) == prediction.peak_bytes
    assert prediction.bound_as_cut({v: quote}) == prediction.peak_bytes
    assert prediction.bound_as_cut({v: quote + 25}) == prediction.peak_bytes + 25

    result = session.run(load.program, load.inputs, plan=plan)
    assert prediction.peak_bytes < result.peak_memory_bytes
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_the_serial_bound_holds_on_optimized_gnmf(threads, inplace):
    """The tracker never exceeds the serial bound on optimized GNMF, which
    at 10 factors multiplies ``W (H H^T)`` with ``H H^T`` a ``bmm`` -- and
    whose load ``V`` holds a few non-zeros more on one worker than the
    uniform share (``MemoryPrediction.bound_as_cut``)."""
    load = build_workload("gnmf", WorkloadParams(scale=3e-3, factors=10, iterations=2))
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=threads,
        inplace=inplace,
        max_concurrent_stages=1,
    )
    result = DMacSession(config, optimize=True).run(load.program, load.inputs)
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_the_serial_bound_holds_on_gnmf_chains(threads, inplace):
    """With 32 factors the optimizer keeps GNMF's ``(W H) H^T`` order
    (``W (H H^T)`` would ship more): each iteration materialises ``W H``
    and multiplies it by ``H^T``, and the tracker never exceeds the serial
    bound."""
    load = build_workload("gnmf", WorkloadParams(scale=3e-3, factors=32, iterations=2))
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=threads,
        inplace=inplace,
        max_concurrent_stages=1,
    )
    session = DMacSession(config, optimize=True)
    (plan,) = session.plans(load.program)
    assert "associate" not in {rewrite.pass_name for rewrite in plan.rewrites}
    products = {s.output: s for s in plan.steps if isinstance(s, MatMulStep)}
    # ``(W H) H^T``: an ``rmm2`` whose left operand is the ``rmm2`` of a
    # ``W`` by an ``H``, and whose right operand is that ``H`` transposed.
    chained = [
        (products[s.left].op, s.op.right)
        for s in products.values()
        if s.strategy == "rmm2"
        and s.left in products
        and products[s.left].strategy == "rmm2"
    ]
    assert [(wh.left.name, wh.right.name, ht.name, ht.transposed) for wh, ht in chained] == [
        ("W", "H@2", "H@2", True),
        ("W@2", "H@3", "H@3", True),
    ]
    result = session.run(load.program, load.inputs, plan=plan)
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes
