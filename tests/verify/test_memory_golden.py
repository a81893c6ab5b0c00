"""``predict_peak_memory`` answers what it answered while it still sized a
matrix from the shape analysis.

``golden_memory.json`` was captured on the commit before the predictor
started reading the program's declared dimensions (the facts the cost
model reads), with that tree's own ``predict_peak_memory``: every registry
app (per segment for ``powiter``), raw and optimized, under 2 and 4
workers x serial and default stage concurrency x In-Place and Buffer
aggregation, plus the lint selftest's reference plan and every corruption plan but DM101's -- every scalar field
of :class:`~repro.verify.memory.MemoryPrediction` verbatim and the
footprints as a digest.  DM101's corruption declares transposed
dimensions, so on that plan alone the predictor now sides with the cost
model (``test_the_transposed_dims_corruption_is_sized_as_declared``).
Never regenerate the file: its ``gnmf/optimized`` keys were re-captured
when product chains fused, and those and the ``cf/optimized`` keys again
when the optimizer started associating product chains by the cost model
and multiplying two replicas replicated (``bmm``).  Its ``/strassen``
keys went with the Strassen block kernel.  When the serial and the
default-concurrency formulas became one heaviest-antichain bound, the
``serial_peak_bytes`` / ``concurrent_peak_bytes`` keys went from every
entry and the ``peak_bytes`` of 100 of the 112 ``cdefault`` entries moved
down (to x0.13-x1.00 of the old value, none below its ``c1`` entry); every
``c1`` entry and every footprint digest held.
"""

import hashlib
import itertools
import json
import pathlib

from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.frontend.staged import segments_of
from repro.lint import LintContext
from repro.lint.selftest import CORRUPTIONS, reference_program_plan
from repro.planopt import optimize_plan
from repro.programs.registry import ALL_APPS, build_workload
from repro.verify.memory import predict_peak_memory

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_memory.json").read_text()
)
#: (max_concurrent_stages, inplace) for every plan.
SIZINGS = tuple(itertools.product((1, None), (True, False)))


def render(prediction) -> dict:
    footprints = [
        [f.index, f.step, f.transient_bytes, f.pinned_bytes]
        for f in prediction.footprints
    ]
    return {
        "peak_bytes": prediction.peak_bytes,
        "pinned_bytes": prediction.pinned_bytes,
        "transient_peak_bytes": prediction.transient_peak_bytes,
        "live_peak_bytes": prediction.live_peak_bytes,
        "block_size": prediction.block_size,
        "concurrency": prediction.concurrency,
        "footprints_sha256": hashlib.sha256(
            json.dumps(footprints).encode()
        ).hexdigest(),
    }


def plans():
    """``(key, plan, sizing)`` for every plan the file covers."""
    programs = [
        (f"{app}/{label}" if label else app, program)
        for app in ALL_APPS
        for label, program in segments_of(build_workload(app).program).programs
    ]
    for workers in (2, 4):
        for key, program in programs:
            raw = schedule_stages(DMacPlanner(program, workers).plan())
            sizing = dict(num_workers=workers)
            yield f"{key}/raw/w{workers}", raw, sizing
            yield (
                f"{key}/optimized/w{workers}",
                optimize_plan(raw, num_workers=workers),
                sizing,
            )
    context = LintContext()
    cases = [("selftest/reference", reference_program_plan(context), context)]
    for corruption in CORRUPTIONS:
        if corruption.rule != "DM101":
            bad, bad_context = corruption.apply(reference_program_plan(context), context)
            cases.append((f"selftest/{corruption.rule}", bad, bad_context))
    for key, plan, lint_context in cases:
        yield key, plan, dict(
            num_workers=lint_context.num_workers,
            threads_per_worker=lint_context.threads_per_worker,
            block_size=lint_context.block_size,
            estimation_mode=lint_context.estimation_mode,
        )


def predictions():
    """Every prediction the file pins, rendered, by key."""
    seen = {}
    for key, plan, sizing in plans():
        for concurrency, inplace in SIZINGS:
            seen[
                f"{key}/c{concurrency or 'default'}"
                f"/{'inplace' if inplace else 'buffer'}"
            ] = render(
                predict_peak_memory(
                    plan,
                    max_concurrent_stages=concurrency,
                    inplace=inplace,
                    **sizing,
                )
            )
    return seen


def test_every_prediction_equals_the_parents_field_for_field():
    seen = predictions()
    assert sorted(seen) == sorted(GOLDEN)
    for key in GOLDEN:
        assert seen[key] == GOLDEN[key], key


def test_the_transposed_dims_corruption_is_sized_as_declared():
    """DM101's corruption declares one matrix's dimensions transposed: the
    predictor now sizes it as declared, like the cost model.  The serial
    bound does not move; the default-concurrency bound was 673 648 B when
    the shape analysis sized it, and 687 568 B before it was the heaviest
    antichain -- which here is the serial one."""
    context = LintContext()
    corruption = next(c for c in CORRUPTIONS if c.rule == "DM101")
    bad, __ = corruption.apply(reference_program_plan(context), context)
    serial = predict_peak_memory(bad, num_workers=4, max_concurrent_stages=1)
    concurrent = predict_peak_memory(bad, num_workers=4)
    assert serial.peak_bytes == 458_288
    assert concurrent.peak_bytes == 458_288
