"""Structural plan identity: one place that says "these compute the same".

Before this module, plan identity lived in two near-duplicate key
functions: the CSE pass's per-step structural keys (``repro.planopt.cse``)
and the translation validator's hash-consed symbolic values
(``repro.verify.certify``).  Both answer "does this step/plan compute the
same value under the same layout", but neither was usable as a *cache
key* for whole plans.  This module centralises all three granularities:

* :func:`step_structural_key` -- the CSE pass's per-step identity, moved
  here verbatim.
* :func:`plan_structural_hash` -- a deterministic digest of a whole
  plan's structure: canonical step tokens in topological order, the
  output table, the cache pins, and the symbolic values of every program
  output as computed by the validator's interned
  :class:`~repro.verify.certify.Term` DAG.  Two plans with equal hashes
  compute the same outputs by the same steps under the same layouts; the
  digest is stable across processes (sha256 over canonical text, never
  Python's salted ``hash``), which is what lets ``repro serve`` publish
  it in byte-identical service reports.
* :func:`program_fingerprint` -- the *pre-planning* identity the
  :class:`~repro.serve.plancache.PlanCache` keys on: a digest of the
  serialised program (``repro.lang.serialize``) plus the planner knobs
  that change the resulting plan.  Computing it costs one JSON encode --
  orders of magnitude cheaper than planning -- so a cache hit genuinely
  skips planning and optimization.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    MatMulStep,
    Plan,
    RowAggStep,
    ScalarComputeStep,
    ScalarMatrixStep,
    SourceStep,
    Step,
    UnaryStep,
)


def step_structural_key(step: Step) -> tuple | None:
    """A hashable identity for "computes the same value, same layout".

    ``None`` marks steps the CSE pass never merges: sources (merging two
    loads/randoms is the planner's job, and random seeds differ), and
    scalar-producing steps (driver scalars are cheap and name-keyed).
    """
    if isinstance(step, ExtendedStep):
        return ("ext", step.kind, step.source, step.target)
    if isinstance(step, MatMulStep):
        return ("mm", step.strategy, step.left, step.right,
                step.output.transposed, step.output.scheme)
    if isinstance(step, CellwiseStep):
        return ("cw", step.op.op, step.left, step.right,
                step.output.transposed, step.output.scheme)
    if isinstance(step, ScalarMatrixStep):
        return ("sm", step.op.op, step.op.scalar, step.source,
                step.output.transposed, step.output.scheme)
    if isinstance(step, UnaryStep):
        return ("un", step.op.func, step.source,
                step.output.transposed, step.output.scheme)
    if isinstance(step, RowAggStep):
        return ("ra", step.op.kind, step.strategy, step.source,
                step.output.transposed, step.output.scheme)
    if isinstance(step, (SourceStep, AggregateStep, ScalarComputeStep)):
        return None
    return None  # unknown step kinds are left alone


def _step_token(step: Step) -> str:
    """A canonical, per-step text token covering *every* step kind.

    The CSE key covers the six mergeable kinds; sources and scalar steps
    fall back to their (deterministic) ``str`` form, which carries the
    operator parameters -- including random seeds, so two programs that
    differ only in initialisation hash differently.
    """
    key = step_structural_key(step)
    if key is not None:
        return repr(tuple(str(part) for part in key))
    return str(step)


def _serialise_terms(values: dict[str, object]) -> list[str]:
    """Linearise interned Term DAGs into numbered, shared-node lines.

    Hash-consing makes structurally-equal terms *identical* objects, so a
    memoised walk is linear in the DAG size even when the denoted tree is
    exponential (the validator's SVD observation).  Nodes are numbered in
    first-visit order, which is deterministic given the sorted name order.
    """
    from repro.verify.certify import Term

    node_ids: dict[int, int] = {}
    lines: list[str] = []

    def visit(value: object) -> str:
        if not isinstance(value, Term):
            return repr(value)
        known = node_ids.get(id(value))
        if known is not None:
            return f"#{known}"
        args = [visit(arg) for arg in value.args]
        index = node_ids[id(value)] = len(node_ids)
        lines.append(f"#{index}=({value.head!r} {' '.join(args)})")
        return f"#{index}"

    for name in sorted(values):
        lines.append(f"{name}->{visit(values[name])}")
    return lines


def plan_structural_hash(plan: Plan) -> str:
    """A stable 16-hex-char digest of a plan's structure.

    Folds in, in order: every step's canonical token (topological step
    order -- the planner and optimizer emit deterministically ordered
    steps), the program-output table, the optimizer's cache pins, and the
    symbolic value of every output under the translation validator's
    interned Term semantics.  Stage numbers are deliberately excluded:
    stage assignment is derived from the step list, not structure.
    """
    from repro.verify.certify import value_summary

    digest = hashlib.sha256()
    for step in plan.steps:
        digest.update(_step_token(step).encode())
        digest.update(b"\n")
    for name in sorted(plan.outputs):
        digest.update(f"out {name}={plan.outputs[name]}\n".encode())
    for pin in plan.cache_pins:
        digest.update(f"pin {pin}\n".encode())
    summary = value_summary(plan)
    outputs = {
        name: summary.matrices[instance.name]
        for name, instance in plan.outputs.items()
        if instance.name in summary.matrices
    }
    for line in _serialise_terms(outputs):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def program_fingerprint(program: object, **knobs: object) -> str:
    """The pre-planning cache key: program structure + planner knobs.

    Accepts a :class:`~repro.lang.program.MatrixProgram` or a
    :class:`~repro.frontend.staged.StagedProgram` (fingerprinted as its
    prologue + body + condition + carry wiring).  ``knobs`` should carry
    everything that changes the plan for a fixed program: worker count,
    heuristic toggles, estimation mode, optimize flag, block size.
    Raises :class:`~repro.errors.ProgramError` for objects that cannot be
    serialised (callers treat that as "bypass the cache").
    """
    from repro.frontend.staged import StagedProgram
    from repro.lang.serialize import program_to_json

    digest = hashlib.sha256()
    if isinstance(program, StagedProgram):
        digest.update(b"staged\n")
        digest.update(program.name.encode())
        for label, segment in program.segments():
            digest.update(f"\n[{label}]\n".encode())
            digest.update(program_to_json(segment).encode())
        digest.update(f"\nwhile {program.condition.describe()}\n".encode())
        digest.update(repr(program.carried).encode())
        digest.update(repr(program.matrix_outputs).encode())
        digest.update(repr(program.scalar_outputs).encode())
        digest.update(f"\nmax_segments={program.max_segments}\n".encode())
    else:
        digest.update(program_to_json(program).encode())  # type: ignore[arg-type]
    digest.update(json.dumps(knobs, sort_keys=True, default=repr).encode())
    return digest.hexdigest()[:16]
