"""Plan visualisation: Graphviz DOT export of the Figure-3-style DAG.

Nodes are matrix instances (ellipses, like the paper's figure), edges are
the operators; communicating edges are drawn bold/red and stages become
clusters, so ``dot -Tsvg plan.dot`` reproduces the paper's plan diagrams
for any program.

The per-step-kind drawing rules (edge labels) come from the operator
registry (:mod:`repro.runtime.registry`), so the visualiser no longer
keeps its own isinstance switch over the step kinds: any step the
registry knows can be drawn.

Pass lint ``diagnostics`` (a :class:`repro.lint.LintReport` or any iterable
of :class:`repro.lint.Diagnostic`) to turn the diagram into a lint report:
instances that carry findings are filled (salmon for errors, khaki for
warnings) and their labels list the rule ids.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.core.plan import MatrixInstance, Plan
from repro.runtime.graph import StageGraph
from repro.runtime.registry import spec_for


def plan_to_dot(
    plan: Plan,
    title: str = "DMac execution plan",
    diagnostics: Iterable | None = None,
) -> str:
    """Render a plan as a Graphviz DOT document (stages as clusters).

    With ``diagnostics``, nodes named by a finding's subject are coloured
    by its severity and annotated with the rule id(s).
    """
    available = StageGraph.from_plan(plan).available_stage  # schedules if need be
    findings = _findings_by_subject(diagnostics)

    node_ids: dict[MatrixInstance, str] = {}
    node_stage: dict[MatrixInstance, int] = {}
    edges: list[str] = []
    scalar_nodes: list[tuple[str, int]] = []

    def node(instance: MatrixInstance, stage: int) -> str:
        if instance not in node_ids:
            node_ids[instance] = f"n{len(node_ids)}"
            node_stage[instance] = stage
        return node_ids[instance]

    for step in plan.steps:
        spec = spec_for(step)
        label = spec.edge_label(step)
        output = step.output_instance()
        scalar = step.scalar_output()
        style = _edge_style(step.communicates)
        sources = [node(instance, step.stage) for instance in step.inputs()]
        if output is not None:
            target = node(output, available[output])
            for source in sources:
                edges.append(f'{source} -> {target} [label="{label}"{style}]')
        elif scalar is not None and sources:
            # A matrix-to-scalar reduction: draw the scalar as a box.
            scalar_id = f"s{len(scalar_nodes)}"
            scalar_nodes.append((f'{scalar_id} [label="{scalar}" shape=box]', step.stage))
            for source in sources:
                edges.append(f'{source} -> {scalar_id} [label="{label}"{style}]')
        # else: driver-only arithmetic (scalar-compute) draws nothing.

    by_stage: dict[int, list[str]] = defaultdict(list)
    for instance, ident in node_ids.items():
        by_stage[node_stage[instance]].append(
            _node_declaration(ident, instance, findings.get(str(instance)))
        )
    for declaration, stage in scalar_nodes:
        by_stage[stage].append(declaration)

    lines = [
        "digraph plan {",
        f'  label="{title}";',
        "  rankdir=TB;",
        "  node [fontname=Helvetica];",
    ]
    for stage in sorted(by_stage):
        lines.append(f"  subgraph cluster_stage_{stage} {{")
        lines.append(f'    label="stage {stage}"; style=dashed;')
        for declaration in by_stage[stage]:
            lines.append(f"    {declaration};")
        lines.append("  }")
    for edge in edges:
        lines.append(f"  {edge};")
    lines.append("}")
    return "\n".join(lines)


def _edge_style(communicates: bool) -> str:
    return ' color=red penwidth=2' if communicates else ""


def _findings_by_subject(diagnostics: Iterable | None) -> dict[str, list]:
    """Group lint findings by their subject instance's string form."""
    grouped: dict[str, list] = {}
    for diagnostic in diagnostics or ():
        if diagnostic.subject is not None:
            grouped.setdefault(diagnostic.subject, []).append(diagnostic)
    return grouped


def _node_declaration(ident: str, instance, findings: list | None) -> str:
    """One DOT node; findings colour it and stack rule ids in the label."""
    if not findings:
        return f'{ident} [label="{instance}" shape=ellipse]'
    rules = sorted({d.rule for d in findings})
    severities = {d.severity.value for d in findings}
    color = "lightsalmon" if "error" in severities else "khaki"
    label = f"{instance}\\n{', '.join(rules)}"
    return (
        f'{ident} [label="{label}" shape=ellipse '
        f'style=filled fillcolor={color}]'
    )
