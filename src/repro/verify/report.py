"""The aggregate verification entry point: one call, every client.

:func:`verify_plan` builds the plan's stage graph once and feeds all three
framework clients from it: the hazard detector, the memory predictor, and
the translation-validation audit trail the optimizer left on
``plan.certificates``.  The result renders to the CLI's human listing or
``--format json`` document.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Optional, Tuple

from repro.core.plan import Plan
from repro.runtime.graph import StageGraph
from repro.verify.certify import Certificate
from repro.verify.hazards import Hazard, find_hazards
from repro.verify.memory import MemoryPrediction, predict_peak_memory


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Everything static verification can say about one plan."""

    target: str
    num_steps: int
    num_nodes: int
    hazards: Tuple[Hazard, ...]
    certificates: Tuple[Certificate, ...]
    memory: MemoryPrediction

    @property
    def has_errors(self) -> bool:
        """Hazards are errors; certification failures raise before a
        report exists, so they never appear here."""
        return bool(self.hazards)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "num_steps": self.num_steps,
            "num_nodes": self.num_nodes,
            "ok": not self.has_errors,
            "hazards": [
                {
                    "kind": h.kind,
                    "step": h.step,
                    "subject": h.subject,
                    "detail": h.detail,
                }
                for h in self.hazards
            ],
            "certificates": [c.to_json_dict() for c in self.certificates],
            "memory": self.memory.to_json_dict(),
        }

    def to_json_string(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def format_human(self) -> str:
        lines = [
            f"verify {self.target}: {self.num_steps} steps, "
            f"{self.num_nodes} stage-graph nodes"
        ]
        if self.certificates:
            for certificate in self.certificates:
                lines.append(certificate.format_human())
        else:
            lines.append("[certified] no optimizer rewrites to validate")
        memory = self.memory
        lines.append(
            f"[memory] predicted per-worker peak "
            f"{memory.peak_bytes / 1e6:.2f} MB "
            f"(heaviest antichain of up to {memory.concurrency} stages; "
            f"pins {memory.pinned_bytes / 1e6:.2f} MB)"
        )
        if self.hazards:
            for hazard in self.hazards:
                lines.append(f"error: {hazard}")
            lines.append(f"{len(self.hazards)} hazard(s) found")
        else:
            lines.append("[hazards] happens-before covers every publish/consume pair")
        return "\n".join(lines)


def verify_plan(
    plan: Plan,
    *,
    num_workers: int,
    threads_per_worker: int = 8,
    block_size: Optional[int] = None,
    inplace: bool = True,
    max_concurrent_stages: Optional[int] = None,
    estimation_mode: str = "worst",
    target: str = "plan",
) -> VerificationReport:
    """Run the full static verification suite over one (staged) plan."""
    graph = StageGraph.from_plan(plan)
    hazards = tuple(find_hazards(graph))
    memory = predict_peak_memory(
        plan,
        num_workers=num_workers,
        threads_per_worker=threads_per_worker,
        block_size=block_size,
        inplace=inplace,
        max_concurrent_stages=max_concurrent_stages,
        estimation_mode=estimation_mode,
        graph=graph,
    )
    certificates = tuple(
        c for c in plan.certificates if isinstance(c, Certificate)
    )
    return VerificationReport(
        target=target,
        num_steps=len(plan.steps),
        num_nodes=len(graph.nodes),
        hazards=hazards,
        certificates=certificates,
        memory=memory,
    )
