"""Where the traced run puts its spans, and the per-layer metrics it reports.

Each public function is wrapped at the name its callers bind: a function
imported into a module is patched in that module, a method on its class.
Per-layer metrics are totals over the traced passes divided by the number
of passes, so counts are exact per pass; BENCHMARK.json picks which ones
are reported.  ``<layer>.s`` includes the time
of spans nested inside the layer; ``<layer>.self_s`` leaves them out.
"""
from __future__ import annotations

import tacticbench.agents.cot as tb_cot
import tacticbench.agents.tacticrafter as tb_tacticrafter
import tacticbench.bench as tb_bench
import tacticbench.export as tb_export
import tacticbench.runner as tb_runner
import tacticbench.systems as tb_systems
from tacticbench.agents.client import MockChatClient
from tacticbench.agents.tacticrafter import PromptTemplates, TactiCrafterSystem
from tacticbench.bench import RunFolder
from tacticbench.opponents import BuiltinTeamSystem
from tacticbench.world import WorldState

from spans import Tracer

PURPOSES = ("tactics", "causal", "opponent", "program", "critic")
COUNTERS = (
    "agents.dedup.events_in",
    "agents.dedup.events_out",
    "primitives.execute.ok",
    "agents.regenerations",
    *(f"agents.chat.calls.{p}" for p in PURPOSES),
)


def _dedup(counts, args, kwargs, out) -> None:
    counts["agents.dedup.events_in"] += len(args[0])
    counts["agents.dedup.events_out"] += len(out)


def _chat(counts, args, kwargs, out) -> None:
    counts[f"agents.chat.calls.{args[1].purpose}"] += 1


def _execute(counts, args, kwargs, out) -> None:
    counts["primitives.execute.ok"] += bool(out.ok)


def _generate_program(counts, args, kwargs, out) -> None:
    if kwargs.get("charge_latency", args[2] if len(args) > 2 else False):
        counts["agents.regenerations"] += 1


def install(tracer: Tracer) -> None:
    patches = [
        (tb_runner, "execute", "primitives.execute", _execute),
        (tb_runner, "new_world", "world.new_world", None),
        (tb_systems, "step", "actionlang.step", None),
        (tb_systems, "parse_source", "actionlang.parse_source", None),
        (tb_tacticrafter, "dedup_events", "agents.dedup", _dedup),
        (tb_tacticrafter, "render_events", "agents.render", None),
        (tb_tacticrafter, "render_member_history", "agents.render", None),
        (tb_tacticrafter, "opponent_chat_lines", "agents.render", None),
        (tb_tacticrafter, "parse_source", "actionlang.parse_source", None),
        (tb_tacticrafter, "validate", "actionlang.validate", None),
        (tb_cot, "render_events", "agents.render", None),
        (tb_cot, "parse_source", "actionlang.parse_source", None),
        (tb_cot, "validate", "actionlang.validate", None),
        (WorldState, "observe", "world.observe", None),
        (WorldState, "step_tick", "world.step_tick", None),
        (PromptTemplates, "fill", "agents.prompt_fill", None),
        (MockChatClient, "chat", "agents.chat", _chat),
        (tb_bench, "calibrate_sigma", "bench.calibrate_sigma", None),
        (tb_bench, "run_episode", "runner", None),
        (RunFolder, "write_episode", "bench.write_episode", None),
        (RunFolder, "append_transcripts", "bench.append_transcripts", None),
        (tb_export, "export_all", "export.export_all", None),
        (TactiCrafterSystem, "pre_game", "agents.pre_game", None),
        (TactiCrafterSystem, "next_request", "agents.next_request", None),
        (TactiCrafterSystem, "post_game", "agents.post_game", None),
        (TactiCrafterSystem, "_generate_program", None, _generate_program),
        (BuiltinTeamSystem, "next_request", "opponents.next_request", None),
    ]
    for owner, attr, name, after in patches:
        tracer.patch(owner, attr, name, after)
    tracer.counts.update(dict.fromkeys(COUNTERS, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, scale: float) -> dict[str, float]:
    """Per-pass ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` of every
    span name, every counter, and the two keep/ok ratios.  Times are in
    reference seconds: span seconds times ``scale`` (see ``speed.py``)."""
    out = {}
    totals = tracer.totals()
    for name, (calls, total, own) in totals.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = total * scale / passes
        out[f"{name}.self_s"] = own * scale / passes
    counts = tracer.counts
    for name, value in counts.items():
        out[name] = value / passes
    out["agents.dedup.keep_ratio"] = _ratio(
        counts["agents.dedup.events_out"], counts["agents.dedup.events_in"]
    )
    out["primitives.execute.ok_ratio"] = _ratio(
        counts["primitives.execute.ok"], totals["primitives.execute"][0]
    )
    return out
