"""Model-driven team systems on one base, ``ModelTeam``: the tactics/causal/
opponent pipeline, the chain-of-thought baseline, event-log compaction,
and chat clients."""
from .causal import CausalGraph, CausalParseError, CausalRelation, parse_relation_line
from .client import (
    ChatCompletionRequest,
    ChatMessage,
    HttpChatClient,
    MockChatClient,
    TransportError,
)
from .cot import CoTTeamSystem
from .dedup import DedupMemo, dedup_events
from .mock import default_mock_responder, make_mock_client
from .tacticrafter import (
    FALLBACK_TACTICS_LINE,
    MAX_TACTICS_LINES,
    ModelTeam,
    OpponentTactics,
    PromptTemplates,
    Tactics,
    TactiCrafterSystem,
    TagParseError,
    TeamLog,
    compile_program,
    ensure_primitive_coverage,
    extract_tagged,
    opponent_chat_lines,
    render_events,
)
