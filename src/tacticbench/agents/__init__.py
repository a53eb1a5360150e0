"""Model-driven team systems: the tactics/causal/opponent pipeline, the
chain-of-thought baseline, event-log compaction, and chat clients."""
from .causal import CausalGraph, CausalParseError, CausalRelation, parse_relation_line
from .client import (
    ChatCompletionRequest,
    ChatMessage,
    HttpChatClient,
    MockChatClient,
    TransportError,
)
from .cot import CoTTeamSystem, cot_baseline
from .dedup import DedupMemo, dedup_events
from .mock import default_mock_responder, make_mock_client
from .tacticrafter import (
    FALLBACK_TACTICS_LINE,
    MAX_TACTICS_LINES,
    Checkpoint,
    OpponentTactics,
    PromptTemplates,
    Tactics,
    TactiCrafterSystem,
    TagParseError,
    TeamLog,
    checkpoint_load,
    checkpoint_save,
    compile_program,
    ensure_primitive_coverage,
    extract_tagged,
    opponent_chat_lines,
    render_events,
)
