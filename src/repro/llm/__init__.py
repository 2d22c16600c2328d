"""LLM substrate: messages, clients, code interpreter, assistants, expert."""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.llm.assistants": ("Assistant", "Run", "RunStatus", "RunStep", "Thread"),
        "repro.llm.client": ("LLMClient", "ScriptedLLM"),
        "repro.llm.expert.model": ("SimulatedExpertLLM",),
        "repro.llm.faults": (
            "FaultEvent",
            "FaultKind",
            "FaultPlan",
            "FaultyCodeInterpreter",
            "FaultyLLMClient",
        ),
        "repro.llm.interpreter": ("CodeInterpreter", "ExecutionResult"),
        "repro.llm.messages": (
            "CodeCall",
            "Completion",
            "Message",
            "Role",
            "transcript",
        ),
        "repro.llm.resilience": ("BackoffPolicy", "BreakerState", "CircuitBreaker"),
    },
)

__all__ = [
    "Assistant",
    "BackoffPolicy",
    "BreakerState",
    "CircuitBreaker",
    "CodeCall",
    "CodeInterpreter",
    "Completion",
    "ExecutionResult",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyCodeInterpreter",
    "FaultyLLMClient",
    "LLMClient",
    "Message",
    "Role",
    "Run",
    "RunStatus",
    "RunStep",
    "ScriptedLLM",
    "SimulatedExpertLLM",
    "Thread",
    "transcript",
]
