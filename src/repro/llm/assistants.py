"""Assistants-API-style orchestration: assistants, threads, runs.

This mirrors the control flow ION gets from the OpenAI Assistants API:
an :class:`Assistant` (instructions + a code-interpreter tool) is run
against a :class:`Thread` of messages; while the model keeps asking to
execute code, the harness runs it, appends the output as a tool
message, and re-invokes the model — up to a debug-retry budget.  The
finished :class:`Run` exposes every step so ION's front end can show
the full reasoning chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.llm.client import LLMClient
from repro.llm.interpreter import CodeInterpreter, ExecutionResult
from repro.llm.messages import Completion, Message
from repro.llm.resilience import time_left
from repro.obs.trace import NullTracer
from repro.util.errors import LLMError


class RunStatus(enum.Enum):
    """Terminal states of a run."""

    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class RunStep:
    """One model turn inside a run, plus its tool execution if any."""

    completion: Completion
    execution: ExecutionResult | None = None


@dataclass
class Run:
    """The full record of executing an assistant over a thread."""

    status: RunStatus
    steps: list[RunStep] = field(default_factory=list)

    @property
    def final_text(self) -> str:
        """The last assistant text (the run's answer)."""
        if not self.steps:
            return ""
        return self.steps[-1].completion.content

    @property
    def code_blocks(self) -> list[str]:
        """Every piece of code the model executed, in order."""
        return [
            step.completion.code_call.code
            for step in self.steps
            if step.completion.code_call is not None
        ]

    @property
    def tool_outputs(self) -> list[str]:
        """Stdout of every code execution, in order."""
        return [
            step.execution.stdout for step in self.steps if step.execution is not None
        ]

    @property
    def debug_rounds(self) -> int:
        """How many code executions ended in an error."""
        return sum(
            1
            for step in self.steps
            if step.execution is not None and not step.execution.ok
        )


@dataclass
class Thread:
    """An append-only message list (one conversation)."""

    messages: list[Message] = field(default_factory=list)

    def add(self, message: Message) -> None:
        self.messages.append(message)


class Assistant:
    """Instructions plus a model plus (optionally) a code interpreter."""

    def __init__(
        self,
        client: LLMClient,
        instructions: str,
        interpreter: CodeInterpreter | None = None,
        max_tool_rounds: int = 6,
        tracer=None,
    ) -> None:
        if max_tool_rounds < 1:
            raise LLMError("max_tool_rounds must be at least 1")
        self.client = client
        self.instructions = instructions
        self.interpreter = interpreter
        self.max_tool_rounds = max_tool_rounds
        self.tracer = tracer or NullTracer()

    def run(self, thread: Thread) -> Run:
        """Drive the model over ``thread`` until it stops calling tools.

        Tool outputs (including failures, rendered as tracebacks) are
        appended to the thread, so the model can debug its own code.
        The run fails if the tool budget is exhausted while the model
        still wants to execute code, or once the calling query's
        deadline (:func:`repro.llm.resilience.time_left`) has passed.
        """
        steps: list[RunStep] = []
        conversation = [Message.system(self.instructions), *thread.messages]
        for round_index in range(self.max_tool_rounds):
            left = time_left()
            if left is not None and left <= 0:
                break
            with self.tracer.span(
                "llm.round", attributes={"round": round_index}
            ) as span:
                completion = self.client.complete(conversation)
                if completion.content:
                    assistant_msg = Message.assistant(completion.content)
                    conversation.append(assistant_msg)
                    thread.add(assistant_msg)
                if not completion.wants_tool:
                    steps.append(RunStep(completion=completion))
                    return Run(status=RunStatus.COMPLETED, steps=steps)
                if self.interpreter is None:
                    raise LLMError(
                        "model requested code execution but the assistant has "
                        "no code interpreter attached"
                    )
                span.set_attribute("tool", "code_interpreter")
                execution = self.interpreter.run(completion.code_call.code)
                span.set_attribute("tool.ok", execution.ok)
                if execution.guard_blocked:
                    span.set_attribute("tool.guard_blocked", True)
                steps.append(RunStep(completion=completion, execution=execution))
                payload = execution.stdout if execution.ok else (
                    f"[execution error]\n{execution.error}"
                )
                tool_msg = Message.tool(payload)
                conversation.append(tool_msg)
                thread.add(tool_msg)
        return Run(status=RunStatus.FAILED, steps=steps)
