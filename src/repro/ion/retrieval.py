"""Retrieval-augmented context construction (the paper's future work 3).

Instead of the fixed issue→context mapping, this module treats every
paragraph of the knowledge base as a retrievable passage and assembles
each prompt's context from the top-k passages for a query derived from
the target issue and the trace's observable features.  The paper lists
"test alternatives to in-context learning like Retrieval-Augmented
Generation (RAG)" as future work; this is that alternative, built on a
dependency-free TF-IDF index so behaviour is deterministic.

The trade-off it exposes (measured by ``bench_ablation_retrieval``):
with enough passages retrieved, diagnosis quality matches the static
mapping; with k too small, prompts can miss the passage naming the key
counters, and the grounded analysis degrades — the cost of retrieval
recall replacing curated mappings.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, replace

from repro.ion.extractor import ExtractionResult
from repro.ion.issues import IssueType
from repro.ion.specs import IssueSpec, all_specs, spec_for

_TOKEN_RE = re.compile(r"[a-z0-9_*]+")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens (underscores kept: counter names matter).

    Two domain normalizations matter: "I/O" becomes the single token
    ``io`` (otherwise it shatters into the stop-word-like fragments
    ``i`` and ``o``), and "MPI-IO" becomes ``mpiio`` (otherwise every
    mention floods the corpus with an extra ``io``).
    """
    normalized = text.lower().replace("mpi-io", "mpiio").replace("i/o", "io")
    return _TOKEN_RE.findall(normalized)


@dataclass(frozen=True)
class Passage:
    """One retrievable knowledge-base paragraph."""

    issue: IssueType
    ordinal: int  # paragraph index within its source context
    text: str

    @property
    def indexed_text(self) -> str:
        """What the index sees: the section title header plus the body.

        Prefixing each chunk with its source section's title is standard
        retrieval practice — paragraphs rarely restate their topic, so
        without the header a paragraph about aggregation never mentions
        'Small I/O Operations' at all.
        """
        return f"{self.issue.title}. {self.text}"


class TfIdfIndex:
    """A small, deterministic TF-IDF index with cosine scoring."""

    def __init__(self, documents: list[str]) -> None:
        self._documents = documents
        self._term_frequencies: list[Counter[str]] = []
        document_frequency: Counter[str] = Counter()
        for document in documents:
            counts = Counter(tokenize(document))
            self._term_frequencies.append(counts)
            document_frequency.update(set(counts))
        total = max(len(documents), 1)
        self._idf = {
            term: math.log((1 + total) / (1 + freq)) + 1.0
            for term, freq in document_frequency.items()
        }
        self._norms = [self._norm(counts) for counts in self._term_frequencies]

    def _weight(self, term: str, count: int) -> float:
        return (1.0 + math.log(count)) * self._idf.get(term, 0.0)

    def _norm(self, counts: Counter[str]) -> float:
        value = math.sqrt(
            sum(self._weight(term, count) ** 2 for term, count in counts.items())
        )
        return value or 1.0

    def score(self, query: str, index: int) -> float:
        """Cosine similarity between ``query`` and document ``index``."""
        query_counts = Counter(tokenize(query))
        if not query_counts:
            return 0.0
        query_norm = self._norm(query_counts) or 1.0
        doc_counts = self._term_frequencies[index]
        dot = 0.0
        for term, count in query_counts.items():
            if term in doc_counts:
                dot += self._weight(term, count) * self._weight(
                    term, doc_counts[term]
                )
        return dot / (query_norm * self._norms[index])

    def search(self, query: str, k: int) -> list[int]:
        """Indices of the top-k documents, best first (stable ties)."""
        scored = sorted(
            range(len(self._documents)),
            key=lambda index: (-self.score(query, index), index),
        )
        return scored[:k]


def build_knowledge_base() -> list[Passage]:
    """Split every issue context into paragraph passages."""
    passages: list[Passage] = []
    for spec in all_specs():
        paragraphs = [
            paragraph.strip()
            for paragraph in spec.context.split("\n\n")
            if paragraph.strip()
        ]
        for ordinal, paragraph in enumerate(paragraphs):
            passages.append(
                Passage(issue=spec.issue, ordinal=ordinal, text=paragraph)
            )
    return passages


class ContextRetriever:
    """Builds per-issue contexts by retrieval instead of fixed mapping."""

    def __init__(self, passages: list[Passage] | None = None) -> None:
        self.passages = passages or build_knowledge_base()
        self._index = TfIdfIndex([p.indexed_text for p in self.passages])

    def query_for(self, issue: IssueType, extraction: ExtractionResult) -> str:
        """Compose the retrieval query from the issue and trace features.

        The issue terms are repeated so they dominate the cosine score;
        module names act as weak secondary signals (a prompt about
        MPI-IO usage should prefer passages naming MPI-IO counters).
        """
        issue_terms = f"{issue.title} {issue.value.replace('_', ' ')}"
        parts = [issue_terms]
        # Module names are added only for the issues that need MPI-IO,
        # where interface usage is the topic; elsewhere they drown the
        # issue terms (every passage mentions POSIX counters somewhere).
        if "MPI-IO" in spec_for(issue).modules:
            parts.extend(sorted(extraction.csv_paths))
        return " ".join(parts)

    def retrieve(
        self, issue: IssueType, extraction: ExtractionResult, k: int = 3
    ) -> IssueSpec:
        """The issue's spec with its context built from the top-k passages.

        Everything else is the registry's (retrieval replaces the
        *knowledge text*, not the file routing, which the paper
        describes as a separate predefined mapping).
        """
        query = self.query_for(issue, extraction)
        hits = self._index.search(query, k)
        text = "\n\n".join(self.passages[index].text for index in hits)
        return replace(spec_for(issue), context=text)

    def retrieval_accuracy(
        self, extraction: ExtractionResult, k: int = 3
    ) -> float:
        """Fraction of issues whose top-k hits include an own passage.

        A diagnostic for the bench: quality degrades exactly when the
        passage carrying the key counter names is not retrieved.
        """
        covered = 0
        for issue in IssueType:
            query = self.query_for(issue, extraction)
            hits = {self.passages[i].issue for i in self._index.search(query, k)}
            if issue in hits:
                covered += 1
        return covered / len(IssueType)
