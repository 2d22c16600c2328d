"""Tests for the RAG-style context retriever (paper future work 3)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.evaluation.matching import score_ion
from repro.ion.analyzer import Analyzer, AnalyzerConfig
from repro.ion.issues import IssueType
from repro.ion.retrieval import (
    ContextRetriever,
    Passage,
    TfIdfIndex,
    build_knowledge_base,
    tokenize,
)
from repro.ion.specs import spec_for
from repro.util.errors import AnalysisError


class TestTokenize:
    def test_basic(self):
        assert tokenize("Small I/O requests!") == ["small", "io", "requests"]

    def test_mpiio_normalized(self):
        assert tokenize("MPI-IO layer") == ["mpiio", "layer"]

    def test_counter_names_kept_whole(self):
        assert "posix_file_not_aligned" in tokenize(
            "check POSIX_FILE_NOT_ALIGNED now"
        )

    def test_empty(self):
        assert tokenize("") == []


class TestTfIdfIndex:
    def test_exact_match_ranks_first(self):
        index = TfIdfIndex(
            ["cats purr softly", "dogs bark loudly", "fish swim quietly"]
        )
        assert index.search("dogs bark", k=1) == [1]

    def test_scores_bounded(self):
        index = TfIdfIndex(["alpha beta gamma", "alpha alpha alpha"])
        for i in range(2):
            assert 0.0 <= index.score("alpha beta", i) <= 1.0 + 1e-9

    def test_empty_query_scores_zero(self):
        index = TfIdfIndex(["something"])
        assert index.score("", 0) == 0.0

    def test_rare_terms_weigh_more(self):
        index = TfIdfIndex(
            ["common words common words unicorn", "common words common words"]
        )
        assert index.search("unicorn", k=1) == [0]

    def test_stable_tie_order(self):
        index = TfIdfIndex(["same text", "same text"])
        assert index.search("same", k=2) == [0, 1]


class TestKnowledgeBase:
    def test_every_issue_has_passages(self):
        passages = build_knowledge_base()
        issues = {passage.issue for passage in passages}
        assert issues == set(IssueType)
        assert len(passages) > len(IssueType)  # multiple paragraphs each

    def test_indexed_text_carries_title(self):
        passage = Passage(IssueType.SMALL_IO, 0, "body text")
        assert passage.indexed_text.startswith("Small I/O Operations.")


class TestRetriever:
    def test_right_issue_retrieved_for_every_query(self, easy_extraction):
        retriever = ContextRetriever()
        assert retriever.retrieval_accuracy(easy_extraction, k=2) >= 0.9

    def test_retrieved_context_keeps_module_mapping(self, easy_extraction):
        retriever = ContextRetriever()
        retrieved = retriever.retrieve(IssueType.SMALL_IO, easy_extraction, k=2)
        static = spec_for(IssueType.SMALL_IO)
        # Retrieval replaces the context text and nothing else.
        assert retrieved.context  # non-empty assembled context
        assert replace(retrieved, context=static.context) == static

    def test_k_controls_passage_count(self, easy_extraction):
        retriever = ContextRetriever()
        one = retriever.retrieve(IssueType.MISALIGNED_IO, easy_extraction, k=1)
        three = retriever.retrieve(IssueType.MISALIGNED_IO, easy_extraction, k=3)
        assert len(three.context) > len(one.context)


class TestRagAnalyzer:
    def test_rag_mode_matches_static_on_easy_trace(self, easy_extraction,
                                                   easy_2k_bundle):
        config = AnalyzerConfig(
            context_source="retrieval", retrieval_k=3, summarize=False
        )
        report = Analyzer(config=config).analyze(easy_extraction, "easy")
        score = score_ion(easy_2k_bundle.truth, report)
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_bad_context_source_rejected(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(context_source="astrology")

    def test_bad_k_rejected(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(retrieval_k=0)
