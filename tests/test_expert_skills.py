"""Unit tests for the expert's verdict judgment, branch by branch."""

from __future__ import annotations

import pytest

from repro.ion.issues import IssueType, MitigationNote, Severity
from repro.ion.specs import spec_for
from repro.llm.expert.promptspec import PromptSpec


def spec(**params):
    s = PromptSpec(kind="diagnose", issues=[IssueType.SMALL_IO])
    s.params = {"nprocs": 4, "rpc_size": 4194304, "lustre_stripe_size": 1048576}
    s.params.update(params)
    return s


def verdict(issue, metrics):
    return spec_for(issue).verdict(metrics, spec())


def small_metrics(**overrides):
    metrics = {
        "total_ops": 1000,
        "reads": 500,
        "writes": 500,
        "small_ops": 1000,
        "tiny_ops": 1000,
        "small_fraction": 1.0,
        "tiny_fraction": 1.0,
        "small_reads": 500,
        "small_writes": 500,
        "consec_fraction": 0.0,
        "seq_fraction": 0.0,
        "top_small_file": "/f",
        "top_small_file_share": 0.4,
        "common_access_sizes": [[4096, 1000]],
        "rpc_size": 4194304,
        "stripe_size": 1048576,
        "files": 1,
        "ranks": 4,
    }
    metrics.update(overrides)
    return metrics


class TestSmallIoVerdict:
    def test_no_ops(self):
        v = verdict(IssueType.SMALL_IO, small_metrics(total_ops=0))
        assert v.severity == Severity.OK

    def test_below_threshold_ok(self):
        v = verdict(
            IssueType.SMALL_IO,
            small_metrics(small_fraction=0.05, tiny_fraction=0.05),
        )
        assert v.severity == Severity.OK

    def test_tiny_nonconsecutive_critical(self):
        v = verdict(IssueType.SMALL_IO, small_metrics())
        assert v.severity == Severity.CRITICAL
        assert "cannot be aggregated" in v.conclusion

    def test_tiny_moderate_warning(self):
        v = verdict(
            IssueType.SMALL_IO,
            small_metrics(tiny_fraction=0.6, small_fraction=0.6),
        )
        assert v.severity == Severity.WARNING

    def test_aggregatable_downgraded_with_note(self):
        v = verdict(IssueType.SMALL_IO, small_metrics(consec_fraction=0.99))
        assert v.severity == Severity.INFO
        assert v.mitigations == [MitigationNote.AGGREGATABLE]
        assert "aggregation" in v.conclusion

    def test_stripe_sized_sub_rpc_is_info(self):
        v = verdict(
            IssueType.SMALL_IO,
            small_metrics(tiny_fraction=0.01, small_fraction=1.0),
        )
        assert v.severity == Severity.INFO
        assert not v.mitigations

    def test_worst_file_named_when_dominant(self):
        v = verdict(
            IssueType.SMALL_IO,
            small_metrics(top_small_file_share=0.64, files=2,
                          top_small_file="/data/main.h5"),
        )
        assert "/data/main.h5" in v.conclusion


class TestMisalignedVerdict:
    def _metrics(self, fraction, mem=0.0):
        return {
            "total_ops": 1000,
            "misaligned_ops": int(fraction * 1000),
            "misaligned_fraction": fraction,
            "mem_misaligned_ops": int(mem * 1000),
            "mem_misaligned_fraction": mem,
            "file_alignments": [1048576],
            "stripe_sizes": [1048576],
            "worst_file": "/f",
            "worst_file_fraction": fraction,
            "files": 1,
        }

    def test_aligned_ok(self):
        v = verdict(IssueType.MISALIGNED_IO, self._metrics(0.0))
        assert v.severity == Severity.OK
        assert "0.00%" in v.conclusion

    def test_pervasive_critical(self):
        v = verdict(IssueType.MISALIGNED_IO, self._metrics(0.998))
        assert v.severity == Severity.CRITICAL
        assert "99.80%" in v.conclusion

    def test_moderate_warning(self):
        v = verdict(IssueType.MISALIGNED_IO, self._metrics(0.4))
        assert v.severity == Severity.WARNING

    def test_memory_misalignment_mentioned(self):
        v = verdict(IssueType.MISALIGNED_IO, self._metrics(0.998, mem=0.9))
        assert "Memory" in v.conclusion


class TestRandomVerdict:
    def _metrics(self, **overrides):
        metrics = {
            "source": "dxt",
            "classified_ops": 1000,
            "consecutive_fraction": 0.0,
            "strided_fraction": 0.0,
            "random_fraction": 0.5,
            "random_ops": 500,
            "repeat_ops": 0,
            "repeat_fraction": 0.0,
            "random_reads": 250,
            "random_writes": 250,
            "total_reads": 500,
            "total_writes": 500,
            "random_read_fraction": 0.5,
            "random_write_fraction": 0.5,
            "random_bytes": 10**6,
            "total_bytes": 2 * 10**6,
            "random_bytes_fraction": 0.5,
            "ranks_with_random": 4,
            "mean_random_per_rank": 125.0,
            "max_random_per_rank": 130,
        }
        metrics.update(overrides)
        return metrics

    def test_nothing_classified_ok(self):
        v = verdict(IssueType.RANDOM_ACCESS, self._metrics(classified_ops=0))
        assert v.severity == Severity.OK

    def test_consecutive_ok(self):
        v = verdict(
            IssueType.RANDOM_ACCESS,
            self._metrics(
                random_fraction=0.0, random_read_fraction=0.0,
                random_write_fraction=0.0, consecutive_fraction=0.99,
            ),
        )
        assert v.severity == Severity.OK

    def test_heavy_random_critical(self):
        v = verdict(IssueType.RANDOM_ACCESS, self._metrics())
        assert v.severity == Severity.CRITICAL

    def test_moderate_random_warning(self):
        v = verdict(
            IssueType.RANDOM_ACCESS,
            self._metrics(random_fraction=0.25, random_read_fraction=0.25,
                          random_write_fraction=0.25),
        )
        assert v.severity == Severity.WARNING

    def test_low_volume_info_with_note(self):
        v = verdict(
            IssueType.RANDOM_ACCESS,
            self._metrics(
                random_fraction=0.02, random_read_fraction=0.35,
                random_bytes_fraction=0.01, mean_random_per_rank=9.0,
            ),
        )
        assert v.severity == Severity.INFO
        assert v.mitigations == [MitigationNote.LOW_VOLUME]
        assert "do not affect" in v.conclusion

    def test_repetitive_reaccess_is_not_random(self):
        v = verdict(
            IssueType.RANDOM_ACCESS,
            self._metrics(repeat_fraction=0.95, random_fraction=0.45),
        )
        assert v.severity == Severity.INFO
        assert "repetitive" in v.conclusion


class TestSharedVerdict:
    def _metrics(self, **overrides):
        metrics = {
            "shared_files": 1,
            "shared_file_names": ["/f"],
            "max_ranks_per_file": 4,
            "dxt_available": True,
            "shared_ops": 1000,
            "contended_stripes": 50,
            "contended_ops": 900,
            "contended_fraction": 0.9,
            "max_ranks_per_stripe": 4,
            "boundary_only": False,
        }
        metrics.update(overrides)
        return metrics

    def test_exclusive_files_ok(self):
        v = verdict(IssueType.SHARED_FILE_CONTENTION, self._metrics(shared_files=0))
        assert v.severity == Severity.OK

    def test_no_dxt_info(self):
        v = verdict(
            IssueType.SHARED_FILE_CONTENTION, self._metrics(dxt_available=False)
        )
        assert v.severity == Severity.INFO
        assert "DXT" in v.conclusion

    def test_disjoint_info_with_note(self):
        v = verdict(
            IssueType.SHARED_FILE_CONTENTION,
            self._metrics(contended_stripes=0, contended_ops=0,
                          contended_fraction=0.0),
        )
        assert v.severity == Severity.INFO
        assert v.mitigations == [MitigationNote.NON_OVERLAPPING]

    def test_negligible_fraction_info(self):
        v = verdict(
            IssueType.SHARED_FILE_CONTENTION,
            self._metrics(contended_fraction=0.01, contended_ops=10),
        )
        assert v.severity == Severity.INFO

    def test_boundary_sharing_info(self):
        v = verdict(
            IssueType.SHARED_FILE_CONTENTION,
            self._metrics(boundary_only=True, contended_fraction=0.2,
                          max_ranks_per_stripe=2),
        )
        assert v.severity == Severity.INFO
        assert "boundary" in v.conclusion

    def test_heavy_contention_critical(self):
        v = verdict(IssueType.SHARED_FILE_CONTENTION, self._metrics())
        assert v.severity == Severity.CRITICAL

    def test_moderate_contention_warning(self):
        v = verdict(
            IssueType.SHARED_FILE_CONTENTION,
            self._metrics(contended_fraction=0.3),
        )
        assert v.severity == Severity.WARNING


class TestLoadVerdict:
    def _metrics(self, **overrides):
        metrics = {
            "ranks": 64,
            "byte_imbalance": 0.0,
            "time_imbalance": 0.0,
            "op_imbalance": 0.0,
            "heaviest_rank": 0,
            "heaviest_rank_bytes": 10**6,
            "mean_rank_bytes": 10**6,
            "heavy_ranks": 0,
            "heavy_rank_ids": [],
            "heavy_ops_share": 0.0,
            "total_ops": 1000,
        }
        metrics.update(overrides)
        return metrics

    def test_single_rank_ok(self):
        v = verdict(IssueType.LOAD_IMBALANCE, self._metrics(ranks=1))
        assert v.severity == Severity.OK

    def test_balanced_ok(self):
        v = verdict(IssueType.LOAD_IMBALANCE, self._metrics())
        assert v.severity == Severity.OK

    def test_rank0_critical(self):
        v = verdict(
            IssueType.LOAD_IMBALANCE,
            self._metrics(byte_imbalance=0.99, heavy_ranks=1, heaviest_rank=0,
                          heaviest_rank_bytes=10**9),
        )
        assert v.severity == Severity.CRITICAL
        assert "rank 0" in v.conclusion

    def test_aggregator_subset_info(self):
        v = verdict(
            IssueType.LOAD_IMBALANCE,
            self._metrics(byte_imbalance=0.94, heavy_ranks=8,
                          heavy_ops_share=0.98),
        )
        assert v.severity == Severity.INFO
        assert v.mitigations == [MitigationNote.ALGORITHMIC_SKEW]
        assert "intentional" in v.conclusion

    def test_unstructured_imbalance_warning(self):
        v = verdict(
            IssueType.LOAD_IMBALANCE,
            self._metrics(byte_imbalance=0.5, heavy_ranks=30,
                          heavy_ops_share=0.6, heaviest_rank=17),
        )
        assert v.severity == Severity.WARNING


class TestMetadataVerdict:
    def _metrics(self, **overrides):
        metrics = {
            "opens": 10,
            "stats": 0,
            "seeks": 0,
            "fsyncs": 0,
            "meta_ops": 10,
            "data_ops": 10_000,
            "meta_ratio": 0.001,
            "meta_time": 0.1,
            "data_time": 10.0,
            "meta_time_fraction": 0.01,
            "files": 10,
            "opens_per_file": 1.0,
        }
        metrics.update(overrides)
        return metrics

    def test_quiet_ok(self):
        v = verdict(IssueType.METADATA_LOAD, self._metrics())
        assert v.severity == Severity.OK

    def test_metadata_storm_critical(self):
        v = verdict(
            IssueType.METADATA_LOAD,
            self._metrics(meta_ratio=0.55, meta_time_fraction=0.6,
                          meta_ops=5000, opens=2000, stats=2000),
        )
        assert v.severity == Severity.CRITICAL

    def test_churn_mentioned(self):
        v = verdict(
            IssueType.METADATA_LOAD,
            self._metrics(opens_per_file=12.0, meta_ratio=0.3,
                          meta_time_fraction=0.4),
        )
        assert v.severity in (Severity.WARNING, Severity.CRITICAL)
        assert "reopened" in v.conclusion


class TestInterfaceVerdicts:
    def test_no_mpiio_flagged(self):
        v = verdict(
            IssueType.NO_MPIIO,
            {"nprocs": 4, "posix_ranks": 4, "posix_ops": 1000,
             "mpiio_ops": 0, "uses_mpiio": False},
        )
        assert v.severity == Severity.WARNING
        assert "not employing MPI-IO" in v.conclusion

    def test_mpiio_present_ok(self):
        v = verdict(
            IssueType.NO_MPIIO,
            {"nprocs": 4, "posix_ranks": 4, "posix_ops": 1000,
             "mpiio_ops": 500, "uses_mpiio": True},
        )
        assert v.severity == Severity.OK

    def test_single_rank_ok(self):
        v = verdict(
            IssueType.NO_MPIIO,
            {"nprocs": 1, "posix_ranks": 1, "posix_ops": 10,
             "mpiio_ops": 0, "uses_mpiio": False},
        )
        assert v.severity == Severity.OK

    def test_no_collective_flagged(self):
        v = verdict(
            IssueType.NO_COLLECTIVE,
            {"nprocs": 4, "mpiio_present": True, "collective_ops": 0,
             "independent_ops": 800, "nonblocking_ops": 0,
             "shared_mpiio_files": 1},
        )
        assert v.severity == Severity.WARNING

    def test_collectives_used_ok(self):
        v = verdict(
            IssueType.NO_COLLECTIVE,
            {"nprocs": 4, "mpiio_present": True, "collective_ops": 100,
             "independent_ops": 5, "nonblocking_ops": 0,
             "shared_mpiio_files": 1},
        )
        assert v.severity == Severity.OK

    def test_no_mpiio_module_ok(self):
        v = verdict(
            IssueType.NO_COLLECTIVE,
            {"nprocs": 4, "mpiio_present": False, "collective_ops": 0,
             "independent_ops": 0, "nonblocking_ops": 0,
             "shared_mpiio_files": 0},
        )
        assert v.severity == Severity.OK


class TestRankZeroVerdict:
    def _metrics(self, **overrides):
        metrics = {
            "ranks": 64,
            "rank0_bytes": 10**6,
            "rank0_time": 1.0,
            "rank0_ops": 100,
            "mean_other_bytes": 10**6,
            "mean_other_time": 1.0,
            "rank0_byte_ratio": 1.0,
            "rank0_time_ratio": 1.0,
            "rank0_bytes_share": 1.0 / 64,
        }
        metrics.update(overrides)
        return metrics

    def test_balanced_ok(self):
        v = verdict(IssueType.RANK_ZERO_BOTTLENECK, self._metrics())
        assert v.severity == Severity.OK

    def test_serialized_critical(self):
        v = verdict(
            IssueType.RANK_ZERO_BOTTLENECK,
            self._metrics(rank0_byte_ratio=1000.0, rank0_bytes_share=0.5,
                          rank0_bytes=10**9),
        )
        assert v.severity == Severity.CRITICAL
        assert "fill" in v.conclusion

    def test_aggregator_share_not_flagged(self):
        """An aggregator rank moves more than the (mostly idle) mean but
        holds a small share of total bytes — not a rank-0 bug."""
        v = verdict(
            IssueType.RANK_ZERO_BOTTLENECK,
            self._metrics(rank0_byte_ratio=16.0, rank0_bytes_share=0.016),
        )
        assert v.severity == Severity.OK

    def test_moderate_warning(self):
        v = verdict(
            IssueType.RANK_ZERO_BOTTLENECK,
            self._metrics(rank0_byte_ratio=5.0, rank0_bytes_share=0.4),
        )
        assert v.severity == Severity.WARNING
