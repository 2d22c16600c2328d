# Convenience wrappers around the tier-1 verification commands.
#
#   make test        default suite (stress tests marked `slow` excluded)
#   make test-slow   only the heavyweight stress tests
#   make test-all    everything
#   make golden      regenerate the golden report snapshots, the
#                    simulated-log digests, the registry-report digests
#                    and the Drishti insight digests
#   make loc         print the line count of src/**/*.py

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test test-slow test-all golden loc

test:
	$(PYTEST) -x

test-slow:
	$(PYTEST) -m slow

test-all:
	$(PYTEST) -m ""

golden:
	ION_REGEN_GOLDEN=1 $(PYTEST) -q tests/test_golden_report.py tests/test_journey_golden.py \
		tests/test_log_digests.py tests/test_report_digests.py \
		tests/test_drishti_digests.py

loc:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l
