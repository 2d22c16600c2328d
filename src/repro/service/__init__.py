"""Batch diagnosis service: extraction cache, scheduler, campaign CLI."""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.service.batch": (
            "BatchConfig",
            "BatchNavigator",
            "CampaignSummary",
            "JourneyCampaignSummary",
            "JourneyOutcome",
            "TraceOutcome",
        ),
        "repro.service.cache": (
            "CacheStats",
            "ExtractionCache",
            "extraction_key",
            "log_digest",
        ),
    },
)

__all__ = [
    "BatchConfig",
    "BatchNavigator",
    "CacheStats",
    "CampaignSummary",
    "ExtractionCache",
    "JourneyCampaignSummary",
    "JourneyOutcome",
    "TraceOutcome",
    "extraction_key",
    "log_digest",
]
