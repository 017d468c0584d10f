"""Benchmark harness: chat worlds, metrics, per-figure scenarios."""

from .harness import (MODES, ChatWorld, build_chat_world,
                      chat_topology)
from .metrics import (LatencySummary, TimelinePoint, bucket_timeline,
                      percentile, served_by_breakdown, summarise,
                      throughput, timeline)
from .scenarios import (CommitVariantRow, Fig4Point, KStabilityRow,
                        MetadataRow, TimelineResult,
                        ablation_commit_variant, ablation_kstability,
                        ablation_metadata, commit_workload, fig4_curve,
                        fig4_point, fig5_dc_disconnection,
                        fig6_peer_disconnection, fig7_migration)
from .topo import GroupBench, build_group_bench

__all__ = [
    "ChatWorld", "build_chat_world", "chat_topology", "MODES",
    "LatencySummary", "TimelinePoint", "summarise", "throughput",
    "timeline", "bucket_timeline", "percentile", "served_by_breakdown",
    "Fig4Point", "fig4_point", "fig4_curve",
    "TimelineResult", "fig5_dc_disconnection", "fig6_peer_disconnection",
    "fig7_migration",
    "KStabilityRow", "ablation_kstability",
    "CommitVariantRow", "ablation_commit_variant", "commit_workload",
    "GroupBench", "build_group_bench",
    "MetadataRow", "ablation_metadata",
]
