"""Benchmark for torushom: seeded workloads, end-to-end and per-layer metrics."""
