"""Benchmark harness for voxgs: seeded workloads, end-to-end metrics and layer tracing."""
