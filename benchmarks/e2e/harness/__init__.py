"""End-to-end benchmark harness: protocol, tracing, workloads, comparison."""
