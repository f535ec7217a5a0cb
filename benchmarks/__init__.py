"""Benchmark harness (a package, so its conftest has a stable module name)."""
